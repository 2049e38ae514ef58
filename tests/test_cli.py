import json

import numpy as np
import pytest

from sevensphere import cli


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_print_schema(capsys):
    assert cli.main(["--print-schema"]) == 0
    out = capsys.readouterr().out
    assert "experiment" in out and "seed" in out


def test_missing_config_is_config_error(capsys):
    assert cli.main([]) == 2


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 1\nbogus = 2\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = circles\n")
    assert cli.main(["--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_line_reports_lineno(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = circles\nseed 1\n")
    assert cli.main(["--config", cfg]) == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_experiment_rejected(tmp_path):
    cfg = write_config(tmp_path, "experiment = warp\nseed = 1\n")
    assert cli.main(["--config", cfg]) == 2


def test_frame_verify_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = frame-verify\nseed = 7\nn_points = 300\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--output", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {
        "gram_identity_dev", "tangency_dev", "generator_square_dev",
        "killing_lie_derivative"}
    assert (out / "frame_residuals.csv").exists()
    assert all(c["passed"] for c in doc["checks"])


def test_circles_run_and_artifacts_in_output_dir(tmp_path):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 3\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--output", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    for artifact in doc["artifacts"]:
        assert artifact.startswith(str(out))


def test_simulate_run_with_plots(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "experiment = simulate", "seed = 11", "n_paths = 400",
        "t_final = 0.1", "dt = 0.005", "plots = true", ""]))
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--output", str(out)]) == 0
    assert (out / "trajectories.csv").exists()
    assert (out / "mean_z1.svg").read_text().startswith("<svg")


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, "experiment = simulate\nseed = 1\n"
                                 "n_paths = 50\nt_final = 0.05\ndt = 0.01\n")
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    cli.main(["--config", cfg, "--output", str(out1)])
    cli.main(["--config", cfg, "--output", str(out2), "--seed", "2"])
    cli.main(["--config", cfg, "--output", str(out3), "--seed", "2"])
    a = (out1 / "trajectories.csv").read_bytes()
    b = (out2 / "trajectories.csv").read_bytes()
    c = (out3 / "trajectories.csv").read_bytes()
    assert a != b
    assert b == c
    assert json.loads((out2 / "summary.json").read_text())["config"]["seed"] == 2


def test_byte_identical_across_worker_counts(tmp_path):
    cfg = write_config(tmp_path, "experiment = simulate\nseed = 9\n"
                                 "n_paths = 2500\nt_final = 0.05\ndt = 0.005\n")
    outputs = []
    for k in (1, 4, 8):
        out = tmp_path / f"w{k}"
        assert cli.main(["--config", cfg, "--output", str(out),
                         "--threads", str(k)]) == 0
        outputs.append((out / "trajectories.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_failing_check_exits_one(tmp_path, monkeypatch):
    def failing(cfg, outdir, summary):
        summary.add("always_fails", 1.0, 0.5)

    monkeypatch.setitem(cli.RUNNERS, "circles", failing)
    cfg = write_config(tmp_path, "experiment = circles\nseed = 1\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--output", str(out)]) == 1
    doc = json.loads((out / "summary.json").read_text())
    assert doc["all_passed"] is False


def test_summary_contains_config_echo_and_walltime(tmp_path):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 5\n"
                                 "deformation_eps = 0.15\n")
    out = tmp_path / "out"
    cli.main(["--config", cfg, "--output", str(out)])
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["deformation_eps"] == 0.15
    assert doc["config"]["seed"] == 5
    assert doc["wall_time_s"] > 0
    for check in doc["checks"]:
        assert set(check) == {"name", "value", "tolerance", "passed"}
    assert doc["counters"] == {}  # circles runs no ensemble


@pytest.mark.parametrize("experiment, scheme, positive", [
    ("simulate", "heun", True), ("simulate", "ito_euler", True),
    ("simulate", "exact_rotation", False), ("fp-check", "exact_rotation", False)])
def test_summary_counts_renorm_defect(tmp_path, experiment, scheme, positive):
    cfg = write_config(tmp_path, f"experiment = {experiment}\nseed = 4\n"
                                 f"n_paths = 40\nt_final = 0.05\nscheme = {scheme}\n")
    out = tmp_path / "out"
    cli.main(["--config", cfg, "--output", str(out)])
    doc = json.loads((out / "summary.json").read_text())
    defect = doc["counters"]["max_renorm_defect"]
    assert 0.0 < defect < 1.0 if positive else defect == 0.0
    assert "max_renorm_defect" not in {c["name"] for c in doc["checks"]}


def test_comments_and_blank_lines_ok(tmp_path):
    cfg = write_config(tmp_path, "# a comment\n\nexperiment = circles\nseed = 2\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--output", str(out)]) == 0


@pytest.mark.parametrize("key, value", [("n_paths", "0"), ("dt", "nan"),
                                        ("t_final", "inf"), ("deformation_eps", "nan"),
                                        ("deformation_eps", "0.5"),
                                        ("field", "frame:9"), ("field", "frame:0"),
                                        ("field", "frame:-1"), ("field", "combo:1,2"),
                                        ("field", "frame:x"),
                                        ("field", "combo:1,0,0,0,0,0,nan"),
                                        ("seed", "-1"), ("plots", "maybe")])
def test_config_positive_values_enforced(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, f"experiment = circles\nseed = 1\n{key} = {value}\n")
    assert cli.main(["--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_negative_seed_override_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 1\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out"),
                     "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_entropy_dt_must_divide_save_times(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = entropy\nseed = 1\ndt = 0.03\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "multiples of dt" in capsys.readouterr().err


@pytest.mark.parametrize("value, parsed", [("true", True), ("Yes", True), ("1", True),
                                           ("false", False), ("NO", False), ("0", False)])
def test_plots_accepts_boolean_spellings(value, parsed):
    text = f"experiment = circles\nseed = 1\nplots = {value}\n"
    assert cli.ExperimentConfig.from_text(text).plots is parsed


def test_grid_bins_validation(tmp_path):
    cfg = write_config(tmp_path, "experiment = entropy\nseed = 1\ngrid_bins = 1\n")
    assert cli.main(["--config", cfg]) == 2


def test_entropy_grid_auto_rule():
    assert cli.entropy_grid_bins(1000) == 2
    assert cli.entropy_grid_bins(30000) == 3
    assert cli.entropy_grid_bins(10 ** 5) == 4


def test_simulate_with_frame_and_combo_fields(tmp_path):
    for spec in ("frame:3", "combo:0.6,0,0,0.8,0,0,0"):
        cfg = write_config(tmp_path, "\n".join([
            "experiment = simulate", "seed = 4", f"field = {spec}",
            "n_paths = 100", "t_final = 0.05", "dt = 0.01", "scheme = heun", ""]))
        out = tmp_path / spec.replace(":", "_").replace(",", "-")
        assert cli.main(["--config", cfg, "--output", str(out)]) == 0


def test_bad_field_spec_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = simulate\nseed = 1\nfield = wobble\n")
    out = tmp_path / "out"
    with pytest.raises(cli.ConfigError):
        cli.run(cli.ExperimentConfig.from_text(
            "experiment = simulate\nseed = 1\nfield = wobble\n"), str(out))
