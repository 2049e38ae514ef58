import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sevensphere import cli
from sevensphere.flows import heun_refinement_residuals
from sevensphere.frames import CombinedField
from sevensphere.geometry import random_sphere_point
from sevensphere.integrators import SdeProblem, heun_stratonovich_step
from conftest import assert_same_bits, bent_assigned, points_last


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded by the first path drawn, not by the imports
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, sevensphere, sevensphere.cli; "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_print_schema(capsys):
    assert cli.main(["--print-schema"]) == 0
    out = capsys.readouterr().out
    assert "experiment" in out and "seed" in out
    assert "read by exotic-compare, circles" in out


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
    # fp-check reads neither t_final nor scheme: its weak check always runs
    # exact_rotation to t = 0.1
    text = f"experiment = {experiment}\nseed = 4\nn_paths = 40\n"
    if experiment == "simulate":
        text += f"t_final = 0.05\nscheme = {scheme}\n"
    cfg = write_config(tmp_path, text)
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


CONFIG_ERRORS = [  # (experiment, config lines that it must reject)
    ("simulate", "n_paths = 0"), ("simulate", "dt = nan"), ("simulate", "t_final = inf"),
    ("circles", "deformation_eps = nan"), ("circles", "deformation_eps = 0.5"),
    ("simulate", "field = frame:9"), ("simulate", "field = frame:0"),
    ("simulate", "field = frame:-1"), ("simulate", "field = combo:1,2"),
    ("simulate", "field = frame:x"), ("simulate", "field = combo:1,0,0,0,0,0,nan"),
    ("circles", "seed = -1"), ("simulate", "plots = true"),
    # runs that would take 0 steps: round(0.4 / 1.0) and round(0.5 / 2.0)
    ("simulate", "dt = 1.0\nt_final = 0.4"), ("exotic-compare", "dt = 2.0"),
    # flow-check splits its path in two, so it needs 2 steps: 0 and 1 here
    # (keys in the other order keep the case ids unique)
    ("flow-check", "t_final = 0.4\ndt = 1.0"), ("flow-check", "t_final = 0.4\ndt = 0.3"),
    # one path has no sample standard deviation for the statistical check
    ("simulate", "field = full\nn_paths = 1"), ("fp-check", "n_paths = 1"),
    # (the default dt added in either order keeps the case ids unique)
    ("exotic-compare", "n_paths = 1\ndt = 0.01"), ("entropy", "dt = 0.01\nn_paths = 1"),
    # the pushforward of exotic-compare needs a C1 scaling function
    ("exotic-compare", "scaling = bump-kink"),
    # keys the experiment never reads: fp-check's weak check has its own dt,
    # entropy always runs exact_rotation
    ("fp-check", "dt = 0.001"), ("entropy", "scheme = heun"),
    # 512^7 = 2^63 bins have no flat numpy index (the dt keeps the ids unique)
    ("entropy", "grid_bins = 512"), ("exotic-compare", "dt = 0.01\ngrid_bins = 512"),
]


@pytest.mark.parametrize("experiment, lines", CONFIG_ERRORS,
                         ids=[lines.replace(" = ", "-").replace("\n", "-")
                              for _, lines in CONFIG_ERRORS])
def test_config_positive_values_enforced(tmp_path, capsys, experiment, lines):
    text = f"experiment = {experiment}\n{lines}\n"
    if not lines.startswith("seed"):
        text += "seed = 1\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unread_key_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = exotic-compare\nseed = 1\nt_final = 2\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "line 3: exotic-compare does not read key 't_final'" in capsys.readouterr().err


def test_repeated_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 1\nseed = 2\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "seed" in err


def test_negative_seed_override_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 1\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out"),
                     "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, "experiment = circles\nseed = 1\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out"),
                     "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "threads" in err
    assert not (tmp_path / "out").exists()


def test_entropy_dt_must_divide_save_times(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = entropy\nseed = 1\ndt = 0.03\n")
    assert cli.main(["--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "multiples of dt" in capsys.readouterr().err


def test_grid_bins_validation(tmp_path):
    cfg = write_config(tmp_path, "experiment = entropy\nseed = 1\ngrid_bins = 1\n")
    assert cli.main(["--config", cfg]) == 2


def test_entropy_grid_auto_rule():
    assert cli.entropy_grid_bins(1000) == 2
    assert cli.entropy_grid_bins(30000) == 3
    assert cli.entropy_grid_bins(10 ** 5) == 4


def test_exotic_compare_grid_auto_rule(tmp_path, monkeypatch):
    # grid_bins = 0 sizes exotic-compare's grid by the same rule as entropy's
    grids = []
    estimate_density = cli.sdens.estimate_density

    def spy(samples, grid):
        grids.append(grid.bins)
        return estimate_density(samples, grid)

    monkeypatch.setattr(cli.sdens, "estimate_density", spy)
    cfg = write_config(tmp_path, "experiment = exotic-compare\nseed = 2\n"
                                 "n_paths = 200\nn_points = 20\n")
    cli.main(["--config", cfg, "--output", str(tmp_path / "out")])
    assert grids == [(cli.entropy_grid_bins(200),) * 7] == [(2,) * 7]


def test_simulate_with_frame_and_combo_fields(tmp_path):
    for spec in ("frame:3", "combo:0.6,0,0,0.8,0,0,0"):
        cfg = write_config(tmp_path, "\n".join([
            "experiment = simulate", "seed = 4", f"field = {spec}",
            "n_paths = 100", "t_final = 0.05", "dt = 0.01", "scheme = heun", ""]))
        out = tmp_path / spec.replace(":", "_").replace(",", "-")
        assert cli.main(["--config", cfg, "--output", str(out)]) == 0


def test_single_path_simulate_of_one_frame_is_valid(tmp_path):
    # no statistical check runs for field = frame:<mu>, so one path is enough
    cfg = write_config(tmp_path, "experiment = simulate\nseed = 4\nn_paths = 1\n"
                                 "field = frame:2\nt_final = 0.05\n")
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--output", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text(),
                     parse_constant=lambda name: pytest.fail(f"{name} in summary.json"))
    assert doc["all_passed"] is True


def test_bad_field_spec_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = simulate\nseed = 1\nfield = wobble\n")
    out = tmp_path / "out"
    with pytest.raises(cli.ConfigError):
        cli.run(cli.ExperimentConfig.from_text(
            "experiment = simulate\nseed = 1\nfield = wobble\n"), str(out))


def entropy_config(n_paths, grid_bins, threads, dt=0.05):
    return cli.ExperimentConfig(experiment="entropy", seed=13, n_paths=n_paths, dt=dt,
                                grid_bins=grid_bins, threads=threads)


def entropy_from_stored_states(cfg):
    """The entropy series binned from the whole ensemble's stored states."""
    starts = cli.sgeo.random_cap_point(np.random.default_rng(cfg.seed), np.eye(8)[0], 0.1,
                                       cfg.n_paths)
    result = cli.sint.simulate_ensemble(cli.sint.brownian_problem(np.eye(8)[0]), cfg.n_paths,
                                        cfg.n_steps, cfg.dt, cfg.seed,
                                        scheme="exact_rotation",
                                        save_times=np.array(cli.ENTROPY_TIMES),
                                        threads=cfg.threads, initial_points=starts)
    grid = cli.sdens.GridSpec.uniform(cfg.grid_bins)
    return [cli.sdens.entropy(cli.sdens.estimate_density(result.states[:, j], grid), t=t)
            for j, t in enumerate(cli.ENTROPY_TIMES)]


@pytest.mark.parametrize("grid_bins", [2, 3])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_paths", [2500, cli.sint.REDUCE_BLOCK + 2500])
def test_streamed_entropy_equals_stored_states(tmp_path, monkeypatch, n_paths, threads,
                                               grid_bins):
    # one partial work item, then a full one and a partial one; each ends mid-chunk
    cfg = entropy_config(n_paths, grid_bins, threads)
    expected = entropy_from_stored_states(cfg)
    reports, entropy = [], cli.sdens.entropy

    def spy(d, t=None):
        reports.append(entropy(d, t=t))
        return reports[-1]

    monkeypatch.setattr(cli.sdens, "entropy", spy)
    cli.run(cfg, str(tmp_path))
    assert [r.t for r in reports] == list(cli.ENTROPY_TIMES)
    for got, want in zip(reports, expected):
        for name in ("S", "stderr", "mm_correction", "n_occupied"):
            assert getattr(got, name) == getattr(want, name), (got.t, name)


def test_entropy_counts_occupied_bins_per_saved_time(tmp_path):
    cfg = entropy_config(2500, 3, 1)
    expected = entropy_from_stored_states(cfg)
    cli.run(cfg, str(tmp_path))
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["counters"]["n_occupied"] == [r.n_occupied for r in expected]
    assert 0 < expected[0].n_occupied < expected[-1].n_occupied  # the cap spreads out


def test_exotic_compare_counts_occupied_bins_per_side(tmp_path, monkeypatch):
    reports = {}
    for owner, name in ((cli.sdens, "entropy"), (cli.sexo, "entropy_on_surface")):
        def spy(*args, fn=getattr(owner, name), name=name, **kwargs):
            reports[name] = fn(*args, **kwargs)
            return reports[name]
        monkeypatch.setattr(owner, name, spy)
    cfg = write_config(tmp_path, "experiment = exotic-compare\nseed = 2\nn_paths = 200\n")
    cli.main(["--config", cfg, "--output", str(tmp_path / "out")])
    counters = json.loads((tmp_path / "out" / "summary.json").read_text())["counters"]
    assert counters["n_occupied_sphere"] == reports["entropy"].n_occupied > 0
    assert counters["n_occupied_surface"] == reports["entropy_on_surface"].n_occupied > 0


def test_streamed_entropy_merge_under_thread_switching(tmp_path, monkeypatch):
    # more workers than cores, switching threads every microsecond: a lost
    # merge would drop a block's counts from some saved time
    cfg = entropy_config(4 * cli.sint.REDUCE_BLOCK + 100, 2, 4, dt=0.1)
    expected = entropy_from_stored_states(dataclasses.replace(cfg, threads=1))
    densities, entropy = [], cli.sdens.entropy

    def spy(d, t=None):
        densities.append(d)
        return entropy(d, t=t)

    monkeypatch.setattr(cli.sdens, "entropy", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cli.run(cfg, str(tmp_path))
    finally:
        sys.setswitchinterval(interval)
    assert [int(d.counts.sum()) for d in densities] == [cfg.n_paths] * len(cli.ENTROPY_TIMES)
    for d, want in zip(densities, expected):
        assert entropy(d, t=want.t) == want


def test_streamed_entropy_memory_does_not_grow_with_paths(tmp_path):
    """Traced peak of the entropy run at 16384 paths against 4096 paths, after
    a warm-up run has filled the caches that every run shares.

    The start points, (n, 8) and held through the ensemble, are 64 B per path;
    the old pipeline's saved states alone were 5 x 64 B per path more.  The
    slack covers what is bounded but larger in the larger run: the Philox keys
    of at most 16 cached CHUNK-path blocks (16 B per path) and the merged
    counts of at most 3^7 bins per saved time (16 B per bin)."""
    import tracemalloc

    cli.run(entropy_config(4096, 3, 1, dt=0.1), str(tmp_path / "warm-up"))
    peaks = {}
    for n_paths in (4096, 16384):
        tracemalloc.start()
        try:
            cli.run(entropy_config(n_paths, 3, 1, dt=0.1), str(tmp_path / str(n_paths)))
            peaks[n_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    slack = 16 * cli.sint.CHUNK * 16 + len(cli.ENTROPY_TIMES) * 3 ** 7 * 16
    assert peaks[16384] - peaks[4096] < 64 * (16384 - 4096) + slack, peaks


# --------------------------------------------------------------------------
# flow-check's bent field
# --------------------------------------------------------------------------

E = np.eye(8)
BENT_LAYOUTS = pytest.mark.parametrize("n_points, layout", [
    (1, "C"), (8, "C"), (1024, "C"), (8, "points-last"), (1024, "points-last")])


def bent_points(rng, n_points):
    """Random sphere points; a batch has rows at e1 and -e1, where the
    field's zero coordinates come out as +0.0 and -0.0 before its + 0.0."""
    z = random_sphere_point(rng, n_points)
    if n_points > 1:
        z[:2] = E[0], -E[0]
    return z


@BENT_LAYOUTS
def test_bent_field_equals_combined_field_bitwise(n_points, layout):
    """On the sphere and at the off-sphere predictor points z + V(z) dw that
    the Heun step evaluates it at; one point also as a single 8-vector."""
    rng = np.random.default_rng(n_points)
    lay = points_last if layout == "points-last" else np.asarray
    reference = CombinedField(bent_assigned)
    z = bent_points(rng, n_points)
    moved = z + reference(z) * rng.normal(0.0, 0.3, (n_points, 1)) + 0.0
    for pts in (z, moved, -z):
        assert_same_bits(cli.bent_field(lay(pts)), reference(pts))
    if n_points == 1:
        for pt in (z[0], moved[0], E[0], -E[0]):
            assert_same_bits(cli.bent_field(pt), reference(pt))


@BENT_LAYOUTS
def test_bent_heun_steps_equal_combined_field_steps_bitwise(n_points, layout):
    rng = np.random.default_rng(100 + n_points)
    lay = points_last if layout == "points-last" else np.asarray
    problem = SdeProblem((cli.bent_field,), E[0])
    reference = SdeProblem((CombinedField(bent_assigned),), E[0])
    z = bent_points(rng, n_points)
    for _ in range(4):
        dw = rng.normal(0.0, 0.1, (n_points, 1))
        got = heun_stratonovich_step(problem, lay(z), lay(dw))
        want = heun_stratonovich_step(reference, z, dw)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])
        z = want[0]


def test_bent_refinement_residuals_equal_combined_field_ones():
    """flow-check's round-trip residuals, every Heun step of them."""
    pts = random_sphere_point(np.random.default_rng(7), 8)
    got = heun_refinement_residuals(SdeProblem((cli.bent_field,), pts[0]), pts, 11)
    want = heun_refinement_residuals(SdeProblem((CombinedField(bent_assigned),), pts[0]),
                                     pts, 11)
    assert got == want
