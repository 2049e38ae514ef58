"""Every CSV writer against a row-by-row reference: one '%.17g' per value
(ints as decimal), a comma between values and a newline per row.

ROW_BLOCK is shrunk so that every file spans several blocks, and the row
count is not a multiple of the block."""

import io

import numpy as np
import pytest

from sevensphere import cli, exotic, integrators
from sevensphere.exotic import CircleImage
from sevensphere.integrators import EnsembleResult

# -0.0, the smallest subnormal, a huge value and values that need 17 digits
SPECIAL = np.array([-0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0,
                    np.nextafter(1.0, 2.0), 12345678.901234567])


def ref_row(values) -> str:
    return ",".join(str(v) if isinstance(v, (int, np.integer)) else "%.17g" % v
                    for v in values) + "\n"


def values(rng, shape):
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    flat = out.reshape(-1)
    flat[:len(SPECIAL)] = SPECIAL[:flat.size]
    return out


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(integrators, "ROW_BLOCK", 7)


@pytest.fixture
def rng():
    return np.random.default_rng(4)


def test_trajectories_csv(tmp_path, rng):
    times = np.array([0.0, 0.1 + 0.2, 1.0 / 3.0])
    states = values(rng, (5, 3, 8))  # 5 paths of 2 per block: a partial last block
    result = EnsembleResult(times, states)
    fname = tmp_path / "t.csv"
    integrators.write_trajectories_csv(result, fname)
    expected = "path_id,t,z1,z2,z3,z4,z5,z6,z7,z8\n" + "".join(
        ref_row([p, times[j], *states[p, j]]) for p in range(5) for j in range(3))
    assert fname.read_text() == expected


def test_series_csv(tmp_path, rng):
    ints = np.arange(1, 16)
    floats = values(rng, 15)
    listed = [float(v) for v in values(rng, 15)]
    fname = tmp_path / "s.csv"
    cli.write_series_csv(fname, ["k", "a", "b"], [ints, floats, listed])
    expected = "k,a,b\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in zip(ints, floats, listed))
    assert fname.read_text() == expected


def test_circles_csv(tmp_path, rng):
    images = [CircleImage(i, j, values(rng, n), values(rng, (n, 8)), 0.0, 0.0)
              for i, j, n in ((1, 2, 9), (3, 8, 4))]
    fname = tmp_path / "c.csv"
    exotic.write_circles_csv(images, fname)
    expected = "i,j,theta,g1,g2,g3,g4,g5,g6,g7,g8\n" + "".join(
        ref_row([im.i, im.j, theta, *pt]) for im in images
        for theta, pt in zip(im.params, im.points))
    assert fname.read_text() == expected


@pytest.mark.parametrize("value, text", [
    (1e-6, "9.9999999999999995e-07"),
    (9.9999999999999995e-05, "9.9999999999999991e-05"),
], ids=["1e-6", "just-below-1e-4"])
def test_scaled_value_just_below_1e16(tmp_path, value, text):
    # |x| * 10**(16 - k) rounds up to the double 1e16 while the exact
    # product lies below it: the exponent is one lower than the estimate
    fname = tmp_path / "s.csv"
    cli.write_series_csv(fname, ["x"], [[value, -value]])
    assert fname.read_text() == f"x\n{text}\n-{text}\n"


def edge_values(rng):
    """Doubles at the formatter's boundaries, ties, specials and raw bits."""
    ulps = np.arange(-64, 65)
    near = np.concatenate([(np.float64(10.0 ** k).view(np.int64) + ulps).view(np.float64)
                           for k in range(-9, 19)])
    odd = rng.integers(1, 2 ** 21, 600) | 1  # m * 2**-j: ties at the 17th digit
    ties = (odd[:, None] * 2.0 ** -np.arange(61)).ravel()
    special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e300, np.nan, np.inf]
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    signed = np.concatenate([near, special])
    return np.concatenate([signed, -signed, ties, bits])


def test_edge_values_and_integer_columns(monkeypatch, rng):
    monkeypatch.setattr(integrators, "ROW_BLOCK", 1000)
    floats = edge_values(rng)
    floats = np.resize(floats, (-(-floats.size // 8), 8))
    ints = np.resize([0, 9, 10, 99999999, 10 ** 8, 2 ** 53 - 1, -12345], len(floats))
    out = io.StringIO()
    integrators._write_rows(out, np.column_stack([ints, floats]), n_int=1)
    expected = "".join(ref_row([int(i), *row]) for i, row in zip(ints, floats))
    assert out.getvalue() == expected
