"""Print the per-call time of each ensemble step function, of keying one
path's noise generator, and of the model surface's field pushforward and
surface point, of one checkout of this repository, in microseconds, the best
of several timeit rounds.

    python3 tools/step_timings.py /path/to/checkout [--repeat 31]

The checkout's ``src/`` is imported into this process, so run the tool once
per checkout and compare the outputs; on a shared host run it a few times in
alternation.  Each line gives the step, the number of points, their layout
and the best time per call:

- ``heun_stratonovich_step`` and ``ito_euler_step`` on the seven-field
  Brownian problem, ``exact_rotation_step`` with the identity coefficients;
- at 1 point (an 8-vector), and at 8 and 1024 points both in C order and
  points-last (the (n, 8) transposed view of an (8, n) array, with the
  noise likewise, as an ensemble chunk holds them);
- ``heun_stratonovich_step`` and ``ito_euler_step`` on the single-channel
  ``frame:3`` problem (an 8-column generator table) at 8 and 1024 points,
  points-last;
- ``heun_stratonovich_step`` on flow-check's bent field (z1 times the
  first frame field) at 8 points, in C order, and the field's own call
  there: ``cli.bent_field``, or in a checkout without it the
  ``CombinedField`` its flow-check built; and, as the library reference,
  the same field through ``CombinedField`` with a coefficient function;
- one ``flows.heun_refinement_residuals`` call on 8 points for each problem
  of flow-check, the Brownian and the bent one (about 10^4 Heun steps each,
  so these lines take at most FLOW_REPEAT rounds of one call);
- ``IntegratedFlow.apply`` on 8 points for the same two problems, over
  APPLY_STEPS noise steps at flow-check's fine dt, given per step: the Heun
  step as flow-check's flows take it, with the flow's loop around it;
- ``path_generator`` per path: building a new generator
  (``path_generator(seed, i)``), and re-keying an existing one in place
  (``into=``) where the checkout has it;
- the field of ``exotic.pushforward_field`` (the ``frame:1`` field pushed
  through h) and ``ExoticMap.surface_point`` (at those points moved one
  predictor step off the surface), for the ``constant`` scaling and for
  ``bump-smooth``, both at eps 0.2, at 8 points in C order: on the fixed
  (z1, z2) circle, where the conjugation gaps of exotic-compare run them
  (layout ``circle``), and at random sphere points off it (``off-circle``).

At 1024 points glibc may return a step's half-megabyte temporaries to the
system between calls, and back-to-back calls then pay page faults that an
ensemble run does not: on a 2-core Xeon the Heun step read 700-1000 us
here against 250-420 us with ``MALLOC_TRIM_THRESHOLD_=100000000
MALLOC_MMAP_THRESHOLD_=100000000`` in the environment.  Set both to time
the arithmetic.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import timeit
from pathlib import Path

import numpy as np

DT = 0.01
SEED, PATH = 11, 1500  # the path's key block is cached after the first call
FLOW_REPEAT = 5  # rounds of each heun_refinement_residuals line
APPLY_STEPS = 64  # noise steps of each IntegratedFlow.apply line, which prints per step


def first_coordinate(z):
    """Coefficients (z1, 0, ..., 0): z1 times the first frame field."""
    a = np.zeros(z.shape[:-1] + (7,))
    a[..., 0] = z[..., 0]
    return a


def bent_field(scli, sfr):
    """flow-check's bent field as the checkout builds it."""
    return getattr(scli, "bent_field", None) or sfr.CombinedField(first_coordinate)


def points_last(x):
    """The (n, k) transposed view of a (k, n) C-order copy of x."""
    return np.ascontiguousarray(x.T).T


def layouts(n_points):
    """(name, function laying out an (n, k) array) for a batch of n points."""
    if n_points == 1:
        return [("-", lambda x: x[0])]
    return [("C", np.ascontiguousarray), ("points-last", points_last)]


def exotic_cases(sexo, sfr):
    """(name, points, layout, call) for the pushforward and surface points."""
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.0, 2.0 * np.pi, 8)
    circle = np.zeros((8, 8))
    circle[:, 0], circle[:, 1] = np.cos(theta), np.sin(theta)
    off = rng.standard_normal((8, 8))
    off /= np.linalg.norm(off, axis=-1, keepdims=True)
    out = []
    for scaling in ("constant", "bump-smooth"):
        h = sexo.ExoticMap(0.2, scaling)
        push = sexo.pushforward_field(sfr.frame_field(1), h)
        for layout, z in (("circle", circle), ("off-circle", off)):
            gamma = h.forward(z)
            moved = gamma + np.sqrt(DT) * push(gamma)
            out += [(f"pushforward {scaling}", 8, layout, lambda g=gamma, f=push: f(g)),
                    (f"surface_point {scaling}", 8, layout,
                     lambda m=moved, h=h: h.surface_point(m))]
    return out


def cases(sint, sfr, scli):
    """(step name, points, layout, zero-argument call) for every line."""
    rng = np.random.default_rng(0)
    brownian = sint.brownian_problem(np.eye(8)[0])
    frame3 = sint.single_frame_problem(3, np.eye(8)[0])
    coefficients = np.eye(7)
    bent = sint.SdeProblem((bent_field(scli, sfr),), np.eye(8)[0])
    library = sfr.CombinedField(first_coordinate)
    out = []
    for n_points in (1, 8, 1024):
        z = rng.standard_normal((n_points, 8))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        dw = rng.normal(0.0, np.sqrt(DT), (n_points, 7))
        for layout, lay in layouts(n_points):
            zl, dwl = lay(z), lay(dw)
            out += [
                ("heun_stratonovich_step", n_points, layout,
                 lambda zl=zl, dwl=dwl: sint.heun_stratonovich_step(brownian, zl, dwl)),
                ("ito_euler_step", n_points, layout,
                 lambda zl=zl, dwl=dwl: sint.ito_euler_step(brownian, zl, dwl, DT)),
                ("exact_rotation_step", n_points, layout,
                 lambda zl=zl, dwl=dwl: sint.exact_rotation_step(coefficients, zl, dwl)),
            ]
        if n_points > 1:
            zl, dwl = points_last(z), points_last(dw[:, :1])
            out += [
                ("heun_stratonovich_step frame3", n_points, "points-last",
                 lambda zl=zl, dwl=dwl: sint.heun_stratonovich_step(frame3, zl, dwl)),
                ("ito_euler_step frame3", n_points, "points-last",
                 lambda zl=zl, dwl=dwl: sint.ito_euler_step(frame3, zl, dwl, DT)),
            ]
        if n_points == 8:
            out += [("heun_stratonovich_step bent", n_points, "C",
                     lambda z=z, dw=dw[:, :1]: sint.heun_stratonovich_step(bent, z, dw)),
                    ("bent field", n_points, "C",
                     lambda z=z, f=bent.diffusion_fields[0]: f(z)),
                    ("CombinedField z1 U1", n_points, "C", lambda z=z: library(z))]
    out.append(("path_generator new", 1, "-", lambda: sint.path_generator(SEED, PATH)))
    if "into" in inspect.signature(sint.path_generator).parameters:
        rng = sint.path_generator(SEED, 0)
        out.append(("path_generator into", 1, "-",
                    lambda: sint.path_generator(SEED, PATH, into=rng)))
    return out


def flow_problems(sint, sfr, scli):
    """8 sphere points and flow-check's (name, problem) pairs: the Brownian
    and the bent one."""
    rng = np.random.default_rng(2)
    z = rng.standard_normal((8, 8))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    return z, (("brownian", sint.brownian_problem(z[0])),
               ("bent", sint.SdeProblem((bent_field(scli, sfr),), z[0])))


def flow_cases(sint, sfr, sflow, scli):
    """(name, points, layout, call): one refinement per flow-check problem."""
    z, problems = flow_problems(sint, sfr, scli)
    return [(f"heun_refinement_residuals {name}", 8, "C",
             lambda p=problem: sflow.heun_refinement_residuals(p, z, SEED))
            for name, problem in problems]


def apply_cases(sint, sfr, sflow, scli):
    """(name, points, layout, call): IntegratedFlow.apply for each
    flow-check problem, one call of APPLY_STEPS steps."""
    z, problems = flow_problems(sint, sfr, scli)
    out = []
    for name, problem in problems:
        noise = sint.sample_brownian(APPLY_STEPS, sflow.REFINE_DT, problem.n_channels, SEED)
        flow = sflow.IntegratedFlow(problem, noise)
        out.append((f"IntegratedFlow.apply {name} /step", 8, "C", lambda f=flow: f.apply(z)))
    return out


def best_us(call, repeat):
    """Best time per call over ``repeat`` rounds of about 0.01 s each; short
    rounds let the best of them miss the host's busy spells."""
    number, _ = timeit.Timer(call).autorange()  # a round of at least 0.2 s
    number = max(1, number // 20)
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository checkout to time")
    parser.add_argument("--repeat", type=int, default=31, help="timeit rounds per line")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "sevensphere").is_dir():
        parser.error(f"{args.checkout} has no src/sevensphere")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    sys.path.insert(0, str(src))
    from sevensphere import cli as scli
    from sevensphere import exotic as sexo
    from sevensphere import flows as sflow
    from sevensphere import frames as sfr
    from sevensphere import integrators as sint

    lines = [(case, args.repeat, 1)
             for case in cases(sint, sfr, scli) + exotic_cases(sexo, sfr)]
    lines += [(case, args.repeat, APPLY_STEPS) for case in apply_cases(sint, sfr, sflow, scli)]
    lines += [(case, min(args.repeat, FLOW_REPEAT), 1)
              for case in flow_cases(sint, sfr, sflow, scli)]
    print(f"{'step':<36} {'points':>6}  {'layout':<11} {'best_us':>9}")
    for (name, n_points, layout, call), repeat, per in lines:
        print(f"{name:<36} {n_points:>6}  {layout:<11} {best_us(call, repeat) / per:9.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
