#!/usr/bin/env python3
"""Microseconds per solver step and per frame, min-of-N.

Usage, from the repository root:

    python tools/step_cost.py                 # 7 repeats of 200 calls
    python tools/step_cost.py --repeats 1 --calls 5

For n = 64 and 256 cells and B = 1, 5 and 16 members, a repeat times
``--calls`` consecutive ``solver._step_batch`` calls on one batch and
divides by their number; the line shows the least of ``--repeats`` such
figures.  Each batch is set up outside the timed calls the way
``solver.simulate_batch`` sets one up: its runs, then ``solver._block``
of them, the (2, B, n+1) field block and the interior y-nodes.  The
``controlled`` line times ``solver._controlled_step`` (three stepper
calls plus the error norm and the extrapolation) on a one-member batch,
and the ``frame`` lines time ``solver._frame`` on the initial state of a
one-member batch, in the same way.  Each batch runs the unit model
(every rate, d, mu and h0 equal to 1) with a Monod response, from cosine
data of scales spread over [0.5, 1.5].  The stepper lines cap every step
at 1e-3, which is 1e-3 h0^2/d, the first step of an unset dt_max; the
``controlled`` line caps each attempt at the member's ``next_dt``, as the
run loop does away from a record time.  The stepper cuts either cap to
the front CFL limit.  Taking the minimum discards the runs slowed by
other work on the machine.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epifront import solver  # noqa: E402
from epifront.model import InfectionResponse, InitialData, ModelParams  # noqa: E402

CELLS = (64, 256)
MEMBERS = (1, 5, 16)
CONTROLLED_CELLS = 256  # the controlled-step line runs one member on this many cells


def _batch(n: int, size: int):
    """Runs, field block and interior y-nodes of a fresh batch of the unit
    model, each run's ``next_dt`` at the first step 1e-3 h0^2/d = 1e-3."""
    p = ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=1.0)
    resp = InfectionResponse.monod(2.0)
    config = solver.SolverConfig(n_cells=n).resolved(p)
    runs = []
    for k in range(size):
        init = InitialData.cosine(0.5 + k / max(1, size - 1))
        start = solver.initial_state(p, resp, init, n)
        runs.append(solver._Run(solver.Trajectory(p, resp, [start]), config,
                                start.t, start.g, start.h, next_dt=config.first_step(p)))
    return runs, *solver._block(runs, n)


def _min_us(fn, calls: int, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def step_cost(n: int, size: int, calls: int, repeats: int) -> float:
    runs, f, y = _batch(n, size)
    caps = [1e-3] * size
    block = [f]

    def one_step():
        block[0], failed = solver._step_batch(runs, block[0], y, caps)
        if failed:
            raise RuntimeError(f"member failed while timing: {failed}")

    return _min_us(one_step, calls, repeats)


def controlled_cost(n: int, calls: int, repeats: int) -> float:
    """One attempted error-controlled step, accepted or rejected."""
    runs, f, y = _batch(n, 1)
    block = [f]

    def one_step():
        block[0], failed, _ = solver._controlled_step(runs, block[0], y, [runs[0].next_dt])
        if failed:
            raise RuntimeError(f"member failed while timing: {failed}")

    return _min_us(one_step, calls, repeats)


def frame_cost(n: int, calls: int, repeats: int) -> float:
    (run,), f, _ = _batch(n, 1)
    p, resp = run.traj.params, run.traj.resp
    return _min_us(lambda: solver._frame(p, resp, run.t, run.g, run.h, f[0, 0], f[1, 0], 0.0),
                   calls, repeats)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats; the least counts")
    parser.add_argument("--calls", type=int, default=200, help="calls per timed repeat")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.calls < 1:
        parser.error("--repeats and --calls must be >= 1")
    print(f"min of {args.repeats} x {args.calls} calls, us per call")
    for n in CELLS:
        for size in MEMBERS:
            us = step_cost(n, size, args.calls, args.repeats)
            print(f"step   n={n:<4d} B={size:<3d} {us:9.1f}")
    us = controlled_cost(CONTROLLED_CELLS, args.calls, args.repeats)
    print(f"controlled n={CONTROLLED_CELLS:<4d} B=1 {us:9.1f}")
    for n in CELLS:
        print(f"frame  n={n:<4d}       {frame_cost(n, args.calls, args.repeats):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
