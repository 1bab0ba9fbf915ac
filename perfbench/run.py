#!/usr/bin/env python3
"""epifront benchmark: run one workload through ``epifront.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload vanish_long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One repetition is one in-process ``cli.main`` call on a config this script
writes; output checks and hashing run outside the timed region.  With
``--trace 0`` the run times repetitions until ``--seconds`` have passed and
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints a summary table.

The program is imported from ``src/`` of the checkout this file sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import SpanIndex, Tracer
from workloads import WORKLOADS, confirm_mismatches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5      # fresh processes timed per run for setup_s
PROBE_CHUNKS = 7       # host_probe takes the median of this many chunks
PROBE_REF_S = 0.020    # one probe chunk on an uncontended vCPU of a 2-vCPU x86-64 VM
MIN_REPS = 3           # timed repetitions even when --seconds is short
MAX_RUN_S = 150.0      # stop starting repetitions after this, whatever --seconds says
DT_LIMITED = 1.0 - 1e-9

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import epifront.cli
epifront.cli.load_setup(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {Path(__file__).parent.name}/")
    return json.loads(path.read_text(encoding="utf-8"))


def _import_cli():
    if not (SRC / "epifront" / "cli.py").is_file():
        raise BenchError("src/epifront is missing: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import epifront.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "epifront").resolve():
        raise BenchError(f"imported epifront from {cli.__file__}, not from {SRC}")
    return cli


def _hashes(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def host_probe() -> float:
    """Median seconds of a fixed chunk of interpreter-bound work like the
    program's own: small-array numpy calls from a Python loop, and many
    small Python objects gathered into arrays.  It uses neither epifront
    nor the benchmark's other code, so a change to the program cannot move
    it; it measures only how fast the host runs right now.
    """
    import numpy as np

    times = []
    for _ in range(PROBE_CHUNKS):
        start = time.perf_counter()
        a = np.linspace(0.0, 1.0, 257)
        acc = 0.0
        for i in range(1300):
            b = a * 1.0001
            acc += float(np.diff(b).max()) + i * 0.5
            a = np.where(b > 2.0, 0.0, b)
        records = [(float(i), -1.0 - i, 1.0 + i, np.full(4, float(i))) for i in range(3500)]
        for column in range(3):
            acc += float(np.array([r[column] for r in records]).max())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Rescales timings to the reference host speed.

    On a shared 2-vCPU VM the same repetition takes 1x to 2x as long from
    one stretch of tens of seconds to the next, and process CPU time grows
    with it, so neither clock compares across runs made at different
    times.  The probe runs once at the start and after every timed item;
    each timing is multiplied by PROBE_REF_S over the mean of the probes
    just before and just after it, which gives the time the work would
    have taken at the reference speed.
    """

    def __init__(self) -> None:
        self.probes = [host_probe()]

    def scale(self, seconds: float) -> float:
        self.probes.append(host_probe())
        return seconds * PROBE_REF_S / statistics.fmean(self.probes[-2:])


def measure_setup(config: Path, clock: HostClock) -> list[float]:
    """Seconds for fresh processes to import epifront.cli and load the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup process failed:\n{proc.stderr}")
        times.append(clock.scale(float(proc.stdout.split()[-1])))
    return times


@dataclass
class Rep:
    """One repetition: timing, outputs and the problems its checks found."""

    wall: float
    scaled: float          # wall at the reference host speed
    out: Path
    spans: list | None
    problems: list[str]


class Bench:
    def __init__(self, cli, workload: str, seed: int, work: Path):
        build, self.check = WORKLOADS[workload]
        self.cli = cli
        self.clock = HostClock()
        self.seed = seed
        self.scenario = build(seed)
        self.work = work
        self.config = work / "workload.cfg"
        self.config.write_text(self.scenario.config, encoding="utf-8")
        self.reference_hashes: dict[str, str] | None = None
        self.n_reps = 0
        os.environ[cli.THREADS_ENV] = str(self.scenario.threads)

    def rep(self, traced: bool) -> Rep:
        out = self.work / f"out{self.n_reps}"
        self.n_reps += 1
        argv = [*self.scenario.argv, "--config", str(self.config), "--out", str(out)]
        tracer = None
        main = self.cli.main
        if traced:
            tracer = Tracer()
            install_probes(tracer, self.cli)
            main = tracer.wrap("cli.main", main)
        gc.collect()
        sink = io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main(argv)
        except Exception:  # noqa: BLE001 - a failed repetition is counted, not fatal
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        return Rep(wall, self.clock.scale(wall), out, tracer.spans if tracer else None,
                   self._problems(rc, error, out, sink.getvalue()))

    def _problems(self, rc, error, out: Path, printed: str) -> list[str]:
        if error is not None:
            return [f"cli.main raised:\n{error}"]
        if rc != 0:
            return [f"cli.main returned {rc}: {printed.strip()}"]
        try:
            problems = self.check(out, self.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        hashes = _hashes(out)
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        elif hashes != self.reference_hashes:
            changed = sorted(k for k in hashes.keys() | self.reference_hashes.keys()
                             if hashes.get(k) != self.reference_hashes.get(k))
            problems.append(f"outputs differ from the first repetition: {changed}")
        return problems


def install_probes(tracer, cli) -> None:
    """Wrap the public entry points of the model, solver, analysis,
    threshold and cli layers (span names are layer.function)."""
    from epifront import analysis, model, solver, threshold

    def dt_limited(args, kwargs, state):
        config = args[3] if len(args) > 3 else kwargs["config"]
        return state.t - args[0].t < DT_LIMITED * config.dt_max

    def sim_info(args, kwargs, result):
        traj, cls = result
        return (args[0].mu, args[2].sigma, cls.verdict.value, traj.n_steps, len(traj.frames))

    tracer.patch(model.InfectionResponse, "__call__", "model.response")
    tracer.patch(solver, "step", "solver.step", dt_limited)
    tracer.patch(solver, "front_speeds", "solver.front_speeds")
    tracer.patch(analysis, "classify", "analysis.classify", lambda a, k, r: len(a[0].frames))
    tracer.patch(analysis.Monitors, "on_frame", "analysis.monitors")
    tracer.patch(analysis, "mass_balance_residual", "analysis.mass_balance")
    tracer.patch(analysis, "bound_certificate", "analysis.bound_certificate")
    tracer.patch(threshold, "simulate", "threshold.simulate", sim_info)
    tracer.patch(threshold, "sweep", "threshold.sweep")
    tracer.patch(cli, "simulate", "cli.simulate", sim_info)
    tracer.patch(cli, "load_setup", "cli.load_setup")
    for name in WRITERS:
        tracer.patch(cli, name, f"cli.{name}")
    # summary.json, threshold.json and phase.csv are written inline by the
    # subcommands, so the file write itself is a span too.
    tracer.patch(Path, "write_text", "cli.write_text")


WRITERS = ("write_trajectory_csv", "write_profiles_csv", "svg_line_plot", "svg_heatmap")


def layer_metrics(rep: Rep, command: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    ix = SpanIndex(rep.spans)
    m: dict[str, float] = {}

    def per_call_us(name: str) -> float:
        calls = ix.calls(name)
        return ix.busy_s(name) * 1e6 / calls if calls else 0.0

    m["model.response.calls"] = ix.calls("model.response")
    m["model.response.busy_s"] = ix.busy_s("model.response")

    steps = ix.named("solver.step")
    m["solver.step.calls"] = len(steps)
    m["solver.step.busy_s"] = ix.busy_s("solver.step")
    m["solver.step.self_s"] = ix.self_s("solver.step")
    m["solver.step.us_per_call"] = per_call_us("solver.step")
    m["solver.front_speeds.calls"] = ix.calls("solver.front_speeds")
    m["solver.front_speeds.us_per_call"] = per_call_us("solver.front_speeds")
    m["solver.dt_limited_ratio"] = sum(1 for s in steps if s[5]) / len(steps) if steps else 0.0

    sim_names = ("cli.simulate", "threshold.simulate")
    sims = ix.named(*sim_names)
    outside_frames = ("solver.step", "analysis.classify", "analysis.monitors")
    m["solver.simulate.calls"] = len(sims)
    m["solver.simulate.busy_s"] = ix.busy_s(*sim_names)
    m["solver.simulate.self_s"] = sum(ix.self_s(n, outside_frames) for n in sim_names)
    m["solver.frames"] = sum(s[5][4] for s in sims if s[5] is not None)

    classify = ix.named("analysis.classify")
    m["analysis.classify.calls"] = len(classify)
    m["analysis.classify.busy_s"] = ix.busy_s("analysis.classify")
    m["analysis.classify.frames_scanned"] = sum(s[5] for s in classify)
    m["analysis.monitors.calls"] = ix.calls("analysis.monitors")
    m["analysis.monitors.busy_s"] = ix.busy_s("analysis.monitors")
    m["analysis.mass_balance.busy_s"] = ix.busy_s("analysis.mass_balance")
    m["analysis.bound_certificate.busy_s"] = ix.busy_s("analysis.bound_certificate")

    runs = [s[5] for s in ix.named("threshold.simulate") if s[5] is not None]
    m["threshold.sims"] = len(runs)
    m.update(_threshold_counts(rep.out))
    total_steps = sum(r[3] for r in runs)
    m["threshold.wasted_step_ratio"] = _rerun_steps(runs) / total_steps if total_steps else 0.0
    phase = rep.out / "phase.csv"
    m["threshold.sweep.cells"] = (
        len(phase.read_text(encoding="utf-8").splitlines()) - 1 if phase.is_file() else 0
    )
    m["threshold.sweep.busy_s"] = ix.busy_s("threshold.sweep")

    m["cli.main.self_s"] = ix.self_s("cli.main")
    m["cli.load_setup.busy_s"] = ix.busy_s("cli.load_setup")
    m["cli.write.busy_s"] = ix.busy_s(*(f"cli.{w}" for w in WRITERS), "cli.write_text")
    m["cli.write.bytes"] = sum(p.stat().st_size for p in rep.out.rglob("*") if p.is_file())
    m["cli.confirm.sims"] = ix.calls("cli.simulate") if command == "threshold" else 0
    m["cli.confirm.mismatch"] = confirm_mismatches(rep.out)
    m["trace.spans"] = len(rep.spans)
    return m


def _threshold_counts(out: Path) -> dict[str, int]:
    path = out / "threshold.json"
    probes = json.loads(path.read_text(encoding="utf-8"))["probes"] if path.is_file() else []
    return {
        "threshold.probes": len(probes),
        "threshold.extended_probes": sum(1 for p in probes if p["extended"]),
        "threshold.undetermined_probes": sum(1 for p in probes if p["verdict"] == "undetermined"),
    }


def _rerun_steps(runs: list[tuple]) -> int:
    """Steps of simulations that came back undetermined and were run again
    for the same (mu, sigma)."""
    wasted = 0
    for k, (mu, sigma, verdict, n_steps, _) in enumerate(runs):
        if verdict == "undetermined" and any(r[:2] == (mu, sigma) for r in runs[k + 1:]):
            wasted += n_steps
    return wasted


def run_workload(args, spec: dict) -> dict:
    cli = _import_cli()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(Bench(cli, args.workload, args.seed, work), args, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _measure(bench: Bench, args, spec: dict) -> dict:
    started = time.perf_counter()
    setup = [] if args.trace else measure_setup(bench.config, bench.clock)
    deadline = time.perf_counter() + args.seconds
    min_reps = 4 if args.trace else MIN_REPS
    reps: list[Rep] = []
    layer: list[dict[str, float]] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = bench.rep(traced)
        if traced and not rep.problems:
            layer.append(layer_metrics(rep, bench.scenario.argv[0]))
        rep.spans = None
        shutil.rmtree(rep.out, ignore_errors=True)
        reps.append(rep)
        for problem in rep.problems:
            print(f"repetition {len(reps)}: {problem}", file=sys.stderr)
        now = time.perf_counter()
        typical = statistics.median(r.wall for r in reps)
        if len(reps) >= min_reps and (now + typical > deadline or now - started > MAX_RUN_S):
            break

    failed = sum(1 for r in reps if r.problems)
    walls = [r.scaled for r in reps]
    if args.trace:
        traced_walls = walls[1::2]
        metrics = {name: statistics.median_low(m[name] for m in layer)
                   for name in (layer[0] if layer else ())}
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layer]
        if any(c != counts[0] for c in counts):
            print("traced counts differ between repetitions", file=sys.stderr)
            failed = max(failed, 1)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls[::2])
        section = "per_layer"
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(metrics))
    if failed == 0 and missing:
        raise BenchError(f"metrics not computed: {missing}")
    report = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    inputs = ", ".join(f"{k} = {v!r}" for k, v in bench.scenario.inputs.items())
    print(f"workload {args.workload} (seed {args.seed}: {inputs}); "
          f"{len(reps)} repetitions in {time.perf_counter() - started:.1f} s")
    print("  repetition wall times (s), as measured: " + " ".join(f"{r.wall:.3f}" for r in reps))
    print("  host probe (ms):                        "
          + " ".join(f"{p * 1e3:.1f}" for p in bench.clock.probes))
    print("  the same at reference host speed (s):   " + " ".join(f"{w:.3f}" for w in walls))
    for name, entry in report.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    # Printed, not gated: see README.md, "End-to-end metrics".
    if not args.trace:
        print(f"  {'wall_min_s':36s} {min(walls):.6g} s")
    print(f"  {'fail_ratio':36s} {failed / len(reps):.6g} ratio ({failed}/{len(reps)})")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": report}


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; a table, then all results as JSON."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        results[workload] = json.loads(last)
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':36s} {'unit':6s}" + "".join(f" {w:>16s}" for w in results))
    for name in names:
        unit = results[next(iter(results))]["metrics"][name]["unit"]
        print(f"{name:36s} {unit:6s}" + "".join(
            f" {r['metrics'][name]['value']:16.6g}" for r in results.values()))
    print(f"{'fail_ratio':36s} {'ratio':6s}" + "".join(
        f" {r['failed'] / r['attempted']:16.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="0 is the reference scenario")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args, spec)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = run_workload(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
