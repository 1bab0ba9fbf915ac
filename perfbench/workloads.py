"""The four benchmark scenarios: config, command line and output checks.

Every scenario uses unit parameters, Monod a21 = 2 and cosine data.  Seed 0
is the reference scenario; any other seed perturbs one input inside a range
that keeps the regime (verdict, status) and the amount of work nearly the
same, so a claim can be rechecked on inputs it was not written against.
README.md in this directory gives the rationale and the per-layer map.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

_HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((_HERE / "expected.json").read_text(encoding="utf-8"))

_BASE = "response.kind = monod\nresponse.a21 = 2\ninit.shape = cosine\n"
_VERDICT_RANK = {"vanishing": 0, "undetermined": 1, "spreading": 2}


@dataclass(frozen=True)
class Scenario:
    """What one repetition runs: ``epifront <argv> --config <cfg> --out <dir>``."""

    argv: tuple[str, ...]
    config: str
    threads: int
    inputs: dict


def _draw(name: str, seed: int, default: float, lo: float, hi: float) -> float:
    if seed == 0:
        return default
    return random.Random(f"{name}:{seed}").uniform(lo, hi)


def _read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


# --- vanish_long -----------------------------------------------------------

def vanish_long(seed: int) -> Scenario:
    sigma = _draw("vanish_long", seed, 0.02, 0.015, 0.025)
    config = _BASE + f"model.h0 = 1\ninit.sigma = {sigma!r}\nsolver.n_cells = 256\n"
    return Scenario(("run",), config, 1, {"init.sigma": sigma})


def check_vanish_long(out: Path, seed: int) -> list[str]:
    verdict = _read_json(out, "summary.json")["verdict"]
    return [] if verdict == "vanishing" else [f"verdict {verdict!r}, expected 'vanishing'"]


# --- recorded_spread -------------------------------------------------------

def recorded_spread(seed: int) -> Scenario:
    sigma = _draw("recorded_spread", seed, 0.3, 0.295, 0.305)
    config = _BASE + (f"model.h0 = 1\ninit.sigma = {sigma!r}\nsolver.n_cells = 256\n"
                      "solver.frame_stride = 1\nsolver.t_max = 8\n"
                      "monitors.bounds = true\nmonitors.symmetry = true\nmonitors.speed = true\n")
    return Scenario(("run", "--svg", "--profiles", "1.0,4.0"), config, 1, {"init.sigma": sigma})


def check_recorded_spread(out: Path, seed: int) -> list[str]:
    problems = []
    verdict = _read_json(out, "summary.json")["verdict"]
    if verdict != "spreading":
        problems.append(f"verdict {verdict!r}, expected 'spreading'")
    for name in ("trajectory.csv", "profiles.csv", "fronts.svg", "supnorms.svg"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


# --- sigma_bracket ---------------------------------------------------------

def sigma_bracket(seed: int) -> Scenario:
    factor = _draw("sigma_bracket", seed, 10.0, 9.9, 10.1)
    config = _BASE + (f"model.h0 = {0.4 * math.pi!r}\nsolver.n_cells = 64\n"
                      "solver.dt_max = 0.04\nsolver.t_max = 60\n"
                      f"threshold.tol = 0.1\nthreshold.hi_factor = {factor!r}\n")
    return Scenario(("threshold", "--target", "sigma"), config, 1,
                    {"threshold.hi_factor": factor})


def check_sigma_bracket(out: Path, seed: int) -> list[str]:
    result = _read_json(out, "threshold.json")
    problems = []
    if result["status"] != "bracketed":
        problems.append(f"status {result['status']!r}, expected 'bracketed'")
    if result.get("monotone_verdicts") is not True:
        problems.append("verdicts not monotone in sigma")
    lo, hi = result["bracket"]
    ref_lo, ref_hi = EXPECTED["sigma_bracket"]["sigma_star_window"]
    if not (lo <= ref_hi and hi >= ref_lo):
        problems.append(f"bracket [{lo}, {hi}] misses reference window [{ref_lo}, {ref_hi}]")
    return problems


def confirm_mismatches(out: Path) -> int:
    """Endpoint confirmations whose verdict differs from the probe that set
    the endpoint (0 when no threshold ran or no confirmation ran)."""
    if not (out / "threshold.json").is_file():
        return 0
    result = _read_json(out, "threshold.json")
    verdicts = {p["value"]: p["verdict"] for p in result["probes"]}
    confirmations = result.get("confirmations") or {}
    return sum(1 for key, value in zip(("lo", "hi"), result["bracket"])
               if key in confirmations and confirmations[key] != verdicts.get(value))


# --- sweep_grid ------------------------------------------------------------

_SWEEP_SIGMA = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
_SWEEP_MU = (0.5, 1.0)


def sweep_grid(seed: int) -> Scenario:
    scale = _draw("sweep_grid", seed, 1.0, 0.9, 1.1)
    sigmas = ",".join(repr(s * scale) for s in _SWEEP_SIGMA)
    config = _BASE + (f"model.h0 = {0.4 * math.pi!r}\nsolver.n_cells = 64\n"
                      "solver.dt_max = 0.005\nsolver.t_max = 20\n"
                      f"sweep.sigma = {sigmas}\nsweep.mu = {','.join(map(repr, _SWEEP_MU))}\n")
    return Scenario(("sweep",), config, 2, {"sigma_scale": scale})


def check_sweep_grid(out: Path, seed: int) -> list[str]:
    lines = (out / "phase.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    table: dict[str, list[tuple[float, str]]] = {}
    for row in rows:
        table.setdefault(row[1], []).append((float(row[2]), row[3]))
    for mu, cells in table.items():
        ranks = [_VERDICT_RANK.get(v, -1) for _, v in sorted(cells)]
        if min(ranks) < 0 or ranks != sorted(ranks):
            problems.append(f"mu={mu}: verdicts not monotone in sigma: {sorted(cells)}")
    if len(rows) != len(_SWEEP_SIGMA) * len(_SWEEP_MU):
        problems.append(f"{len(rows)} cells, expected {len(_SWEEP_SIGMA) * len(_SWEEP_MU)}")
    if seed == 0:
        expected = EXPECTED["sweep_grid"]["verdicts"]
        got = {mu: [v for _, v in sorted(cells)] for mu, cells in table.items()}
        if got != expected:
            problems.append(f"verdict table {got} differs from expected {expected}")
    return problems


WORKLOADS = {
    "vanish_long": (vanish_long, check_vanish_long),
    "recorded_spread": (recorded_spread, check_recorded_spread),
    "sigma_bracket": (sigma_bracket, check_sigma_bracket),
    "sweep_grid": (sweep_grid, check_sweep_grid),
}
