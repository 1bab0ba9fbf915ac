"""Command-line interface: config ingestion, run orchestration, file emission.

Subcommands: run, threshold, sweep, validate.  Configs are flat
``key = value`` text with dotted sections; :data:`SCHEMA` declares every
key.  Every run is fully deterministic and CSV numbers carry 17
significant digits so refinement studies reproduce exactly.  Plots are
emitted as self-contained SVG.

Exit codes: 0 success (validate: assumptions hold), 1 assumption
failure, 2 bad configuration, 3 numerical blow-up, 4 monitor violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import analysis, model, threshold
from .errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    EpifrontError,
    MonitorViolation,
    ThresholdUndefinedError,
)
from .model import InfectionResponse, InitialData, ModelParams
from .solver import EARLY_STOP_MODES, Frame, SolverConfig, Trajectory, simulate

# epifront no longer reads this variable; the name stays importable for
# scripts that still set it.
THREADS_ENV = "EPIFRONT_THREADS"


def _fmt(x: float) -> str:
    """CSV float format: 17 significant digits."""
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Flat dotted-key config: one ``key = value`` per line, # comments."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("missing key before '='", line=lineno)
        if key in entries:
            raise ConfigError(
                f"duplicate key {key!r} (first set at line {entries[key][1]})",
                key=key,
                line=lineno,
            )
        entries[key] = (value.strip(), lineno)
    return entries


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",")) if text else ()


# value type -> (parser, what the error message says was expected)
_TYPES: dict[type, tuple[Callable[[str], Any], str]] = {
    float: (float, "a number"),
    int: (int, "an integer"),
    bool: (_parse_bool, "true/false"),
    str: (str, "text"),
    tuple: (_parse_floats, "comma-separated numbers"),
}


def _show(value: Any) -> str:
    """Echo format of a config value; floats carry 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


@dataclass
class ConfigKey:
    """One config key ``section.name``.

    ``default`` is either the value used when the key is absent or a
    dataclass, whose default for the field ``attr`` (the key's last part
    unless given) then applies.  ``check`` pairs a predicate on a given
    value with the message shown when it fails.  With ``when = (key,
    value)`` the key applies only while that earlier key has that value;
    setting it otherwise is an unknown-key error.
    """

    name: str
    type: type
    default: Any = None
    attr: str = ""
    choices: tuple[str, ...] = ()
    check: tuple[Callable[[Any], bool], str] | None = None
    when: tuple["ConfigKey", str] | None = None

    def __post_init__(self) -> None:
        self.section, _, last = self.name.partition(".")
        self.attr = self.attr or last
        if isinstance(self.default, type):
            self.default = self.default.__dataclass_fields__[self.attr].default

    def error(self, message: str, entries: dict[str, tuple[str, int]]) -> ConfigError:
        line = entries[self.name][1] if self.name in entries else None
        return ConfigError(f"{self.name}: {message}", key=self.name, line=line)

    def read(self, entries: dict[str, tuple[str, int]]) -> Any:
        if self.name not in entries:
            return self.default
        text = entries[self.name][0]
        parse, expected = _TYPES[self.type]
        try:
            value = parse(text)
        except ValueError:
            raise self.error(f"expected {expected}, got {text!r}", entries) from None
        if self.choices and value not in self.choices:
            raise self.error(f"expected one of {', '.join(self.choices)}; got {value!r}", entries)
        if self.check is not None and not self.check[0](value):
            raise self.error(f"{self.check[1]} (got {value!r})", entries)
        return value


_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "must be a finite positive number")
_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "must be a finite number >= 0")


def _each(check: tuple[Callable[[Any], bool], str]) -> tuple[Callable[[Any], bool], str]:
    """``check`` applied to every value of a list key."""
    return (lambda values: all(map(check[0], values)), f"every value {check[1]}")


_KIND = ConfigKey("response.kind", str, "monod", choices=("monod", "table"))
_Z_VALUES = ConfigKey("response.z_values", tuple, attr="z", when=(_KIND, "table"))
_G_VALUES = ConfigKey("response.g_values", tuple, attr="g", when=(_KIND, "table"))
_SHAPE = ConfigKey("init.shape", str, "cosine", choices=("cosine", "skewed_cosine"))
_RECORD_TIMES = ConfigKey("solver.record_times", tuple, SolverConfig)

# Every config key, in echo order.  Model values carry no dataclass
# default, so theirs are written here.
SCHEMA: tuple[ConfigKey, ...] = (
    ConfigKey("model.d", float, 1.0, check=_POSITIVE),
    ConfigKey("model.a11", float, 1.0, check=_POSITIVE),
    ConfigKey("model.a12", float, 1.0, check=_POSITIVE),
    ConfigKey("model.a22", float, 1.0, check=_POSITIVE),
    ConfigKey("model.mu", float, 1.0, check=_POSITIVE),
    ConfigKey("model.h0", float, 1.0, check=_POSITIVE),
    _KIND,
    ConfigKey("response.a21", float, 2.0, check=_POSITIVE, when=(_KIND, "monod")),
    _Z_VALUES,
    _G_VALUES,
    ConfigKey("init.sigma", float, 1.0, check=_NONNEGATIVE),
    _SHAPE,
    ConfigKey("init.skew", float, 0.5, check=(lambda v: abs(v) < 1.0, "magnitude must be < 1"),
              when=(_SHAPE, "skewed_cosine")),
    ConfigKey("solver.n_cells", int, SolverConfig,
              check=(lambda v: v >= 16 and v % 2 == 0, "must be even and >= 16")),
    ConfigKey("solver.dt_max", float, SolverConfig, check=_POSITIVE),
    ConfigKey("solver.cfl_adv", float, SolverConfig, check=_POSITIVE),
    ConfigKey("solver.front_cfl", float, SolverConfig, check=_POSITIVE),
    ConfigKey("solver.t_max", float, SolverConfig, check=_POSITIVE),
    ConfigKey("solver.frame_stride", int, SolverConfig, check=(lambda v: v >= 1, "must be >= 1")),
    _RECORD_TIMES,
    ConfigKey("solver.early_stop", str, SolverConfig, choices=EARLY_STOP_MODES),
    ConfigKey("monitors.bounds", bool, analysis.Monitors),
    ConfigKey("monitors.symmetry", bool, analysis.Monitors),
    ConfigKey("monitors.speed", bool, analysis.Monitors),
    ConfigKey("threshold.tol", float, threshold.BisectConfig, attr="rel_tol",
              check=(lambda v: 0 < v < 1, "must be in (0, 1)")),
    ConfigKey("threshold.hi_factor", float, threshold.BisectConfig, attr="hi_seed_factor",
              check=_POSITIVE),
    ConfigKey("sweep.sigma", tuple, check=_each(_NONNEGATIVE)),
    ConfigKey("sweep.mu", tuple, check=_each(_POSITIVE)),
    ConfigKey("sweep.d", tuple, check=_each(_POSITIVE)),
)


@dataclass
class RunSetup:
    """Everything a subcommand needs, resolved from a config file."""

    params: ModelParams
    resp: InfectionResponse
    init: InitialData
    solver: SolverConfig
    monitor_toggles: dict[str, bool]
    bisect: threshold.BisectConfig
    sweep_sigma: tuple[float, ...] | None
    sweep_mu: tuple[float, ...] | None
    sweep_d: tuple[float, ...] | None
    echo: dict[str, str] = field(default_factory=dict)


def _section(values: dict[str, Any], section: str) -> dict[str, Any]:
    """The parsed values of one section, keyed by ``ConfigKey.attr``."""
    return {key.attr: values[key.name] for key in SCHEMA
            if key.section == section and key.name in values}


def build_setup(entries: dict[str, tuple[str, int]]) -> RunSetup:
    values: dict[str, Any] = {}
    for key in SCHEMA:
        if key.when is None or values[key.when[0].name] == key.when[1]:
            values[key.name] = key.read(entries)
    for name, (_, lineno) in entries.items():
        if name not in values:
            raise ConfigError(f"unknown key {name!r}", key=name, line=lineno)

    params = ModelParams(**_section(values, "model"))

    response = _section(values, "response")
    kind = response.pop("kind")
    if kind == "monod":
        resp = InfectionResponse.monod(**response)
    elif None in response.values():
        raise ConfigError(f"{_KIND.name} = table needs {_Z_VALUES.name} and {_G_VALUES.name}",
                          key=_KIND.name)
    else:
        try:
            resp = InfectionResponse.table(**response)
        except DomainError as exc:
            raise _Z_VALUES.error(str(exc), entries) from None

    # init.shape names the InitialData constructor; the other init keys are its arguments.
    init_args = _section(values, "init")
    init = getattr(InitialData, init_args.pop("shape"))(h0=params.h0, **init_args)

    try:
        solver_cfg = SolverConfig(**_section(values, "solver")).resolved(params)
    except DomainError as exc:
        raise ConfigError(f"solver configuration invalid: {exc}") from exc
    # Echo the resolved dt_max and t_max that the run will use.
    values.update((key.name, getattr(solver_cfg, key.attr))
                  for key in SCHEMA if key.section == "solver")

    sweep = _section(values, "sweep")
    return RunSetup(
        params=params,
        resp=resp,
        init=init,
        solver=solver_cfg,
        monitor_toggles=_section(values, "monitors"),
        bisect=threshold.BisectConfig(**_section(values, "threshold")),
        sweep_sigma=sweep["sigma"],
        sweep_mu=sweep["mu"],
        sweep_d=sweep["d"],
        # List keys are echoed only when set.
        echo={key.name: _show(values[key.name]) for key in SCHEMA if key.name in values
              and not (key.type is tuple and values[key.name] == key.default)},
    )


def load_setup(path: str | None) -> RunSetup:
    if path is None:
        return build_setup({})
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        return build_setup(parse_config_text(text))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", key=exc.key, line=None) from exc


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def write_trajectory_csv(path: Path, traj: Trajectory, residuals: np.ndarray) -> None:
    columns = ("t", "g", "h", "width", "sup_u", "sup_v", "mass", "mass_residual",
               "r0f", "g_speed", "h_speed")
    lines = [",".join(columns)]
    for k, f in enumerate(traj.frames):
        row = (f.t, f.g, f.h, f.width, f.sup_w, f.sup_z, f.mass, float(residuals[k]),
               f.r0f, f.g_speed, f.h_speed)
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_profiles_csv(path: Path, traj: Trajectory, times: list[float]) -> list[float]:
    """Write the profile of each requested time that has a frame, once per
    frame; return the times the run never reached.  Each time is looked up
    with :meth:`Trajectory.frame_at`, the tolerance within which
    ``simulate`` lands on a record time."""
    y = traj.y_grid()
    found: dict[float, Frame] = {}
    missing = []
    for target in times:
        frame = traj.frame_at(target)
        if frame is None:
            missing.append(target)
        else:
            found.setdefault(frame.t, frame)
    lines = ["t,x,u,v"]
    for frame in found.values():
        x = (y * frame.width + traj.h0 * (frame.h + frame.g)) / (2.0 * traj.h0)
        for xi, ui, vi in zip(x, frame.w, frame.z):
            lines.append(",".join(_fmt(v) for v in (frame.t, xi, ui, vi)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return missing


def _summary_payload(setup: RunSetup, traj: Trajectory, cls: analysis.Classification,
                     cert: analysis.BoundCertificate) -> dict:
    p, resp = setup.params, setup.resp
    equilibrium = model.endemic_equilibrium(p, resp)
    h_star = model.critical_width(p, resp)
    last = traj.final
    return {
        "verdict": cls.verdict.value,
        "evidence": asdict(cls.evidence),
        "r0": model.basic_reproduction_number(p, resp),
        "r0f_initial": model.free_boundary_reproduction_number(p, resp, 2.0 * p.h0),
        "h_star": h_star,
        "equilibrium": None if equilibrium is None else {"u": equilibrium[0], "v": equilibrium[1]},
        "certificate": asdict(cert),
        "run": {
            "n_steps": traj.n_steps,
            "n_frames": len(traj.frames),
            "terminated_by": traj.terminated_by,
            "t_final": last.t,
            "final_width": last.width,
            "final_sup_u": last.sup_w,
            "final_sup_v": last.sup_z,
        },
        "config": setup.echo,
    }


def _svg_header(title: str) -> list[str]:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500" '
        'viewBox="0 0 800 500">',
        '<rect width="800" height="500" fill="white"/>',
        f'<text x="400" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]


def svg_line_plot(path: Path, title: str, xlabel: str, ylabel: str,
                  series: list[tuple[str, np.ndarray, np.ndarray, str]]) -> None:
    """Polyline plot in a fixed 800x500 viewport, no external tooling."""
    left, right, top, bottom = 70.0, 780.0, 40.0, 450.0
    xs_all = np.concatenate([s[1] for s in series])
    ys_all = np.concatenate([s[2] for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = _svg_header(title)
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>'
    )
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>')
    for tick in np.linspace(x_lo, x_hi, 5):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" y2="{bottom + 5}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{bottom + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tick:.4g}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        py = sy(tick)
        parts.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:.4g}</text>')
    parts.append(f'<text x="{(left + right) / 2}" y="485" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(top + bottom) / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {(top + bottom) / 2})">{ylabel}</text>')
    for idx, (label, xs, ys, color) in enumerate(series):
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = top + 16 * (idx + 1)
        parts.append(f'<line x1="{right - 130}" y1="{ly - 4}" x2="{right - 104}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{right - 98}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


_VERDICT_COLORS = {
    "spreading": "#c0392b",
    "vanishing": "#2c6fbb",
    "undetermined": "#999999",
    "error": "#222222",
}


def svg_heatmap(path: Path, title: str, xlabel: str, ylabel: str,
                x_values: list[float], y_values: list[float],
                verdicts: list[list[str]]) -> None:
    left, right, top, bottom = 70.0, 700.0, 40.0, 450.0
    n_x, n_y = len(x_values), len(y_values)
    cell_w = (right - left) / max(1, n_x)
    cell_h = (bottom - top) / max(1, n_y)
    parts = _svg_header(title)
    for j in range(n_y):
        for i in range(n_x):
            color = _VERDICT_COLORS.get(verdicts[j][i], "#222222")
            x = left + i * cell_w
            y = bottom - (j + 1) * cell_h
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                         f'height="{cell_h:.2f}" fill="{color}" stroke="white" '
                         'stroke-width="0.5"/>')
    for i, v in enumerate(x_values):
        px = left + (i + 0.5) * cell_w
        parts.append(f'<text x="{px:.2f}" y="{bottom + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{v:.4g}</text>')
    for j, v in enumerate(y_values):
        py = bottom - (j + 0.5) * cell_h
        parts.append(f'<text x="{left - 6}" y="{py + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{v:.4g}</text>')
    parts.append(f'<text x="{(left + right) / 2}" y="485" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(top + bottom) / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {(top + bottom) / 2})">{ylabel}</text>')
    for idx, (name, color) in enumerate(_VERDICT_COLORS.items()):
        ly = top + 16 * (idx + 1)
        parts.append(f'<rect x="{right + 10}" y="{ly - 10}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{right + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _write_partial(traj: Trajectory | None, setup: RunSetup, out: Path) -> Path | None:
    if traj is None or not traj.frames:
        return None
    path = out / "trajectory.csv"
    residuals = (
        analysis.mass_balance_residual(traj, setup.params)
        if len(traj.frames) >= 2
        else np.zeros(len(traj.frames))
    )
    write_trajectory_csv(path, traj, residuals)
    return path


def cmd_run(args: argparse.Namespace) -> int:
    setup = load_setup(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    profile_times = [float(s) for s in args.profiles.split(",")] if args.profiles else []
    solver_cfg = setup.solver
    if profile_times:
        merged = tuple(sorted(set(solver_cfg.record_times) | set(profile_times)))
        solver_cfg = replace(solver_cfg, record_times=merged)
        # Keep the echoed config faithful to the run actually executed.
        setup.echo[_RECORD_TIMES.name] = _show(merged)

    cert = analysis.bound_certificate(setup.params, setup.resp, setup.init)
    try:
        traj, cls = simulate(
            setup.params, setup.resp, setup.init, solver_cfg,
            monitors=analysis.Monitors(cert, **setup.monitor_toggles),
        )
    except (BlowUpError, MonitorViolation) as exc:
        path = _write_partial(getattr(exc, "trajectory", None), setup, out)
        where = f"; last good frames in {path}" if path else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 3 if isinstance(exc, BlowUpError) else 4

    residuals = analysis.mass_balance_residual(traj, setup.params)
    write_trajectory_csv(out / "trajectory.csv", traj, residuals)

    payload = _summary_payload(setup, traj, cls, cert)
    (out / "summary.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    if profile_times:
        missing = write_profiles_csv(out / "profiles.csv", traj, profile_times)
        if missing:
            print(f"profiles: no frame at t = {', '.join(map(repr, missing))} "
                  f"(run ended at t = {traj.final.t:.6g})", file=sys.stderr)

    if args.svg:
        t = traj.times
        svg_line_plot(
            out / "fronts.svg", "front positions", "t", "x",
            [("h(t)", t, traj.column("h"), "#c0392b"), ("g(t)", t, traj.column("g"), "#2c6fbb")],
        )
        svg_line_plot(
            out / "supnorms.svg", "sup norms", "t", "sup",
            [("sup u", t, traj.column("sup_w"), "#c0392b"),
             ("sup v", t, traj.column("sup_z"), "#2c6fbb")],
        )

    print(f"verdict: {cls.verdict.value} ({cls.evidence.criterion} at t={cls.evidence.time:.6g})")
    print(f"wrote {out / 'trajectory.csv'}")
    print(f"wrote {out / 'summary.json'}")
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    setup = load_setup(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    p, resp = setup.params, setup.resp

    try:
        if args.target == "sigma":
            result = threshold.find_sigma_star(
                p, resp, setup.init.phi, setup.init.psi, setup.solver, setup.bisect
            )
        else:
            result = threshold.find_mu_star(p, resp, setup.init, setup.solver, setup.bisect)
    except ThresholdUndefinedError as exc:
        payload = {
            "target": args.target,
            "status": "no_threshold",
            "reason": str(exc),
            "r0": model.basic_reproduction_number(p, resp),
            "config": setup.echo,
        }
        (out / "threshold.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"no threshold: {exc}")
        print(f"wrote {out / 'threshold.json'}")
        return 0

    confirmations = {}
    if result.status == "bracketed":
        # Each bracket end is a probed value; report the verdict its probe reached.
        verdicts = {r.value: r.verdict.value for r in result.probes}
        confirmations = {"lo": verdicts[result.lo], "hi": verdicts[result.hi]}

    payload = {
        "target": result.target,
        "status": result.status,
        "bracket": [result.lo, result.hi],
        "midpoint": result.midpoint,
        "rel_width": result.rel_width,
        "n_sims": result.n_sims,
        "monotone_verdicts": result.monotone,
        "probes": [asdict(r) for r in result.probes],
        "confirmations": confirmations,
        "bisect": result.config,
        "config": setup.echo,
    }
    (out / "threshold.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"{args.target}* in [{result.lo:.6g}, {result.hi:.6g}] ({result.status}, "
          f"{result.n_sims} simulations)")
    print(f"wrote {out / 'threshold.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    setup = load_setup(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    p = setup.params

    sigmas = setup.sweep_sigma if setup.sweep_sigma is not None else [setup.init.sigma]
    mus = setup.sweep_mu if setup.sweep_mu is not None else [p.mu]
    ds = setup.sweep_d if setup.sweep_d is not None else [p.d]

    param_grid = [p.with_(mu=mu, d=d) for d in ds for mu in mus]
    init_grid = [setup.init.with_sigma(s) for s in sigmas]
    cells = threshold.sweep(param_grid, setup.resp, init_grid, setup.solver)

    lines = ["d,mu,sigma,verdict,criterion,trigger_time,final_width,error"]
    for cell in cells:
        verdict = cell.verdict.value if cell.verdict is not None else "error"
        error = cell.error or ""
        lines.append(",".join((
            _fmt(cell.params.d), _fmt(cell.params.mu), _fmt(cell.sigma), verdict,
            cell.criterion, _fmt(cell.time), _fmt(cell.final_width),
            error.replace(",", ";"),
        )))
    (out / "phase.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out / 'phase.csv'} ({len(cells)} cells)")

    if args.svg and len(sigmas) > 1 and len(mus) > 1 and len(ds) == 1:
        lookup = {(c.params.mu, c.sigma): c for c in cells}
        verdicts = [
            [
                (lookup[(mu, s)].verdict.value if lookup[(mu, s)].verdict else "error")
                for mu in mus
            ]
            for s in sigmas
        ]
        svg_heatmap(out / "phase.svg", "phase diagram", "mu", "sigma", mus, sigmas, verdicts)
        print(f"wrote {out / 'phase.svg'}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    setup = load_setup(args.config)
    p, resp = setup.params, setup.resp
    report = model.validate_response(p, resp)

    print("assumption checks:")
    for check in report.checks:
        mark = "pass" if check.passed else "FAIL"
        print(f"  [{mark}] {check.name}: {check.detail}")
    print(f"  G' trend across probes: {report.deriv_trend}")

    r0 = model.basic_reproduction_number(p, resp)
    r0f0 = model.free_boundary_reproduction_number(p, resp, 2.0 * p.h0)
    h_star = model.critical_width(p, resp)
    equilibrium = model.endemic_equilibrium(p, resp)
    print(f"R0 = {r0:.12g}")
    print(f"R0F(0) = {r0f0:.12g}")
    print(f"h* = {'absent (R0 <= 1)' if h_star is None else format(h_star, '.12g')}")
    if equilibrium is None:
        print("equilibrium: absent (R0 <= 1)")
    else:
        print(f"equilibrium: u* = {equilibrium[0]:.12g}, v* = {equilibrium[1]:.12g}")

    small = model.small_data_vanishing_bound(p, resp, deriv_trend=report.deriv_trend)
    if small is None:
        print("small-data vanishing bound: absent (R0F(0) >= 1)")
    else:
        note = "" if small.endpoint_check_rigorous else " [heuristic: G' not monotone]"
        print(f"small-data vanishing bound: delta = {small.delta:.12g}, "
              f"eps = {small.eps:.12g}{note}")
    spread = model.spreading_subsolution_delta(p, resp, deriv_trend=report.deriv_trend)
    if spread is None:
        print("spreading subsolution delta: absent (R0F(0) <= 1)")
    else:
        note = "" if spread.endpoint_check_rigorous else " [heuristic: G' not monotone]"
        print(f"spreading subsolution delta: {spread.delta:.12g}{note}")

    print("resolved config:")
    for key, value in setup.echo.items():
        print(f"  {key} = {value}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="epifront",
        description="two-front free-boundary epidemic invasion simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", default=None, help="flat key=value config file")
        sp.add_argument("--out", default="epifront-out", help="output directory")
        sp.add_argument("--svg", action="store_true", help="emit SVG plots")

    sp_run = sub.add_parser("run", help="simulate and classify one scenario")
    add_common(sp_run)
    sp_run.add_argument("--profiles", default=None,
                        help="comma-separated times for profile snapshots CSV")
    sp_run.set_defaults(handler=cmd_run)

    sp_thr = sub.add_parser("threshold", help="bracket the sharp threshold by bisection")
    add_common(sp_thr)
    sp_thr.add_argument("--target", choices=("sigma", "mu"), default="sigma")
    sp_thr.set_defaults(handler=cmd_threshold)

    sp_sweep = sub.add_parser("sweep", help="classify a parameter grid")
    add_common(sp_sweep)
    sp_sweep.set_defaults(handler=cmd_sweep)

    sp_val = sub.add_parser("validate", help="check assumptions and print derived constants")
    sp_val.add_argument("--config", default=None, help="flat key=value config file")
    sp_val.set_defaults(handler=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EpifrontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
