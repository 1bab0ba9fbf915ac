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
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

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
from .solver import Frame, SolverConfig, Trajectory, simulate

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
            raise ConfigError(f"duplicate key {key!r} (first set at line {entries[key][1]})",
                              line=lineno)
        entries[key] = (value.strip(), lineno)
    return entries


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


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
    unless given) then applies.  ``attr`` also names the argument of the
    section's constructor that the key sets: that constructor checks the
    value's range, and its ``DomainError.field`` leads back to the key.
    With ``when = (key, value)`` the key applies only while that earlier
    key has that value; setting it otherwise is an unknown-key error.
    """

    name: str
    type: type
    default: Any = None
    attr: str = ""
    choices: tuple[str, ...] = ()
    when: tuple["ConfigKey", str] | None = None

    def __post_init__(self) -> None:
        self.section, _, last = self.name.partition(".")
        self.attr = self.attr or last
        if isinstance(self.default, type):
            self.default = self.default.__dataclass_fields__[self.attr].default

    def error(self, message: str, entries: dict[str, tuple[str, int]]) -> ConfigError:
        line = entries[self.name][1] if self.name in entries else None
        return ConfigError(f"{self.name}: {message}", line=line)

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
        return value


_KIND = ConfigKey("response.kind", str, "monod", choices=("monod", "table"))
_Z_VALUES = ConfigKey("response.z_values", tuple, attr="z", when=(_KIND, "table"))
_G_VALUES = ConfigKey("response.g_values", tuple, attr="g", when=(_KIND, "table"))
_SHAPE = ConfigKey("init.shape", str, "cosine", choices=("cosine", "skewed_cosine"))
_RECORD_TIMES = ConfigKey("solver.record_times", tuple, SolverConfig)
# ``run --profiles``: times that join solver.record_times, checked by its rule.
_PROFILES = ConfigKey("--profiles", tuple, (), attr=_RECORD_TIMES.attr)

# Every config key, in echo order.  Model values carry no dataclass
# default, so theirs are written here.
SCHEMA: tuple[ConfigKey, ...] = (
    ConfigKey("model.d", float, 1.0),
    ConfigKey("model.a11", float, 1.0),
    ConfigKey("model.a12", float, 1.0),
    ConfigKey("model.a22", float, 1.0),
    ConfigKey("model.mu", float, 1.0),
    ConfigKey("model.h0", float, 1.0),
    _KIND,
    ConfigKey("response.a21", float, 2.0, when=(_KIND, "monod")),
    _Z_VALUES,
    _G_VALUES,
    ConfigKey("init.sigma", float, 1.0),
    _SHAPE,
    ConfigKey("init.skew", float, 0.5, when=(_SHAPE, "skewed_cosine")),
    ConfigKey("solver.n_cells", int, SolverConfig),
    ConfigKey("solver.dt_max", float, SolverConfig),
    ConfigKey("solver.t_max", float, SolverConfig),
    ConfigKey("solver.frame_stride", int, SolverConfig),
    _RECORD_TIMES,
    ConfigKey("solver.early_stop", bool, SolverConfig),
    ConfigKey("monitors.bounds", bool, analysis.Monitors),
    ConfigKey("monitors.symmetry", bool, analysis.Monitors),
    ConfigKey("monitors.speed", bool, analysis.Monitors),
    ConfigKey("threshold.tol", float, threshold.BisectConfig, attr="rel_tol"),
    ConfigKey("threshold.hi_factor", float, threshold.BisectConfig, attr="hi_seed_factor"),
    ConfigKey("sweep.sigma", tuple),
    ConfigKey("sweep.mu", tuple),
    ConfigKey("sweep.d", tuple),
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
    sweep: dict[str, tuple[float, ...]]  # axis -> values; an unset axis holds the model's
    echo: dict[str, str] = field(default_factory=dict)


def _section(values: dict[str, Any], section: str) -> dict[str, Any]:
    """The parsed values of one section, keyed by ``ConfigKey.attr``."""
    return {key.attr: values[key.name] for key in SCHEMA
            if key.section == section and key.name in values}


def _build(section: str, entries: dict[str, tuple[str, int]], make: Callable[[], Any]) -> Any:
    """``make()``, with a ``DomainError`` reported on the key of ``section``
    whose ``attr`` is the error's ``field``."""
    try:
        return make()
    except DomainError as exc:
        key = next(k for k in (*SCHEMA, _PROFILES) if k.section == section and k.attr == exc.field)
        raise key.error(str(exc), entries) from None


def build_setup(entries: dict[str, tuple[str, int]]) -> RunSetup:
    values: dict[str, Any] = {}
    for key in SCHEMA:
        if key.when is None or values[key.when[0].name] == key.when[1]:
            values[key.name] = key.read(entries)
    for name, (_, lineno) in entries.items():
        if name not in values:
            raise ConfigError(f"unknown key {name!r}", line=lineno)

    # Each section's constructor checks the ranges of its values.
    params = _build("model", entries, lambda: ModelParams(**_section(values, "model")))

    # response.kind and init.shape name the constructor; the section's other keys are its arguments.
    response = _section(values, "response")
    kind = response.pop("kind")
    if None in response.values():
        raise _KIND.error(f"table needs {_Z_VALUES.name} and {_G_VALUES.name}", entries)
    resp = _build("response", entries, lambda: getattr(InfectionResponse, kind)(**response))

    init_args = _section(values, "init")
    shape = init_args.pop("shape")
    init = _build("init", entries, lambda: getattr(InitialData, shape)(**init_args))

    # The derived first step and t_max are checked too, and t_max is echoed as the run
    # will use it; an unset dt_max (error-controlled steps) is not echoed.
    solver_cfg = _build("solver", entries,
                        lambda: SolverConfig(**_section(values, "solver")).resolved(params))
    values.update((key.name, getattr(solver_cfg, key.attr))
                  for key in SCHEMA if key.section == "solver")
    bisect = _build("threshold", entries,
                    lambda: threshold.BisectConfig(**_section(values, "threshold")))

    sweep = _section(values, "sweep")
    for axis, value in (("sigma", init.sigma), ("mu", params.mu), ("d", params.d)):
        if sweep[axis] is None:
            sweep[axis] = (value,)
    # A sweep value is checked by building the cell parameters it sets.
    _build("sweep", entries, lambda: (
        [params.with_(mu=mu) for mu in sweep["mu"]],
        [params.with_(d=d) for d in sweep["d"]],
        [init.with_sigma(sigma) for sigma in sweep["sigma"]]))
    return RunSetup(
        params=params,
        resp=resp,
        init=init,
        solver=solver_cfg,
        monitor_toggles=_section(values, "monitors"),
        bisect=bisect,
        sweep=sweep,
        # Not echoed: values left unset (such as dt_max) and list keys left empty.
        echo={key.name: _show(values[key.name]) for key in SCHEMA
              if values.get(key.name) is not None
              and not (key.type is tuple and values[key.name] == key.default)},
    )


def load_setup(path: str | None) -> RunSetup:
    if path is None:
        return build_setup({})
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        return build_setup(parse_config_text(text))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: str, rows: Iterable[tuple]) -> None:
    """One line per row; text cells as they are, numbers through :func:`_fmt`."""
    lines = [header]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_trajectory_csv(out: Path, traj: Trajectory) -> Path | None:
    """Write ``out/trajectory.csv``, one row per frame, and return its path;
    write nothing and return None when no frame was recorded."""
    if not traj.frames:
        return None
    path = out / "trajectory.csv"
    _write_csv(path, "t,g,h,width,sup_u,sup_v,mass,mass_residual,r0f,g_speed,h_speed", (
        (f.t, f.g, f.h, f.width, f.sup_w, f.sup_z, f.mass, float(residual),
         f.r0f, f.g_speed, f.h_speed)
        for f, residual in zip(traj.frames, analysis.mass_balance_residual(traj))))
    return path


def write_profiles_csv(path: Path, traj: Trajectory, times: list[float]) -> list[float]:
    """Write the profile of each requested time that has a frame, once per
    frame; return the times the run never reached.  A run lands exactly on
    each record time, so :meth:`Trajectory.frame_at` finds its frame by
    ``==``; a time requested twice is written once."""
    found: dict[float, Frame] = {}
    missing = []
    for target in times:
        frame = traj.frame_at(target)
        if frame is None:
            missing.append(target)
        else:
            found.setdefault(frame.t, frame)
    _write_csv(path, "t,x,u,v", (
        (frame.t, xi, ui, vi)
        for frame in found.values()
        for xi, ui, vi in zip(traj.x_grid(frame), frame.w, frame.z)))
    return missing


def _summary_payload(traj: Trajectory, cls: analysis.Classification,
                     cert: analysis.BoundCertificate, echo: dict[str, str]) -> dict:
    p, resp = traj.params, traj.resp
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
        "config": echo,
    }


def _write_svg(path: Path, title: str, xlabel: str, ylabel: str, x_mid: float, y_mid: float,
               before: list[str], after: list[str]) -> None:
    """One 800x500 SVG page: the title, the ``before`` elements, the axis
    labels centred on (x_mid, y_mid), then the ``after`` elements."""
    page = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500" '
        'viewBox="0 0 800 500">',
        '<rect width="800" height="500" fill="white"/>',
        f'<text x="400" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        *before,
        f'<text x="{x_mid}" y="485" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="16" y="{y_mid}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {y_mid})">{ylabel}</text>',
        *after,
        "</svg>",
    ]
    path.write_text("\n".join(page) + "\n", encoding="utf-8")


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

    parts = [
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
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
    traces = []
    for idx, (label, xs, ys, color) in enumerate(series):
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        traces.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                      'stroke-width="1.5"/>')
        ly = top + 16 * (idx + 1)
        traces.append(f'<line x1="{right - 130}" y1="{ly - 4}" x2="{right - 104}" y2="{ly - 4}" '
                      f'stroke="{color}" stroke-width="2"/>')
        traces.append(f'<text x="{right - 98}" y="{ly}" font-family="sans-serif" '
                      f'font-size="12">{label}</text>')
    _write_svg(path, title, xlabel, ylabel, (left + right) / 2, (top + bottom) / 2,
               parts, traces)


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
    parts = []
    for j in range(n_y):
        for i in range(n_x):
            color = _VERDICT_COLORS[verdicts[j][i]]
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
    legend = []
    for idx, (name, color) in enumerate(_VERDICT_COLORS.items()):
        ly = top + 16 * (idx + 1)
        legend.append(f'<rect x="{right + 10}" y="{ly - 10}" width="12" height="12" '
                      f'fill="{color}"/>')
        legend.append(f'<text x="{right + 28}" y="{ly}" font-family="sans-serif" '
                      f'font-size="12">{name}</text>')
    _write_svg(path, title, xlabel, ylabel, (left + right) / 2, (top + bottom) / 2,
               parts, legend)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    setup = load_setup(args.config)
    profile_times = _PROFILES.read({_PROFILES.name: (args.profiles or "", None)})
    solver_cfg = setup.solver
    if profile_times:
        merged = tuple(sorted(set(solver_cfg.record_times) | set(profile_times)))
        solver_cfg = _build(_PROFILES.section, {},
                            lambda: replace(solver_cfg, record_times=merged))
        # Keep the echoed config faithful to the run actually executed.
        setup.echo[_RECORD_TIMES.name] = _show(merged)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cert = analysis.bound_certificate(setup.params, setup.resp, setup.init)
    try:
        traj, cls = simulate(
            setup.params, setup.resp, setup.init, solver_cfg,
            monitors=analysis.Monitors(cert, **setup.monitor_toggles),
        )
    except (BlowUpError, MonitorViolation) as exc:
        path = write_trajectory_csv(out, exc.trajectory)
        where = f"; last good frames in {path}" if path else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 3 if isinstance(exc, BlowUpError) else 4

    payload = _summary_payload(traj, cls, cert, setup.echo)
    write_trajectory_csv(out, traj)
    _write_json(out / "summary.json", payload)

    if profile_times:
        missing = write_profiles_csv(out / "profiles.csv", traj, profile_times)
        if missing:
            print(f"profiles: no frame at t = {', '.join(map(repr, missing))} "
                  f"(run ended at t = {traj.final.t:.6g})", file=sys.stderr)

    if args.svg:
        t = traj.column("t")
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
        result = threshold.find_threshold(args.target, p, resp, setup.init, setup.solver,
                                          setup.bisect)
    except ThresholdUndefinedError as exc:
        payload = {
            "target": args.target,
            "status": "no_threshold",
            "reason": str(exc),
            "r0": model.basic_reproduction_number(p, resp),
            "config": setup.echo,
        }
        outcome = f"no threshold: {exc}"
    else:
        payload = {
            "target": result.target,
            "status": result.status,
            "bracket": [result.lo, result.hi],
            "midpoint": result.midpoint,
            "rel_width": result.rel_width,
            "n_sims": result.n_sims,
            "monotone_verdicts": result.monotone,
            "probes": [asdict(r) for r in result.probes],
            "config": setup.echo,
        }
        outcome = (f"{args.target}* in [{result.lo:.6g}, {result.hi:.6g}] ({result.status}, "
                   f"{result.n_sims} simulations)")
    _write_json(out / "threshold.json", payload)
    print(outcome)
    print(f"wrote {out / 'threshold.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    setup = load_setup(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    p = setup.params
    sigmas, mus, ds = (setup.sweep[axis] for axis in ("sigma", "mu", "d"))

    param_grid = [p.with_(mu=mu, d=d) for d in ds for mu in mus]
    init_grid = [setup.init.with_sigma(s) for s in sigmas]
    cells = threshold.sweep(param_grid, setup.resp, init_grid, setup.solver)

    labels = [c.verdict.value if c.verdict is not None else "error" for c in cells]
    _write_csv(out / "phase.csv", "d,mu,sigma,verdict,criterion,trigger_time,final_width,error", (
        (c.params.d, c.params.mu, c.sigma, label, c.criterion, c.time, c.final_width,
         (c.error or "").replace(",", ";"))
        for c, label in zip(cells, labels)))
    print(f"wrote {out / 'phase.csv'} ({len(cells)} cells)")

    if args.svg and len(sigmas) > 1 and len(mus) > 1 and len(ds) == 1:
        lookup = {(c.params.mu, c.sigma): label for c, label in zip(cells, labels)}
        verdicts = [[lookup[(mu, s)] for mu in mus] for s in sigmas]
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

    h_star = model.critical_width(p, resp)
    equilibrium = model.endemic_equilibrium(p, resp)
    print(f"R0 = {model.basic_reproduction_number(p, resp):.12g}")
    print(f"R0F(0) = {model.free_boundary_reproduction_number(p, resp, 2.0 * p.h0):.12g}")
    print(f"h* = {'absent (R0 <= 1)' if h_star is None else format(h_star, '.12g')}")
    if equilibrium is None:
        print("equilibrium: absent (R0 <= 1)")
    else:
        print(f"equilibrium: u* = {equilibrium[0]:.12g}, v* = {equilibrium[1]:.12g}")

    # Both certificates check G' at interval endpoints: rigorous for a monotone G' only.
    note = " [heuristic: G' not monotone]" if report.deriv_trend == "mixed" else ""
    small = model.small_data_vanishing_bound(p, resp)
    if small is None:
        print("small-data vanishing bound: absent (R0F(0) >= 1)")
    else:
        print(f"small-data vanishing bound: delta = {small.delta:.12g}, "
              f"eps = {small.eps:.12g}{note}")
    spread = model.spreading_subsolution_delta(p, resp)
    if spread is None:
        print("spreading subsolution delta: absent (R0F(0) <= 1)")
    else:
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
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="flat key=value config file")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--out", default="epifront-out", help="output directory")
    common.add_argument("--svg", action="store_true", help="emit SVG plots")

    sp_run = sub.add_parser("run", parents=[common], help="simulate and classify one scenario")
    sp_run.add_argument("--profiles", default=None,
                        help="comma-separated times for profile snapshots CSV")
    sp_run.set_defaults(handler=cmd_run)

    sp_thr = sub.add_parser("threshold", parents=[common],
                            help="bracket the sharp threshold by bisection")
    sp_thr.add_argument("--target", choices=threshold.TARGETS, default="sigma")
    sp_thr.set_defaults(handler=cmd_threshold)

    sp_sweep = sub.add_parser("sweep", parents=[common], help="classify a parameter grid")
    sp_sweep.set_defaults(handler=cmd_sweep)

    sp_val = sub.add_parser("validate", parents=[config],
                            help="check assumptions and print derived constants")
    sp_val.set_defaults(handler=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EpifrontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BlowUpError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
