"""Checks on the source text of the package itself, on the names the
benchmark in ``perfbench/`` patches and the values its trace hooks read,
on the scipy modules the package imports, and on the names the README's
Python example imports.

The unread-field scan matches fields by name: a field that shares its
name with a field that is read somewhere cannot be seen
(``SpreadingBound.lambda0`` hid behind ``SmallDataBound.lambda0`` that way).
"""

import ast
import dataclasses
import functools
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from epifront import InitialData, analysis, cli, solver, threshold
from epifront.analysis import Monitors
from epifront.threshold import BisectConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "epifront"
# Dataclasses the cli writes out whole with ``asdict``: every field reaches a file.
SERIALIZED = {"Evidence", "BoundCertificate", "ProbeRecord"}


def unread_parameters(source: str) -> list[str]:
    """``function(param)`` for every parameter, other than self/cls, that
    the function's body (nested functions included) never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({name})" for name in params
                  if name not in ("self", "cls") and name not in read]
    return found


def unused_imports(source: str) -> list[str]:
    """Every name a module imports, other than from ``__future__``, that it
    never loads, in its code or in a string annotation."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    quoted = [ast.parse(node.value, mode="eval") for annotation in annotations
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for root in (tree, *quoted) for node in ast.walk(root)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in used]


def test_scan_flags_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from typing import Any, Callable\nfrom x import kept, dead\n"
              "def f(a: 'Callable[[], Any]') -> 'kept':\n    return a\n")
    assert unused_imports(source) == ["os", "j", "dead"]


def test_no_unused_imports():
    # __init__.py imports only to re-export: its names are the public API.
    dead = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"
            for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert dead == []


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for every field of every ``@dataclass`` class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            found += [(node.name, stmt.target.id) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def read_names(source: str) -> set[str]:
    """Names loaded as ``obj.name`` or passed as ``obj.column("name")``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "column" and node.args
              and isinstance(node.args[0], ast.Constant)):
            read.add(node.args[0].value)
    return read


def unread_fields(checked: list[str], readers: list[str], serialized=frozenset()) -> list[str]:
    """``Class.field`` for every dataclass field of the ``checked`` sources
    that no source in ``readers`` reads, outside the ``serialized`` classes.

    Reads are matched by name alone, whatever the object: a field that
    shares its name with one read on another class (``x.n_cells``) is
    never reported."""
    read = set().union(*map(read_names, readers))
    return [f"{cls}.{name}" for source in checked for cls, name in dataclass_fields(source)
            if cls not in serialized and name not in read]


def test_scan_flags_unread_parameter():
    source = "def f(a, b, *rest, c=1, **kw):\n    def g(x):\n        return a + x\n    return g\n"
    assert unread_parameters(source) == ["f(b)", "f(c)", "f(rest)", "f(kw)"]


def test_no_unread_parameters():
    dead = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
            for name in unread_parameters(path.read_text(encoding="utf-8"))]
    assert dead == []


def test_scan_flags_unread_field():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n    z: int = 0\n"
        "    def f(self):\n        self.z = 1\n        return self.x\n\n"
        "@dataclass\nclass S:\n    kept: int\n\n"
        "@functools.total_ordering\nclass Plain:\n    ignored: int\n"
    )
    reader = "def g(traj):\n    return traj.column('y')\n"
    assert unread_fields([source], [source]) == ["A.y", "A.z", "S.kept"]
    assert unread_fields([source], [source, reader], {"S"}) == ["A.z"]


def test_no_unread_dataclass_fields():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    tests = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))
             if path.name != Path(__file__).name]  # this file's ast attributes are no readers
    assert unread_fields(sources, sources + tests, SERIALIZED) == []


def frame_builders(source: str) -> list[str]:
    """The innermost function around each ``Frame(...)`` or ``x.Frame(...)``
    call of ``source``, or ``<module>`` for a call outside any function."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "Frame" in (getattr(child.func, "id", None),
                                                           getattr(child.func, "attr", None)):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_flags_frame_builder():
    source = ("f0 = Frame(t=0)\nclass R:\n    def record(self):\n        return solver.Frame(1)\n"
              "def outer():\n    def _frame():\n        return Frame(2)\n"
              "    return _frame, lambda: Frame(3), Frames(4)\n")
    assert frame_builders(source) == ["<module>", "record", "_frame", "<lambda>"]


def test_frames_built_only_in_one_place():
    # Every frame of a run, its start included, comes from solver._frame.
    builders = [f"{path.name}: {where}" for path in sorted(SRC.glob("*.py"))
                for where in frame_builders(path.read_text(encoding="utf-8"))]
    assert builders == ["solver.py: _frame"]


def attribute_uses(source: str, attr: str) -> list[tuple[str, str, str | None]]:
    """(function, "read" or "write", assigned) for every ``x.<attr>`` of
    ``source`` and every ``<attr>=`` keyword argument, which writes it.
    ``function`` is the innermost function around it, or ``<module>``;
    ``assigned`` is the name the enclosing assignment binds, if any."""
    found = []

    def visit(node: ast.AST, where: str, assigned: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == attr:
                kind = "read" if isinstance(child.ctx, ast.Load) else "write"
                found.append((where, kind, assigned))
            elif isinstance(child, ast.keyword) and child.arg == attr:
                found.append((where, "write", assigned))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"), None)
            elif isinstance(child, ast.Assign):
                names = [t.id for t in child.targets if isinstance(t, ast.Name)]
                visit(child, where, names[0] if names else None)
            else:
                visit(child, where, assigned)

    visit(ast.parse(source), "<module>", None)
    return found


def test_scan_flags_step_size_outside_its_rule():
    source = ("def _step_batch(members, caps):\n    return members[0].config.dt_max\n"
              "def simulate_batch(runs):\n    run = _Run(next_dt=1.0)\n"
              "    caps = [r.next_dt for r in runs]\n"
              "def _controlled_step(m):\n    m.next_dt = 2.0 * m.next_dt\n"
              "    lost = lambda r: r.config\n")
    assert attribute_uses(source, "config") == [("_step_batch", "read", None),
                                                 ("<lambda>", "read", None)]
    assert attribute_uses(source, "next_dt") == [
        ("simulate_batch", "write", "run"), ("simulate_batch", "read", "caps"),
        ("_controlled_step", "write", None), ("_controlled_step", "read", None)]


def test_one_step_size_rule():
    # The run loop caps every step at next_dt and the time to the next record
    # time, in both modes; the stepper cuts that cap to the front limit
    # without reading the config, and only the controller changes next_dt.
    uses = {attr: [(path.name, *use) for path in sorted(SRC.glob("*.py"))
                   for use in attribute_uses(path.read_text(encoding="utf-8"), attr)]
            for attr in ("config", "next_dt")}
    assert [use for use in uses["config"] if use[1] in ("_step_batch", "_controlled_step")] == []
    assert uses["next_dt"] == [("solver.py", "_controlled_step", "write", None),
                               ("solver.py", "simulate_batch", "write", "run"),
                               ("solver.py", "simulate_batch", "read", "caps")]


def annotation_names(annotation: ast.expr | None) -> set[str]:
    """The names an annotation mentions, inside string annotations too."""
    if annotation is None:
        return set()
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= annotation_names(ast.parse(node.value, mode="eval").body)
    return names


MODEL_CARRIERS = {"ModelParams", "InfectionResponse", "RunSetup"}  # RunSetup holds both


def model_beside_trajectory(source: str) -> list[str]:
    """Every function that takes a ``Trajectory`` parameter, and every class
    with a ``Trajectory`` field, together with a model carrier (a
    ``ModelParams``, ``InfectionResponse`` or ``RunSetup``): the trajectory
    already carries its run's model, so a second copy can only disagree
    with it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        elif isinstance(node, ast.ClassDef):
            annotations = [s.annotation for s in node.body if isinstance(s, ast.AnnAssign)]
        else:
            continue
        annotated = set().union(*map(annotation_names, annotations))
        if "Trajectory" in annotated and annotated & MODEL_CARRIERS:
            found.append(node.name)
    return found


def test_scan_flags_model_beside_trajectory():
    source = ("def a(traj: 'Trajectory', p: ModelParams): ...\n"
              "def b(traj: solver.Trajectory, *, resp: 'InfectionResponse | None' = None): ...\n"
              "def c(traj: 'Trajectory', half_width: float): ...\n"
              "def d(p: ModelParams, resp: InfectionResponse, frames: 'list[Frame]'): ...\n"
              "class M:\n    def e(self, frame, traj: 'Trajectory | None', p: 'ModelParams'): ...\n"
              "def f(setup: RunSetup, traj: Trajectory, echo: dict): ...\n"
              "def g(setup: 'RunSetup', out: Path): ...\n"
              "class R:\n    p: ModelParams\n    traj: 'Trajectory | None' = None\n"
              "class S:\n    traj: Trajectory\n    config: SolverConfig\n"
              "class T:\n    setup: RunSetup\n    def h(self, traj: Trajectory): ...\n")
    # S has no model field; T's trajectory is a method parameter, so h has no model beside it.
    assert model_beside_trajectory(source) == ["a", "b", "f", "R", "e"]


def test_trajectory_is_the_one_record_of_its_model():
    # A function given a trajectory reads the run's model as traj.params and traj.resp.
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in model_beside_trajectory(path.read_text(encoding="utf-8"))]
    assert found == []


def load_perfbench_run():
    """``perfbench/run.py`` as a module, executed from its file."""
    bench = ROOT / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(bench))  # for its sibling imports, spans and workloads
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
        del sys.modules[spec.name]
    return module


def missing_probe_targets() -> list[str]:
    """Names the traced benchmark needs that the package no longer defines:
    each attribute ``install_probes`` patches must be defined on its own
    module or class, since ``Tracer.patch`` reads ``vars(owner)[attr]``."""
    missing = []

    class CheckingTracer:
        def patch(self, owner, attr, name, inspect=None):
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")

    load_perfbench_run().install_probes(CheckingTracer(), cli)
    if not hasattr(cli, "THREADS_ENV"):
        missing.append("epifront.cli.THREADS_ENV")
    return missing


def test_perfbench_patch_targets_exist():
    assert missing_probe_targets() == []


def test_missing_patch_target_is_flagged(monkeypatch):
    monkeypatch.delattr(solver, "front_speeds")
    assert missing_probe_targets() == ["epifront.solver.front_speeds"]


def test_perfbench_hooks_read_the_real_types(unit_params, monod2):
    # The traced benchmark's hooks read the arguments and results of the calls
    # they wrap; run each hooked call once under the benchmark's own Tracer.
    bench = load_perfbench_run()
    tracer = bench.Tracer()
    bench.install_probes(tracer, cli)
    try:
        init = InitialData.cosine(1.0)
        # dt_limited reads config.dt_max, so the step is a fixed one.
        config = solver.SolverConfig(n_cells=64, dt_max=1e-3, t_max=0.05).resolved(unit_params)
        start = solver.initial_state(unit_params, monod2, init, config.n_cells)
        solver.step(start, unit_params, monod2, config)
        traj, _ = threshold.simulate(unit_params, monod2, init, config)
        analysis.classify(traj)
    finally:
        tracer.restore()
    infos: dict[str, list] = {}
    for _, name, _, _, _, info in tracer.spans:
        infos.setdefault(name, []).append(info)
    # The shapes layer_metrics reads: dt_limited's bool, sim_info's 5-tuple
    # and the classified trajectory's frame count.
    assert [type(info) for info in infos["solver.step"]] == [bool]
    assert [(type(info), len(info)) for info in infos["threshold.simulate"]] == [(tuple, 5)]
    assert infos["analysis.classify"] and all(type(n) is int for n in infos["analysis.classify"])


@functools.cache
def scipy_modules(statement: str) -> frozenset[str]:
    """The ``scipy*`` modules loaded after running ``statement`` in a fresh
    interpreter that finds the package in ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    listing = "import sys; print(*(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", f"{statement}\n{listing}"], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return frozenset(out.stdout.split())


def modules_beyond_lapack(statement: str) -> list[str]:
    """The scipy modules ``statement`` loads that ``dgtsv``'s own import does not:
    scipy supplies the package only its LAPACK tridiagonal solver."""
    return sorted(scipy_modules(statement) - scipy_modules("import scipy.linalg.lapack"))


def test_cli_imports_no_scipy_beyond_lapack():
    assert modules_beyond_lapack("import epifront.cli") == []


def test_import_beyond_lapack_is_flagged():
    assert "scipy.integrate" in modules_beyond_lapack("import epifront.cli, scipy.integrate")


def test_config_sections_match_dataclass_fields():
    # Each key reads its default from a defaulted field of its section's
    # dataclass; the one field left, Monitors.certificate, is built by the run.
    for section, cls in (("solver", solver.SolverConfig), ("monitors", Monitors),
                         ("threshold", BisectConfig)):
        keys = {key.attr for key in cli.SCHEMA if key.section == section}
        fields = {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
        assert keys == fields, section


def missing_readme_imports(markdown: str) -> list[str]:
    """``module.name`` for every name a fenced Python block of ``markdown``
    imports from the package that the package does not define.  The blocks
    are parsed, not run."""
    blocks = re.findall(r"^```python\n(.*?)^```", markdown, flags=re.MULTILINE | re.DOTALL)
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "epifront"]
    return [f"{node.module}.{alias.name}" for node in imports for alias in node.names
            if not hasattr(importlib.import_module(node.module), alias.name)]


def test_readme_imports_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "from epifront import" in readme
    assert missing_readme_imports(readme) == []


def test_missing_readme_import_is_flagged():
    markdown = ("```sh\nfrom epifront import gone\n```\n```python\n"
                "import numpy\nfrom epifront import simulate, removed\n"
                "from epifront.cli import main, gone\n```\n")
    assert missing_readme_imports(markdown) == ["epifront.removed", "epifront.cli.gone"]
