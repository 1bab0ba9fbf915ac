"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_cost_prints_every_case(capsys):
    step_cost = load_tool("step_cost")
    assert step_cost.main(["--repeats", "1", "--calls", "2"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "min of 1 x 2 calls, us per call"
    labels = [line.split()[:-1] for line in lines]
    assert labels == (
        [["step", f"n={n}", f"B={size}"] for n in step_cost.CELLS for size in step_cost.MEMBERS]
        + [["controlled", f"n={step_cost.CONTROLLED_CELLS}", "B=1"]]
        + [["frame", f"n={n}"] for n in step_cost.CELLS])
    assert all(float(line.split()[-1]) > 0.0 for line in lines)
