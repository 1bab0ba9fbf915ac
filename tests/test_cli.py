import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from epifront import BlowUpError, ConfigError, Monitors, MonitorViolation, simulate
from epifront import solver as solver_mod
from epifront.cli import SCHEMA, build_setup, main, parse_config_text

FAST = """
model.h0 = 1.0
response.a21 = 2.0
init.sigma = 1.0
solver.n_cells = 64
solver.t_max = 2.0
solver.frame_stride = 20
"""


def write(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# top\n\nmodel.d = 2.0  # trailing\n")
        assert entries["model.d"] == ("2.0", 3)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("model.d = 1\nmodel.a11\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.d = 1\nmodel.d = 2\n")

    def test_unknown_key_named(self):
        # No classify.* key exists: spreading is decided by R0F alone, and the
        # classifier's tolerances are constants.
        for key in ("model.zzz", "classify.width_factor", "classify.r0f_margin"):
            with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
                build_setup(parse_config_text(f"{key} = 10\n"))

    @pytest.mark.parametrize("line", [
        "model.a11 = -1",
        "response.a21 = inf",
        "init.sigma = nan",
        "init.sigma = inf",
        "solver.t_max = inf",
        "solver.dt_max = nan",
        "solver.cfl_adv = 0",
        "threshold.tol = -1",
        "threshold.tol = nan",
        "threshold.hi_factor = inf",
        "solver.n_cells = 15",
        "solver.frame_stride = 0",
        "sweep.mu = 0",
        "sweep.d = nan",
        "sweep.sigma = -1",
    ])
    def test_bad_value_names_key_and_line(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        cfg = write(tmp_path, f"model.d = 1.0\n{line}\n")
        assert main(["validate", "--config", cfg]) == 2
        assert f"line 2: {key}: " in capsys.readouterr().err

    def test_derived_solver_value_invalid(self, tmp_path, capsys):
        # The default dt_max = 1e-3 h0^2/d overflows to inf.
        cfg = write(tmp_path, "model.h0 = 1e200\nmodel.d = 1e-200\n")
        assert main(["validate", "--config", cfg]) == 2
        assert "solver configuration invalid: dt_max must be finite" in capsys.readouterr().err

    def test_defaults_resolve(self):
        setup = build_setup({})
        assert setup.params.d == 1.0
        assert setup.solver.dt_max == pytest.approx(1e-3)
        assert setup.echo["response.kind"] == "monod"

    def test_table_response(self):
        text = "response.kind = table\nresponse.z_values = 0,1,2,4\nresponse.g_values = 0,0.5,0.8,1.0\n"
        setup = build_setup(parse_config_text(text))
        assert setup.resp.kind == "table"
        assert setup.resp(1.0) == pytest.approx(0.5)
        assert setup.resp.deriv_at_zero > 0

    def test_table_requires_matching_lists(self):
        text = "response.kind = table\nresponse.z_values = 0,1\nresponse.g_values = 0,1\n"
        with pytest.raises(ConfigError):
            build_setup(parse_config_text(text))

    @pytest.mark.parametrize("text, key", [
        ("response.kind = table\nresponse.a21 = 2\n"
         "response.z_values = 0,1,2\nresponse.g_values = 0,1,1.5\n", "response.a21"),
        ("response.kind = monod\nresponse.z_values = 0,1,2\n", "response.z_values"),
        ("init.shape = cosine\ninit.skew = 0.3\n", "init.skew"),
    ])
    def test_key_outside_its_scope_is_unknown(self, text, key):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            build_setup(parse_config_text(text))


def readme_config_table() -> dict[str, str]:
    """Key -> default cell of the README "Configuration format" table, with
    the shorthand rows (`a.b` / `.c`) expanded."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        keys, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        first, *rest = (key.strip(" `") for key in keys.split("/"))
        prefix = first.split(".")[0]
        for key in (first, *(prefix + tail for tail in rest)):
            table[key] = default.strip("`")
    return table


def test_readme_table_matches_schema():
    readme = readme_config_table()
    schema = {key.name: key for key in SCHEMA}
    assert readme.keys() == schema.keys()
    for name, text in readme.items():
        key = schema[name]
        if key.default in (None, ()):  # derived or empty defaults are described in words
            continue
        assert key.read({name: (text, 1)}) == key.default, name


class TestRunCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write(tmp_path, FAST)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1), "--svg",
                     "--profiles", "0.5,1.5"]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2), "--svg",
                     "--profiles", "0.5,1.5"]) == 0
        for name in ("trajectory.csv", "summary.json", "profiles.csv",
                     "fronts.svg", "supnorms.svg"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_contents(self, tmp_path):
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        payload = json.loads((out / "summary.json").read_text())
        assert payload["verdict"] in ("spreading", "vanishing", "undetermined")
        assert payload["r0"] == pytest.approx(2.0)
        assert payload["h_star"] == pytest.approx(np.pi)
        assert payload["certificate"]["c1"] > 0
        assert payload["equilibrium"]["u"] == pytest.approx(1.0, rel=1e-6)

    def test_trajectory_columns(self, tmp_path):
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,g,h,width,sup_u,sup_v,mass,mass_residual,r0f,g_speed,h_speed"

    def test_round_trip_from_echo(self, tmp_path):
        cfg = write(tmp_path, FAST)
        out1 = tmp_path / "a"
        main(["run", "--config", cfg, "--out", str(out1), "--profiles", "1.0"])
        echo = json.loads((out1 / "summary.json").read_text())["config"]
        cfg2 = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in echo.items()), "echo.txt")
        out2 = tmp_path / "b"
        main(["run", "--config", cfg2, "--out", str(out2), "--profiles", "1.0"])
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_profiles_contain_requested_times(self, tmp_path):
        cfg = write(tmp_path, FAST + "solver.early_stop = none\n")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--profiles", "0.5,1.5"])
        rows = (out / "profiles.csv").read_text().splitlines()
        times = {row.split(",")[0] for row in rows[1:]}
        assert times == {"0.5", "1.5"}

    def test_unreached_profile_times_reported(self, tmp_path, capsys):
        # FAST is stopped by the classifier at t = 1.28, before 1.9 and 100.
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--profiles", "0.5,1.9,100"]) == 0
        err = capsys.readouterr().err
        assert "profiles: no frame at t = 1.9, 100.0 (run ended at t = 1.28)" in err
        rows = (out / "profiles.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in rows[1:]} == {"0.5"}

    def test_profile_time_next_to_another_is_merged(self, tmp_path, capsys):
        # The second time lies within the run's landing tolerance of the
        # first: both are served by the one frame at t = 1.
        cfg = write(tmp_path, FAST + "solver.early_stop = none\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--profiles", "1.0,1.00000000000001"]) == 0
        assert "no frame" not in capsys.readouterr().err
        rows = (out / "profiles.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["1"] * 65

    def test_svg_is_wellformed(self, tmp_path):
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--svg"])
        for name in ("fronts.svg", "supnorms.svg"):
            root = ET.fromstring((out / name).read_text())
            assert root.tag.endswith("svg")

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "model.a11 = -1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "model.a11" in capsys.readouterr().err

    def test_blow_up_writes_partial(self, tmp_path, monkeypatch, capsys):
        from epifront import cli as cli_mod

        def exploding(*args, **kwargs):
            from epifront.solver import Trajectory

            err = BlowUpError("synthetic blow-up", 0.5, -1.0, 1.0)
            err.trajectory = Trajectory(h0=1.0, n_cells=64)
            raise err

        monkeypatch.setattr(cli_mod, "simulate", exploding)
        cfg = write(tmp_path, FAST)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "synthetic blow-up" in capsys.readouterr().err

    # FAST records a frame every 20 steps: the 100th step fails after 5 frames, the
    # 5th monitor check on the 5th frame, and the 1st step leaves only the initial frame.
    # A run is a batch of one member, so each call of the stepper is one step.
    @pytest.mark.parametrize("target, name, calls, error, code, frames", [
        pytest.param(solver_mod, "_step_batch", 100,
                     lambda: BlowUpError("synthetic blow-up", 0.0, -1.0, 1.0), 3, 5,
                     id="epifront.solver-step-100-<lambda>-3-5"),
        (Monitors, "on_frame", 5, lambda: MonitorViolation("bounds", 0.0, "synthetic"), 4, 5),
        pytest.param(solver_mod, "_step_batch", 1,
                     lambda: BlowUpError("synthetic blow-up", 0.0, -1.0, 1.0), 3, 1,
                     id="epifront.solver-step-1-<lambda>-3-1"),
    ])
    def test_failure_mid_run_writes_last_good_frames(self, tmp_path, monkeypatch, capsys,
                                                     target, name, calls, error, code, frames):
        real = getattr(target, name)
        seen = []

        def failing(*args, **kwargs):
            seen.append(None)
            if len(seen) == calls:
                raise error()
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, failing)
        cfg = write(tmp_path, FAST)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        assert f"last good frames in {out / 'trajectory.csv'}" in capsys.readouterr().err
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("t,g,h,width,")
        assert len(rows) == 1 + frames


class TestValidateCommand:
    def test_monod_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, FAST)
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "R0 = 2" in out
        assert "resolved config:" in out
        assert "model.d = 1" in out

    def test_rising_ratio_table_fails(self, tmp_path, capsys):
        # G(z)/z increases from 1 to 2 across the table: violates (A2)
        text = "response.kind = table\nresponse.z_values = 0,1,2\nresponse.g_values = 0,1,4\n"
        cfg = write(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_subcritical_reports_absent(self, tmp_path, capsys):
        cfg = write(tmp_path, "response.a21 = 0.8\n")
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "h* = absent" in out
        assert "equilibrium: absent" in out


class TestThresholdCommand:
    def test_degenerate_bracket(self, tmp_path):
        cfg = write(tmp_path, "model.h0 = 2.0\nresponse.a21 = 2.0\n")
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out), "--target", "sigma"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["status"] == "degenerate"
        assert payload["bracket"] == [0.0, 0.0]

    def test_bracketed_confirmations_are_probe_verdicts(self, tmp_path, monkeypatch):
        from epifront import cli as cli_mod
        from epifront import threshold as threshold_mod

        def no_rerun(*args, **kwargs):
            raise AssertionError("threshold must not simulate the bracket ends again")

        sims = []

        def counted(*args, **kwargs):
            sims.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "simulate", no_rerun)
        monkeypatch.setattr(threshold_mod, "simulate", counted)
        cfg = write(tmp_path, f"model.h0 = {0.4 * math.pi!r}\nsolver.n_cells = 64\n"
                              "solver.dt_max = 0.04\nsolver.t_max = 60\nthreshold.tol = 0.1\n")
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out), "--target", "sigma"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["status"] == "bracketed"
        verdicts = {probe["value"]: probe["verdict"] for probe in payload["probes"]}
        lo, hi = payload["bracket"]
        assert payload["confirmations"] == {"lo": verdicts[lo], "hi": verdicts[hi]}
        assert payload["confirmations"]["hi"] == "spreading"
        # Each probe is one simulation, and some probes ran past solver.t_max.
        assert len(sims) == len(payload["probes"])
        assert any(probe["extended"] is True for probe in payload["probes"])

    def test_no_threshold_outcome(self, tmp_path):
        cfg = write(tmp_path, "response.a21 = 0.8\n")
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out), "--target", "mu"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["status"] == "no_threshold"
        assert payload["r0"] == pytest.approx(0.8)


class TestSweepCommand:
    def test_empty_grid_header_only(self, tmp_path):
        cfg = write(tmp_path, FAST + "sweep.sigma =\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "phase.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("d,mu,sigma,verdict")

    def test_grid_rows_and_heatmap(self, tmp_path):
        cfg = write(tmp_path, FAST + "sweep.sigma = 0.5,1.0\nsweep.mu = 0.5,1.0\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--svg"]) == 0
        lines = (out / "phase.csv").read_text().splitlines()
        assert len(lines) == 5
        root = ET.fromstring((out / "phase.svg").read_text())
        assert root.tag.endswith("svg")
