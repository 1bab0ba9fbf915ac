import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from epifront import (BlowUpError, ConfigError, DomainError, Monitors, MonitorViolation, simulate,
                      simulate_batch)
from epifront import solver as solver_mod
from epifront import threshold
from epifront.cli import SCHEMA, build_setup, main, parse_config_text, svg_line_plot

FAST = """
model.h0 = 1.0
response.a21 = 2.0
init.sigma = 1.0
solver.n_cells = 64
solver.t_max = 2.0
solver.frame_stride = 20
"""


NOT_NONNEGATIVE = "samples must be finite and >= 0"


# A value of each config type that no key accepts.
BAD_VALUE = {float: "nan", tuple: "nan", int: "0", bool: "maybe", str: "sometimes"}
# The lines a scoped key needs before it: its scope and, for a table, both lists.
SCOPE_LINES = {
    "table": ["response.kind = table", "response.z_values = 0,1,2", "response.g_values = 0,1,1.5"],
    "skewed_cosine": ["init.shape = skewed_cosine"],
}


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
        "threshold.tol = -1",
        "threshold.tol = nan",
        "threshold.hi_factor = inf",
        "solver.n_cells = 15",
        "solver.frame_stride = 0",
        "sweep.mu = 0",
        "sweep.d = nan",
        "sweep.sigma = -1",
        "solver.record_times = 1,nan",
        "solver.record_times = -1",
        "response.kind = linear",
        "monitors.speed = maybe",
    ])
    def test_bad_value_names_key_and_line(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        cfg = write(tmp_path, f"model.d = 1.0\n{line}\n")
        assert main(["validate", "--config", cfg]) == 2
        assert f"line 2: {key}: " in capsys.readouterr().err

    # One bad value per key: each key's only range rule is in its section's
    # constructor, so a key whose value reaches no check fails here.
    @pytest.mark.parametrize("key", SCHEMA, ids=lambda key: key.name)
    def test_every_key_rejects_a_bad_value(self, key, tmp_path, capsys):
        scope = SCOPE_LINES.get(key.when[1], []) if key.when else []
        lines = [line for line in scope if not line.startswith(f"{key.name} =")]
        lines.append(f"{key.name} = {BAD_VALUE[key.type]}")
        cfg = write(tmp_path, "\n".join(lines) + "\n")
        assert main(["validate", "--config", cfg]) == 2
        assert f"line {len(lines)}: {key.name}: " in capsys.readouterr().err

    # A list left out (None) is not written; the message names the list at
    # fault, or response.kind when both are missing.
    @pytest.mark.parametrize("z, g, key, line, message", [
        pytest.param("0,1,inf", "0,1,2", "response.z_values", 4, NOT_NONNEGATIVE,
                     id="0,1,inf-0,1,2-response.z_values-4"),
        pytest.param("0,1,2", "0,nan,1", "response.g_values", 5, NOT_NONNEGATIVE,
                     id="0,1,2-0,nan,1-response.g_values-5"),
        pytest.param("0,1,2", "0,-1,1", "response.g_values", 5, NOT_NONNEGATIVE,
                     id="0,1,2-0,-1,1-response.g_values-5"),
        pytest.param("0,1,2", "1,2,3", "response.g_values", 5, "table must start at (0, 0)",
                     id="0,1,2-1,2,3-response.g_values-5"),
        pytest.param(None, None, "response.kind", 3,
                     "table needs response.z_values and response.g_values",
                     id="None-None-response.kind-3"),
    ])
    def test_bad_table_sample_names_key_and_line(self, z, g, key, line, message,
                                                 tmp_path, capsys):
        lists = "".join(f"response.{name}_values = {values}\n"
                        for name, values in (("z", z), ("g", g)) if values is not None)
        cfg = write(tmp_path, "solver.t_max = 0.5\nsolver.n_cells = 32\nresponse.kind = table\n"
                              + lists)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"line {line}: {key}: {message}" in capsys.readouterr().err

    def test_derived_solver_value_invalid(self, tmp_path, capsys):
        # The default dt_max = 1e-3 h0^2/d overflows to inf.
        cfg = write(tmp_path, "model.h0 = 1e200\nmodel.d = 1e-200\n")
        assert main(["validate", "--config", cfg]) == 2
        assert (f"config error: {cfg}: solver.dt_max: dt_max must be finite and > 0 (got inf)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["validate", "run", "threshold", "sweep"])
    def test_habitat_too_narrow_for_its_eigenvalue(self, command, tmp_path, capsys):
        # (pi / (2 h0))^2 overflows a float at h0 = 1e-160; every command
        # reports the value instead of raising OverflowError.
        cfg = write(tmp_path, "model.h0 = 1e-160\n")
        out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
        assert main([command, "--config", cfg, *out]) == 2
        assert (f"config error: {cfg}: line 1: model.h0: h0 must be at least about 1.17e-154"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_defaults_resolve(self):
        setup = build_setup({})
        assert setup.params.d == 1.0
        assert setup.solver.dt_max == pytest.approx(1e-3)
        assert setup.echo["response.kind"] == "monod"
        assert setup.monitor_toggles == {"bounds": True, "symmetry": True, "speed": True}
        toggled = build_setup(parse_config_text("monitors.bounds = false\n"))
        assert toggled.monitor_toggles == {"bounds": False, "symmetry": True, "speed": True}

    def test_table_response(self):
        text = "response.kind = table\nresponse.z_values = 0,1,2,4\nresponse.g_values = 0,0.5,0.8,1.0\n"
        setup = build_setup(parse_config_text(text))
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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_table() -> dict[str, str]:
    """Key -> default cell of the README "Configuration format" table, with
    the shorthand rows (`a.b` / `.c`) expanded."""
    readme = README.read_text(encoding="utf-8")
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


def test_readme_quick_start_config_builds():
    readme = README.read_text(encoding="utf-8")
    text = readme.split("cat > scenario.cfg <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    setup = build_setup(parse_config_text(text))
    assert (setup.params.h0, setup.solver.t_max) == (1.0, 50.0)
    assert setup.sweep["sigma"] == (0.02, 0.05, 0.2, 1.0)


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
        cfg = write(tmp_path, FAST + "solver.early_stop = false\n")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--profiles", "0.5,1.5"])
        rows = (out / "profiles.csv").read_text().splitlines()
        times = {row.split(",")[0] for row in rows[1:]}
        assert times == {"0.5", "1.5"}

    def test_unreached_profile_times_reported(self, tmp_path, capsys):
        # FAST is stopped by the classifier at t = 1.2, before 1.9 and 100.
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--profiles", "0.5,1.9,100"]) == 0
        err = capsys.readouterr().err
        assert "profiles: no frame at t = 1.9, 100.0 (run ended at t = 1.2)" in err
        rows = (out / "profiles.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in rows[1:]} == {"0.5"}

    def test_profile_time_next_to_another_is_merged(self, tmp_path, capsys):
        # The second time lies within the run's landing tolerance of the
        # first: both are served by the one frame at t = 1.
        cfg = write(tmp_path, FAST + "solver.early_stop = false\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--profiles", "1.0,1.00000000000001"]) == 0
        assert "no frame" not in capsys.readouterr().err
        rows = (out / "profiles.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["1"] * 65

    @pytest.mark.parametrize("times, message", [
        ("abc", "expected comma-separated numbers"),
        ("0.2,,0.3", "expected comma-separated numbers"),
        # The ids name the rule the times break, as the cases have always been named.
        pytest.param("nan", "record_times must be finite and >= 0 (got (nan,))",
                     id="nan-every value must be a finite number >= 0"),
        pytest.param("-1", "record_times must be finite and >= 0 (got (-1.0,))",
                     id="-1-every value must be a finite number >= 0"),
    ])
    def test_bad_profile_times_rejected(self, times, message, tmp_path, capsys):
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), f"--profiles={times}"]) == 2
        err = capsys.readouterr().err
        assert f"config error: --profiles: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_svg_is_wellformed(self, tmp_path):
        cfg = write(tmp_path, FAST)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--svg"])
        for name in ("fronts.svg", "supnorms.svg"):
            root = ET.fromstring((out / name).read_text())
            assert root.tag.endswith("svg")
        # A constant series has an empty y range and a single point empty x and
        # y ranges; each empty range is widened to [lo, lo + 1], then padded.
        for xs, points in ((np.arange(3.0), "70.00,431.36 425.00,431.36 780.00,431.36"),
                           (np.array([1.0]), "70.00,431.36")):
            path = out / "flat.svg"
            svg_line_plot(path, "flat", "t", "x", [("c", xs, np.full(xs.size, 2.0), "red")])
            polylines = [el for el in ET.fromstring(path.read_text()).iter()
                         if el.tag.endswith("polyline")]
            assert [el.get("points") for el in polylines] == [points]

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "model.a11 = -1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "model.a11" in capsys.readouterr().err
        missing = str(tmp_path / "absent.txt")
        assert main(["run", "--config", missing, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: cannot read config {missing!r}" in capsys.readouterr().err
        cfg = write(tmp_path, "model.d = 1.0\n= 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line 2: missing key before '='" in capsys.readouterr().err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        # One Latin-1 byte, even in a comment, makes the file unreadable as UTF-8.
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xe9\nmodel.d = 1.0\n")
        for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert main([*argv, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot read config {str(path)!r}: ")
            assert "can't decode byte 0xe9" in err

    def test_blow_up_writes_partial(self, tmp_path, monkeypatch, capsys):
        from epifront import cli as cli_mod

        def exploding(p, resp, *args, **kwargs):
            from epifront.solver import Trajectory

            err = BlowUpError("synthetic blow-up", 0.5, -1.0, 1.0)
            err.trajectory = Trajectory(p, resp)
            raise err

        monkeypatch.setattr(cli_mod, "simulate", exploding)
        cfg = write(tmp_path, FAST)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "synthetic blow-up" in capsys.readouterr().err

    def test_failed_summary_writes_no_trajectory(self, tmp_path, monkeypatch, capsys):
        from epifront import cli as cli_mod

        def failing(p, resp):
            raise DomainError("synthetic")

        monkeypatch.setattr(cli_mod.model, "critical_width", failing)
        out = tmp_path / "o"
        assert main(["run", "--config", write(tmp_path, FAST), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: synthetic\n"
        assert not (out / "trajectory.csv").exists()
        assert not (out / "summary.json").exists()

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
        # The initial frame balances exactly, also when it is the only one.
        assert rows[1].split(",")[rows[0].split(",").index("mass_residual")] == "0"


class TestValidateCommand:
    def test_monod_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, FAST)
        for argv in (["validate", "--config", cfg], ["validate"]):  # the latter: all defaults
            assert main(argv) == 0
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

    def test_zero_slope_at_origin_named(self, tmp_path, capsys):
        # G' > 0 at every probe (G'(1e-6) = 5e-7), but G'(0) = 0: the failure names G'(0).
        text = "response.kind = table\nresponse.z_values = 0,1,2\nresponse.g_values = 0,0,1\n"
        cfg = write(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] derivative_positive: G'(0) = 0.0 <= 0\n" in out
        assert "G'(1e-06)" not in out

    def test_falling_table_names_first_bad_probe(self, tmp_path, capsys):
        # G falls from 1 to 0.5 on [1, 2]: the failure names the first probe there.
        text = "response.kind = table\nresponse.z_values = 0,1,2\nresponse.g_values = 0,1,0.5\n"
        cfg = write(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] derivative_positive: G'(1.584893192461114) <= 0\n" in out

    def test_equilibrium_below_first_bracket_end(self, tmp_path, capsys):
        # R0 = 5, yet G(u)/u falls to a11 = 1 at u* = 4.9e-13 / 0.9, below 1e-12.
        text = ("response.kind = table\nresponse.z_values = 0,1e-13,1\n"
                "response.g_values = 0,5e-13,0.1\n")
        cfg = write(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 0
        assert "equilibrium: u* = 5.44444444458e-13, v* = " in capsys.readouterr().out

    def test_subcritical_reports_absent(self, tmp_path, capsys):
        cfg = write(tmp_path, "response.a21 = 0.8\n")
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "h* = absent" in out
        assert "equilibrium: absent" in out

    def test_supercritical_habitat_reports_spreading_delta(self, tmp_path, capsys):
        # R0F(0) = 2 / (1 + 1/1.44) > 1 at h0 = 0.6 pi, so only the spreading
        # subsolution exists.
        cfg = write(tmp_path, f"model.h0 = {0.6 * math.pi!r}\n")
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "small-data vanishing bound: absent (R0F(0) >= 1)" in out
        assert "spreading subsolution delta: " in out
        assert "spreading subsolution delta: absent" not in out

    def test_monod_slope_far_past_the_float_range(self, tmp_path, capsys):
        # mu = 1e-160 puts eps near 1e159, where the float (1 + z)^2 of the
        # Monod slope overflows; the slope takes its limit, 0.
        cfg = write(tmp_path, "model.mu = 1e-160\nresponse.a21 = 0.5\n")
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "small-data vanishing bound: delta = 0.437091043568, eps = 8.739" in out

    def test_package_error_exits_1(self, monkeypatch, capsys):
        from epifront import cli as cli_mod

        def failing(args):
            raise DomainError("synthetic")

        monkeypatch.setattr(cli_mod, "cmd_validate", failing)
        assert main(["validate"]) == 1
        assert capsys.readouterr().err == "error: synthetic\n"


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

        sims = []  # the sigma of every run, alone or batched

        def counted(p, resp, init, config):
            sims.append(init.sigma)
            return simulate(p, resp, init, config)

        def counted_batch(members, config):
            sims.extend(init.sigma for _, _, init in members)
            return simulate_batch(members, config)

        monkeypatch.setattr(cli_mod, "simulate", no_rerun)
        monkeypatch.setattr(threshold_mod, "simulate", counted)
        monkeypatch.setattr(threshold_mod, "simulate_batch", counted_batch)
        cfg = write(tmp_path, f"model.h0 = {0.4 * math.pi!r}\nsolver.n_cells = 64\n"
                              "solver.dt_max = 0.04\nsolver.t_max = 60\nthreshold.tol = 0.1\n")
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out), "--target", "sigma"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["status"] == "bracketed"
        verdicts = {probe["value"]: probe["verdict"] for probe in payload["probes"]}
        lo, hi = payload["bracket"]
        assert lo in verdicts and verdicts[hi] == "spreading"
        assert "confirmations" not in payload
        # Each probe value ran exactly once, no value ran twice, and some
        # probes ran past solver.t_max.
        assert all(sims.count(probe["value"]) == 1 for probe in payload["probes"])
        assert len(set(sims)) == len(sims)
        assert any(probe["extended"] is True for probe in payload["probes"])

    def test_mu_target_brackets(self, tmp_path):
        cfg = write(tmp_path, f"model.h0 = {0.4 * math.pi!r}\ninit.sigma = 0.05\n"
                              "solver.n_cells = 64\nsolver.dt_max = 0.04\nsolver.t_max = 60\n"
                              "threshold.tol = 0.1\n")
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out), "--target", "mu"]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert (payload["target"], payload["status"]) == ("mu", "bracketed")
        assert payload["bracket"] == [0.71875, 0.765625]
        assert payload["n_sims"] == len(payload["probes"]) == 8
        assert payload["probes"][0]["value"] == 2.0  # the search starts from 2 model.mu
        verdicts = {probe["value"]: probe["verdict"] for probe in payload["probes"]}
        assert verdicts[payload["bracket"][1]] == "spreading"
        assert "confirmations" not in payload

    def test_target_choices_are_the_search_targets(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["threshold", "--target", "h0"])
        assert info.value.code == 2
        choices = ", ".join(map(repr, threshold.TARGETS))
        assert f"invalid choice: 'h0' (choose from {choices})" in capsys.readouterr().err

    def test_blow_up_exits_3(self, tmp_path, monkeypatch, capsys):
        # The 50th stepper call falls inside the first probe.
        real = solver_mod._step_batch
        seen = []

        def failing(*args, **kwargs):
            seen.append(None)
            if len(seen) == 50:
                raise BlowUpError("synthetic blow-up", 0.0, -1.0, 1.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_step_batch", failing)
        cfg = write(tmp_path, f"model.h0 = {0.4 * math.pi!r}\nsolver.n_cells = 64\n"
                              "solver.dt_max = 0.04\nsolver.t_max = 60\n")
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: synthetic blow-up\n"
        assert not (out / "threshold.json").exists()

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

    def test_unset_axes_hold_the_model_values(self):
        setup = build_setup(parse_config_text(FAST + "sweep.mu = 0.5,2\nsweep.d =\n"))
        assert setup.sweep == {"sigma": (1.0,), "mu": (0.5, 2.0), "d": ()}

    def test_grid_rows_and_heatmap(self, tmp_path):
        cfg = write(tmp_path, FAST + "sweep.sigma = 0.5,1.0\nsweep.mu = 0.5,1.0\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--svg"]) == 0
        lines = (out / "phase.csv").read_text().splitlines()
        assert len(lines) == 5
        root = ET.fromstring((out / "phase.svg").read_text())
        assert root.tag.endswith("svg")
