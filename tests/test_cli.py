"""Command-line interface: outputs, config handling, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from rindler_lab import cli
from rindler_lab import perturbation as pt
from rindler_lab.spacetime import DimensionlessParams


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli.main, list(args), env=env, catch_exceptions=False)


class TestSpectrumCommand:
    def test_csv_structure_and_fit(self, runner, tmp_path):
        out = tmp_path / "spec.csv"
        result = invoke(
            runner,
            "spectrum", "--scenario", "accel-atom", "--grid", "0.1:3:30:log",
            "--output", str(out),
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "freq,probability,amplitude_re,amplitude_im,method,error_estimate"
        assert len(data) == 31
        footer = [ln for ln in lines if ln.startswith("# fitted_temperature")]
        fitted = float(footer[0].split()[-1])
        assert fitted == pytest.approx(0.15915494309189535, rel=1e-9)

    def test_rows_satisfy_probability_amplitude_relation(self, runner, tmp_path):
        out = tmp_path / "spec.csv"
        invoke(
            runner,
            "spectrum", "--scenario", "static-atom-rindler", "--method", "both",
            "--grid", "0.3:2:6", "--param", "z0=10", "--output", str(out),
        )
        for ln in out.read_text().splitlines():
            if ln.startswith("#") or ln.startswith("freq"):
                continue
            freq, prob, re, im, method, err = ln.split(",")
            assert float(prob) == pytest.approx(float(re) ** 2 + float(im) ** 2, rel=1e-12)

    def test_freefall_footer_temperature(self, runner, tmp_path):
        out = tmp_path / "ff.csv"
        invoke(
            runner,
            "spectrum", "--scenario", "freefall-bh", "--grid", "0.25:4:12:log",
            "--param", "rg=1", "--param", "v0=0.1", "--param", "omega_atom=1000",
            "--output", str(out),
        )
        footer = [ln for ln in out.read_text().splitlines() if "fitted_temperature" in ln]
        fitted = float(footer[0].split()[-1])
        assert fitted == pytest.approx(1.0 / (4.0 * math.pi), rel=0.01)

    def test_json_top_level_keys(self, runner, tmp_path):
        out = tmp_path / "spec.json"
        invoke(
            runner,
            "spectrum", "--scenario", "accel-atom", "--grid", "0.5:2:5",
            "--format", "json", "--output", str(out),
        )
        obj = json.loads(out.read_text())
        assert set(obj) == {"meta", "records", "fit"}
        assert len(obj["records"]) == 5
        assert obj["meta"]["scenario"] == "accel-atom"

    def test_deterministic_output(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        args = ("spectrum", "--scenario", "accel-atom", "--grid", "0.2:2:9:log")
        invoke(runner, *args, "--output", str(out))
        first = out.read_bytes()
        invoke(runner, *args, "--output", str(out))
        assert out.read_bytes() == first

    def test_thread_env_preserves_output(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        args = ("spectrum", "--scenario", "accel-mirror-static-atom", "--grid", "0.25:4:12")
        invoke(runner, *args, "--output", str(out))
        serial = out.read_bytes()
        invoke(runner, *args, "--output", str(out), env={"RINDLER_LAB_THREADS": "4"})
        assert out.read_bytes() == serial

    def test_thread_env_is_not_read(self, runner, tmp_path):
        # RINDLER_LAB_THREADS is ignored, so even a malformed value exits 0
        out = tmp_path / "a.csv"
        args = ("spectrum", "--scenario", "accel-atom", "--grid", "0.25:4:12")
        invoke(runner, *args, "--output", str(out))
        plain = out.read_bytes()
        result = invoke(runner, *args, "--output", str(out), env={"RINDLER_LAB_THREADS": "x"})
        assert result.exit_code == 0
        assert out.read_bytes() == plain

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[scenario]\nname = accel-atom\nmethod = closed\n"
            "[params]\nell = 1.0\ncoupling_g = 1.0\n"
            "[grid]\nstart = 0.5\nstop = 2.0\npoints = 4\nspacing = linear\n"
        )
        out = tmp_path / "out.json"
        result = invoke(
            runner,
            "spectrum", "--config", str(cfg), "--grid", "0.5:2:7",
            "--format", "json", "--output", str(out),
        )
        assert result.exit_code == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["grid"]["points"] == 7  # flag wins
        assert obj["meta"]["params"]["ell"] == 1.0

    def test_stdout_output_when_no_path(self, runner):
        result = invoke(runner, "spectrum", "--scenario", "accel-atom", "--grid", "0.5:2:6")
        assert result.exit_code == 0
        assert "freq,probability,amplitude_re" in result.output
        assert "# fitted_temperature" in result.output

    def test_bad_grid_is_config_error(self, runner):
        for token in ("1:2:0", "nonsense", "2:1:5", "0:3:4:log", "1:2:3:cubic"):
            result = invoke(runner, "spectrum", "--grid", token)
            assert result.exit_code == cli.EXIT_CONFIG_ERROR, token

    def test_missing_config_file(self, runner):
        result = invoke(runner, "spectrum", "--config", "/nonexistent/x.ini")
        assert result.exit_code == cli.EXIT_CONFIG_ERROR

    def test_bad_param_value_is_domain_error(self, runner):
        for v0 in ("0.9", "0"):
            result = invoke(
                runner, "spectrum", "--scenario", "freefall-bh", "--param", f"v0={v0}",
                "--grid", "0.5:2:4",
            )
            assert result.exit_code == cli.EXIT_DOMAIN_ERROR, v0

    @pytest.mark.parametrize(
        "scenario, method",
        [("accel-atom", "closed"), ("accel-atom-mirror", "closed"), ("accel-atom", "quad")],
    )
    def test_small_frequency_overflow_exits_3(self, runner, scenario, method):
        result = invoke(
            runner, "spectrum", "--scenario", scenario, "--method", method,
            "--grid", "1e-300:1e-299:4",
        )
        assert result.exit_code == cli.EXIT_DOMAIN_ERROR
        message = f"error: {scenario} probability overflows to inf at frequency 1e-300"
        assert message in result.output

    def test_mirror_above_the_sine_overflow_exits_0(self, runner):
        # Gamma(i Omega) reflects through sin(pi i Omega), which overflows
        # for Omega above about 226
        result = invoke(
            runner, "spectrum", "--scenario", "accel-mirror-static-atom", "--grid", "100:400:4"
        )
        assert result.exit_code == 0
        rows = [ln.split(",") for ln in result.output.splitlines() if ln[:1].isdigit()]
        assert [float(r[0]) for r in rows] == [100.0, 200.0, 300.0, 400.0]
        # (g^2/2) / (e^{2 pi Omega} - 1); the others underflow to 0
        assert float(rows[0][1]) == pytest.approx(0.5 * math.exp(-200.0 * math.pi), rel=1e-12)
        assert [float(r[1]) for r in rows[1:]] == [0.0, 0.0, 0.0]

    def test_quadrature_budget_exhaustion_is_numeric_error(self, runner):
        # the finite ray X = 2e4 needs far more than the panel budget
        result = invoke(
            runner, "spectrum", "--scenario", "freefall-bh", "--method", "quad",
            "--param", "omega_atom=100000", "--grid", "0.25:4:4:log",
        )
        assert result.exit_code == cli.EXIT_DOMAIN_ERROR
        assert "error: quadrature error" in result.output


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


# the README's two spectrum grids: every scenario at default parameters,
# and free fall also at the README's parameters
_README_SWEEPS = [
    (scenario, method, params, grid)
    for scenario in pt.Scenario
    for method in pt.Method
    if scenario is not pt.Scenario.ACCEL_ATOM_MIRROR or method is pt.Method.CLOSED_FORM
    for params, grid in (
        ({}, "0.1:3:30:log"),
        ({}, "0.25:4:12:log"),
        *([({"rg": 1.0, "v0": 0.1, "omega_atom": 1000.0}, "0.25:4:12:log")]
          if scenario is pt.Scenario.FREEFALL_BH else []),
    )
]


class TestWriterRoundTrip:
    """Every float written parses back to its column, bit for bit."""

    @pytest.mark.parametrize("scenario, method, params, grid", _README_SWEEPS)
    def test_csv_and_json_round_trip(self, scenario, method, params, grid):
        spec = pt.ScenarioSpec(scenario, DimensionlessParams(**params), method)
        result = pt.spectrum_sweep(spec, cli.parse_grid_token(grid).values())
        columns = [
            result.freq,
            result.probability,
            result.amplitude.real,
            result.amplitude.imag,
            result.error_estimate,
        ]
        effective = {"grid": grid}

        csv_text = io.StringIO()
        cli.write_spectrum_csv(result, effective, csv_text)
        lines = csv_text.getvalue().splitlines()
        rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("#")]
        assert len(rows) == len(result.freq)
        assert {r[4] for r in rows} == {method.value}
        for k, i in enumerate((0, 1, 2, 3, 5)):
            assert np.array_equal(_bits([float(r[i]) for r in rows]), _bits(columns[k]))
        footer = {ln.split()[1]: float(ln.split()[2]) for ln in lines if ln.startswith("# fit")}
        assert footer == {
            "fitted_temperature": result.fitted_temperature,
            "fit_residual": result.fit_residual,
        }

        json_text = io.StringIO()
        cli.write_spectrum_json(result, effective, json_text)
        obj = json.loads(json_text.getvalue())
        records = obj["records"]
        assert {r["method"] for r in records} == {method.value}
        for k, key in enumerate(("freq", "probability", "amplitude_re", "amplitude_im", "error_estimate")):
            assert np.array_equal(_bits([r[key] for r in records]), _bits(columns[k]))
        assert obj["fit"] == {
            "fitted_temperature": result.fitted_temperature,
            "fit_residual": result.fit_residual,
        }


class TestVerifyCommand:
    def test_default_suite_passes(self, runner):
        result = invoke(runner, "verify")
        assert result.exit_code == 0
        for name in cli.CHECKS:
            assert name in result.output
        assert "FAIL" not in result.output

    def test_named_subset(self, runner):
        result = invoke(runner, "verify", "temperature-identity", "kms-twist")
        assert result.exit_code == 0
        assert result.output.count("[PASS") == 2

    def test_unknown_check_lists_names(self, runner):
        result = invoke(runner, "verify", "no-such-check")
        assert result.exit_code == cli.EXIT_CONFIG_ERROR
        assert "gamma-identity" in result.output

    def test_checks_from_config_file(self, runner, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[checks]\nnames = temperature-identity, bogoliubov-norm\n")
        result = invoke(runner, "verify", "--config", str(cfg))
        assert result.exit_code == 0
        assert result.output.count("[PASS") == 2
        assert "temperature-identity" in result.output

    def test_covers_every_module(self):
        # numerics, spacetime, modes, perturbation, vacua
        assert {
            "gamma-identity",       # numerics
            "roundtrip-coords",     # spacetime
            "mirror-boundary",      # modes
            "quad-vs-closed",       # perturbation (and numerics quadrature)
            "ratio-thermal",        # perturbation exact route
            "bogoliubov-norm",      # vacua
            "kms-twist",            # vacua
            "temperature-identity", # spacetime temperatures
        } <= set(cli.CHECKS)


class TestTemperaturesCommand:
    def test_natural_alpha(self, runner):
        result = invoke(runner, "temperatures", "--alpha", str(2 * math.pi))
        assert result.exit_code == 0
        assert "T_unruh = 1" in result.output

    def test_natural_mass(self, runner):
        result = invoke(runner, "temperatures", "--mass", "1.0")
        t_bh = float([ln for ln in result.output.splitlines() if "T_bh" in ln][0].split()[2])
        assert t_bh == pytest.approx(1.0 / (8 * math.pi), rel=1e-11)

    def test_si_mode(self, runner):
        from scipy import constants as c

        msun = 1.98892e30
        result = invoke(runner, "temperatures", "--mass", str(msun), "--units", "si")
        assert result.exit_code == 0
        t_bh = float([ln for ln in result.output.splitlines() if "T_bh" in ln][0].split()[2])
        want = c.hbar * c.c**3 / (8 * math.pi * c.G * msun * c.k)
        assert t_bh == pytest.approx(want, rel=1e-9)

    def test_no_input_is_domain_error(self, runner):
        result = invoke(runner, "temperatures")
        assert result.exit_code == cli.EXIT_DOMAIN_ERROR


class TestBogoliubovCommand:
    def test_csv_table(self, runner):
        result = invoke(runner, "bogoliubov", "--grid", "0.5:2:4")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("omega,alpha,beta,defect,n_standard,n_symmetric_half")
        first = lines[1].split(",")
        om = float(first[0])
        assert float(first[4]) == pytest.approx(1.0 / (math.exp(2 * math.pi * om) - 1), rel=1e-12)
        assert float(first[5]) == pytest.approx(0.5 / (math.exp(2 * math.pi * om) - 1), rel=1e-12)

    def test_json_form(self, runner):
        result = invoke(runner, "bogoliubov", "--grid", "0.5:2:4", "--format", "json")
        obj = json.loads(result.output)
        assert len(obj["records"]) == 4

    def test_overflowing_weights_exit_3(self, runner):
        result = invoke(runner, "bogoliubov", "--grid", "100:400:4")
        assert result.exit_code == cli.EXIT_DOMAIN_ERROR
        assert "error: Bogoliubov weights overflow at omega = 300" in result.output


class TestKmsCheckCommand:
    def test_passes_and_reports(self, runner):
        result = invoke(runner, "kms-check", "--ell", "1.0", "--pairs", "16")
        assert result.exit_code == 0
        assert "extracted temperature" in result.output

    @pytest.mark.parametrize(
        "ell, message",
        [
            ("nan", "ell must be positive and finite"),
            ("inf", "ell must be positive and finite"),
            ("0", "ell must be positive and finite"),
            ("-1", "ell must be positive and finite"),
            ("1e-300", "not finite"),
            ("0.005", "not finite"),
            ("1e200", "not finite"),
        ],
    )
    def test_bad_ell_exits_3(self, runner, ell, message):
        result = invoke(runner, "kms-check", "--ell", ell)
        assert result.exit_code == cli.EXIT_DOMAIN_ERROR
        assert "error: " in result.output and message in result.output
        assert "fitted period" not in result.output

    @pytest.mark.parametrize("ell", ["0.05", "0.1"])
    def test_small_ell_fits_the_exact_period(self, runner, ell):
        result = invoke(runner, "kms-check", "--ell", ell)
        assert result.exit_code == 0
        period = f"{2 * math.pi * float(ell):.12g}"
        assert f"fitted period: {period} (2 pi ell = {period})" in result.output

    def test_large_ell_misfit_fails_the_temperature_gate(self, runner):
        # the scan brackets the wrong point at ell = 1000 (period 6e-5 off)
        result = invoke(runner, "kms-check", "--ell", "1000")
        assert result.exit_code == cli.EXIT_CHECK_FAILURE
        assert "extracted temperature" in result.output

    def test_too_few_pairs_exits_3(self, runner):
        result = invoke(runner, "kms-check", "--pairs", "4")
        assert result.exit_code == cli.EXIT_DOMAIN_ERROR
        assert "error: need at least 8 sample pairs" in result.output

    def test_same_pairs_as_verify(self, runner):
        # verify's kms-twist check and the default kms-check share the sampler
        check = cli._check_kms_twist()
        result = invoke(runner, "kms-check")
        assert f"max residual at shift 2 pi ell: {check.measured:.3e}" in result.output


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, rindler_lab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
