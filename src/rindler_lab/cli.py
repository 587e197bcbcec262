"""Command-line scenario runner and verification harness.

Subcommands: ``spectrum`` (sweep a scenario over a frequency grid and
write CSV/JSON), ``verify`` (run named cross-check suites), ``temperatures``
(acceleration/mass temperature report), ``bogoliubov`` (coefficient table
in both conventions) and ``kms-check`` (imaginary-period scan).

Configuration comes from an INI file (``--config``) whose values are
overridden by command-line flags; the full effective configuration is
echoed into the output metadata so runs are reproducible.  Output files
are deterministic byte for byte for a fixed configuration and version.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 numeric
domain error or numeric non-convergence (such as an exhausted quadrature
budget).
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import sys
from itertools import repeat
from typing import Callable, Optional

import click
import numpy as np

from . import __version__, numerics, perturbation, spacetime, vacua
from .errors import ConfigError, ConvergenceError, DomainError
from .modes import ModeKind, ModeSpec, eval_mode
from .perturbation import Method, Scenario, ScenarioSpec, Spectrum
from .spacetime import DimensionlessParams, EventRindler

EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DOMAIN_ERROR = 3

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class GridSpec:
    start: float
    stop: float
    points: int
    spacing: str = "linear"  # or "log"

    def values(self) -> list[float]:
        if self.points < 1:
            raise ConfigError("grid needs points >= 1")
        if not (self.start < self.stop):
            raise ConfigError("grid needs start < stop")
        if self.spacing == "log":
            if self.start <= 0:
                raise ConfigError("log grid needs start > 0")
            return list(np.geomspace(self.start, self.stop, self.points))
        if self.spacing != "linear":
            raise ConfigError("grid spacing must be 'linear' or 'log'")
        return list(np.linspace(self.start, self.stop, self.points))


@dataclasses.dataclass
class RunConfig:
    scenario: str = "accel-atom"
    method: str = "closed"
    params: dict[str, float] = dataclasses.field(default_factory=dict)
    grid: GridSpec = dataclasses.field(default_factory=lambda: GridSpec(0.1, 3.0, 30, "log"))
    output_path: Optional[str] = None
    output_format: str = "csv"
    checks: list[str] = dataclasses.field(default_factory=list)

    def effective(self) -> dict:
        return {
            "scenario": self.scenario,
            "method": self.method,
            "params": dict(sorted(self.params.items())),
            "grid": dataclasses.asdict(self.grid),
            "output": {"path": self.output_path, "format": self.output_format},
            "version": __version__,
        }


def parse_grid_token(token: str) -> GridSpec:
    """Parse ``start:stop:points[:log]``."""
    parts = token.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid must be start:stop:points[:log], got {token!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid field in {token!r}: {exc}") from exc
    spacing = "linear"
    if len(parts) == 4:
        if parts[3] not in ("log", "linear"):
            raise ConfigError("grid spacing suffix must be 'log' or 'linear'")
        spacing = parts[3]
    return GridSpec(start, stop, points, spacing)


_PARAM_FIELDS = ("ell", "omega_atom", "nu_field", "coupling_g", "z0", "v0", "rg")


def load_config(path: Optional[str]) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    try:
        if parser.has_section("scenario"):
            cfg.scenario = parser.get("scenario", "name", fallback=cfg.scenario)
            cfg.method = parser.get("scenario", "method", fallback=cfg.method)
        if parser.has_section("params"):
            for key in parser.options("params"):
                if key not in _PARAM_FIELDS:
                    raise ConfigError(f"unknown parameter {key!r} in [params]")
                cfg.params[key] = parser.getfloat("params", key)
        if parser.has_section("grid"):
            cfg.grid = GridSpec(
                parser.getfloat("grid", "start", fallback=cfg.grid.start),
                parser.getfloat("grid", "stop", fallback=cfg.grid.stop),
                parser.getint("grid", "points", fallback=cfg.grid.points),
                parser.get("grid", "spacing", fallback=cfg.grid.spacing),
            )
        if parser.has_section("output"):
            cfg.output_path = parser.get("output", "path", fallback=None)
            cfg.output_format = parser.get("output", "format", fallback=cfg.output_format)
        if parser.has_section("checks"):
            names = parser.get("checks", "names", fallback="")
            cfg.checks = [n.strip() for n in names.split(",") if n.strip()]
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"config parse error in {path!r}: {exc}") from exc
    return cfg


def build_params(cfg: RunConfig) -> DimensionlessParams:
    try:
        return DimensionlessParams(**cfg.params)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"bad parameters: {exc}") from exc


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


_CSV_ROW = ",".join([_FLOAT_FMT] * 4 + ["%s", _FLOAT_FMT]) + "\n"


def _columns(spectrum: Spectrum):
    # (freq, probability, amplitude_re, amplitude_im, method, error_estimate) per point
    amp = spectrum.amplitude
    floats = (c.tolist() for c in (spectrum.freq, spectrum.probability, amp.real, amp.imag))
    return zip(*floats, repeat(spectrum.method), spectrum.error_estimate.tolist())


def write_spectrum_csv(spectrum: Spectrum, effective: dict, stream) -> None:
    stream.write(f"# config {json.dumps(effective, sort_keys=True, separators=(',', ':'))}\n")
    stream.write("freq,probability,amplitude_re,amplitude_im,method,error_estimate\n")
    stream.writelines(_CSV_ROW % row for row in _columns(spectrum))
    if spectrum.fitted_temperature is not None:
        stream.write(f"# fitted_temperature {_fmt(spectrum.fitted_temperature)}\n")
        stream.write(f"# fit_residual {_fmt(spectrum.fit_residual)}\n")


_JSON_KEYS = ("freq", "probability", "amplitude_re", "amplitude_im", "method", "error_estimate")


def write_spectrum_json(spectrum: Spectrum, effective: dict, stream) -> None:
    records = [dict(zip(_JSON_KEYS, row)) for row in _columns(spectrum)]
    fit = {"fitted_temperature": spectrum.fitted_temperature, "fit_residual": spectrum.fit_residual}
    json.dump({"meta": effective, "records": records, "fit": fit}, stream, sort_keys=True, indent=1)
    stream.write("\n")


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    check_name: str
    status: str  # "pass" | "fail"
    measured: float
    expected: float
    tolerance: float
    details: str


def _check_gamma_identity() -> VerificationReport:
    xs = np.geomspace(1e-3, 30.0, 50)
    worst = 0.0
    for x in xs:
        lg = numerics.log_gamma_complex(complex(0.0, x))
        val = math.exp(2.0 * lg.real) * x * math.sinh(math.pi * x)
        worst = max(worst, abs(val / math.pi - 1.0))
    tol = 1e-12
    return VerificationReport(
        "gamma-identity",
        "pass" if worst < tol else "fail",
        worst,
        0.0,
        tol,
        "|Gamma(ix)|^2 x sinh(pi x) = pi over 50 log-spaced x in [1e-3, 30]",
    )


def _check_quad_vs_closed() -> VerificationReport:
    worst = 0.0
    for om_ell in (0.1, 0.5, 1.0, 2.0, 3.0):
        params = DimensionlessParams(omega_atom=om_ell)
        rec = perturbation.accel_atom_probability(params, Method.BOTH)
        worst = max(worst, rec.error_estimate)
    tol = 1e-6
    return VerificationReport(
        "quad-vs-closed",
        "pass" if worst < tol else "fail",
        worst,
        0.0,
        tol,
        "accelerated-atom probability: rotated quadrature vs closed form",
    )


_KMS_SEED = 20260809


def _kms_sample_pairs(n_pairs: int, seed: int) -> list[tuple[EventRindler, EventRindler]]:
    """Seeded event pairs, each ``tbar`` and ``zbar`` uniform on [-2, 2].

    Draws ``x.tbar, x.zbar, x'.tbar, x'.zbar`` pair by pair, so a seed
    gives the same pairs in ``verify`` and ``kms-check``.
    """
    rng = np.random.default_rng(seed)
    return [
        (
            EventRindler(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            EventRindler(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        for _ in range(n_pairs)
    ]


def _check_kms_twist() -> VerificationReport:
    result = vacua.kms_residual(_kms_sample_pairs(64, _KMS_SEED), ell=1.0)
    tol = 1e-10
    return VerificationReport(
        "kms-twist",
        "pass" if result.max_residual < tol else "fail",
        result.max_residual,
        0.0,
        tol,
        "twisted two-point residual at imaginary shift 2 pi ell",
    )


def _check_bogoliubov_norm() -> VerificationReport:
    worst = 0.0
    for om in np.geomspace(0.05, 10.0, 25):
        pair = vacua.bogoliubov_closed(float(om))
        worst = max(worst, abs(pair.normalization_defect))
    tol = 1e-12
    return VerificationReport(
        "bogoliubov-norm",
        "pass" if worst < tol else "fail",
        worst,
        0.0,
        tol,
        "| |alpha|^2 - |beta|^2 - 1 | over Omega in [0.05, 10]",
    )


def _check_roundtrip_coords() -> VerificationReport:
    worst = 0.0
    for zbar in np.linspace(-5, 5, 9):
        for tbar in np.linspace(-5, 5, 9):
            e = spacetime.rindler_to_minkowski(EventRindler(float(tbar), float(zbar)), 1.0)
            back = spacetime.minkowski_to_rindler(e, 1.0)
            worst = max(
                worst, abs(complex(back.tbar) - tbar), abs(back.zbar - zbar)
            )
    # the chart's condition number e^{2|tbar|} puts the double-precision
    # floor near 2.4e-12 at the grid corner; 1e-9 leaves honest headroom
    tol = 1e-9
    return VerificationReport(
        "roundtrip-coords",
        "pass" if worst < tol else "fail",
        worst,
        0.0,
        tol,
        "accelerated-chart round trip over tbar, zbar in [-5, 5]",
    )


def _check_ratio_thermal() -> VerificationReport:
    params = DimensionlessParams(nu_field=1.0, omega_atom=100.0, ell=1.0, z0=1.0)
    ratio = perturbation.absorption_emission_ratio(params)
    expected = math.exp(2.0 * math.pi)
    measured = abs(ratio / expected - 1.0)
    tol = 1e-2
    return VerificationReport(
        "ratio-thermal",
        "pass" if measured < tol else "fail",
        measured,
        0.0,
        tol,
        "absorption/emission ratio vs exp(2 pi nu ell) at omega z0 = 100",
    )


def _check_temperature_identity() -> VerificationReport:
    worst = 0.0
    for rg in (0.5, 1.0, 10.0):
        temps = spacetime.temperatures(rg=rg)
        worst = max(worst, abs(temps.t_hbar / temps.t_bh - 1.0))
    tol = 1e-12
    return VerificationReport(
        "temperature-identity",
        "pass" if worst < tol else "fail",
        worst,
        1.0,
        tol,
        "near-horizon equivalence temperature equals the horizon temperature",
    )


def _check_mirror_boundary() -> VerificationReport:
    worst = 0.0
    # static mirror: u = v
    t = np.linspace(-4.0, 4.0, 101)
    for om in (0.5, 1.0, 2.0):
        vals = eval_mode(ModeSpec(ModeKind.MIRROR_STATIC, om), t, t)
        worst = max(worst, float(np.max(np.abs(vals))))
    # accelerated mirror: u v = -1
    u = -np.exp(np.linspace(-3.0, 3.0, 101))
    for om in (0.5, 1.0, 2.0):
        vals = eval_mode(ModeSpec(ModeKind.MIRROR_FAMILY_2, om), u, -1.0 / u)
        worst = max(worst, float(np.max(np.abs(vals))))
    tol = 1e-12
    return VerificationReport(
        "mirror-boundary",
        "pass" if worst < tol else "fail",
        worst,
        0.0,
        tol,
        "mirror-constrained modes vanish on their mirror surfaces",
    )


CHECKS: dict[str, Callable[[], VerificationReport]] = {
    "gamma-identity": _check_gamma_identity,
    "quad-vs-closed": _check_quad_vs_closed,
    "kms-twist": _check_kms_twist,
    "bogoliubov-norm": _check_bogoliubov_norm,
    "roundtrip-coords": _check_roundtrip_coords,
    "ratio-thermal": _check_ratio_thermal,
    "temperature-identity": _check_temperature_identity,
    "mirror-boundary": _check_mirror_boundary,
}


def run_verify(names: list[str]) -> list[VerificationReport]:
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError(
            f"unknown checks {unknown}; available: {', '.join(sorted(CHECKS))}"
        )
    return [CHECKS[name]() for name in names]


# ---------------------------------------------------------------------------
# click commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__, prog_name="rindler-lab")
def main() -> None:
    """Acceleration-radiation scenario runner and verification harness."""


def _fail(exc: Exception, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="INI config file.")
@click.option("--scenario", type=click.Choice([s.value for s in Scenario]), default=None)
@click.option("--method", type=click.Choice([m.value for m in Method]), default=None)
@click.option("--grid", "grid_token", default=None, help="start:stop:points[:log]")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--format", "output_format", type=click.Choice(["csv", "json"]), default=None)
@click.option(
    "--param",
    "param_overrides",
    multiple=True,
    help="Override one physical parameter, e.g. --param omega_atom=2.0",
)
def spectrum(config_path, scenario, method, grid_token, output_path, output_format, param_overrides):
    """Sweep a scenario over a frequency grid; write records plus thermal fit."""
    try:
        cfg = load_config(config_path)
        if scenario:
            cfg.scenario = scenario
        if method:
            cfg.method = method
        if grid_token:
            cfg.grid = parse_grid_token(grid_token)
        if output_path:
            cfg.output_path = output_path
        if output_format:
            cfg.output_format = output_format
        for token in param_overrides:
            key, _, raw = token.partition("=")
            if key not in _PARAM_FIELDS:
                raise ConfigError(f"unknown parameter {key!r}")
            try:
                cfg.params[key] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        try:
            scen = Scenario(cfg.scenario)
            meth = Method(cfg.method)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        spec = ScenarioSpec(scen, build_params(cfg), meth)
        grid_values = cfg.grid.values()
    except ConfigError as exc:
        _fail(exc, EXIT_CONFIG_ERROR)
    try:
        result = perturbation.spectrum_sweep(spec, grid_values)
    except (DomainError, ConvergenceError) as exc:
        _fail(exc, EXIT_DOMAIN_ERROR)
    effective = cfg.effective()
    writer = write_spectrum_csv if cfg.output_format == "csv" else write_spectrum_json
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
            writer(result, effective, fh)
        click.echo(f"wrote {cfg.output_path}")
    else:
        writer(result, effective, click.get_text_stream("stdout"))
    if result.fitted_temperature is not None:
        click.echo(f"fitted temperature: {result.fitted_temperature:.9g}")


@main.command()
@click.argument("checks", nargs=-1)
@click.option("--config", "config_path", type=click.Path(), default=None)
def verify(checks, config_path):
    """Run named verification checks (all of them when none are given)."""
    try:
        cfg = load_config(config_path)
        names = list(checks) or cfg.checks or sorted(CHECKS)
        reports = run_verify(names)
    except ConfigError as exc:
        _fail(exc, EXIT_CONFIG_ERROR)
    except (DomainError, ConvergenceError) as exc:
        _fail(exc, EXIT_DOMAIN_ERROR)
    failed = False
    for rep in reports:
        click.echo(
            f"[{rep.status.upper():4s}] {rep.check_name}: measured={rep.measured:.3e} "
            f"expected={rep.expected:g} tol={rep.tolerance:g} ({rep.details})"
        )
        failed = failed or rep.status != "pass"
    if failed:
        raise SystemExit(EXIT_CHECK_FAILURE)


@main.command()
@click.option("--alpha", type=float, default=None, help="Proper acceleration.")
@click.option("--mass", type=float, default=None, help="Horizon mass.")
@click.option("--rg", type=float, default=None, help="Horizon radius.")
@click.option("--units", type=click.Choice(["natural", "si"]), default="natural")
def temperatures(alpha, mass, rg, units):
    """Report the Unruh, horizon and equivalence temperatures."""
    try:
        temps = spacetime.temperatures(alpha=alpha, mass=mass, rg=rg, units=units)
    except DomainError as exc:
        _fail(exc, EXIT_DOMAIN_ERROR)
    unit_label = "" if units == "natural" else " K"
    click.echo(f"T_unruh = {temps.t_unruh:.12g}{unit_label}")
    click.echo(f"T_bh    = {temps.t_bh:.12g}{unit_label}")
    click.echo(f"T_hbar  = {temps.t_hbar:.12g}{unit_label}")


@main.command()
@click.option("--grid", "grid_token", default="0.1:3:13", help="start:stop:points[:log]")
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--format", "output_format", type=click.Choice(["csv", "json"]), default="csv")
def bogoliubov(grid_token, output_path, output_format):
    """Tabulate Bogoliubov pairs and occupations in both conventions."""
    try:
        grid = parse_grid_token(grid_token).values()
    except ConfigError as exc:
        _fail(exc, EXIT_CONFIG_ERROR)
    try:
        rows = []
        for om in grid:
            std = vacua.bogoliubov_closed(om, "standard")
            lit = vacua.bogoliubov_closed(om, "symmetric")
            rows.append(
                {
                    "omega": om,
                    "alpha": std.alpha.real,
                    "beta": std.beta.real,
                    "defect": std.normalization_defect,
                    "n_standard": vacua.particle_number_foreign_vacuum(om, "standard"),
                    "n_symmetric_half": vacua.particle_number_foreign_vacuum(om, "symmetric"),
                    "symmetric_defect": lit.normalization_defect,
                }
            )
    except DomainError as exc:
        _fail(exc, EXIT_DOMAIN_ERROR)
    if output_format == "json":
        text = json.dumps({"meta": {"version": __version__}, "records": rows}, sort_keys=True, indent=1) + "\n"
    else:
        header = "omega,alpha,beta,defect,n_standard,n_symmetric_half,symmetric_defect\n"
        lines = [
            ",".join(
                _fmt(row[k])
                for k in ("omega", "alpha", "beta", "defect", "n_standard", "n_symmetric_half", "symmetric_defect")
            )
            for row in rows
        ]
        text = header + "\n".join(lines) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        click.echo(f"wrote {output_path}")
    else:
        click.echo(text, nl=False)


@main.command("kms-check")
@click.option("--ell", type=float, default=1.0)
@click.option("--pairs", "n_pairs", type=int, default=64)
@click.option("--seed", type=int, default=_KMS_SEED)
def kms_check(ell, n_pairs, seed):
    """Scan the imaginary period of the twisted correlator.

    Exits 1 unless the residual at 2 pi ell is below 1e-10 and the extracted
    temperature is within 1e-9 of 1/(2 pi ell), relative.
    """
    try:
        result = vacua.kms_residual(_kms_sample_pairs(n_pairs, seed), ell)
    except DomainError as exc:
        _fail(exc, EXIT_DOMAIN_ERROR)
    expected_t = 1.0 / (2.0 * math.pi * ell)
    click.echo(f"max residual at shift 2 pi ell: {result.max_residual:.3e}")
    click.echo(f"fitted period: {result.fitted_period:.12g} (2 pi ell = {2*math.pi*ell:.12g})")
    click.echo(f"extracted temperature: {result.t_extracted:.12g} (expected {expected_t:.12g})")
    if result.max_residual > 1e-10 or abs(result.t_extracted / expected_t - 1.0) > 1e-9:
        raise SystemExit(EXIT_CHECK_FAILURE)


if __name__ == "__main__":
    main()
