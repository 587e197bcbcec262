"""First-order excitation and emission probabilities for five scenarios.

Scenarios
---------
``ACCEL_ATOM``
    Atom on a uniformly accelerated worldline, field in the inertial
    vacuum.  Excitation-with-emission probability carries the
    Bose-Einstein factor in the dimensionless atom gap ``omega * ell``.
``STATIC_ATOM_RINDLER_VAC``
    Atom at rest at ``z0``, field in the accelerated (boost) vacuum.  The
    emitted-mode spectrum is thermal in the field frequency
    ``nu * ell``, exactly so only in the far-atom limit
    ``omega * z0 >> 1``.
``ACCEL_ATOM_MIRROR``
    Accelerated atom above a static mirror, inertial vacuum.  Rate-squared
    normalized excitation probability, thermal in ``omega/alpha``.  Closed
    form only: no independent quadrature route exists for it.
``ACCEL_MIRROR_STATIC_ATOM``
    Static atom below an accelerated mirror, boost vacuum.  Per-mode
    emission probabilities are thermal in the mode frequency while the
    emitted state keeps deterministic inter-mode phases (a pure state).
``FREEFALL_BH``
    Slow radial infall outside a horizon with the field in the
    no-outgoing-radiation vacuum; exact delegation to the static-atom
    scenario under ``ell = 2 rg``, ``z0 = 2 v0 rg``.

Probabilities that grow with the (formally infinite) interaction time are
reported per squared unit of it.  A :class:`Spectrum` holds one read-only
array per output column, checked once for ``probability == |amplitude|**2``.

One sign choice is deliberate: the per-mode emission factor of the
accelerated-mirror scenario is implemented as ``1/(exp(2 pi Omega) - 1)``,
positive for ``Omega > 0``, rather than the occasionally quoted
``1/(1 - exp(2 pi Omega))`` whose sign is unphysical for a probability.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import numerics
from .errors import DomainError
from .numerics import DEFAULT_QUAD_CONFIG, QuadratureConfig
from .spacetime import DimensionlessParams

__all__ = [
    "Scenario",
    "Method",
    "ScenarioSpec",
    "SpectrumRecord",
    "Spectrum",
    "planck_factor",
    "accel_atom_probability",
    "static_atom_rindler_probability",
    "static_atom_asymptotic_probability",
    "absorption_emission_ratio",
    "freefall_map",
    "w_omega",
    "accel_mirror_mode_probability",
    "mirror_family_amplitudes",
    "accel_atom_mirror_probability",
    "accel_atom_mirror_amplitudes",
    "freefall_bh_probability",
    "spectrum_sweep",
]


class Scenario(enum.Enum):
    ACCEL_ATOM = "accel-atom"
    STATIC_ATOM_RINDLER_VAC = "static-atom-rindler"
    ACCEL_ATOM_MIRROR = "accel-atom-mirror"
    ACCEL_MIRROR_STATIC_ATOM = "accel-mirror-static-atom"
    FREEFALL_BH = "freefall-bh"


class Method(enum.Enum):
    CLOSED_FORM = "closed"
    QUADRATURE = "quad"
    BOTH = "both"


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario, its physical parameters and the evaluation method."""

    scenario: Scenario
    params: DimensionlessParams
    method: Method = Method.CLOSED_FORM


class SpectrumRecord(NamedTuple):
    """One frequency point of a scenario spectrum: a row of a :class:`Spectrum`.

    ``error_estimate`` is 0 for closed forms, the quadrature error bound
    propagated to the probability for ``Method.QUADRATURE``, and the
    relative cross-method residual for ``Method.BOTH``.
    """

    freq: float
    probability: float
    amplitude: complex
    method: str
    error_estimate: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A sweep's output columns plus an optional thermal fit.

    ``freq``, ``probability``, ``amplitude`` (complex) and
    ``error_estimate`` are read-only arrays with one entry per grid point;
    ``method`` labels the whole sweep.  Every ``probability`` is finite,
    nonnegative and within ``1e-12 max(1, p)`` of ``|amplitude|**2``.
    """

    scenario: ScenarioSpec
    freq: np.ndarray
    probability: np.ndarray
    amplitude: np.ndarray
    error_estimate: np.ndarray
    method: str
    fitted_temperature: Optional[float] = None
    fit_residual: Optional[float] = None

    def __post_init__(self) -> None:
        for column in (self.freq, self.probability, self.amplitude, self.error_estimate):
            column.flags.writeable = False

    @property
    def records(self) -> tuple[SpectrumRecord, ...]:
        """The columns as rows, built on each access."""
        amp, err = self.amplitude.tolist(), self.error_estimate.tolist()
        columns = (self.freq.tolist(), self.probability.tolist(), amp, repeat(self.method), err)
        return tuple(map(SpectrumRecord, *columns))


def planck_factor(x: float) -> float:
    """Bose-Einstein occupation ``1/(exp(x) - 1)`` for ``x > 0``, stably."""
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError("planck_factor requires x > 0")
    return math.exp(-x) / (-math.expm1(-x))


def _modulus_sq(amp: complex) -> float:
    """``|amp|**2``, or inf where it overflows (a float power raises there)."""
    try:
        return abs(amp) ** 2
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# scenario: uniformly accelerated atom, inertial vacuum
# ---------------------------------------------------------------------------


def accel_atom_probability(
    params: DimensionlessParams,
    method: Method = Method.CLOSED_FORM,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> SpectrumRecord:
    """Excitation-with-emission probability of the accelerated atom.

    Closed form ``P = 2 pi g**2 ell / omega * 1/(exp(2 pi omega ell) - 1)``
    where ``omega = omega_atom / ell`` is the physical gap.  The
    quadrature route substitutes the emitted-mode phase along the
    worldline into a power-law oscillatory integral and evaluates it by
    contour rotation; the emitted-field frequency enters the amplitude
    only as a pure phase, so the probability depends on ``omega * ell``
    alone.
    """
    return _point(Scenario.ACCEL_ATOM, params, params.omega_atom, method, cfg)


def _accel_atom_closed(params: DimensionlessParams, gaps: list[float]):
    g, ell = params.coupling_g, params.ell
    probs = [
        2.0 * math.pi * g * g * ell * ell / om_ell * planck_factor(2.0 * math.pi * om_ell)
        for om_ell in gaps
    ]
    return probs, [cmath.sqrt(p) for p in probs]


def _accel_atom_quad(params: DimensionlessParams, gaps: np.ndarray, cfg: QuadratureConfig):
    kernel = numerics.oscillatory_power_quad(gaps, -1.0, -1, cfg)
    scale = params.coupling_g * params.ell
    return scale * kernel.value, scale * kernel.error


# ---------------------------------------------------------------------------
# scenario: static atom in the boost vacuum
# ---------------------------------------------------------------------------


def _static_atom_scales(params: DimensionlessParams) -> tuple[float, float]:
    # amplitude prefactor g/omega and ray length X = 2 omega z0
    omega, z0 = params.omega_atom / params.ell, params.z0
    if omega <= 0 or z0 <= 0:
        raise DomainError("omega and z0 must be positive")
    return params.coupling_g / omega, 2.0 * omega * z0


def static_atom_rindler_probability(
    params: DimensionlessParams,
    method: Method = Method.CLOSED_FORM,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> SpectrumRecord:
    """Excitation-with-emission probability of the static atom.

    Exact closed form
    ``P = (g**2/omega**2) exp(-pi nu ell) |gamma(1 + i nu ell, -2 i omega z0)|**2``
    with the incomplete gamma carrying the finite wedge-crossing history;
    the asymptotic (far-atom) limit is the thermal
    ``P ~ (2 pi nu ell g**2 / omega**2) * 1/(exp(2 pi nu ell) - 1)``.
    The quadrature route integrates the mode phase over the crossing
    interval directly (:func:`~rindler_lab.numerics.finite_ray_integral`).
    Above ``2 omega z0 = LARGE_X_SWITCH``, where the closed route returns
    the regularized limit, ``Method.BOTH`` checks it against the rotated
    contour of that limit instead of the finite ray.

    The thermal factor is a function of the field frequency here, not of
    the atom gap.
    """
    return _point(Scenario.STATIC_ATOM_RINDLER_VAC, params, params.nu_field, method, cfg)


def _static_atom_closed(params: DimensionlessParams, nus: list[float]):
    # amplitude = (g/omega) e^{-pi nu ell/2} gamma(1 + i nu ell, -i X), with
    # one incomplete-gamma call per sweep because X is fixed across it
    scale, x_upper = _static_atom_scales(params)
    gammas = numerics.lower_incomplete_gamma(
        np.array([complex(1.0, nu_ell) for nu_ell in nus]), complex(0.0, -x_upper)
    )
    amps = [
        scale * math.exp(-math.pi * nu_ell / 2.0) * gamma
        for nu_ell, gamma in zip(nus, gammas.tolist())
    ]
    return [abs(amp) ** 2 for amp in amps], amps


def _static_atom_ray(params: DimensionlessParams, nus: np.ndarray, cfg: QuadratureConfig):
    scale, x_upper = _static_atom_scales(params)
    ray = numerics.finite_ray_integral(nus, x_upper, cfg)
    return scale * ray.value, scale * ray.error


def _static_atom_cross(params: DimensionlessParams, nus: np.ndarray, cfg: QuadratureConfig):
    # the quadrature of whatever the closed route returns: the finite ray
    # below the switch, the regularized limit above it
    scale, x_upper = _static_atom_scales(params)
    if x_upper <= numerics.LARGE_X_SWITCH:
        return _static_atom_ray(params, nus, cfg)
    limit = numerics.oscillatory_power_quad(nus, 0.0, +1, cfg)
    return scale * limit.value, scale * limit.error


def _static_atom_normalizer(params: DimensionlessParams, nu_ell: float) -> float:
    omega = params.omega_atom / params.ell
    return 2.0 * math.pi * nu_ell * (params.coupling_g * params.coupling_g) / (omega * omega)


def static_atom_asymptotic_probability(params: DimensionlessParams) -> float:
    """Far-atom thermal limit of :func:`static_atom_rindler_probability`."""
    nu_ell = params.nu_field
    if nu_ell <= 0:
        raise DomainError("nu_field must be positive")
    return _static_atom_normalizer(params, nu_ell) * planck_factor(2.0 * math.pi * nu_ell)


def absorption_emission_ratio(params: DimensionlessParams) -> float:
    """Ratio of photon absorption to excitation-with-emission probability.

    Exact form
    ``exp(2 pi nu ell) * |gamma(1 + i nu ell, +2 i omega z0)|**2
    / |gamma(1 + i nu ell, -2 i omega z0)|**2``, which approaches the
    thermal (detailed-balance) ratio ``exp(2 pi nu ell)`` only for
    ``omega z0 >> 1``.
    """
    nu_ell = params.nu_field
    if nu_ell <= 0:
        raise DomainError("nu_field must be positive")
    _, x_upper = _static_atom_scales(params)
    s = complex(1.0, nu_ell)
    g_abs = numerics.lower_incomplete_gamma(s, complex(0.0, +x_upper))
    g_emit = numerics.lower_incomplete_gamma(s, complex(0.0, -x_upper))
    return math.exp(2.0 * math.pi * nu_ell) * abs(g_abs) ** 2 / abs(g_emit) ** 2


# ---------------------------------------------------------------------------
# scenario: accelerated mirror, static atom (boost vacuum)
# ---------------------------------------------------------------------------


def w_omega(
    omega_mode: float,
    omega_atom: float,
    ell: float,
    method: Method = Method.CLOSED_FORM,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
    rotation: int = +1,
) -> complex:
    """Overlap kernel of the static atom with one boost mode.

    Closed form
    ``W = i Omega (1/(omega ell))**(i Omega) exp(-pi Omega/2) Gamma(i Omega)``
    with ``omega`` the physical atom gap; its modulus obeys
    ``|W|**2 = 2 pi Omega / (exp(2 pi Omega) - 1)`` and its phase is the
    slowly varying argument of ``Gamma(i Omega)`` (which starts at
    ``-pi/2`` at small ``Omega``) on top of the log phase.

    The quadrature route rotates the defining half-line time integral
    onto the imaginary axis.  ``rotation = -1`` evaluates the kernel of
    the opposite half line, whose orientation is fixed here so that
    ``w_omega(..., rotation=-1) == conj(w_omega(..., rotation=+1))``.
    """
    if omega_mode <= 0:
        raise DomainError("omega_mode must be positive")
    if omega_atom <= 0 or ell <= 0:
        raise DomainError("omega_atom and ell must be positive")
    if rotation not in (+1, -1):
        raise DomainError("rotation must be +1 or -1")
    if method is Method.QUADRATURE:
        w, _ = _w_omega_quad(np.array([omega_mode]), omega_atom, ell, rotation, cfg)
        return complex(w[0])
    gamma = numerics.gamma_complex(complex(0.0, rotation * omega_mode))
    return _w_omega_closed(omega_mode, omega_atom, ell, rotation, gamma)


def _w_omega_closed(om: float, omega_atom: float, ell: float, rotation: int, gamma: complex):
    # w_omega's closed form, given gamma = Gamma(i rotation om)
    phase = cmath.exp(-1j * rotation * om * math.log(omega_atom * ell))
    core = cmath.exp(-math.pi * om / 2.0) * gamma
    return rotation * 1j * om * phase * core


def _w_omega_quad(
    modes: np.ndarray, omega_atom: float, ell: float, rotation: int, cfg: QuadratureConfig
):
    # w_omega's quadrature route over a grid, batched: kernel values and error bounds
    core = numerics.oscillatory_power_quad(modes, -1.0, rotation, cfg)
    phase = np.exp(-1j * rotation * modes * math.log(omega_atom * ell))
    return rotation * 1j * modes * phase * core.value, modes * core.error


def mirror_family_amplitudes(
    omega_mode: float,
    params: DimensionlessParams,
    method: Method = Method.CLOSED_FORM,
) -> dict[int, complex]:
    """Emission amplitudes into the three mode families, keyed 1, 2, 3.

    Families 1 and 3 (free left and right movers) couple through
    ``conj(W)`` and ``W``; the mirror-reflected family 2 couples through
    ``W - conj(W)``, all with the common prefactor
    ``g / sqrt(4 pi Omega)``.
    """
    w = w_omega(omega_mode, params.omega_atom / params.ell, params.ell, method)
    pref = params.coupling_g / math.sqrt(4.0 * math.pi * omega_mode)
    return {1: pref * w.conjugate(), 2: pref * (w - w.conjugate()), 3: pref * w}


def accel_mirror_mode_probability(
    omega_mode: float,
    params: DimensionlessParams,
    method: Method = Method.CLOSED_FORM,
) -> SpectrumRecord:
    """Per-mode emission probability below the accelerated mirror.

    The free families emit with
    ``P(Omega) = (g**2/2) * 1/(exp(2 pi Omega) - 1)``, a thermal spectrum
    at temperature ``1/(2 pi)`` in the dimensionless mode frequency; the
    record carries the family-3 amplitude so its deterministic phase
    (the pure-state correlations between frequencies) is preserved.  The
    mirror-reflected family-2 amplitude, available from
    :func:`mirror_family_amplitudes`, interferes and is not thermal on its
    own.  Its quadrature route evaluates the overlap kernel by rotated
    quadrature.
    """
    return _point(Scenario.ACCEL_MIRROR_STATIC_ATOM, params, omega_mode, method)


def _mirror_closed(params: DimensionlessParams, modes: list[float]):
    # family-3 amplitude per mode frequency, with one gamma_complex call
    # over the grid
    omega_atom, g = params.omega_atom / params.ell, params.coupling_g
    gammas = numerics.gamma_complex(np.array([complex(0.0, om) for om in modes]))
    amps = [
        g / math.sqrt(4.0 * math.pi * om) * _w_omega_closed(om, omega_atom, params.ell, +1, gamma)
        for om, gamma in zip(modes, gammas.tolist())
    ]
    return [abs(amp) ** 2 for amp in amps], amps


def _mirror_quad(params: DimensionlessParams, modes: np.ndarray, cfg: QuadratureConfig):
    w, w_err = _w_omega_quad(modes, params.omega_atom / params.ell, params.ell, +1, cfg)
    pref = params.coupling_g / np.sqrt(4.0 * math.pi * modes)
    return pref * w, pref * w_err


# ---------------------------------------------------------------------------
# scenario: accelerated atom above a static mirror (inertial vacuum)
# ---------------------------------------------------------------------------


# Below this gap P = 1/(4 pi^2 w^2) passes the largest double.
_ATOM_MIRROR_MIN_GAP = 1.0 / (2.0 * math.pi * math.sqrt(sys.float_info.max))


def accel_atom_mirror_probability(omega_over_a: float) -> float:
    """Excitation probability per squared unit interaction time.

    The amplitude per unit time is the positive-frequency-mode
    normalization ``exp(-pi w/2)/sqrt(8 pi w sinh(pi w))`` (``w`` the gap
    in acceleration units) feeding two emitted modes of opposite
    direction, so
    ``P = 2 * exp(-pi w) / (8 pi w sinh(pi w))
       = (1/(2 pi w)) * 1/(exp(2 pi w) - 1)``.
    Gaps below about 1.19e-155, where ``P`` overflows, raise
    ``DomainError``.
    """
    w = omega_over_a
    if w <= 0 or not math.isfinite(w):
        raise DomainError("omega_over_a must be positive and finite")
    if w < _ATOM_MIRROR_MIN_GAP:
        raise DomainError(f"accel-atom-mirror probability overflows to inf at frequency {w!r}")
    return planck_factor(2.0 * math.pi * w) / (2.0 * math.pi * w)


def accel_atom_mirror_amplitudes(omega_over_a: float) -> tuple[complex, complex]:
    """Per-unit-time amplitudes of the two emitted modes (relative phase -1).

    Refuses the gaps that :func:`accel_atom_mirror_probability` refuses.
    """
    w = omega_over_a
    accel_atom_mirror_probability(w)
    # exp(-pi w/2)/sqrt(8 pi w sinh(pi w)), with sinh's growth cancelled
    n = math.exp(-math.pi * w) / math.sqrt(4.0 * math.pi * w * -math.expm1(-2.0 * math.pi * w))
    return complex(n), complex(-n)


def _atom_mirror_closed(params: DimensionlessParams, gaps: list[float]):
    probs = [accel_atom_mirror_probability(w) for w in gaps]
    return probs, [cmath.sqrt(p) for p in probs]


# ---------------------------------------------------------------------------
# scenario: free fall outside a horizon (exact delegation)
# ---------------------------------------------------------------------------


def freefall_map(params: DimensionlessParams) -> DimensionlessParams:
    """Map infall parameters onto the equivalent static-atom parameters.

    ``ell = 2 rg`` (inverse effective acceleration) and ``z0 = 2 v0 rg``
    (equivalent static position); all other fields pass through, with
    ``nu_field`` already dimensionless in the mapped ``ell``.
    """
    if not (0.0 < params.v0 <= 0.3):
        raise DomainError("freefall scenario requires 0 < v0 <= 0.3")
    return replace(params, ell=2.0 * params.rg, z0=2.0 * params.v0 * params.rg)


def freefall_bh_probability(
    params: DimensionlessParams,
    method: Method = Method.CLOSED_FORM,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> SpectrumRecord:
    """Emission probability for the infalling atom; bitwise equal to the
    static-atom scenario evaluated at the mapped parameters."""
    return _point(Scenario.FREEFALL_BH, freefall_map(params), params.nu_field, method, cfg)


# ---------------------------------------------------------------------------
# the scenario table, records and thermal fits
# ---------------------------------------------------------------------------


class _Routes(NamedTuple):
    """How one scenario evaluates a list of frequencies.

    ``closed(params, freqs)`` gives ``(probabilities, amplitudes)`` lists
    from per-point code; ``quad(params, grid, cfg)`` gives
    ``(amplitudes, their error bounds)`` arrays from one batched
    quadrature, or is ``None`` for a closed-form-only scenario; ``cross``
    is what ``Method.BOTH`` checks the closed form against, when not
    ``quad``.  ``normalizer(params, grid)`` is the non-thermal prefactor
    that divides the probabilities before the Planck fit: ``+ - * /``
    only, so an array gives the bytes of per-point calls.
    """

    closed: Callable
    normalizer: Callable
    quad: Optional[Callable] = None
    cross: Optional[Callable] = None


_STATIC_ATOM = _Routes(
    _static_atom_closed, _static_atom_normalizer, _static_atom_ray, _static_atom_cross
)

# Freefall shares the static-atom routes; its parameters are mapped by
# freefall_map before they reach them.
_SCENARIOS: dict[Scenario, _Routes] = {
    Scenario.ACCEL_ATOM: _Routes(
        _accel_atom_closed,
        lambda p, om_ell: 2.0 * math.pi * (p.coupling_g * p.coupling_g) * p.ell * p.ell / om_ell,
        _accel_atom_quad,
    ),
    Scenario.STATIC_ATOM_RINDLER_VAC: _STATIC_ATOM,
    Scenario.FREEFALL_BH: _STATIC_ATOM,
    Scenario.ACCEL_MIRROR_STATIC_ATOM: _Routes(
        _mirror_closed, lambda p, om: 0.5 * (p.coupling_g * p.coupling_g), _mirror_quad
    ),
    Scenario.ACCEL_ATOM_MIRROR: _Routes(
        _atom_mirror_closed, lambda p, w: 1.0 / (2.0 * math.pi * w)
    ),
}


def _validate(scenario: Scenario, grid: np.ndarray, probs: np.ndarray, amps: np.ndarray) -> None:
    # name the first point whose probability is not finite and nonnegative
    # or not |amplitude|**2 to 1e-12 max(1, p)
    with np.errstate(over="ignore", invalid="ignore"):
        mismatch = np.abs(probs - np.hypot(amps.real, amps.imag) ** 2)
        good = (probs >= 0.0) & np.isfinite(probs) & (mismatch <= 1e-12 * np.maximum(1.0, probs))
    if good.all():
        return
    i = int(np.argmin(good))
    f, p = grid[i].item(), probs[i].item()
    why = "is not |amplitude|**2"
    if p == math.inf:
        why = "overflows to inf"
    elif not (p >= 0.0 and math.isfinite(p)):
        why = f"is {p!r}, not finite and nonnegative,"
    raise DomainError(f"{scenario.value} probability {why} at frequency {f!r}")


def _records(
    scenario: Scenario,
    params: DimensionlessParams,
    grid: np.ndarray,
    method: Method,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``probability``, ``amplitude`` and ``error_estimate``
    columns; freefall takes mapped ``params``."""
    routes = _SCENARIOS[scenario]
    if not np.all(grid > 0.0):
        raise DomainError(f"{scenario.value} frequencies must be positive")
    if method is not Method.CLOSED_FORM and routes.quad is None:
        raise DomainError(f"{scenario.value} is closed-form only; it has no {method.value!r} route")
    if method is Method.QUADRATURE:
        amps, amp_errors = routes.quad(params, grid, cfg)
        probs = np.array([_modulus_sq(a) for a in amps.tolist()])
        # the bound on the error of |amp|**2 from a bound on that of amp
        errors = amp_errors * (2.0 * np.hypot(amps.real, amps.imag) + amp_errors)
    else:
        probs, amps = routes.closed(params, grid.tolist())
        probs, amps = np.array(probs, dtype=float), np.array(amps, dtype=complex)
        errors = np.zeros(len(grid))
    _validate(scenario, grid, probs, amps)
    if method is Method.BOTH:
        independent, _ = (routes.cross or routes.quad)(params, grid, cfg)
        pairs = zip(probs.tolist(), independent.tolist())
        errors = np.array([abs(abs(q) ** 2 - p) / max(p, 1e-300) for p, q in pairs])
    return probs, amps, errors


def _point(scenario: Scenario, params, freq: float, method: Method, cfg=DEFAULT_QUAD_CONFIG):
    # the record of one frequency, as a one-point sweep gives it
    grid = np.array([freq], dtype=float)
    probs, amps, errors = _records(scenario, params, grid, method, cfg)
    return SpectrumRecord(grid.item(), probs.item(), amps.item(), method.value, errors.item())


def spectrum_sweep(
    spec: ScenarioSpec,
    freq_grid: Sequence[float],
    max_workers: int | None = None,
) -> Spectrum:
    """Evaluate a scenario over a frequency grid and fit its temperature.

    The grid must be strictly increasing, 1-D and inside the scenario's
    domain; the result holds one read-only array per output column.  The
    probabilities are divided by the scenario's non-thermal prefactor;
    the linearized occupancy ``log(1/P_normalized + 1)`` is then fit by
    slope-only least squares against the physical frequency
    ``freq / ell``, giving ``fitted_temperature`` as the inverse slope and
    ``fit_residual`` as the RMS relative deviation of the linearized data.
    Grids with fewer than 4 points, or with a normalized probability that
    is not positive (zero coupling, underflow), skip the fit.

    Quadrature routes integrate the whole grid as one batch, so their
    values can differ in the last bits from single-point calls.  Every
    closed value has the bytes of a single-point call: grids of at least
    128 points run the incomplete gamma's series and the Lanczos sums of
    ``Gamma`` as array kernels that replay the scalar arithmetic (see
    :mod:`numerics`); the rest of each closed route is per-point code.
    Sweeps always run with ``DEFAULT_QUAD_CONFIG``: no ``QuadratureConfig``
    can be passed in.
    ``max_workers`` is accepted for compatibility and ignored: the batch
    leaves no per-point work to split between threads.
    """
    grid = np.array(freq_grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError("freq_grid must be one-dimensional")
    if not np.all(np.isfinite(grid)):
        raise DomainError("freq_grid must be finite")
    if np.any(grid[1:] <= grid[:-1]):
        raise DomainError("freq_grid must be strictly increasing")
    params = freefall_map(spec.params) if spec.scenario is Scenario.FREEFALL_BH else spec.params
    if len(grid):
        probs, amps, errors = _records(spec.scenario, params, grid, spec.method)
    else:
        probs, amps, errors = grid, grid.astype(complex), grid

    fitted_t = residual = None
    if len(grid) >= 4:
        x = grid / params.ell
        with np.errstate(divide="ignore", invalid="ignore"):
            p_norm = probs / _SCENARIOS[spec.scenario].normalizer(params, grid)
        if np.all(p_norm > 0.0):
            y = np.log1p(1.0 / p_norm)
            slope = float(np.dot(x, y) / np.dot(x, x))
            fitted_t = 1.0 / slope
            residual = float(np.sqrt(np.mean((y - slope * x) ** 2) / np.mean(y**2)))
    return Spectrum(spec, grid, probs, amps, errors, spec.method.value, fitted_t, residual)
