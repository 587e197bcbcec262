"""Bogoliubov coefficients between vacua and the KMS periodicity check.

Two conventions for the accelerated-vs-inertial Bogoliubov pair coexist:

``"standard"``
    ``alpha = exp(+pi Omega/2)/sqrt(2 sinh(pi Omega))``,
    ``beta = exp(-pi Omega/2)/sqrt(2 sinh(pi Omega))``; preserves the
    commutator normalization ``|alpha|**2 - |beta|**2 = 1`` exactly and
    gives the Bose-Einstein occupation ``|beta|**2 = 1/(e^{2 pi Omega}-1)``.
``"symmetric"``
    Both coefficients carry the same damped weight
    ``exp(-pi Omega/2)/sqrt(2 sinh(pi Omega))``; its normalization defect
    ``|alpha|**2 - |beta|**2 - 1 = -1`` is reported rather than hidden,
    and the occupation associated with it is half the Bose-Einstein value.

All downstream physics uses ``"standard"``; the symmetric variant is
exposed for transparency because a damped-weight coefficient table and
unit normalization cannot hold at once, and the half occupation sometimes
quoted alongside such tables follows from the former, not the latter.

The KMS section checks that the inertial-vacuum two-point function,
expressed in uniformly accelerated coordinates, is periodic-with-a-twist
under the imaginary time shift ``2 pi ell``: the shifted temperature
readout ``1/(2 pi ell)`` is the acceleration temperature.  The two-point
function used here is the massless 1+1 logarithmic form
``G = -(1/4 pi) log(-ds2 + i eps)``, a function of the invariant interval
alone; the periodicity argument is insensitive to that choice of form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DomainError
from .modes import ModeKind, ModeSpec, NullULine, SurfaceSampling, kg_inner
from .spacetime import EventRindler

__all__ = [
    "BogoliubovPair",
    "TwoPointSample",
    "KmsScanResult",
    "bogoliubov_closed",
    "particle_number_foreign_vacuum",
    "alpha_numeric",
    "beta_numeric",
    "two_point_minkowski_invariant",
    "rindler_interval",
    "kms_twist_residual",
    "kms_residual",
]

_CONVENTIONS = ("standard", "symmetric")

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BogoliubovPair:
    """Diagonal Bogoliubov pair at one frequency.

    ``normalization_defect`` is ``|alpha|**2 - |beta|**2 - 1``, which is 0
    (to roundoff) in the standard convention and -1 in the symmetric
    damped-weight one.
    """

    omega: float
    alpha: complex
    beta: complex
    normalization_defect: float
    convention: str = "standard"


class TwoPointSample(NamedTuple):
    """Two accelerated-chart events (complex time allowed) and a value slot."""

    x: EventRindler
    xp: EventRindler
    value: complex = 0.0


class KmsScanResult(NamedTuple):
    """Result of the imaginary-period scan of the twisted two-point function."""

    max_residual: float
    fitted_period: float
    t_extracted: float


def bogoliubov_closed(omega: float, convention: str = "standard") -> BogoliubovPair:
    """Closed-form diagonal Bogoliubov coefficients at ``omega > 0``."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise DomainError("omega must be positive and finite")
    if convention not in _CONVENTIONS:
        raise DomainError(f"convention must be one of {_CONVENTIONS}")
    denom = math.sqrt(2.0 * math.sinh(math.pi * omega))
    beta = math.exp(-math.pi * omega / 2.0) / denom
    if convention == "standard":
        alpha = math.exp(+math.pi * omega / 2.0) / denom
    else:
        alpha = beta
    defect = abs(alpha) ** 2 - abs(beta) ** 2 - 1.0
    return BogoliubovPair(omega, complex(alpha), complex(beta), defect, convention)


def particle_number_foreign_vacuum(omega: float, convention: str = "standard") -> float:
    """Mean occupation of one frame's mode in the other frame's vacuum.

    Standard convention: the Bose-Einstein value
    ``1/(exp(2 pi Omega) - 1)``.  The ``"symmetric"`` convention returns
    half that, the occupation that follows from the damped coefficient
    table; it is labeled rather than folded into any other result.
    """
    pair = bogoliubov_closed(omega, "standard")
    occupation = abs(pair.beta) ** 2
    if convention == "standard":
        return occupation
    if convention == "symmetric":
        return 0.5 * occupation
    raise DomainError(f"convention must be one of {_CONVENTIONS}")


def _default_sampling(window: float = 8.0 * math.pi, samples: int = 8192) -> tuple[
    SurfaceSampling, SurfaceSampling
]:
    neg = SurfaceSampling(NullULine(side=-1), samples=samples, window=window)
    pos = SurfaceSampling(NullULine(side=+1), samples=samples, window=window)
    return neg, pos


def alpha_numeric(
    omega: float,
    omega_bar: float,
    sampling: Optional[SurfaceSampling] = None,
) -> complex:
    """Annihilation-annihilation overlap by numerical Klein-Gordon product.

    Pairs the globally positive-frequency mode at ``omega`` with the
    right-wedge boost mode at ``omega_bar`` on a log-spaced null line in
    the wedge.  Box sampling stands in for delta normalization, so only
    ratios and diagonal dominance are meaningful.
    """
    if sampling is None:
        sampling, _ = _default_sampling()
    f = ModeSpec(ModeKind.UNRUH_MINKOWSKI, omega)
    g = ModeSpec(ModeKind.RINDLER_WEDGE, omega_bar, wedge="right", direction=+1)
    return kg_inner(f, g, sampling)


def beta_numeric(
    omega: float,
    omega_bar: float,
    sampling: Optional[SurfaceSampling] = None,
) -> complex:
    """Annihilation-creation overlap by numerical Klein-Gordon product.

    The nonvanishing pairing is with the conjugated opposite-wedge boost
    mode, sampled on the opposite null half-line; requires
    ``window * min(omega, omega_bar) > 4 pi`` for resolvable oscillations.
    """
    if sampling is None:
        _, sampling = _default_sampling()
    if 2.0 * sampling.window * min(abs(omega), abs(omega_bar)) < 4.0 * math.pi:
        raise DomainError("sampling window too small for the requested frequencies")
    f = ModeSpec(ModeKind.UNRUH_MINKOWSKI, omega)
    g_left = ModeSpec(ModeKind.RINDLER_WEDGE, omega_bar, wedge="left", direction=+1)
    return kg_inner(f, g_left, sampling, conjugate_g=True)


def two_point_minkowski_invariant(ds2: complex, epsilon_t: float = 0.0) -> complex:
    """Inertial-vacuum two-point function as a function of the invariant interval.

    ``G(ds2) = -(1/(4 pi)) log(-ds2 + i*epsilon_t)`` with ``epsilon_t`` an
    infinitesimal time-ordering marker (sign of the time separation times
    a small positive number); for complexified intervals the marker can be
    left at 0.  Equal intervals give equal values identically; spacelike
    real intervals give real values.

    Raises
    ------
    DomainError
        At the coincidence limit ``ds2 == 0``.
    """
    ds2 = complex(ds2)
    if ds2 == 0:
        raise DomainError("two-point function diverges at the coincidence limit")
    return -cmath.log(-ds2 + 1j * epsilon_t) / (4.0 * math.pi)


def rindler_interval(x: EventRindler, xp: EventRindler, ell: float) -> complex:
    """Invariant interval between accelerated-chart events, complex time allowed.

    ``ds2 = ell^2 [ (e^{zbar/ell} sinh(tbar/ell) - e^{zbar'/ell} sinh(tbar'/ell))^2
    - (e^{zbar/ell} cosh(tbar/ell) - e^{zbar'/ell} cosh(tbar'/ell))^2 ]``
    evaluated with complex-analytic hyperbolic functions, so it is exactly
    periodic in each time argument under shifts by ``2 pi i ell``.
    """
    if ell <= 0:
        raise DomainError("ell must be positive")
    a = math.exp(x.zbar / ell)
    b = math.exp(xp.zbar / ell)
    ta = complex(x.tbar) / ell
    tb = complex(xp.tbar) / ell
    d_sinh = a * cmath.sinh(ta) - b * cmath.sinh(tb)
    d_cosh = a * cmath.cosh(ta) - b * cmath.cosh(tb)
    return ell * ell * (d_sinh * d_sinh - d_cosh * d_cosh)


def kms_twist_residual(
    pairs: Sequence[tuple[EventRindler, EventRindler]],
    ell: float,
    shift: float,
) -> float:
    """Worst twisted-correlator mismatch over the pairs at one imaginary shift.

    Evaluates ``|G(x; x') - G(x'; x + i*shift)|`` for each pair and returns
    the maximum; zero (to roundoff) exactly at the period ``2 pi ell``.
    """
    worst = 0.0
    for x, xp in pairs:
        ds_direct = rindler_interval(x, xp, ell)
        x_shifted = EventRindler(complex(x.tbar) + 1j * shift, x.zbar)
        ds_twisted = rindler_interval(xp, x_shifted, ell)
        # a consistent time-order marker keeps timelike intervals on one
        # side of the log cut; roundoff in the twisted interval would
        # otherwise pick the branch at random
        marker = 1e-12 * max(1.0, abs(ds_direct))
        g_direct = two_point_minkowski_invariant(ds_direct, marker)
        g_twisted = two_point_minkowski_invariant(ds_twisted, marker)
        worst = max(worst, abs(g_direct - g_twisted))
    return worst


def kms_residual(
    pairs: Sequence[tuple[EventRindler, EventRindler]],
    ell: float,
    scan: tuple[float, float] = (0.5, 1.5),
) -> KmsScanResult:
    """Periodicity-with-a-twist check of the accelerated-frame correlator.

    For each event pair the direct value ``G(x; x')`` is compared with the
    twisted value ``G(x'; x + i*shift)`` (arguments swapped, first time
    complex-shifted).  ``max_residual`` is the worst absolute difference
    at the exact shift ``2 pi ell``; ``fitted_period`` minimizes the worst
    difference over ``scan`` times ``2 pi ell``; ``t_extracted`` is the
    inverse fitted period, to be compared with ``1/(2 pi ell)``.

    Requires at least 8 non-coincident pairs.
    """
    if ell <= 0:
        raise DomainError("ell must be positive")
    pairs = [(p[0], p[1]) for p in pairs]  # accepts TwoPointSample records too
    if len(pairs) < 8:
        raise DomainError("need at least 8 sample pairs")
    for x, xp in pairs:
        if complex(x.tbar) == complex(xp.tbar) and x.zbar == xp.zbar:
            raise DomainError("coincident sample pair")
    period = 2.0 * math.pi * ell
    max_residual = kms_twist_residual(pairs, ell, period)
    # the residual is a needle: flat near 0.5 almost everywhere and dropping
    # to roundoff only within a sliver of the true period, so a bounded
    # minimizer alone walks off; bracket with two grid refinements first
    lo, hi = scan
    left, right = lo * period, hi * period
    for _ in range(2):
        shifts = [left + k * (right - left) / 240.0 for k in range(241)]
        values = [kms_twist_residual(pairs, ell, sh) for sh in shifts]
        k_min = min(range(len(shifts)), key=values.__getitem__)
        left = shifts[max(0, k_min - 1)]
        right = shifts[min(len(shifts) - 1, k_min + 1)]
    fitted_period, fitted_residual = _golden_section_min(
        lambda sh: kms_twist_residual(pairs, ell, sh), left, right, 1e-10 * period
    )
    if fitted_residual > values[k_min]:
        fitted_period = shifts[k_min]
    return KmsScanResult(max_residual, fitted_period, 1.0 / fitted_period)


def _golden_section_min(
    f: Callable[[float], float], left: float, right: float, xatol: float
) -> tuple[float, float]:
    """Golden-section search for the minimum of ``f`` on ``[left, right]``.

    Shrinks the bracket by the golden ratio per evaluation until it is
    narrower than ``xatol``; returns the best point evaluated and its value.
    """
    x1 = right - _INV_GOLDEN * (right - left)
    x2 = left + _INV_GOLDEN * (right - left)
    f1, f2 = f(x1), f(x2)
    while right - left > xatol:
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - _INV_GOLDEN * (right - left)
            f1 = f(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + _INV_GOLDEN * (right - left)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)
