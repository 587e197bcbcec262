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
The interval is ``ell^2 [4ab sinh^2((tbar - tbar')/(2 ell)) - (a - b)^2]``
(see :func:`rindler_interval`), free of cancelling large terms; only its
``sinh`` depends on an imaginary time shift, so the period scan computes
per-pair and per-shift factors and combines them as an outer product.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

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

_NOT_FINITE = "KMS interval is not finite: ell is out of range for the sample events"
_COINCIDENT = "two-point function diverges at the coincidence limit"
# a pair is on the light cone when |ds2| is at most this fraction of its two terms'
# size S |sinh h|^2 + C; G = -log(ds2)/(4 pi) has roundoff of about eps over it
_LIGHT_CONE = 2.0**-30


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
    """Two accelerated-chart events (complex time allowed)."""

    x: EventRindler
    xp: EventRindler


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
    try:
        denom = math.sqrt(2.0 * math.sinh(math.pi * omega))
    except OverflowError:
        denom = math.inf
    if math.isinf(denom):
        raise DomainError(f"Bogoliubov weights overflow at omega = {omega:g} (above about 226)")
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


def _default_sampling(window: float = 8.0 * math.pi, samples: int = 1024) -> tuple[
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
        raise DomainError(_COINCIDENT)
    return -cmath.log(-ds2 + 1j * epsilon_t) / (4.0 * math.pi)


def rindler_interval(x: EventRindler, xp: EventRindler, ell: float) -> complex:
    """Invariant interval between accelerated-chart events, complex time allowed.

    ``ds2 = ell^2 [4ab sinh^2((tbar - tbar')/(2 ell)) - (a - b)^2]`` with
    ``a = e^{zbar/ell}``, ``b = e^{zbar'/ell}`` and ``a - b = b expm1((zbar -
    zbar')/ell)``.  It is the difference of squares of the Minkowski
    separations, ``(a sinh - b sinh')^2 - (a cosh - b cosh')^2`` times
    ``ell^2``, with the ``e^{2|zbar|/ell}``-sized terms cancelled
    analytically, so it keeps full relative precision at small ``ell``.
    It is exactly periodic in each time argument under shifts by ``2 pi i ell``.
    Raises :class:`DomainError` if the interval overflows.
    """
    if ell <= 0:
        raise DomainError("ell must be positive")
    try:
        ab = math.exp((x.zbar + xp.zbar) / ell)
        a_minus_b = math.exp(xp.zbar / ell) * math.expm1((x.zbar - xp.zbar) / ell)
        half = cmath.sinh((complex(x.tbar) - complex(xp.tbar)) / (2.0 * ell))
    except OverflowError:
        raise DomainError(_NOT_FINITE) from None
    ds2 = ell * ell * (4.0 * ab * (half * half) - a_minus_b * a_minus_b)
    if not cmath.isfinite(ds2):
        raise DomainError(_NOT_FINITE)
    return ds2


def _interval_parts(
    pairs: Sequence[tuple[EventRindler, EventRindler]], ell: float
) -> tuple[np.ndarray, ...]:
    """Per pair, the pieces of :func:`rindler_interval` that no shift changes.

    With ``h = (tbar - tbar')/(2 ell) = X + iY``, returns ``S = 4 ell^2 ab``,
    ``C = ell^2 (a - b)^2`` and ``sinh X cos Y``, ``sinh X sin Y``,
    ``cosh X sin Y``, ``cosh X cos Y``.  Overflow gives ``inf`` or ``nan``
    entries, which the callers report.
    """
    events = np.array(
        [(complex(p[0].tbar), p[0].zbar, complex(p[1].tbar), p[1].zbar) for p in pairs],
        dtype=complex,
    ).reshape(-1, 4)
    half = (events[:, 0] - events[:, 2]) / (2.0 * ell)
    zbar, zbar_p = events[:, 1].real, events[:, 3].real
    with np.errstate(all="ignore"):
        scale = 4.0 * ell * ell * np.exp((zbar + zbar_p) / ell)
        a_minus_b = ell * np.exp(zbar_p / ell) * np.expm1((zbar - zbar_p) / ell)
        sinh_x, cosh_x = np.sinh(half.real), np.cosh(half.real)
        cos_y, sin_y = np.cos(half.imag), np.sin(half.imag)
        return (
            scale,
            a_minus_b * a_minus_b,
            sinh_x * cos_y,
            sinh_x * sin_y,
            cosh_x * sin_y,
            cosh_x * cos_y,
        )


def _twisted_interval(
    parts: tuple[np.ndarray, ...], sigma: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``S sinh^2(h + i sigma) - C``.

    That is ``rindler_interval(x', x + 2i ell sigma)``, and at ``sigma = 0``
    ``rindler_interval(x, x')``.  ``sinh(X + i(Y + sigma))`` comes from
    ``cos sigma`` and ``sin sigma`` by the angle-addition formulas, so a
    ``sigma`` of shape ``(S, 1)`` costs ``S`` cosines and sines and gives
    ``(S, P)`` arrays for ``P`` pairs.
    """
    scale, offset, sc, ss, cs, cc = parts
    with np.errstate(all="ignore"):
        cos_s, sin_s = np.cos(sigma), np.sin(sigma)
        sinh_re = sc * cos_s - ss * sin_s
        sinh_im = cs * cos_s + cc * sin_s
        return (
            scale * (sinh_re * sinh_re - sinh_im * sinh_im) - offset,
            2.0 * scale * (sinh_re * sinh_im),
        )


def _twist_residual_fn(
    pairs: Sequence[tuple[EventRindler, EventRindler]], ell: float
) -> Callable[[float | np.ndarray], float | np.ndarray]:
    """:func:`kms_twist_residual` of fixed pairs as a function of the shift.

    The pairs' :func:`_interval_parts`, the direct interval, its time-order
    marker and its ``G`` are computed once; each call forms the twisted
    intervals over shifts x pairs with :func:`_twisted_interval` and takes
    ``G`` as ``-(log|w| + i atan2(Im w, Re w))/(4 pi)`` of
    ``w = -ds2 + i*marker``, in real arithmetic.  Intervals are taken in
    units of ``S cosh^2 X + C + marker``, a bound on ``|w|`` at every shift
    (``|sinh(X + i theta)|^2 <= cosh^2 X``), so ``|w|^2`` cannot overflow.
    """
    if not (ell > 0.0 and math.isfinite(ell)):
        raise DomainError("ell must be positive and finite")
    parts = _interval_parts(pairs, ell)
    scale, offset, sc, ss, cs, cc = parts
    ds_re, ds_im = _twisted_interval(parts, 0.0)
    with np.errstate(all="ignore"):
        ds_abs = np.hypot(ds_re, ds_im)
        terms = scale * (sc * sc + cs * cs) + offset  # S |sinh h|^2 + C
    if not (np.all(np.isfinite(ds_abs)) and np.all(np.isfinite(terms))):
        raise DomainError(_NOT_FINITE)
    if np.any(ds_abs <= _LIGHT_CONE * terms):
        raise DomainError(_COINCIDENT)
    # a consistent time-order marker keeps timelike intervals on one side
    # of the log cut; roundoff in the twisted interval would otherwise
    # pick the branch at random
    marker = 1e-12 * np.maximum(1.0, ds_abs)
    with np.errstate(all="ignore"):
        unit = scale * (cc * cc + cs * cs) + offset + marker
        parts = (scale / unit, offset / unit, sc, ss, cs, cc)
        w_re, w_im = -ds_re / unit, (marker - ds_im) / unit
        log_direct = 0.5 * np.log(w_re * w_re + w_im * w_im)
        arg_direct = np.arctan2(w_im, w_re)
        marker = marker / unit

    def residual(shift: float | np.ndarray) -> float | np.ndarray:
        sigma = np.asarray(shift, dtype=float)[..., None] / (2.0 * ell)
        tw_re, tw_im = _twisted_interval(parts, sigma)
        with np.errstate(all="ignore"):
            w_im = marker - tw_im
            d_log = log_direct - 0.5 * np.log(tw_re * tw_re + w_im * w_im)
            d_arg = arg_direct - np.arctan2(w_im, -tw_re)
            worst = np.max(d_log * d_log + d_arg * d_arg, axis=-1, initial=0.0)
        if not np.all(np.isfinite(worst)):
            raise DomainError(_NOT_FINITE)
        if np.any((tw_re == 0) & (tw_im == 0)):
            raise DomainError(_COINCIDENT)
        worst = np.sqrt(worst) / (4.0 * math.pi)
        return float(worst) if worst.ndim == 0 else worst

    return residual


def kms_twist_residual(
    pairs: Sequence[tuple[EventRindler, EventRindler]],
    ell: float,
    shift: float | np.ndarray,
) -> float | np.ndarray:
    """Worst twisted-correlator mismatch over the pairs at imaginary shifts.

    Evaluates ``|G(x; x') - G(x'; x + i*shift)|`` for each pair and returns
    the maximum; zero (to roundoff) exactly at the period ``2 pi ell``.
    A scalar ``shift`` gives a ``float``; an array of shifts is evaluated
    as one array operation over shifts x pairs and gives an array of the
    same shape.

    Raises
    ------
    DomainError
        If ``ell`` is not positive and finite, if an interval is not finite
        (``ell`` too small for the events) or if one is within
        ``_LIGHT_CONE`` of its terms' size (a pair on the light cone).
    """
    return _twist_residual_fn(pairs, ell)(shift)


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
    difference over ``scan`` times ``2 pi ell``, by grids refined until the
    bracket is ``1e-10`` of the period; ``t_extracted`` is the inverse
    fitted period, to be compared with ``1/(2 pi ell)``.

    Requires a finite ``ell > 0``, a scan domain ``(lo, hi)`` with finite
    ``0 < lo < hi``, at least 8 non-coincident pairs, and intervals that
    stay finite; otherwise raises :class:`DomainError`.
    """
    lo, hi = scan
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError("scan must be (lo, hi) with finite 0 < lo < hi")
    pairs = list(pairs)
    if len(pairs) < 8:
        raise DomainError("need at least 8 sample pairs")
    twist = _twist_residual_fn(pairs, ell)  # a coincident pair has a zero interval
    period = 2.0 * math.pi * ell
    max_residual = twist(period)
    # the residual is a needle: flat near 0.5 almost everywhere and dropping
    # to roundoff only within a sliver of the true period, so a local
    # minimizer alone walks off; two 241-point grids bracket the needle,
    # then 33-point grids narrow the bracket to 1e-10 of the period
    left, right = lo * period, hi * period
    fitted_residual, fitted_period = math.inf, left
    for points in itertools.chain((241, 241), itertools.repeat(33)):
        shifts = left + np.arange(points) * (right - left) / (points - 1)
        values = twist(shifts)
        k = int(np.argmin(values))
        fitted_residual, fitted_period = min(
            (fitted_residual, fitted_period), (float(values[k]), float(shifts[k]))
        )
        left = float(shifts[max(0, k - 1)])
        right = float(shifts[min(points - 1, k + 1)])
        if right - left <= 1e-10 * period:
            break
    return KmsScanResult(max_residual, fitted_period, 1.0 / fitted_period)
