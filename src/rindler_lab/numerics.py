"""Complex special functions and oscillatory-integral quadrature kernels.

All physics modules reduce their closed forms to three primitives that live
here: the complex log-gamma function, the lower incomplete gamma function
for arguments on and near the imaginary axis, and improper oscillatory
power integrals evaluated by rotating the contour onto the imaginary axis
so the integrand decays like ``exp(-x)``.

Quadrature is done in house with numpy: an adaptive composite
Gauss-Kronrod 21/10 rule whose integrands take an array of nodes and may
return a leading batch axis, one row per frequency, so that a whole
frequency grid is integrated in one array call per refinement round.  The
rotated and ray integrals are taken in ``w = log(y)``, where they are
analytic and decay double-exponentially (Takahasi & Mori, Publ. RIMS 9,
1974); the 21/10 pair and its error heuristic are those of QUADPACK's
``qk21`` (Piessens et al., 1983).  No special function uses it: the
incomplete gamma is its power series or, where that cancels, ``Gamma(s)``
minus the Legendre continued fraction of the upper function.

The closed sweeps' hot loops, the Kummer series of the incomplete
gamma and the Lanczos sum of ``log_gamma_complex``, run as array kernels
over batches of at least ``_BATCH_MIN`` (128) entries; shorter batches
loop over the scalar routes, which cost less there.  The kernels replay
CPython's complex arithmetic on float arrays, operation for operation:
products as ``_Py_c_prod``, quotients by Smith's method as
``_Py_c_quot`` (R. L. Smith, CACM 5(8), 1962), moduli by ``hypot``, and
each series entry stops at the term where its scalar loop stops.  Every
``cmath`` call stays a per-entry call, since numpy's ``exp`` and ``log``
round differently.  So every entry has the bytes of a single-point call.

Conventions
-----------
* Principal branch of the complex logarithm everywhere.  Powers of negative
  or complex bases are ``exp(a * log(b))`` with ``log`` principal.
* ``lower_incomplete_gamma`` is the integral of ``t**(s-1) * exp(-t)``
  along the straight ray from 0 to ``x`` for ``|x| <= LARGE_X_SWITCH``,
  with ``Re(x) >= 0`` beyond ``|x| = 12``.  Beyond the switch,
  arguments within 45 degrees of the imaginary axis return the
  adiabatically regularized limit ``gamma_complex(s)``: the ray integral
  has a unit-magnitude oscillatory boundary term that never decays, and
  the detector-response formulas built on top of this function require
  the smooth (switching-artifact-free) part only.  See the function
  docstring for details.
* All routines are pure functions of their arguments and are safe to call
  concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    QuadratureBudgetError,
)

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUAD_CONFIG",
    "LARGE_X_SWITCH",
    "QuadResult",
    "log_gamma_complex",
    "gamma_complex",
    "gamma_abs_sq_imag",
    "lower_incomplete_gamma",
    "upper_incomplete_gamma",
    "adaptive_finite_quad",
    "oscillatory_power_integral",
    "oscillatory_power_quad",
    "finite_ray_integral",
]

# Magnitude at which the lower incomplete gamma switches from the exact ray
# integral to the regularized large-argument asymptote (imaginary sectors).
LARGE_X_SWITCH = 30.0

# Kummer series is exact but loses ~exp(|x|)*eps to cancellation off the
# positive real axis; hand off to the continued fraction before that bites.
_SERIES_SWITCH = 12.0

# Batches at least this long run the Kummer series and the Lanczos sum as
# array kernels; shorter ones loop over the scalar routes, which cost less
# there (numpy's per-call overhead).  Both give the same bytes.
_BATCH_MIN = 128

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Gauss-Kronrod 21/10 pair on [-1, 1] (QUADPACK qk21): the nonnegative
# Kronrod abscissae with their weights, then the weights of the embedded
# 10-point Gauss rule, whose abscissae are _XGK[1::2]
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980815302, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# all 21 nodes in increasing order, and both weight vectors over them
_GK_NODES = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))
_GK_WEIGHTS = np.array(list(_WGK) + list(_WGK[-2::-1]))
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[11:20:2] = _WG[::-1]
_GK_RULES = np.stack((_GK_WEIGHTS, _G_WEIGHTS), axis=-1)

# panels the adaptive rule starts from (fewer when the budget is smaller)
_INITIAL_PANELS = 8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the quadrature kernels.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target relative/absolute error of a quadrature result.
    max_subdivisions : int
        Panel budget per integration call, shared by every integrand of a
        batch.
    rotation_decay_cutoff : float
        Magnitude of the rotated integrand at which the improper integral
        is truncated.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    rotation_decay_cutoff: float = 1e-18

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if not (0.0 < self.rotation_decay_cutoff < 1.0):
            raise DomainError("rotation_decay_cutoff must lie in (0, 1)")


DEFAULT_QUAD_CONFIG = QuadratureConfig()


class QuadResult(NamedTuple):
    """Quadrature estimate with a reported error bound.

    Scalars for a single integrand; arrays with one entry per row for a
    batch of integrands.
    """

    value: complex | np.ndarray
    error: float | np.ndarray


def _require_finite(name: str, z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def _entries(name: str, v: complex | np.ndarray, pole: str) -> list[complex]:
    # the entries of a scalar or 1-D argument; the first one that is not
    # finite or is a non-positive integer raises, with ``pole`` formatted
    # by its real part for the latter
    if np.ndim(v) > 1:
        raise DomainError(f"{name} must be a scalar or a 1-D array")
    z = np.ravel(v).astype(complex)
    at_pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    bad = ~np.isfinite(z) | at_pole
    if bad.any():
        first = complex(z[np.argmax(bad)])
        _require_finite(name, first)
        raise PoleError(pole.format(first.real))
    return z.tolist()


def _c_prod(ar, ai, br, bi):
    # CPython's _Py_c_prod, elementwise on real and imaginary parts
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(ar, ai, br, bi):
    # CPython's _Py_c_quot: Smith's division, scaled by the larger part of b
    # and divided by denom (numpy's complex / multiplies by 1/denom instead)
    big = np.abs(br) >= np.abs(bi)
    num, den = np.where(big, bi, br), np.where(big, br, bi)
    ratio = num / den
    denom = den + num * ratio
    real = (np.where(big, ar, ai) + np.where(big, ai, ar) * ratio) / denom
    return real, np.where(big, ai - ar * ratio, ai * ratio - ar) / denom


def _joined(re: np.ndarray, im: np.ndarray) -> list[complex]:
    z = re.astype(complex)
    z.imag = im
    return z.tolist()


def _lanczos_log_gamma_right(z: complex) -> complex:
    # valid for Re(z) >= 0.5
    w = z - 1.0
    acc = complex(_LANCZOS_COEF[0])
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


@np.errstate(all="ignore")
def _lanczos_log_gamma_right_array(zr: np.ndarray, zi: np.ndarray):
    # _lanczos_log_gamma_right on real and imaginary parts, operation for
    # operation, with the two cmath.log calls per entry
    wr, wi = zr - 1.0, zi - 0.0
    acc_r, acc_i = np.full(zr.shape, _LANCZOS_COEF[0]), np.zeros(zr.shape)
    for k in range(1, len(_LANCZOS_COEF)):
        qr, qi = _c_quot(_LANCZOS_COEF[k], 0.0, wr + k, wi + 0.0)
        acc_r, acc_i = acc_r + qr, acc_i + qi
    tr, ti = wr + _LANCZOS_G + 0.5, wi + 0.0 + 0.0
    log_t = np.array([cmath.log(t) for t in _joined(tr, ti)])
    log_acc = np.array([cmath.log(a) for a in _joined(acc_r, acc_i)])
    hr, hi = _c_prod(wr + 0.5, wi + 0.0, log_t.real, log_t.imag)
    return _LOG_SQRT_TWO_PI + hr - tr + log_acc.real, 0.0 + hi - ti + log_acc.imag


def _log_sin_pi(z: complex) -> complex:
    # log sin(pi z); where sin overflows (|Im z| above about 226), the log of
    # its dominant exponential, sin(pi z) ~ (i s/2) exp(-i s pi z), s = sign(Im z)
    try:
        return cmath.log(cmath.sin(math.pi * z))
    except OverflowError:
        s = math.copysign(1.0, z.imag)
        return -math.log(2.0) + 1j * s * math.pi / 2.0 - 1j * s * math.pi * z


def _log_gamma(z: complex) -> complex:
    if z.real >= 0.5:
        return _lanczos_log_gamma_right(z)
    # reflection; sin(pi z) is nonzero because the pole case was excluded
    return math.log(math.pi) - _log_sin_pi(z) - _lanczos_log_gamma_right(1.0 - z)


def _log_gammas(zs: list[complex]) -> list[complex]:
    # _log_gamma of validated entries; long batches take the array kernel
    if len(zs) < _BATCH_MIN:
        return [_log_gamma(z) for z in zs]
    z = np.array(zs)
    reflect = z.real < 0.5
    ur, ui = _lanczos_log_gamma_right_array(
        np.where(reflect, 1.0 - z.real, z.real), np.where(reflect, 0.0 - z.imag, z.imag)
    )
    log_sin = np.array([_log_sin_pi(zi) for zi in z[reflect].tolist()], dtype=complex)
    ur[reflect] = math.log(math.pi) - log_sin.real - ur[reflect]
    ui[reflect] = 0.0 - log_sin.imag - ui[reflect]
    return _joined(ur, ui)


def log_gamma_complex(z: complex | np.ndarray) -> complex | np.ndarray:
    """Log of the gamma function for complex argument, principal branch.

    Lanczos approximation (g = 607/128, 15 terms) on the right half plane,
    reflected through ``Gamma(z) Gamma(1-z) = pi / sin(pi z)`` for
    ``Re(z) < 1/2``.  ``exp(log_gamma_complex(z))`` reproduces ``Gamma(z)``
    to close to machine precision; the imaginary part may differ from the
    analytically continued log-gamma by a multiple of ``2*pi``.  Where
    ``sin(pi z)`` overflows, for ``|Im z|`` above about 226, the reflection
    takes ``log sin(pi z)`` from its dominant exponential.

    ``z`` may be a 1-D array (a scalar gives a plain ``complex``).  Batches
    of at least ``_BATCH_MIN`` entries run the Lanczos sum as one array
    kernel that replays the scalar route's complex arithmetic, so every
    entry has the bytes of a single-point call.

    Raises
    ------
    PoleError
        If ``z`` (any entry of it) is a non-positive real integer.
    """
    values = _log_gammas(_entries("z", z, "gamma function pole at z = {:g}"))
    return values[0] if np.ndim(z) == 0 else np.array(values, dtype=complex)


def gamma_complex(z: complex | np.ndarray) -> complex | np.ndarray:
    """Gamma function for complex argument, via :func:`log_gamma_complex`.

    A 1-D array of ``z`` gives an array, entry by entry.
    """
    if np.ndim(z) == 0:
        return cmath.exp(log_gamma_complex(z))
    return np.array([cmath.exp(v) for v in log_gamma_complex(z).tolist()], dtype=complex)


def gamma_abs_sq_imag(x: float) -> float:
    """``|Gamma(i x)|**2`` for real ``x > 0``.

    Uses the closed form ``pi / (x * sinh(pi x))``, arranged as
    ``2 pi exp(-pi x) / (x * (1 - exp(-2 pi x)))`` so it neither overflows
    nor loses accuracy for large or small ``x``.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError("x must be a finite real number")
    if x <= 0.0:
        raise DomainError("x must be positive")
    return 2.0 * math.pi * math.exp(-math.pi * x) / (x * (-math.expm1(-2.0 * math.pi * x)))


def _lower_gamma_series(s: complex, x: complex, max_terms: int = 600) -> complex:
    # gamma(s, x) = x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k))
    term = 1.0 / s
    total = term
    for k in range(1, max_terms):
        term *= x / (s + k)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return cmath.exp(s * cmath.log(x) - x) * total
    raise ConvergenceError(
        f"incomplete-gamma series did not converge for s={s!r}, x={x!r}"
    )


def _lower_gamma_series_array(ss: list[complex], x: complex, max_terms: int = 600) -> list[complex]:
    # _lower_gamma_series over entries with Re(s) >= 1e-290, replayed on real
    # and imaginary parts: every term is below e^12 / Re(s), so nothing
    # overflows, and each entry leaves the loop at its own k
    s = np.array(ss)
    sr, si = s.real, s.imag
    tr, ti = _c_quot(1.0, 0.0, sr, si)
    total_r, total_i = tr, ti
    sums = np.zeros(len(ss), dtype=complex)
    live = np.arange(len(ss))
    for k in range(1, max_terms):
        tr, ti = _c_prod(tr, ti, *_c_quot(x.real, x.imag, sr + k, si + 0.0))
        total_r, total_i = total_r + tr, total_i + ti
        stop = np.hypot(tr, ti) <= 1e-17 * np.hypot(total_r, total_i)
        if stop.any():
            sums.real[live[stop]], sums.imag[live[stop]] = total_r[stop], total_i[stop]
            keep = ~stop
            live, sr, si, tr, ti, total_r, total_i = (
                a[keep] for a in (live, sr, si, tr, ti, total_r, total_i)
            )
            if not live.size:
                break
    if live.size:  # the scalar loop raises the error, in entry order
        return [_lower_gamma_series(s, x) for s in ss]
    log_x = cmath.log(x)
    return [cmath.exp(s * log_x - x) * total for s, total in zip(ss, sums.tolist())]


def lower_incomplete_gamma(s: complex | np.ndarray, x: complex) -> complex | np.ndarray:
    """Lower incomplete gamma function ``gamma(s, x)`` for complex arguments.

    For ``|x| <= LARGE_X_SWITCH`` this is the exact integral of
    ``t**(s-1) * exp(-t)`` along the ray from 0 to ``x``: the power series
    up to ``|x| = 12``.  Beyond it the series keeps entries whose ``s`` is
    at least ``|x|`` from the non-positive real axis: every ``|s + k|`` is
    then at least ``|x|``, so its terms shrink from the first.  The other
    entries, where growing terms would cancel, take
    ``Gamma(s) - Gamma(s, x)`` with the upper function from the continued
    fraction of :func:`upper_incomplete_gamma`; that difference would
    cancel in the first set instead.  Both routes need ``Re(x) >= 0``.  On
    5,000 points with ``12 < |x| <= 60``, ``Re s`` in [-40, 80] and
    ``|Im s| <= 80``, against 70-digit sums of the series, the result was
    within 1.5e-13 of the true value for ``Re s > 0`` and within 1.4e-12
    below, where ``Gamma(s)`` near its poles sets the error.

    ``s`` may be a 1-D array at one ``x`` (a scalar ``s`` gives a plain
    ``complex``), and every entry has the bytes of a scalar call; from
    ``_BATCH_MIN`` (128) entries the series and the Lanczos sums of
    ``Gamma(s)`` run as array kernels that replay the scalar arithmetic.

    For ``|x| > LARGE_X_SWITCH`` the exact ray integral is dominated by a
    unit-magnitude boundary oscillation ``~ x**(s-1) exp(-x)`` that never
    decays when ``x`` lies near the imaginary axis, so no limit exists
    there.  Detector-response probabilities need the adiabatic
    (smooth-switching) part, for which that oscillation averages to zero;
    accordingly, arguments within 45 degrees of the imaginary axis return
    the regularized limit ``gamma_complex(s)``.  Arguments within 45
    degrees of the positive real axis keep the exact value from the same
    two routes.  The function is therefore deliberately
    discontinuous across ``|x| = LARGE_X_SWITCH`` in the imaginary
    sectors.

    Designed for the family ``s = 1 + i*Omega`` with ``x`` on or near the
    imaginary axis.

    Raises
    ------
    PoleError
        If ``s`` (any entry of it) is a non-positive real integer.
    ConvergenceError
        If ``|x| > 12`` and ``Re(x) < 0`` outside the regularized sectors,
        where nothing in this package needs the value.
    """
    ss = _entries("s", s, "gamma(s, x) undefined at non-positive integer s = {:g}")
    x = _require_finite("x", x)
    values = _lower_gamma(ss, x) if ss else []
    return values[0] if np.ndim(s) == 0 else np.array(values, dtype=complex)


def _lower_gamma(ss: list[complex], x: complex) -> list[complex]:
    # lower_incomplete_gamma's branches over validated entries at one x
    if x == 0:
        return [0.0 + 0.0j for _ in ss]
    r = abs(x)
    if r <= _SERIES_SWITCH:
        if len(ss) >= _BATCH_MIN and min(s.real for s in ss) >= 1e-290:
            return _lower_gamma_series_array(ss, x)
        return [_lower_gamma_series(s, x) for s in ss]
    if r > LARGE_X_SWITCH and abs(x.imag) >= abs(x.real):
        # regularized limit: oscillatory boundary term dropped
        return [cmath.exp(v) for v in _log_gammas(ss)]
    if x.real < 0.0:
        raise ConvergenceError(
            "lower_incomplete_gamma has no convergent representation for "
            f"|x| > {_SERIES_SWITCH:g} with Re(x) < 0 (x = {x!r})"
        )
    values = []
    for s, log_gamma in zip(ss, _log_gammas(ss)):
        # the series where s is at least |x| from the non-positive real axis:
        # there every |s + k| >= |x|, so its terms shrink from the first,
        # while Gamma(s) - Gamma(s, x) can cancel
        distance = abs(s) if s.real >= 0.0 else abs(s.imag)
        if distance >= r:
            values.append(_lower_gamma_series(s, x))
        else:
            values.append(cmath.exp(log_gamma) - upper_incomplete_gamma(s, x))
    return values


def upper_incomplete_gamma(s: complex, x: complex, max_iter: int = 10_000) -> complex:
    """Upper incomplete gamma ``Gamma(s, x)`` by modified-Lentz continued fraction.

    The Legendre fraction (Gil, Segura & Temme, *Numerical Methods for
    Special Functions*, SIAM 2007, ch. 6; Numerical Recipes 5.2) on the
    closed right half plane ``Re(x) >= 0``, ``x != 0``.  It converges
    quickly for ``|x|`` beyond about 10; :func:`lower_incomplete_gamma`
    takes ``gamma(s, x) = Gamma(s) - Gamma(s, x)`` from it there, for ``s``
    within ``|x|`` of the non-positive real axis.
    """
    s = _require_finite("s", s)
    x = _require_finite("x", x)
    if x.real < 0.0 or x == 0:
        raise DomainError("upper_incomplete_gamma requires Re(x) >= 0 and x != 0")
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1e308
    d = 1.0 / b if b != 0 else 1e308
    h = d
    for i in range(1, max_iter):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return cmath.exp(-x + s * cmath.log(x)) * h
    raise ConvergenceError(
        f"upper-gamma continued fraction did not converge for s={s!r}, x={x!r}"
    )


def adaptive_finite_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> QuadResult:
    """Adaptive Gauss-Kronrod quadrature of complex integrands on ``[a, b]``.

    ``f`` maps a 1-D array of nodes to an array of values of the same
    length, or, with a leading batch axis, to an ``(m, n)`` array holding
    ``m`` integrands (one per frequency, say) at the ``n`` nodes.  Every
    integrand shares the panels, and each gets its own value, error and
    tolerance ``max(rel_tol * |value|, abs_tol)``.

    The rule starts from a handful of uniform panels.  Each round
    evaluates the 21 Kronrod nodes of every live panel in one call of
    ``f``, estimates each panel's error from the embedded 10-point Gauss
    rule with QUADPACK's heuristic, and retires the panels whose error is
    within their width's share of the tolerance, or already at the
    roundoff floor ``50 eps`` times the integral of ``|f|``, for every
    integrand.  The rest are bisected, until the summed error of every
    integrand is within its tolerance.  Endpoint singularities integrable
    with an exponent above -1 are resolved by that refinement.

    Returns scalars for a 1-D ``f`` and arrays of length ``m`` for a
    batch.

    Raises
    ------
    QuadratureBudgetError
        If bisecting the panels that miss their share would take the panel
        count above ``max_subdivisions`` with the tolerance unmet.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    n_start = min(_INITIAL_PANELS, cfg.max_subdivisions)
    halves = np.full(n_start, 0.5 * (b - a) / n_start)
    centers = a + halves * np.arange(1, 2 * n_start, 2)
    half_span = 0.5 * abs(b - a) or 1.0
    done_value = done_error = 0.0
    n_done = 0
    while True:
        n_live = centers.size
        nodes = centers[:, None] + halves[:, None] * _GK_NODES
        values = np.asarray(f(nodes.ravel()), dtype=complex)
        batched = values.ndim == 2
        values = values.reshape(-1, n_live, 21)
        widths = np.abs(halves)
        rules = values @ _GK_RULES
        kronrod = rules[..., 0]
        resabs = (np.abs(values) @ _GK_WEIGHTS) * widths
        resasc = (np.abs(values - 0.5 * kronrod[..., None]) @ _GK_WEIGHTS) * widths
        panel_value = kronrod * halves
        # QUADPACK's qk21 estimate: the Kronrod-Gauss difference, rescaled
        # by the variation of f on the panel and floored at roundoff
        ratio = np.divide(
            200.0 * np.abs(kronrod - rules[..., 1]) * widths,
            resasc,
            out=np.ones_like(resasc),
            where=resasc > 0.0,
        )
        floor = 50.0 * _EPS * resabs
        panel_error = np.maximum(resasc * np.minimum(1.0, ratio) ** 1.5, floor)

        value = done_value + panel_value.sum(axis=-1)
        error = done_error + panel_error.sum(axis=-1)
        tolerance = np.maximum(cfg.rel_tol * np.abs(value), cfg.abs_tol)
        share = tolerance[:, None] * (widths / half_span)
        retire = np.all((panel_error <= share) | (panel_error <= floor), axis=0)
        if retire.all() or np.all(error <= tolerance):
            if batched:
                return QuadResult(value, error)
            return QuadResult(complex(value[0]), float(error[0]))
        done_value = done_value + panel_value[:, retire].sum(axis=-1)
        done_error = done_error + panel_error[:, retire].sum(axis=-1)
        n_done += int(retire.sum())
        centers, halves = centers[~retire], 0.5 * halves[~retire]
        if n_done + 2 * centers.size > cfg.max_subdivisions:
            worst = int(np.argmax(error / tolerance))
            raise QuadratureBudgetError(
                f"quadrature error {error[worst]:.3e} exceeds tolerance "
                f"{tolerance[worst]:.3e} within {cfg.max_subdivisions} subdivisions"
            )
        centers = np.concatenate((centers - halves, centers + halves))
        halves = np.concatenate((halves, halves))


def oscillatory_power_integral(
    omega: float | np.ndarray,
    p: float,
    sign: int,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> complex | np.ndarray:
    """Regularized ``int_0^inf exp(sign*i*x) * x**(sign*i*omega + p) dx``.

    The oscillation direction also selects the sign of the imaginary power:
    with ``sign = -1`` the integrand is ``exp(-ix) x**(-i*omega + p)``, the
    counter-rotating kernel in which a positive field frequency pairs with
    a negative log-phase.

    Evaluation rotates the contour onto the imaginary half-axis where the
    integrand decays like ``exp(-y)``; the rotated integral is computed by
    adaptive quadrature in the variable ``w = log(y)`` and carries the
    exact rotation phase, so the result equals
    ``exp(-pi*omega/2) * exp(sign*i*pi*(p+1)/2) * Gamma(sign*i*omega + p + 1)``
    to quadrature accuracy without ever evaluating a gamma function.

    For ``p = -1`` the rotated integrand is only conditionally convergent
    at the origin; its divergent-phase piece has the closed Abel value
    ``1/(sign*i*omega)`` and the remainder is integrated absolutely.

    Parameters
    ----------
    omega : float or array of float
        Log-phase frequency; any real value, nonzero when ``p == -1``.  An
        array is integrated as one batch and gives an array of values; a
        scalar gives a plain ``complex``.
    p : float
        Power-law exponent, ``p >= -1``.
    sign : int
        Oscillation direction, ``+1`` or ``-1``.
    """
    return oscillatory_power_quad(omega, p, sign, cfg).value


def oscillatory_power_quad(
    omega: float | np.ndarray,
    p: float,
    sign: int,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> QuadResult:
    """:func:`oscillatory_power_integral` with the quadrature error bound.

    The error is the adaptive rule's bound on the rotated integral, scaled
    by the modulus of the rotation phase.
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    om = np.asarray(omega, dtype=float)
    if not (np.all(np.isfinite(om)) and math.isfinite(p)):
        raise DomainError("omega and p must be finite")
    if p < -1.0:
        raise DomainError("p must be >= -1 for a convergent rotated integral")
    if p == -1.0 and np.any(om == 0.0):
        raise PoleError("(p, omega) = (-1, 0) sits on the Gamma(0) pole")

    srot = 1j * sign
    phase_rate = srot * om.reshape(-1, 1)
    w_hi = math.log(-math.log(cfg.rotation_decay_cutoff)) + 1.5

    if p > -1.0:
        w_lo = math.log(cfg.rotation_decay_cutoff) / (p + 1.0)
        j_val, j_err = adaptive_finite_quad(
            lambda w: np.exp((p + 1.0 + phase_rate) * w - np.exp(w)), w_lo, w_hi, cfg
        )
    else:
        # p == -1: split off the non-decaying pure phase on w < 0
        w_lo = math.log(cfg.rotation_decay_cutoff)
        head, head_err = adaptive_finite_quad(
            lambda w: np.expm1(-np.exp(w)) * np.exp(phase_rate * w), w_lo, 0.0, cfg
        )
        tail, tail_err = adaptive_finite_quad(
            lambda w: np.exp(phase_rate * w - np.exp(w)), 0.0, w_hi, cfg
        )
        j_val = 1.0 / phase_rate[:, 0] + head + tail
        j_err = head_err + tail_err

    rotation_phase = np.exp(-math.pi * om.ravel() / 2.0 + srot * math.pi * (p + 1.0) / 2.0)
    return _shaped(rotation_phase * j_val, np.abs(rotation_phase) * j_err, om.shape)


def finite_ray_integral(
    nu: float | np.ndarray,
    x_upper: float,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> QuadResult:
    """``int_0^X exp(i*x) * x**(i*nu) dx`` on the finite ray, by quadrature.

    Equal to ``i exp(-pi nu/2) gamma(1 + i nu, -i X)``.  In ``w = log(x)``
    the integrand ``exp(i e^w + (1 + i nu) w)`` is analytic and free of
    the endpoint oscillation at ``x = 0``; the range below
    ``w_lo = log(rotation_decay_cutoff)`` is dropped and its bound
    ``exp(w_lo)`` is added to the reported error.  An array of ``nu`` is
    integrated as one batch and gives arrays; a scalar gives scalars.
    """
    nus = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nus)):
        raise DomainError("nu must be finite")
    if not (x_upper > 0.0 and math.isfinite(x_upper)):
        raise DomainError("x_upper must be positive and finite")
    w_lo = math.log(cfg.rotation_decay_cutoff)
    s = 1.0 + 1j * nus.reshape(-1, 1)
    value, error = adaptive_finite_quad(
        lambda w: np.exp(1j * np.exp(w) + s * w), w_lo, math.log(x_upper), cfg
    )
    return _shaped(value, error + math.exp(w_lo), nus.shape)


def _shaped(value: np.ndarray, error: np.ndarray, shape: tuple) -> QuadResult:
    # batch results laid out like the frequency input; scalars for a scalar
    if shape == ():
        return QuadResult(complex(value[0]), float(error[0]))
    return QuadResult(value.reshape(shape), error.reshape(shape))
