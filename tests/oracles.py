"""Independent numerical oracles used by the test suite only.

These deliberately avoid the code paths they are checking: the brute-force
oscillatory integral works on the real axis with truncation and sequence
extrapolation (no contour rotation), the ray-quadrature incomplete
gamma drives scipy directly (no power series, no continued fraction), and
the tapered Klein-Gordon overlap is closed in mpmath's complex ``erf`` (no
sampled modes).  Other high precision values are frozen from mpmath.
"""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _cquad(f, a, b, **kw):
    # tolerances here are deliberately at the roundoff edge
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda t: f(t).real, a, b, **kw)[0]
        im = quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


def brute_force_oscillatory(omega: float, p: float, sign: int,
                            n_oscillations: int = 10_000,
                            avg_levels: int = 24) -> complex:
    """Truncated real-axis quadrature of int_0^inf e^{s i x} x^{s i w + p} dx.

    Partial integrals are accumulated at phase-aligned nodes
    (x + w log x stepping by pi) out to ``n_oscillations`` full
    oscillations, with the node phases tracked incrementally so no large
    trigonometric argument is ever evaluated; repeated pairwise averaging
    of the partial-integral sequence then extrapolates the conditionally
    convergent tail.
    """
    x_first = 20.0 * math.pi
    phi0 = x_first + omega * math.log(x_first)
    n_nodes = 2 * n_oscillations
    targets = phi0 + math.pi * np.arange(n_nodes + 1)
    x = np.maximum(targets - omega * np.log(np.maximum(targets, 1.0)), 1.0)
    for _ in range(80):
        x = x - (x + omega * np.log(x) - targets) / (1.0 + omega / x)
    nodes = x

    # head [0, nodes[0]] in the substitution u = log(x)
    if p > -1.0:
        head = _cquad(
            lambda w: cmath.exp(1j * sign * math.exp(w) + (1j * sign * omega + p + 1.0) * w),
            -40.0 / (p + 1.0), math.log(nodes[0]),
            limit=4000, epsabs=1e-14, epsrel=1e-13,
        )
    else:
        w0 = math.log(nodes[0])
        head = cmath.exp(1j * sign * omega * w0) / (1j * sign * omega) + _cquad(
            lambda w: (cmath.exp(1j * sign * math.exp(w)) - 1.0)
            * cmath.exp(1j * sign * omega * w),
            -40.0, w0,
            limit=4000, epsabs=1e-14, epsrel=1e-13,
        )

    dx = np.diff(nodes)
    dphi = dx + omega * np.log1p(dx / nodes[:-1])
    rho = np.concatenate([[0.0], np.cumsum(dphi - math.pi)])
    alternating = np.where(np.arange(n_nodes + 1) % 2 == 0, 1.0, -1.0)
    node_phase = cmath.exp(1j * sign * phi0) * np.exp(1j * sign * rho) * alternating

    offs = 0.5 * dx[:, None] * (_GL_X[None, :] + 1.0)
    xk = nodes[:-1][:, None]
    local_phase = offs + omega * np.log1p(offs / xk)
    local = np.exp(1j * sign * local_phase + p * np.log(xk + offs))
    slices = node_phase[:-1] * (0.5 * dx) * (local @ _GL_W)
    partial = head + np.concatenate([[0.0], np.cumsum(slices)])

    seq = partial
    for _ in range(avg_levels):
        seq = 0.5 * (seq[:-1] + seq[1:])
    return complex(seq[-1])


def ray_quadrature_lower_gamma(s: complex, x: complex) -> complex:
    """gamma(s, x) as the straight-ray integral, by direct scipy quadrature."""
    q_hi = 45.0 / max(s.real, 0.1)
    val = _cquad(
        lambda q: cmath.exp(-q * s - x * math.exp(-q)),
        0.0, q_hi,
        limit=800, epsabs=1e-14, epsrel=1e-13,
    )
    return cmath.exp(s * cmath.log(x)) * val


def closed_form_oscillatory(omega: float, p: float, sign: int) -> complex:
    """Gamma-function closed form of the regularized oscillatory integral."""
    from rindler_lab.numerics import gamma_complex

    return (
        cmath.exp(-math.pi * omega / 2.0)
        * cmath.exp(1j * sign * math.pi * (p + 1.0) / 2.0)
        * gamma_complex(complex(p + 1.0, sign * omega))
    )


def tapered_overlap(omega: float, omega_bar: float, sampling) -> tuple[complex, float]:
    """``alpha_numeric`` or ``beta_numeric`` in closed form, and its diagonal scale.

    On the null line ``u = side e^s`` the modes paired by ``alpha_numeric``
    (``side = -1``) and ``beta_numeric`` (``side = +1``) are plane waves in
    ``s``, so the Klein-Gordon integrand is
    ``-i (Omega + Omega_bar) N_U N_W c e^{i (Omega - Omega_bar) s}`` times the
    Gaussian taper, with ``c = e^{pi Omega}`` on ``u < 0`` (upper cut) and 1
    on ``u > 0``.  Its exact integral over the sampled span
    ``[s_0, s_{N-1}]`` completes the square into the complex ``erf``.  The
    scale is the magnitude of the same integral at ``Omega_bar = Omega``.
    """
    s = sampling.grid()[0]
    side = sampling.surface.side
    with mp.workdps(40):
        om, om_bar = mp.mpf(omega), mp.mpf(omega_bar)
        sigma = mp.mpf(sampling.window) / 5
        n_u = mp.exp(-mp.pi * om / 2) / mp.sqrt(8 * mp.pi * om * mp.sinh(mp.pi * om))
        n_w = 1 / mp.sqrt(4 * mp.pi * om_bar)
        cut = mp.exp(mp.pi * om) if side < 0 else 1
        # orientation is the sign of du/ds, which is side
        prefactor = -side * (om + om_bar) * n_u * n_w * cut / 2

        def taper_integral(k):
            # int exp(-s^2/(2 sigma^2) + i k s) ds over the span
            centre, width = 1j * k * sigma**2, sigma * mp.sqrt(2)
            lo, hi = ((mp.mpf(float(x)) - centre) / width for x in s[[0, -1]])
            gauss = sigma * mp.sqrt(mp.pi / 2) * mp.exp(-((k * sigma) ** 2) / 2)
            return gauss * (mp.erf(hi) - mp.erf(lo))

        value = prefactor * taper_integral(om - om_bar)
        scale = abs(prefactor * taper_integral(0))
        return complex(value), float(scale)
