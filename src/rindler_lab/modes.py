"""Field-mode families and numerical Klein-Gordon inner products.

Modes are functions of the dimensionless null coordinates ``u = t - z`` and
``v = t + z`` (length scale absorbed).  Ten families are supported, from
plane waves through wedge-restricted boost modes to the globally defined
positive-norm combinations that stay purely positive frequency with respect
to inertial time for every boost frequency.

Branch convention
-----------------
Powers of a coordinate that changes sign are defined by displacing the
argument off the real axis: :data:`BranchCut.UPPER` evaluates
``(u - i0)**(i*Omega)`` (branch cut in the upper half plane), so for
``u < 0``

    ``(u - i0)**(i*Omega) = |u|**(i*Omega) * exp(+pi*Omega)``,

and :data:`BranchCut.LOWER` gives ``exp(-pi*Omega)``.  The side flag
replaces any finite regulator; the values are the exact limits.  With the
upper cut the mode is analytic in the lower half of the complexified
coordinate plane, which is what makes it purely positive frequency.

Normalization
-------------
Each family carries the literal normalization constant of its defining
expression; the conventions differ between families by factors like
``sqrt(4*pi)``, so quantitative statements should be built from norm signs
and mode-pair ratios, never from absolute continuum normalization (box
sampling replaces delta normalization here anyway).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ResolutionError, SupportError, WindowError

__all__ = [
    "BranchCut",
    "ModeKind",
    "ModeSpec",
    "ConstZLine",
    "NullULine",
    "SurfaceSampling",
    "unruh_normalization",
    "eval_mode",
    "kg_inner",
    "positive_frequency_content",
    "extended_rindler_mode",
    "extended_mode_weights",
]


class BranchCut(enum.Enum):
    """Side of the real axis carrying the branch cut of ``x**(i*Omega)``."""

    UPPER = "upper"  # evaluate at u - i0
    LOWER = "lower"  # evaluate at u + i0


class ModeKind(enum.Enum):
    PLANE_WAVE_RIGHT = "plane-wave-right"
    PLANE_WAVE_LEFT = "plane-wave-left"
    RINDLER_WEDGE = "rindler-wedge"
    UNRUH_MINKOWSKI = "unruh-minkowski"
    MIRROR_STATIC = "mirror-static"
    MIRROR_FAMILY_1 = "mirror-family-1"
    MIRROR_FAMILY_2 = "mirror-family-2"
    MIRROR_FAMILY_3 = "mirror-family-3"
    EXTENDED_RIGHT = "extended-right"
    EXTENDED_LEFT = "extended-left"


# families whose defining expression requires Omega > 0
_POSITIVE_OMEGA_KINDS = frozenset(
    {
        ModeKind.RINDLER_WEDGE,
        ModeKind.MIRROR_STATIC,
        ModeKind.MIRROR_FAMILY_1,
        ModeKind.MIRROR_FAMILY_2,
        ModeKind.MIRROR_FAMILY_3,
    }
)


@dataclass(frozen=True)
class ModeSpec:
    """Descriptor of one mode family member.

    Attributes
    ----------
    kind : ModeKind
        Mode family.
    omega : float
        Dimensionless frequency.  Nonzero always (the normalization
        ``1/sqrt(Omega sinh(pi Omega))`` is singular at zero); strictly
        positive for the wedge-restricted and mirror families.
    wedge : str
        ``"right"`` or ``"left"``; required by the Rindler wedge family.
    direction : int
        +1 for right movers (functions of ``u``), -1 for left movers.
    branch : BranchCut
        Branch-cut side for sign-changing power laws.
    """

    kind: ModeKind
    omega: float
    wedge: str = "right"
    direction: int = +1
    branch: BranchCut = BranchCut.UPPER

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega):
            raise DomainError("omega must be finite")
        if self.omega == 0.0:
            raise DomainError("omega = 0 modes are not normalizable")
        if self.kind in _POSITIVE_OMEGA_KINDS and self.omega <= 0.0:
            raise DomainError(f"{self.kind.value} modes require omega > 0")
        if self.wedge not in ("right", "left"):
            raise DomainError("wedge must be 'right' or 'left'")
        if self.direction not in (+1, -1):
            raise DomainError("direction must be +1 or -1")


def unruh_normalization(omega: float) -> float:
    """Normalization ``exp(-pi*Omega/2)/sqrt(8*pi*Omega*sinh(pi*Omega))``.

    Real and positive for every nonzero real ``Omega``.
    """
    if omega == 0.0 or not math.isfinite(omega):
        raise DomainError("omega must be finite and nonzero")
    return math.exp(-math.pi * omega / 2.0) / math.sqrt(
        8.0 * math.pi * omega * math.sinh(math.pi * omega)
    )


def _signed_power(x: np.ndarray, exponent: float, branch: BranchCut) -> np.ndarray:
    """``(x -+ i0)**(i*exponent)`` for real ``x``, elementwise.

    Zero at ``x == 0`` (the branch point has measure zero on any sampling
    surface and no finite limit exists there).
    """
    out = np.zeros(np.shape(x), dtype=complex)
    pos = x > 0
    neg = x < 0
    out[pos] = np.exp(1j * exponent * np.log(x[pos]))
    cut_factor = math.exp(math.pi * exponent) if branch is BranchCut.UPPER else math.exp(
        -math.pi * exponent
    )
    out[neg] = np.exp(1j * exponent * np.log(-x[neg])) * cut_factor
    return out


def _positive_power(x: np.ndarray, exponent: float, where: np.ndarray) -> np.ndarray:
    """``x**(i*exponent)`` on the mask ``where`` (with ``x > 0``), else 0."""
    out = np.zeros(np.shape(x), dtype=complex)
    out[where] = np.exp(1j * exponent * np.log(x[where]))
    return out


def eval_mode(spec: ModeSpec, u, v):
    """Evaluate a mode at null coordinates ``(u, v)``.

    Scalars or equal-shaped arrays are accepted; region-restricted
    families return exactly 0 outside their support.  Values at a branch
    point (a vanishing null coordinate of a power-law family) are 0.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.shape != v_arr.shape:
        u_arr, v_arr = np.broadcast_arrays(u_arr, v_arr)
    if not (np.all(np.isfinite(u_arr)) and np.all(np.isfinite(v_arr))):
        raise DomainError("mode evaluation requires finite coordinates")
    om = spec.omega
    kind = spec.kind

    if kind is ModeKind.PLANE_WAVE_RIGHT:
        out = np.exp(-1j * om * u_arr) / math.sqrt(4.0 * math.pi * abs(om))
    elif kind is ModeKind.PLANE_WAVE_LEFT:
        out = np.exp(-1j * om * v_arr) / math.sqrt(4.0 * math.pi * abs(om))
    elif kind is ModeKind.RINDLER_WEDGE:
        norm = 1.0 / math.sqrt(4.0 * math.pi * om)
        x = u_arr if spec.direction == +1 else v_arr
        # each wedge's mover pair: (-x)**(+i om) on x < 0 or x**(-i om) on
        # x > 0, arranged so the supported region intersects the wedge
        if (spec.wedge == "right") == (spec.direction == +1):
            out = norm * _positive_power(-x, +om, x < 0)
        else:
            out = norm * _positive_power(x, -om, x > 0)
    elif kind is ModeKind.UNRUH_MINKOWSKI:
        coord = u_arr if spec.direction == +1 else v_arr
        out = unruh_normalization(om) * _signed_power(coord, om, spec.branch)
    elif kind is ModeKind.MIRROR_STATIC:
        norm = math.exp(-math.pi * om / 2.0) / math.sqrt(4.0 * om * math.sinh(math.pi * om))
        out = norm * (
            _signed_power(u_arr, om, spec.branch) - _signed_power(v_arr, om, spec.branch)
        )
    elif kind is ModeKind.MIRROR_FAMILY_1:
        # left movers in the v < 0 region (no mirror there)
        out = _positive_power(-v_arr, +om, v_arr < 0) / math.sqrt(4.0 * math.pi * om)
    elif kind is ModeKind.MIRROR_FAMILY_3:
        # right movers in the u > 0 region (no mirror there)
        out = _positive_power(u_arr, -om, u_arr > 0) / math.sqrt(4.0 * math.pi * om)
    elif kind is ModeKind.MIRROR_FAMILY_2:
        # right-wedge superposition vanishing on the mirror surface u*v = -1;
        # the sign-changing powers of the defining expression are taken with
        # correlated branch rotations, which lands on the positive-norm
        # right-wedge pair (-u)**(i Omega) - v**(-i Omega).
        region = (u_arr < 0) & (v_arr > 0)
        norm = 1.0 / math.sqrt(4.0 * math.pi * om)
        right_mover = _positive_power(-u_arr, +om, region)
        left_mover = _positive_power(v_arr, -om, region)
        out = norm * (right_mover - left_mover)
    elif kind is ModeKind.EXTENDED_RIGHT:
        out = _extended_mode(om, u_arr if spec.direction == +1 else v_arr, side="right")
    elif kind is ModeKind.EXTENDED_LEFT:
        out = _extended_mode(om, u_arr if spec.direction == +1 else v_arr, side="left")
    else:  # pragma: no cover
        raise DomainError(f"unknown mode kind {kind!r}")

    if np.ndim(u) == 0 and np.ndim(v) == 0:
        return complex(out)
    return out


def _extended_mode(om: float, x: np.ndarray, side: str) -> np.ndarray:
    """Positive-norm extension of a wedge mode to the full axis.

    Each family weights its own wedge by ``exp(+pi*Omega/2)`` and the
    conjugated opposite-wedge mode by ``exp(-pi*Omega/2)``, all over
    ``sqrt(2 sinh(pi*Omega))``.  Globally both are upper-cut power laws:
    the right family is ``(x - i0)**(+i*Omega)`` times
    ``unruh_normalization(+Omega)`` and the left family is
    ``(x - i0)**(-i*Omega)`` times ``unruh_normalization(-Omega)`` (the
    same positive-frequency construction at boost frequency ``-Omega``);
    only the upper cut keeps the norm positive.
    """
    if side == "right":
        return unruh_normalization(om) * _signed_power(x, +om, BranchCut.UPPER)
    return unruh_normalization(-om) * _signed_power(x, -om, BranchCut.UPPER)


def extended_rindler_mode(omega: float, wedge_side: str, u, v=0.0):
    """Globally defined positive-norm mode concentrated in one wedge.

    ``wedge_side`` is ``"right"`` or ``"left"``.  Defined for every
    nonzero real ``omega``; the Klein-Gordon norm is positive for both
    signs.
    """
    if wedge_side not in ("right", "left"):
        raise DomainError("wedge_side must be 'right' or 'left'")
    kind = ModeKind.EXTENDED_RIGHT if wedge_side == "right" else ModeKind.EXTENDED_LEFT
    return eval_mode(ModeSpec(kind, omega), u, v)


def extended_mode_weights(omega: float) -> tuple[float, float]:
    """Dominant-side and opposite-side weights of the extended mode.

    Returns ``(exp(+pi*|Omega|/2), exp(-pi*|Omega|/2)) / sqrt(2 sinh(pi*|Omega|))``;
    the squared weights differ by exactly 1.  For ``omega > 0`` the dominant
    side is the mode's own wedge; for ``omega < 0`` the two sides swap roles
    while the weight magnitudes are unchanged.
    """
    if omega == 0.0 or not math.isfinite(omega):
        raise DomainError("omega must be finite and nonzero")
    mag = abs(omega)
    denom = math.sqrt(2.0 * math.sinh(math.pi * mag))
    return (
        math.exp(+math.pi * mag / 2.0) / denom,
        math.exp(-math.pi * mag / 2.0) / denom,
    )


# ---------------------------------------------------------------------------
# sampling surfaces and the Klein-Gordon product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstZLine:
    """Timelike sampling line at fixed ``z``; parameter is ``t``."""

    z: float = 0.0


@dataclass(frozen=True)
class NullULine:
    """Null sampling line at fixed ``v``, log-spaced in ``|u|``.

    ``side = -1`` samples ``u = -exp(s)`` and ``side = +1`` samples
    ``u = +exp(s)`` for the uniform parameter ``s`` in
    ``[-window, window]``; log spacing matches the boost modes, which are
    plane waves in ``s``.
    """

    side: int = -1
    v: float = 0.0

    def __post_init__(self) -> None:
        if self.side not in (+1, -1):
            raise DomainError("side must be +1 or -1")


Surface = Union[ConstZLine, NullULine]


@dataclass(frozen=True)
class SurfaceSampling:
    """Discretization of a sampling surface for inner products.

    Attributes
    ----------
    surface : ConstZLine | NullULine
        Line on which modes are sampled.
    samples : int
        Number of sample points, >= 16.
    window : float
        Half-width of the uniform parameter range.
    taper : str
        ``"gaussian"`` (sigma = window/5) or ``"none"``.
    """

    surface: Surface = ConstZLine(0.0)
    samples: int = 4096
    window: float = 8.0 * math.pi
    taper: str = "gaussian"

    def __post_init__(self) -> None:
        if self.samples < 16:
            raise DomainError("need at least 16 samples")
        if not (self.window > 0 and math.isfinite(self.window)):
            raise DomainError("window must be positive and finite")
        if self.taper not in ("gaussian", "none"):
            raise DomainError("taper must be 'gaussian' or 'none'")

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Return ``(param, u, v, taper_weights, orientation)``.

        ``param`` ascends; ``orientation`` is the sign of ``d(coordinate)/
        d(param)`` along the physical integration direction (ascending
        ``t`` or ascending ``u``).
        """
        # offset by a half step so branch points at the origin are not hit
        s = np.linspace(-self.window, self.window, self.samples, endpoint=False)
        s = s + self.window / self.samples
        if self.taper == "gaussian":
            w = np.exp(-0.5 * (s / (self.window / 5.0)) ** 2)
        else:
            w = np.ones_like(s)
        if isinstance(self.surface, ConstZLine):
            t = s
            u = t - self.surface.z
            v = t + self.surface.z
            return s, u, v, w, +1
        u = self.surface.side * np.exp(s)
        v = np.full_like(u, self.surface.v)
        orientation = -1 if self.surface.side < 0 else +1
        return s, u, v, w, orientation


def kg_inner(
    f: ModeSpec,
    g: ModeSpec,
    sampling: SurfaceSampling,
    tail_tol: float = 1e-4,
    conjugate_f: bool = False,
    conjugate_g: bool = False,
) -> complex:
    """Klein-Gordon inner product ``-(i/2) integral (f dg*/dt - g* df/dt)``.

    The symplectic integral is evaluated along the sampling line in its
    uniform parameter (the product is reparameterization invariant up to
    orientation, which is applied for descending null coordinates).
    Derivatives are second-order central differences on the parameter
    grid; the taper multiplies the integrand.

    ``conjugate_f``/``conjugate_g`` replace a mode by its complex
    conjugate before the product, giving access to the negative-norm
    partners (the pairing that defines particle creation).

    Raises
    ------
    WindowError
        If the tapered integrand has not decayed at the window edges to
        ``tail_tol`` times its peak (window too small).
    SupportError
        If the integrand vanishes identically (disjoint supports).
    """
    s, u, v, w, orientation = sampling.grid()
    fv, gv = eval_mode(f, u, v), eval_mode(g, u, v)
    if conjugate_f:
        fv = np.conj(fv)
    if conjugate_g:
        gv = np.conj(gv)
    # in place and with one conjugate: each full-size temporary is a fresh
    # heap block, and their page faults cost more than the arithmetic
    g_conj = np.conj(gv)
    integrand = fv * np.gradient(g_conj, s)
    integrand -= g_conj * np.gradient(fv, s)
    integrand *= w
    peak = float(np.max(np.abs(integrand)))
    if peak == 0.0:
        raise SupportError("integrand vanishes identically: mode supports do not meet the surface")
    edge = max(
        float(np.max(np.abs(integrand[: max(2, len(s) // 50)]))),
        float(np.max(np.abs(integrand[-max(2, len(s) // 50):]))),
    )
    if edge > tail_tol * peak:
        raise WindowError(
            f"tapered integrand at the window edge is {edge / peak:.2e} of its peak "
            f"(limit {tail_tol:.0e}); enlarge the window or the taper"
        )
    return complex(-0.5j * orientation * np.trapezoid(integrand, s))


def positive_frequency_content(
    spec: ModeSpec,
    sampling: SurfaceSampling,
    conjugate: bool = False,
) -> tuple[float, float]:
    """Fractions of spectral power at positive and negative frequency.

    The mode is sampled along the surface, tapered (Gaussian,
    sigma = window/3) and discrete-Fourier transformed; "positive
    frequency" means time dependence ``exp(-i omega t)`` with
    ``omega > 0``.  Bins within twice the window's fundamental frequency
    of zero are excluded: the power spectra of the boost-invariant
    families diverge like ``1/omega**2`` toward zero frequency, where the
    sign is unresolvable at any finite window (this is the window-limited
    bound on the returned fractions).  The two fractions sum to 1.

    Set ``conjugate=True`` to analyze the complex conjugate of the mode.

    Raises
    ------
    ResolutionError
        If ``2 * window * |omega| < 4 pi`` (frequency unresolvable).
    """
    if 2.0 * sampling.window * abs(spec.omega) < 4.0 * math.pi:
        raise ResolutionError(
            "window too small to resolve the mode frequency: need "
            "2 * window * |omega| >= 4 pi"
        )
    s, u, v, _, _ = sampling.grid()
    vals = np.asarray(eval_mode(spec, u, v))
    if conjugate:
        vals = np.conj(vals)
    taper = np.exp(-0.5 * (s / (sampling.window / 3.0)) ** 2)
    spectrum = np.abs(np.fft.fft(vals * taper)) ** 2
    n = len(s)
    bin_index = np.rint(np.fft.fftfreq(n) * n).astype(int)
    # exp(-i w t) content lands in the negative DFT bins; drop the two
    # sign-unresolvable bins on each side of zero
    pos_power = float(spectrum[bin_index < -2].sum())
    neg_power = float(spectrum[bin_index > +2].sum())
    total = pos_power + neg_power
    if total == 0.0:
        raise WindowError("no resolvable spectral power on this surface")
    return pos_power / total, neg_power / total
