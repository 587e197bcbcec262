"""Field-mode families and numerical Klein-Gordon inner products.

Modes are functions of the dimensionless null coordinates ``u = t - z`` and
``v = t + z`` (length scale absorbed).  Ten families are supported, from
plane waves through wedge-restricted boost modes to the globally defined
positive-norm combinations that stay purely positive frequency with respect
to inertial time for every boost frequency.  Each family is a short table
of terms, plane waves or power laws in one null coordinate; mode values
and their exact derivatives along a sampling line both come from it.

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
from typing import NamedTuple, Optional, Union

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


class _Term(NamedTuple):
    """``exp(-i*kappa*x)`` if ``plane``, else ``(sign*x -+ i0)**(i*kappa)`` with the cut
    on ``branch``'s side (None: the term is 0 at ``sign*x < 0``), for ``x`` the null
    coordinate ``coord`` (0: ``u``, 1: ``v``) and the other of sign ``other`` (0: any)."""

    coord: int
    kappa: float
    sign: int = +1
    branch: Optional[BranchCut] = None
    other: int = 0
    plane: bool = False


def _family(spec: ModeSpec) -> tuple[float, bool, list[_Term]]:
    """``(norm, divide, terms)``: the mode is ``norm * (t_0 - t_1)``, or
    ``(t_0 - t_1) / norm`` if ``divide``, in its defining expression's order."""
    om, branch = spec.omega, spec.branch
    box = math.sqrt(4.0 * math.pi * abs(om))
    x = 0 if spec.direction == +1 else 1  # the coordinate a one-way family moves along
    match spec.kind:
        case ModeKind.PLANE_WAVE_RIGHT:
            return box, True, [_Term(0, om, plane=True)]
        case ModeKind.PLANE_WAVE_LEFT:
            return box, True, [_Term(1, om, plane=True)]
        case ModeKind.RINDLER_WEDGE:
            # each wedge's mover pair: (-x)**(+i om) on x < 0 or x**(-i om) on
            # x > 0, arranged so the supported region intersects the wedge
            own_side = (spec.wedge == "right") == (spec.direction == +1)
            return 1.0 / box, False, [_Term(x, +om, sign=-1) if own_side else _Term(x, -om)]
        case ModeKind.UNRUH_MINKOWSKI:
            return unruh_normalization(om), False, [_Term(x, om, branch=branch)]
        case ModeKind.MIRROR_STATIC:
            norm = math.exp(-math.pi * om / 2.0) / math.sqrt(4.0 * om * math.sinh(math.pi * om))
            return norm, False, [_Term(0, om, branch=branch), _Term(1, om, branch=branch)]
        case ModeKind.MIRROR_FAMILY_1:  # left movers at v < 0 (no mirror there)
            return box, True, [_Term(1, +om, sign=-1)]
        case ModeKind.MIRROR_FAMILY_3:  # right movers at u > 0 (no mirror there)
            return box, True, [_Term(0, -om)]
        case ModeKind.MIRROR_FAMILY_2:
            # right-wedge superposition vanishing on the mirror surface u*v = -1;
            # the sign-changing powers of the defining expression are taken with
            # correlated branch rotations, which lands on the positive-norm
            # right-wedge pair (-u)**(i Omega) - v**(-i Omega) on u < 0 < v.
            return 1.0 / box, False, [_Term(0, +om, sign=-1, other=+1), _Term(1, -om, other=-1)]
        case ModeKind.EXTENDED_RIGHT | ModeKind.EXTENDED_LEFT:
            # The extensions weight their own wedge by exp(+pi*Omega/2) and the
            # conjugated opposite-wedge mode by exp(-pi*Omega/2), over
            # sqrt(2 sinh(pi*Omega)): globally the upper-cut Unruh modes at boost
            # frequency +-Omega; only the upper cut keeps the norm positive.
            w = +om if spec.kind is ModeKind.EXTENDED_RIGHT else -om
            return unruh_normalization(w), False, [_Term(x, w, branch=BranchCut.UPPER)]
    raise DomainError(f"unknown mode kind {spec.kind!r}")  # pragma: no cover


def _term(term: _Term, x: np.ndarray, other: np.ndarray, rate) -> tuple:
    """Value of a term, and its exact ``d/ds`` along a line with ``dx/ds = rate``."""
    if term.plane:
        value = np.exp(-1j * term.kappa * x)
        return value, None if rate is None else -1j * term.kappa * rate * value
    y = x if term.sign > 0 else -x
    value = np.zeros(np.shape(x), dtype=complex)
    inside = y > 0
    if term.other:
        inside &= (other > 0) if term.other > 0 else (other < 0)
    value[inside] = np.exp(1j * term.kappa * np.log(y[inside]))
    if term.branch is not None:  # |y|**(i kappa) times exp(+-pi kappa) on y < 0
        across, k = y < 0, term.kappa
        cut = math.exp(math.pi * k) if term.branch is BranchCut.UPPER else math.exp(-math.pi * k)
        value[across] = np.exp(1j * k * np.log(-y[across])) * cut
    if rate is None:
        return value, None
    # i kappa value (dx/ds)/x, and 0 at the branch point like the value
    per_x = np.divide(rate, x, out=np.zeros(np.shape(x)), where=x != 0)
    return value, 1j * term.kappa * per_x * value


def _evaluate(spec: ModeSpec, u, v, rates=(None, None)) -> tuple:
    """Mode values at ``(u, v)``, and with ``rates = (du/ds, dv/ds)`` their
    exact derivatives along the line (else None)."""
    coords = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if not all(np.all(np.isfinite(c)) for c in coords):
        raise DomainError("mode evaluation requires finite coordinates")
    norm, divide, terms = _family(spec)
    parts = [_term(t, coords[t.coord], coords[1 - t.coord], rates[t.coord]) for t in terms]

    def combine(k):
        total = parts[0][k] if len(parts) == 1 else parts[0][k] - parts[1][k]
        return total / norm if divide else norm * total

    return combine(0), None if rates[0] is None else combine(1)


def eval_mode(spec: ModeSpec, u, v):
    """Evaluate a mode at null coordinates ``(u, v)``.

    Scalars or equal-shaped arrays are accepted; region-restricted
    families return exactly 0 outside their support.  Values at a branch
    point (a vanishing null coordinate of a power-law family) are 0.
    """
    out, _ = _evaluate(spec, u, v)
    return complex(out) if np.ndim(u) == 0 and np.ndim(v) == 0 else out


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
        Half-width of the uniform parameter range; on a ``NullULine`` at
        most about 709, so that ``exp(window)`` is finite.
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
        if isinstance(self.surface, NullULine):
            try:
                math.exp(self.window)
            except OverflowError:
                raise DomainError(
                    f"NullULine window {self.window!r} overflows u = exp(window); "
                    "it must be at most about 709"
                ) from None
        if self.taper not in ("gaussian", "none"):
            raise DomainError("taper must be 'gaussian' or 'none'")

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Return ``(param, u, v, taper_weights, orientation)``.

        ``param`` ascends; ``orientation`` is the sign of ``d(coordinate)/
        d(param)`` along the physical integration direction (ascending
        ``t`` or ascending ``u``).
        """
        # cell midpoints, exactly symmetric about 0: an even count straddles
        # the origin and an odd count puts a node on it
        s = (2.0 * np.arange(self.samples) + (1 - self.samples)) * (self.window / self.samples)
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
    Derivatives along the line are exact (each term of the mode's table in
    closed form), so the trapezoid rule is spectrally accurate on the
    integrand, which the taper multiplies.

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
    # d(u, v)/ds: the parameter is t on a ConstZLine and log|u| on a NullULine
    rates = (1.0, 1.0) if isinstance(sampling.surface, ConstZLine) else (u, 0.0)
    fv, df = _evaluate(f, u, v, rates)
    gv, dg = _evaluate(g, u, v, rates)
    if conjugate_f:
        fv, df = np.conj(fv), np.conj(df)
    if not conjugate_g:  # the product takes the conjugate of g
        gv, dg = np.conj(gv), np.conj(dg)
    integrand = (fv * dg - gv * df) * w
    mag, rim = np.abs(integrand), max(2, len(s) // 50)
    peak = float(np.max(mag))
    if peak == 0.0:
        raise SupportError("integrand vanishes identically: mode supports do not meet the surface")
    edge = float(max(np.max(mag[:rim]), np.max(mag[-rim:])))
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
