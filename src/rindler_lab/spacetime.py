"""Coordinates, worldlines and temperatures for uniformly accelerated frames.

Natural units ``c = hbar = k_B = 1`` (and ``G = 1`` where a black-hole mass
appears) are used throughout; the single length scale is ``ell``, the
inverse of the proper acceleration.  A separate unit switch in
:func:`temperatures` restores SI factors for reporting.

Coordinate conventions (1+1 dimensions, signature ``+-``):

* Minkowski event ``(t, z)``.
* Rindler chart of the right wedge ``z > |t|``::

      t = ell * exp(zbar/ell) * sinh(tbar/ell)
      z = ell * exp(zbar/ell) * cosh(tbar/ell)

* Dimensionless null coordinates ``u = (t - z)/ell``, ``v = (t + z)/ell``.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, WedgeError

# CODATA 2018 values in SI units; h, c and k are exact since the 2019 SI
SI_H = 6.62607015e-34
SI_HBAR = SI_H / (2.0 * math.pi)
SI_C = 299792458.0
SI_K = 1.380649e-23
SI_G = 6.67430e-11

__all__ = [
    "DimensionlessParams",
    "EventMinkowski",
    "EventRindler",
    "NullCoords",
    "Wedge",
    "Temperatures",
    "FreeFallPoint",
    "rindler_trajectory",
    "rindler_to_minkowski",
    "minkowski_to_rindler",
    "null_coords",
    "wedge_of",
    "freefall_trajectory",
    "effective_acceleration",
    "equivalent_static_position",
    "temperatures",
]


@dataclass(frozen=True)
class DimensionlessParams:
    """All model inputs reduced to natural units.

    Attributes
    ----------
    ell : float
        Acceleration length scale (inverse proper acceleration), > 0.
    omega_atom : float
        Atom gap times ``ell`` (dimensionless), > 0.
    nu_field : float
        Field-mode frequency times ``ell`` (dimensionless).
    coupling_g : float
        Atom-field coupling constant, >= 0.
    z0 : float
        Static-atom position, > 0.
    v0 : float
        Launch speed as a fraction of c, in [0, 1).
    rg : float
        Horizon radius in the same length units, > 0.
    """

    ell: float = 1.0
    omega_atom: float = 1.0
    nu_field: float = 1.0
    coupling_g: float = 1.0
    z0: float = 1.0
    v0: float = 0.1
    rg: float = 1.0

    def __post_init__(self) -> None:
        for name in ("ell", "omega_atom", "nu_field", "coupling_g", "z0", "v0", "rg"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise DomainError(f"{name} must be a finite real number")
        if self.ell <= 0:
            raise DomainError("ell must be positive")
        if self.omega_atom <= 0:
            raise DomainError("omega_atom must be positive")
        if self.coupling_g < 0:
            raise DomainError("coupling_g must be nonnegative")
        if self.z0 <= 0:
            raise DomainError("z0 must be positive")
        if not (0.0 <= self.v0 < 1.0):
            raise DomainError("v0 must lie in [0, 1)")
        if self.rg <= 0:
            raise DomainError("rg must be positive")


class EventMinkowski(NamedTuple):
    t: float
    z: float


class EventRindler(NamedTuple):
    """Rindler-chart event; ``tbar`` may be complex for imaginary-time shifts."""

    tbar: complex
    zbar: float


class NullCoords(NamedTuple):
    u: float
    v: float


class Wedge(enum.Enum):
    RIGHT = "right"
    LEFT = "left"
    FUTURE = "future"
    PAST = "past"
    BOUNDARY = "boundary"


class Temperatures(NamedTuple):
    """Unruh, Hawking and near-horizon-equivalence temperatures."""

    t_unruh: float
    t_bh: float
    t_hbar: float


class FreeFallPoint(NamedTuple):
    """Radial free-fall sample: areal radius, Schwarzschild time, tortoise-like radius."""

    r: float
    t: float
    rbar: float


def rindler_trajectory(tau: float, params: DimensionlessParams) -> EventMinkowski:
    """Uniformly accelerated worldline at proper time ``tau``.

    ``t = ell sinh(tau/ell)``, ``z = ell cosh(tau/ell)``; the invariant
    ``z**2 - t**2 = ell**2`` holds identically.
    """
    ell = params.ell
    return EventMinkowski(ell * math.sinh(tau / ell), ell * math.cosh(tau / ell))


def rindler_to_minkowski(e: EventRindler, ell: float) -> EventMinkowski:
    """Map a right-wedge Rindler event to Minkowski coordinates."""
    if ell <= 0:
        raise DomainError("ell must be positive")
    if complex(e.tbar).imag != 0.0:
        raise DomainError("rindler_to_minkowski requires real tbar")
    tbar = complex(e.tbar).real
    scale = ell * math.exp(e.zbar / ell)
    return EventMinkowski(scale * math.sinh(tbar / ell), scale * math.cosh(tbar / ell))


def minkowski_to_rindler(e: EventMinkowski, ell: float) -> EventRindler:
    """Inverse chart map; defined on the right wedge ``z > |t|`` only.

    ``tbar = (ell/2) log[(z+t)/(z-t)]``,
    ``zbar = (ell/2) log[(z**2 - t**2)/ell**2]``.

    Raises
    ------
    WedgeError
        If the event lies outside the open right wedge.
    """
    if ell <= 0:
        raise DomainError("ell must be positive")
    if e.z <= abs(e.t):
        raise WedgeError(f"event (t={e.t:g}, z={e.z:g}) is outside the right wedge")
    tbar = 0.5 * ell * math.log((e.z + e.t) / (e.z - e.t))
    zbar = 0.5 * ell * math.log((e.z * e.z - e.t * e.t) / (ell * ell))
    return EventRindler(tbar, zbar)


def null_coords(e: EventMinkowski, ell: float) -> NullCoords:
    """Dimensionless null coordinates ``u = (t-z)/ell``, ``v = (t+z)/ell``."""
    if ell <= 0:
        raise DomainError("ell must be positive")
    return NullCoords((e.t - e.z) / ell, (e.t + e.z) / ell)


def wedge_of(e: EventMinkowski) -> Wedge:
    """Classify an event into one of the four wedges or the null boundary.

    The boundary classification uses exact comparison on ``|t| == |z|``;
    callers must handle :data:`Wedge.BOUNDARY`.
    """
    at, az = abs(e.t), abs(e.z)
    if az > at:
        return Wedge.RIGHT if e.z > 0 else Wedge.LEFT
    if at > az:
        return Wedge.FUTURE if e.t > 0 else Wedge.PAST
    return Wedge.BOUNDARY


def freefall_trajectory(s: float, params: DimensionlessParams) -> FreeFallPoint:
    """Slow radial launch from just outside a horizon, at proper time ``s``.

    Valid in the small-launch-speed regime: ``v0 > 0.3`` is rejected and
    ``v0 > 0.1`` warns that the quadratic-order solution is being
    stretched.  The trajectory exists for ``|s| < 2 rg v0``; the log
    singularity at the endpoint is the horizon crossing.

    Returns
    -------
    FreeFallPoint
        ``r = rg (1 + v0^2 - s^2/(4 rg^2))``,
        ``t = rg log[(2 rg v0 + s)/(2 rg v0 - s)]``,
        ``rbar = rg log[(4 rg^2 v0^2 - s^2)/(4 rg^2)]``.
    """
    v0, rg = params.v0, params.rg
    if v0 <= 0.0:
        raise DomainError("freefall_trajectory requires v0 > 0")
    if v0 > 0.3:
        raise DomainError("free-fall solution is limited to v0 <= 0.3")
    if v0 > 0.1:
        warnings.warn(
            f"v0 = {v0:g} stretches the slow-launch approximation (soft limit 0.1)",
            stacklevel=2,
        )
    s_max = 2.0 * rg * v0
    if abs(s) >= s_max:
        raise DomainError(
            f"|s| = {abs(s):g} reaches the horizon crossing at 2*rg*v0 = {s_max:g}"
        )
    r = rg * (1.0 + v0 * v0 - s * s / (4.0 * rg * rg))
    t = rg * math.log((s_max + s) / (s_max - s))
    rbar = rg * math.log((s_max * s_max - s * s) / (4.0 * rg * rg))
    return FreeFallPoint(r, t, rbar)


def effective_acceleration(rg: float) -> float:
    """Effective proper acceleration of the near-horizon Rindler chart, ``1/(2 rg)``."""
    if not (rg > 0 and math.isfinite(rg)):
        raise DomainError("rg must be positive and finite")
    return 1.0 / (2.0 * rg)


def equivalent_static_position(v0: float, rg: float) -> float:
    """Static Minkowski position equivalent to the slow radial launch, ``z0 = 2 v0 rg``.

    ``v0 = 0`` is degenerate (the atom never leaves the horizon) and is
    reported as ``z0 = 0`` with a warning.
    """
    if not (0.0 <= v0 < 1.0):
        raise DomainError("v0 must lie in [0, 1)")
    if rg <= 0:
        raise DomainError("rg must be positive")
    if v0 == 0.0:
        warnings.warn("v0 = 0 gives the degenerate static position z0 = 0", stacklevel=2)
    return 2.0 * v0 * rg


def temperatures(
    alpha: float | None = None,
    mass: float | None = None,
    rg: float | None = None,
    units: str = "natural",
) -> Temperatures:
    """Unruh, Hawking and horizon-equivalence temperatures from one input.

    Exactly the missing quantities are derived: ``rg = 2 mass`` (natural
    units, ``G = 1``) or ``rg = 2 G mass / c**2`` (SI), and with only
    ``alpha`` given the equivalent horizon is ``rg = 1/(2 alpha)`` (its SI
    analogue ``c**2/(2 alpha)``), making the three outputs coincide by
    construction.

    ``t_unruh = alpha/(2 pi)``; ``t_bh = 1/(8 pi mass)``;
    ``t_hbar = (1/(2 pi)) * (1/(2 rg))``.  In SI mode the same structures
    carry ``hbar``, ``c``, ``G`` and ``k_B``:
    ``t_unruh = hbar alpha/(2 pi c k_B)`` and
    ``t_bh = hbar c**3/(8 pi G mass k_B)``.
    """
    if units not in ("natural", "si"):
        raise DomainError("units must be 'natural' or 'si'")
    if alpha is None and mass is None and rg is None:
        raise DomainError("provide at least one of alpha, mass, rg")
    for name, val in (("alpha", alpha), ("mass", mass), ("rg", rg)):
        if val is not None and not (val > 0 and math.isfinite(val)):
            raise DomainError(f"{name} must be positive and finite")

    if units == "natural":
        hbar = c = grav = kb = 1.0
    else:
        hbar, c, grav, kb = SI_HBAR, SI_C, SI_G, SI_K

    if rg is None:
        if mass is not None:
            rg = 2.0 * grav * mass / (c * c)
        else:
            assert alpha is not None
            rg = c * c / (2.0 * alpha)
    if mass is None:
        mass = rg * c * c / (2.0 * grav)
    if alpha is None:
        alpha = c * c / (2.0 * rg)

    t_unruh = hbar * alpha / (2.0 * math.pi * c * kb)
    t_bh = hbar * c**3 / (8.0 * math.pi * grav * mass * kb)
    t_hbar = (hbar / (2.0 * math.pi * c * kb)) * (c * c / (2.0 * rg))
    return Temperatures(t_unruh, t_bh, t_hbar)
