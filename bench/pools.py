"""Input pools of the benchmark workloads.

Every sweep the benchmark runs is drawn from these pools, so that its
reference probabilities can be computed once with mpmath (``make_refs.py``)
and stored in ``refs.npz``.  The seed chooses the order of the ops, which
pool entry each op uses and, for the closed sweeps, which points of the
stored grid each op evaluates.  This module imports nothing from
``rindler_lab``.

Reference routes, and the tier-1 tolerance that applies to each (relative,
on the probability):

``elementary``
    closed forms built from elementary functions and ``Gamma(i x)``;
    ``1e-12`` as in ``test_perturbation`` (``rel=1e-12`` on the accel-atom,
    mirror and accel-atom-mirror closed forms).
``incomplete-gamma``
    the static-atom closed form through ``lower_incomplete_gamma``
    (series, ray and regularised-limit branches); ``1e-9`` as in
    ``test_quadrature_matches_exact_form`` and the live-mpmath mid-band
    tests of ``test_numerics``.
``rotated-quad``
    contour-rotated quadrature of the regularised oscillatory integral;
    ``1e-9`` as in ``test_counter_rotating_kernel_modulus``.
``ray-quad``
    direct quadrature of the finite ray ``int_0^X e^{ix} x^{i nu} dx``;
    ``2e-7``, twice the ``1e-7`` amplitude tolerance of the finite-ray
    test in ``test_numerics`` since the probability is the squared modulus.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOLERANCE = {
    "elementary": 1e-12,
    "incomplete-gamma": 1e-9,
    "rotated-quad": 1e-9,
    "ray-quad": 2e-7,
}

# 2 omega z0 above which the closed static-atom route returns the
# regularised limit (numerics.LARGE_X_SWITCH, restated so that this module
# stays independent of the package).
LARGE_X_SWITCH = 30.0

QUAD_GRID_POINTS = 30
CLOSED_STORED_POINTS = 2500
CLOSED_GRID_POINTS = 2000


def _case(scenario, method, params, lo, hi, n):
    return {"scenario": scenario, "method": method, "params": params, "grid": [lo, hi, n]}


def _quad(scenario, method, variants):
    return [
        _case(scenario, method, params, lo, hi, QUAD_GRID_POINTS)
        for params, (lo, hi) in variants
    ]


# quad-sweeps: one element per entry of the mix in the benchmark doc; each
# element cycles through its four variants.
_AA = [
    ({"ell": 1.0, "coupling_g": 1.0}, (0.1, 3.0)),
    ({"ell": 0.5, "coupling_g": 1.0}, (0.12, 2.5)),
    ({"ell": 2.0, "coupling_g": 0.5}, (0.08, 3.5)),
    ({"ell": 1.0, "coupling_g": 2.0}, (0.15, 3.0)),
]
# 2 omega z0 = 4, 12, 8, 9
_SA_SERIES = [
    ({"omega_atom": 1.0, "ell": 1.0, "z0": 2.0}, (0.1, 3.0)),
    ({"omega_atom": 1.0, "ell": 1.0, "z0": 6.0}, (0.12, 2.5)),
    ({"omega_atom": 2.0, "ell": 1.0, "z0": 2.0}, (0.08, 3.5)),
    ({"omega_atom": 1.5, "ell": 0.5, "z0": 1.5}, (0.1, 3.0)),
]
# 2 omega z0 = 13, 20, 29, 24: the ray band, where the closed route still
# runs quadrature
_SA_RAY = [
    ({"omega_atom": 1.0, "ell": 1.0, "z0": 6.5}, (0.1, 3.0)),
    ({"omega_atom": 1.0, "ell": 1.0, "z0": 10.0}, (0.12, 2.5)),
    ({"omega_atom": 1.0, "ell": 1.0, "z0": 14.5}, (0.08, 3.5)),
    ({"omega_atom": 2.0, "ell": 1.0, "z0": 6.0}, (0.1, 3.0)),
]
_AM = [
    ({"omega_atom": 1.0, "ell": 1.0, "coupling_g": 1.0}, (0.1, 3.0)),
    ({"omega_atom": 2.0, "ell": 1.0, "coupling_g": 0.5}, (0.12, 2.5)),
    ({"omega_atom": 1.0, "ell": 0.5, "coupling_g": 2.0}, (0.08, 3.5)),
    ({"omega_atom": 0.5, "ell": 2.0, "coupling_g": 1.0}, (0.15, 3.0)),
]
# the README freefall example: omega_atom = 1000, so 2 omega z0 = 2000 v0
# lies far above the branch switch
_FF = [
    ({"omega_atom": 1000.0, "rg": 1.0, "v0": 0.1}, (0.25, 4.0)),
    ({"omega_atom": 1000.0, "rg": 0.5, "v0": 0.08}, (0.25, 4.0)),
    ({"omega_atom": 1000.0, "rg": 2.0, "v0": 0.12}, (0.3, 4.0)),
    ({"omega_atom": 1000.0, "rg": 1.5, "v0": 0.09}, (0.25, 3.5)),
]

QUAD_MIX = {
    "accel-atom/quad": _quad("accel-atom", "quad", _AA),
    "accel-atom/both": _quad("accel-atom", "both", _AA),
    "static-atom/quad": _quad("static-atom-rindler", "quad", _SA_SERIES),
    "static-atom/both": _quad("static-atom-rindler", "both", _SA_SERIES),
    "static-atom-ray/closed": _quad("static-atom-rindler", "closed", _SA_RAY),
    "accel-mirror-static-atom/quad": _quad("accel-mirror-static-atom", "quad", _AM),
    "freefall-readme/quad": _quad("freefall-bh", "quad", _FF),
    "freefall-readme/both": _quad("freefall-bh", "both", _FF),
}


def _closed(scenario, variants):
    return [
        _case(scenario, "closed", params, lo, hi, CLOSED_STORED_POINTS)
        for params, (lo, hi) in variants
    ]


# closed-sweeps: all five scenarios; static-atom and freefall each in the
# series branch (2 omega z0 <= 12) and the regularised-limit branch (> 30)
CLOSED_MIX = {
    "accel-atom": _closed(
        "accel-atom",
        [({"ell": 1.0}, (0.05, 5.0)), ({"ell": 0.7, "coupling_g": 1.5}, (0.1, 6.0))],
    ),
    "static-atom-series": _closed(
        "static-atom-rindler",
        [
            ({"omega_atom": 1.0, "ell": 1.0, "z0": 5.0}, (0.05, 5.0)),
            ({"omega_atom": 2.0, "ell": 1.0, "z0": 2.0}, (0.1, 6.0)),
        ],
    ),
    "static-atom-limit": _closed(
        "static-atom-rindler",
        [
            ({"omega_atom": 1.0, "ell": 1.0, "z0": 50.0}, (0.05, 5.0)),
            ({"omega_atom": 3.0, "ell": 1.0, "z0": 20.0}, (0.1, 6.0)),
        ],
    ),
    "accel-atom-mirror": _closed("accel-atom-mirror", [({}, (0.05, 5.0)), ({}, (0.1, 4.0))]),
    "accel-mirror-static-atom": _closed(
        "accel-mirror-static-atom",
        [({}, (0.05, 5.0)), ({"coupling_g": 0.8, "omega_atom": 2.0}, (0.1, 6.0))],
    ),
    "freefall-series": _closed(
        "freefall-bh",
        [
            ({"omega_atom": 50.0, "rg": 1.0, "v0": 0.1}, (0.05, 5.0)),
            ({"omega_atom": 40.0, "rg": 2.0, "v0": 0.05}, (0.1, 6.0)),
        ],
    ),
    "freefall-limit": _closed(
        "freefall-bh",
        [
            ({"omega_atom": 1000.0, "rg": 1.0, "v0": 0.1}, (0.05, 5.0)),
            ({"omega_atom": 500.0, "rg": 0.5, "v0": 0.2}, (0.1, 6.0)),
        ],
    ),
}

# cli: spectrum runs as the README shows them, with grids and parameters
# drawn from these pools
CLI_ACCEL_ATOM = [
    _case("accel-atom", "closed", {}, lo, hi, 30)
    for lo, hi in ((0.1, 3.0), (0.12, 2.5), (0.08, 3.5), (0.15, 3.0))
]
CLI_FREEFALL = [
    _case("freefall-bh", "closed", params, 0.25, 4.0, 12) for params, _ in _FF
]


def grid(case) -> np.ndarray:
    """The case's log-spaced frequency grid, as the CLI's ``lo:hi:n:log`` builds it."""
    lo, hi, n = case["grid"]
    return np.geomspace(lo, hi, n)


def grid_token(case) -> str:
    lo, hi, n = case["grid"]
    return f"{lo!r}:{hi!r}:{n}:log"


def all_cases() -> dict[str, dict]:
    """Every pool entry under a stable id, the key of its stored references."""
    out = {}
    for family, mix in (("quad", QUAD_MIX), ("closed", CLOSED_MIX)):
        for element, variants in mix.items():
            for k, case in enumerate(variants):
                out[f"{family}:{element}:{k}"] = case
    for k, case in enumerate(CLI_ACCEL_ATOM):
        out[f"cli:accel-atom:{k}"] = case
    for k, case in enumerate(CLI_FREEFALL):
        out[f"cli:freefall:{k}"] = case
    return out


def manifest() -> str:
    """The pools and a digest of every grid, as stored beside the references."""
    digest = hashlib.sha256()
    for case in all_cases().values():
        digest.update(grid(case).tobytes())
    return json.dumps({"cases": all_cases(), "grids_sha256": digest.hexdigest()}, sort_keys=True)


def route(case) -> str:
    """Reference route of a case: what its ``probability`` is defined as."""
    scenario, method = case["scenario"], case["method"]
    if scenario in ("static-atom-rindler", "freefall-bh"):
        return "ray-quad" if method == "quad" else "incomplete-gamma"
    if method == "quad":
        return "rotated-quad"
    return "elementary"
