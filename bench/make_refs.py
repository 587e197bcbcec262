"""Compute the stored reference probabilities with mpmath.

Each case in ``pools.py`` gets the probability of every grid point from the
physics formula its route defines, evaluated in 30-digit arithmetic
without importing ``rindler_lab``:

* accel-atom: ``|g ell e^{-pi w/2} Gamma(-i w)|^2`` (the regularised
  rotated integral, equal to the closed form);
* static atom and freefall: ``(g/omega)^2 e^{-pi nu} |gamma(1+i nu, -i X)|^2``
  with ``X = 2 omega z0`` (the finite ray), or ``|Gamma(1+i nu)|^2`` in
  place of ``|gamma|^2`` where the closed route returns the regularised
  limit (``X > 30``);
* accelerated mirror: ``g^2/(4 pi W) * W^2 e^{-pi W} |Gamma(i W)|^2``;
* accel-atom-mirror: ``1/(2 pi w (e^{2 pi w} - 1))``.

Run from the repository root after changing a pool::

    python3 bench/make_refs.py

It rewrites ``bench/refs.npz``, which holds the probabilities of each case
under its id, plus the pool manifest and a digest of every grid, which the
benchmark compares against its own before a run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

import pools

mp.mp.dps = 30

# DimensionlessParams defaults
_DEFAULTS = {"ell": 1.0, "omega_atom": 1.0, "coupling_g": 1.0, "z0": 1.0, "v0": 0.1, "rg": 1.0}


def _static_frame(case):
    """``(g, omega, X, ell)`` of the static-atom problem a case reduces to."""
    p = {**_DEFAULTS, **case["params"]}
    if case["scenario"] == "freefall-bh":
        ell, z0 = 2 * mp.mpf(p["rg"]), 2 * mp.mpf(p["v0"]) * mp.mpf(p["rg"])
    else:
        ell, z0 = mp.mpf(p["ell"]), mp.mpf(p["z0"])
    omega = mp.mpf(p["omega_atom"]) / ell
    return mp.mpf(p["coupling_g"]), omega, 2 * omega * z0


def probability(case, freq: float) -> float:
    f = mp.mpf(freq)
    p = {**_DEFAULTS, **case["params"]}
    g = mp.mpf(p["coupling_g"])
    scenario, method = case["scenario"], case["method"]
    if scenario == "accel-atom":
        ell = mp.mpf(p["ell"])
        return float(abs(g * ell * mp.exp(-mp.pi * f / 2) * mp.gamma(mp.mpc(0, -f))) ** 2)
    if scenario in ("static-atom-rindler", "freefall-bh"):
        g, omega, x_upper = _static_frame(case)
        s = mp.mpc(1, f)
        if method == "quad" or x_upper <= pools.LARGE_X_SWITCH:
            gam = mp.gammainc(s, 0, mp.mpc(0, -x_upper))
        else:
            gam = mp.gamma(s)
        return float((g / omega) ** 2 * mp.exp(-mp.pi * f) * abs(gam) ** 2)
    if scenario == "accel-mirror-static-atom":
        w_sq = f * f * mp.exp(-mp.pi * f) * abs(mp.gamma(mp.mpc(0, f))) ** 2
        return float(g * g / (4 * mp.pi * f) * w_sq)
    if scenario == "accel-atom-mirror":
        return float(1 / (2 * mp.pi * f * mp.expm1(2 * mp.pi * f)))
    raise ValueError(f"no reference formula for {scenario!r}")


def main() -> int:
    arrays = {}
    for case_id, case in pools.all_cases().items():
        freqs = pools.grid(case)
        arrays[case_id] = np.array([probability(case, float(f)) for f in freqs])
        print(f"{case_id}: {len(freqs)} points, route {pools.route(case)}", file=sys.stderr)
    out = Path(__file__).resolve().parent / "refs.npz"
    np.savez_compressed(out, manifest=np.array(pools.manifest()), **arrays)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
