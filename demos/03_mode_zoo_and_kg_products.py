"""The mode zoo: branch cuts, wedge weights, norms and frequency content.

The globally defined power-law modes (u -+ i0)^{i W} are the bridge between
the inertial and accelerated quantizations: a single branch-cut choice
makes them purely positive frequency for every boost frequency W, at the
price of an exp(pi W) weight asymmetry across the horizon.
"""

import math

import numpy as np

from rindler_lab import modes as md

UM = md.ModeKind.UNRUH_MINKOWSKI

print("=== 1. branch weights across the horizon ===")
for om in (0.5, 1.0, 2.0):
    spec = md.ModeSpec(UM, om)
    inside = md.eval_mode(spec, -1.0, 0.0)
    outside = md.eval_mode(spec, +1.0, 0.0)
    print(f"  W = {om:4.1f}: |mode(u=-1)| / |mode(u=+1)| = {abs(inside/outside):10.4f}"
          f"   (e^{{pi W}} = {math.exp(math.pi*om):10.4f})")

print("\n=== 2. boundary conditions on mirrors ===")
t = np.linspace(-3, 3, 7)
static = md.eval_mode(md.ModeSpec(md.ModeKind.MIRROR_STATIC, 1.0), t, t)
print(f"  static mirror (u = v):        max |phi| on surface = {np.max(np.abs(static)):.1e}")
u = -np.exp(np.linspace(-2, 2, 7))
fam2 = md.eval_mode(md.ModeSpec(md.ModeKind.MIRROR_FAMILY_2, 1.0), u, -1.0 / u)
print(f"  accelerated mirror (uv = -1): max |phi| on surface = {np.max(np.abs(fam2)):.1e}")

print("\n=== 3. Klein-Gordon norms (box sampling on a null line) ===")
# the null half-lines and sampling that vacua.alpha_numeric/beta_numeric use
neg_line = md.SurfaceSampling(md.NullULine(side=-1), samples=1024, window=8 * math.pi)
pos_line = md.SurfaceSampling(md.NullULine(side=+1), samples=1024, window=8 * math.pi)
wedge_R = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="right", direction=+1)
wedge_L = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="left", direction=+1)
print(f"  right-wedge boost mode: <f, f> = {md.kg_inner(wedge_R, wedge_R, neg_line):.6f}")
print(f"  left-wedge boost mode:  <f, f> = {md.kg_inner(wedge_L, wedge_L, pos_line):.6f}")

print("\n  extended positive-norm modes keep a positive norm for both")
print("  frequency signs (own-wedge weight dominates):")
for om in (0.5, -0.5, 2.0, -2.0):
    spec = md.ModeSpec(md.ModeKind.EXTENDED_RIGHT, om)
    total = md.kg_inner(spec, spec, neg_line) + md.kg_inner(spec, spec, pos_line)
    own, other = md.extended_mode_weights(om)
    print(f"  W = {om:+4.1f}: norm = {total.real:+9.4f}   weights (own, other) = "
          f"({own:.5f}, {other:.5f}),  own^2 - other^2 = {own**2 - other**2:.12f}")

print("\n=== 4. spectral content: positive frequency by construction ===")
window = md.SurfaceSampling(md.ConstZLine(0.0), samples=1 << 16, window=32 * math.pi)
for om in (0.5, 1.0, 2.0, -1.0):
    pos, neg = md.positive_frequency_content(md.ModeSpec(UM, om), window)
    cpos, _ = md.positive_frequency_content(md.ModeSpec(UM, om), window, conjugate=True)
    print(f"  W = {om:+4.1f}: negative-frequency fraction {neg:.2e}"
          f"   (conjugate mode: positive fraction {cpos:.2e})")
print("  both bounds are window-limited, not exact zeros: the mode spectra")
print("  pile up like 1/w^2 at the unresolvable edge of the window.")
