"""Special-function layer: gamma identities and contour-rotated integrals.

Everything downstream reduces to |Gamma(ix)|^2, the lower incomplete gamma
function near the imaginary axis, and regularized oscillatory power
integrals.  This script walks through the three primitives and their
cross-checks.
"""

import cmath
import math

import numpy as np

from rindler_lab import numerics as nm

print("=== 1. the modulus identity |Gamma(ix)|^2 = pi / (x sinh(pi x)) ===")
for x in (0.01, 0.5, 1.0, 5.0, 20.0):
    via_log = math.exp(2.0 * nm.log_gamma_complex(1j * x).real)
    closed = nm.gamma_abs_sq_imag(x)
    print(f"  x = {x:6.2f}:  log-gamma route {via_log:.12e}   closed form {closed:.12e}")

worst = max(
    abs(math.exp(2 * nm.log_gamma_complex(1j * x).real) * x * math.sinh(math.pi * x) / math.pi - 1)
    for x in np.geomspace(1e-3, 30, 50)
)
print(f"  identity residual over 50 log-spaced points: {worst:.2e}\n")

print("=== 2. lower incomplete gamma on the imaginary axis ===")
print("  small arguments are exact (series / continued fraction):")
val = nm.lower_incomplete_gamma(1.0, 2.0)
print(f"    gamma(1, 2)        = {val.real:.10f}   (1 - e^-2 = {1 - math.exp(-2):.10f})")
val = nm.lower_incomplete_gamma(1 + 0.5j, -10j)
print(f"    gamma(1+0.5i,-10i) = {val:.10f}")

print("  large imaginary arguments return the regularized (adiabatic) limit:")
for X in (40.0, 100.0, 400.0):
    g = nm.lower_incomplete_gamma(1 + 1j, -1j * X)
    print(f"    |gamma(1+i, -{X:.0f}i)|^2 = {abs(g)**2:.10f}   "
          f"(|Gamma(1+i)|^2 = {abs(nm.gamma_complex(1+1j))**2:.10f})")
print("  the exact ray integral would instead oscillate without a limit;")
print("  the smooth part is what the detector-response formulas need.\n")

print("=== 3. oscillatory power integrals by contour rotation ===")
print("  int_0^inf e^{s i x} x^{s i W + p} dx, rotated so the integrand decays:")
for (om, p, sign) in [(1.0, -1.0, -1), (0.0, 0.0, +1), (2.0, 0.0, +1)]:
    got = nm.oscillatory_power_integral(om, p, sign)
    want = (
        cmath.exp(-math.pi * om / 2)
        * cmath.exp(1j * sign * math.pi * (p + 1) / 2)
        * nm.gamma_complex(complex(p + 1, sign * om))
    )
    print(f"  W={om:4.1f} p={p:4.1f} sign={sign:+d}:  rotated {got:.10f}")
    print(f"  {'':24s}closed  {want:.10f}")

print("\n  the counter-rotating kernel at W = 1 carries the Planck weight:")
got = nm.oscillatory_power_integral(1.0, -1.0, -1)
print(f"  |result|^2 = {abs(got)**2:.10f}  vs  e^-pi pi/sinh(pi) = "
      f"{math.exp(-math.pi) * math.pi / math.sinh(math.pi):.10f}")
