"""Acceptance suite: the ten exit criteria, each at its stated tolerance.

Each test prints one CRITERION line (run ``pytest -s`` to see them all);
tolerances are pinned here and match the package's documented guarantees.
Everything is desk scale: the full module runs in seconds.
"""

import math
import time

import numpy as np

from rindler_lab import numerics as nm
from rindler_lab import perturbation as pt
from rindler_lab import spacetime as st
from rindler_lab import vacua as vc
from rindler_lab.spacetime import DimensionlessParams, EventRindler

from oracles import tapered_overlap


def report(num, name, measured, bound, ok, started):
    status = "pass" if ok else "FAIL"
    print(
        f"CRITERION {num:2d} [{status}] {name}: measured {measured:.3e} "
        f"(bound {bound:g}, {time.perf_counter() - started:.2f}s)"
    )
    assert ok, f"criterion {num} ({name}) failed: {measured:.3e} vs bound {bound:g}"


def test_criterion_01_gamma_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.geomspace(1e-3, 30.0, 50):
        val = math.exp(2.0 * nm.log_gamma_complex(1j * x).real)
        worst = max(worst, abs(val * x * math.sinh(math.pi * x) / math.pi - 1.0))
    elapsed = time.perf_counter() - t0
    report(1, "|Gamma(ix)|^2 x sinh(pi x) = pi", worst, 1e-12, worst < 1e-12 and elapsed < 1.0, t0)


def test_criterion_02_accelerated_atom_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for om_ell in (0.1, 0.5, 1.0, 2.0, 3.0):
        rec = pt.accel_atom_probability(DimensionlessParams(omega_atom=om_ell), pt.Method.BOTH)
        worst = max(worst, rec.error_estimate)
    at_one = pt.accel_atom_probability(DimensionlessParams(omega_atom=1.0))
    exact = 2.0 * math.pi / (math.exp(2.0 * math.pi) - 1.0)
    closed_ok = abs(at_one.probability / exact - 1.0) < 1e-12
    quad_at_one = pt.accel_atom_probability(
        DimensionlessParams(omega_atom=1.0), pt.Method.QUADRATURE
    )
    quad_ok = abs(quad_at_one.probability / exact - 1.0) < 1e-6
    elapsed = time.perf_counter() - t0
    report(
        2,
        "accelerated atom: rotated quadrature vs closed form",
        worst,
        1e-6,
        worst < 1e-6 and closed_ok and quad_ok and elapsed < 5.0,
        t0,
    )


def test_criterion_03_static_atom_exact_vs_asymptotic_and_quadrature():
    t0 = time.perf_counter()
    far = DimensionlessParams(nu_field=1.0, omega_atom=1.0, z0=50.0)
    exact = pt.static_atom_rindler_probability(far).probability
    asym = pt.static_atom_asymptotic_probability(far)
    dev_far = abs(exact / asym - 1.0)
    near = DimensionlessParams(nu_field=0.5, omega_atom=1.0, z0=10.0)
    rec = pt.static_atom_rindler_probability(near, pt.Method.BOTH)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "static atom: exact vs thermal limit (1%), quadrature vs exact (1e-7)",
        max(dev_far, rec.error_estimate),
        1e-2,
        dev_far < 1e-2 and rec.error_estimate < 1e-7 and elapsed < 10.0,
        t0,
    )


def test_criterion_04_absorption_emission_thermality():
    t0 = time.perf_counter()
    thermal = math.exp(2.0 * math.pi)
    far = pt.absorption_emission_ratio(
        DimensionlessParams(nu_field=1.0, omega_atom=100.0, z0=1.0)
    )
    dev_far = abs(far / thermal - 1.0)
    near = pt.absorption_emission_ratio(
        DimensionlessParams(nu_field=1.0, omega_atom=1.0, z0=1.0)
    )
    dev_near = abs(near / thermal - 1.0)
    report(
        4,
        "detailed balance: thermal at omega z0 = 100, non-thermal at 1",
        dev_far,
        1e-2,
        dev_far < 1e-2 and dev_near > 5e-2,
        t0,
    )


def test_criterion_05_overlap_kernel():
    t0 = time.perf_counter()
    worst_route = 0.0
    for om in (0.25, 1.0, 2.0):
        closed = pt.w_omega(om, 1.0, 1.0, pt.Method.CLOSED_FORM)
        quad = pt.w_omega(om, 1.0, 1.0, pt.Method.QUADRATURE)
        worst_route = max(worst_route, abs(quad - closed) / abs(closed))
    worst_mod = 0.0
    for om in np.geomspace(0.1, 4.0, 13):
        w = pt.w_omega(float(om), 1.0, 1.0)
        want = 2.0 * math.pi * om * pt.planck_factor(2.0 * math.pi * float(om))
        worst_mod = max(worst_mod, abs(abs(w) ** 2 / want - 1.0))
    report(
        5,
        "overlap kernel: quadrature vs closed form and thermal modulus",
        worst_route,
        1e-8,
        worst_route < 1e-8 and worst_mod < 1e-10,
        t0,
    )


def test_criterion_06_mirror_thermal_fit():
    t0 = time.perf_counter()
    spec = pt.ScenarioSpec(pt.Scenario.ACCEL_MIRROR_STATIC_ATOM, DimensionlessParams())
    result = pt.spectrum_sweep(spec, np.linspace(0.25, 4.0, 16))
    err = abs(result.fitted_temperature - 1.0 / (2.0 * math.pi))
    report(6, "accelerated-mirror spectrum fits a Planck law at T = 1/2pi", err, 1e-6, err < 1e-6, t0)


def test_criterion_07_bogoliubov():
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_planck = 0.0
    for om in np.geomspace(0.05, 10.0, 21):
        pair = vc.bogoliubov_closed(float(om))
        worst_norm = max(worst_norm, abs(pair.normalization_defect))
        worst_planck = max(
            worst_planck,
            abs(abs(pair.beta) ** 2 / pt.planck_factor(2.0 * math.pi * float(om)) - 1.0),
        )
    # the numeric overlaps against their closed form on the sampled span
    worst_overlap = 0.0
    for numeric, sampling in zip((vc.alpha_numeric, vc.beta_numeric), vc._default_sampling()):
        want, scale = tapered_overlap(1.0, 1.0, sampling)
        worst_overlap = max(worst_overlap, abs(numeric(1.0, 1.0) - want) / scale)
    report(
        7,
        "Bogoliubov: unit normalization, Planck occupation, numeric alpha/beta "
        f"{worst_overlap:.1e} of the diagonal from the oracle (bound 2e-9)",
        max(worst_norm, worst_planck),
        1e-12,
        worst_norm < 1e-12 and worst_planck < 1e-12 and worst_overlap <= 2e-9,
        t0,
    )


def test_criterion_08_kms_periodicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    pairs = [
        (
            EventRindler(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),
            EventRindler(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),
        )
        for _ in range(64)
    ]
    result = vc.kms_residual(pairs, ell=1.0)
    t_dev = abs(result.t_extracted * 2.0 * math.pi - 1.0)
    off = vc.kms_twist_residual(pairs, 1.0, 1.5 * 2.0 * math.pi)
    report(
        8,
        "KMS twist: residual at 2 pi ell, temperature scan, off-period discrimination",
        result.max_residual,
        1e-10,
        result.max_residual < 1e-10 and t_dev < 1e-3 and off > 1e-3,
        t0,
    )


def test_criterion_09_temperature_identity_and_freefall_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for rg in (0.5, 1.0, 10.0):
        temps = st.temperatures(rg=rg)
        worst = max(worst, abs(temps.t_hbar / temps.t_bh - 1.0))
    p = DimensionlessParams(v0=0.1, rg=1.0, omega_atom=1000.0)
    spec = pt.ScenarioSpec(pt.Scenario.FREEFALL_BH, p)
    fitted = pt.spectrum_sweep(spec, np.geomspace(0.25, 4.0, 12)).fitted_temperature
    fit_dev = abs(fitted * 4.0 * math.pi - 1.0)
    report(
        9,
        "equivalence temperature identity and infall spectrum at 1/(4 pi rg)",
        worst,
        1e-12,
        worst < 1e-12 and fit_dev < 1e-2,
        t0,
    )


def test_criterion_10_roundtrips_and_infall_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for zbar in np.linspace(-5.0, 5.0, 9):
        for tbar in np.linspace(-5.0, 5.0, 9):
            e = st.rindler_to_minkowski(EventRindler(float(tbar), float(zbar)), 1.0)
            back = st.minkowski_to_rindler(e, 1.0)
            worst = max(worst, abs(complex(back.tbar) - tbar), abs(back.zbar - zbar))
    v0, rg = 0.1, 1.0
    p = DimensionlessParams(v0=v0, rg=rg)
    z0 = 2.0 * v0 * rg
    for s in np.linspace(-1.9 * rg * v0, 1.9 * rg * v0, 21):
        pt_ = st.freefall_trajectory(float(s), p)
        img = st.minkowski_to_rindler(st.EventMinkowski(float(s), z0), 2.0 * rg)
        worst = max(worst, abs(complex(img.tbar) - pt_.t), abs(img.zbar - pt_.rbar))
    report(10, "chart round trips and infall/static equivalence", worst, 1e-6, worst < 1e-6, t0)
