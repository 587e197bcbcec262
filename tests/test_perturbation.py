"""Scenario probabilities, the overlap kernel, and spectrum sweeps."""

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rindler_lab import numerics
from rindler_lab import perturbation as pt
from rindler_lab.errors import DomainError
from rindler_lab.spacetime import DimensionlessParams

# 2 pi / (e^{2 pi} - 1), mpmath 40 digits
THERMAL_AT_ONE = 0.011755441347369110
# e^{-pi nu ell} |gamma(1 + i nu ell, -2 i omega z0)|^2 at nu ell = 0.5, omega z0 = 10
STATIC_EXACT_HALF_TEN = 1.8064947598312117
# exact absorption/emission ratio at nu ell = 1, omega z0 = 2 (mpmath)
RATIO_EXACT_ONE_TWO = 23.0909187911


def params(**kw):
    return DimensionlessParams(**kw)


class TestPlanckFactor:
    def test_value(self):
        assert pt.planck_factor(2 * math.pi) == pytest.approx(1.8709365986606441e-3, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            pt.planck_factor(0.0)


class TestAccelAtom:
    def test_closed_form_at_unit_gap(self):
        rec = pt.accel_atom_probability(params(omega_atom=1.0))
        assert rec.probability == pytest.approx(THERMAL_AT_ONE, rel=1e-12)
        assert rec.method == "closed"
        assert rec.error_estimate == 0.0

    def test_exponential_suppression(self):
        rec = pt.accel_atom_probability(params(omega_atom=10.0))
        assert rec.probability < 1e-26

    @pytest.mark.parametrize("om_ell", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_quadrature_matches_closed_form(self, om_ell):
        rec = pt.accel_atom_probability(params(omega_atom=om_ell), pt.Method.BOTH)
        assert rec.error_estimate < 1e-6

    def test_record_consistency(self):
        rec = pt.accel_atom_probability(params(omega_atom=0.7), pt.Method.QUADRATURE)
        assert rec.probability == pytest.approx(abs(rec.amplitude) ** 2, rel=1e-14)

    def test_emitted_frequency_invariance(self):
        # the gap alone controls the probability
        a = pt.accel_atom_probability(params(omega_atom=1.0, nu_field=1.0), pt.Method.QUADRATURE)
        b = pt.accel_atom_probability(params(omega_atom=1.0, nu_field=7.0), pt.Method.QUADRATURE)
        assert a.probability == b.probability

    def test_coupling_scaling(self):
        a = pt.accel_atom_probability(params(coupling_g=1.0))
        b = pt.accel_atom_probability(params(coupling_g=2.0))
        assert b.probability == pytest.approx(4.0 * a.probability, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            pt.accel_atom_probability(params(omega_atom=-1.0))


class TestStaticAtom:
    def test_exact_approaches_thermal_far_from_horizon(self):
        # omega z0 = 50 (far-atom regime): exact within 1% of the thermal limit
        p = params(nu_field=1.0, omega_atom=1.0, ell=1.0, z0=50.0)
        rec = pt.static_atom_rindler_probability(p)
        asym = pt.static_atom_asymptotic_probability(p)
        assert asym == pytest.approx(THERMAL_AT_ONE, rel=1e-12)
        assert abs(rec.probability / asym - 1.0) < 0.01

    def test_quadrature_matches_exact_form(self):
        # omega z0 = 10, nu ell = 0.5: both against the frozen value
        p = params(nu_field=0.5, omega_atom=1.0, ell=1.0, z0=10.0)
        rec = pt.static_atom_rindler_probability(p, pt.Method.BOTH)
        assert rec.probability == pytest.approx(STATIC_EXACT_HALF_TEN, rel=1e-9)
        assert rec.error_estimate < 1e-7

    @pytest.mark.parametrize("nu_ell", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_both_routes_agree_across_standard_grid(self, nu_ell):
        p = params(nu_field=nu_ell, omega_atom=1.0, z0=10.0)
        rec = pt.static_atom_rindler_probability(p, pt.Method.BOTH)
        assert rec.error_estimate < 1e-6

    def test_thermal_factor_depends_on_field_frequency(self):
        # holding nu*ell and omega*z0, the rescaled probability is invariant
        a = pt.static_atom_rindler_probability(params(nu_field=1.0, omega_atom=2.0, z0=25.0))
        b = pt.static_atom_rindler_probability(params(nu_field=1.0, omega_atom=5.0, z0=10.0))
        assert a.probability * 4.0 == pytest.approx(b.probability * 25.0, rel=1e-12)
        # and changing nu*ell moves it by the thermal factor
        c = pt.static_atom_rindler_probability(params(nu_field=2.0, omega_atom=2.0, z0=25.0))
        expected = (2.0 * pt.planck_factor(4 * math.pi)) / (1.0 * pt.planck_factor(2 * math.pi))
        assert c.probability / a.probability == pytest.approx(expected, rel=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            pt.static_atom_rindler_probability(params(nu_field=-1.0))


class TestAbsorptionEmissionRatio:
    def test_zero_frequency_limit(self):
        p = params(nu_field=1e-7, omega_atom=1.0, z0=1.0)
        assert pt.absorption_emission_ratio(p) == pytest.approx(1.0, abs=1e-4)

    def test_thermal_in_far_limit(self):
        p = params(nu_field=1.0, omega_atom=100.0, ell=1.0, z0=1.0)
        ratio = pt.absorption_emission_ratio(p)
        assert ratio == pytest.approx(math.exp(2.0 * math.pi), rel=0.01)

    def test_near_regime_frozen_value(self):
        p = params(nu_field=1.0, omega_atom=2.0, ell=1.0, z0=1.0)
        ratio = pt.absorption_emission_ratio(p)
        assert ratio == pytest.approx(RATIO_EXACT_ONE_TWO, rel=1e-8)
        # far from thermal
        assert abs(ratio / math.exp(2 * math.pi) - 1.0) > 0.05


class TestWOmega:
    @pytest.mark.parametrize("om", [0.1, 0.25, 1.0, 2.0, 4.0])
    def test_modulus_squared_is_thermal(self, om):
        w = pt.w_omega(om, 1.0, 1.0)
        want = 2.0 * math.pi * om * pt.planck_factor(2.0 * math.pi * om)
        assert abs(w) ** 2 == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("om", [0.1, 0.25, 1.0, 2.0, 3.0])
    def test_quadrature_matches_closed_form(self, om):
        closed = pt.w_omega(om, 1.0, 1.0, pt.Method.CLOSED_FORM)
        quad = pt.w_omega(om, 1.0, 1.0, pt.Method.QUADRATURE)
        assert abs(quad - closed) / abs(closed) < 1e-8

    @pytest.mark.parametrize("method", [pt.Method.CLOSED_FORM, pt.Method.QUADRATURE])
    def test_rotation_conjugation(self, method):
        w_plus = pt.w_omega(1.0, 2.0, 1.0, method, rotation=+1)
        w_minus = pt.w_omega(1.0, 2.0, 1.0, method, rotation=-1)
        assert abs(w_minus - w_plus.conjugate()) < 1e-10 * abs(w_plus)

    def test_small_frequency_phase(self):
        from rindler_lab.numerics import gamma_complex

        # arg Gamma(i O) -> -pi/2 as O -> 0+
        assert cmath.phase(gamma_complex(1e-3j)) == pytest.approx(-math.pi / 2, abs=2e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            pt.w_omega(-1.0, 1.0, 1.0)


class TestMirrorScenario:
    def test_family_two_is_difference(self):
        amps = pt.mirror_family_amplitudes(1.0, params())
        assert amps[2] == pytest.approx(amps[3] - amps[1], rel=1e-14)
        # equal thermal weight in the free families
        assert abs(amps[1]) == pytest.approx(abs(amps[3]), rel=1e-14)

    def test_probability_ratio_between_frequencies(self):
        p1 = pt.accel_mirror_mode_probability(1.0, params()).probability
        p2 = pt.accel_mirror_mode_probability(2.0, params()).probability
        want = (math.exp(2 * math.pi) - 1.0) / (math.exp(4 * math.pi) - 1.0)
        assert p2 / p1 == pytest.approx(want, rel=1e-12)

    def test_thermal_form(self):
        p = params(coupling_g=1.0)
        rec = pt.accel_mirror_mode_probability(1.5, p)
        assert rec.probability == pytest.approx(0.5 * pt.planck_factor(3 * math.pi), rel=1e-12)

    def test_amplitude_phase_is_deterministic_and_smooth(self):
        # pure-state correlations: the amplitude phase varies continuously
        # with frequency following the log phase and the gamma-function arg
        oms = np.linspace(0.25, 3.0, 56)
        phases = np.unwrap([cmath.phase(pt.mirror_family_amplitudes(float(o), params())[3]) for o in oms])
        steps = np.abs(np.diff(phases))
        assert np.max(steps) < 0.25
        again = np.unwrap([cmath.phase(pt.mirror_family_amplitudes(float(o), params())[3]) for o in oms])
        assert np.array_equal(phases, again)

    def test_domain(self):
        with pytest.raises(DomainError):
            pt.accel_mirror_mode_probability(0.0, params())

    def test_both_runs_the_quadrature(self):
        # the residual of the rotated quadrature against the closed form,
        # not a constant placeholder
        grid = np.geomspace(0.1, 3.0, 30)
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_MIRROR_STATIC_ATOM, params(), pt.Method.BOTH)
        residuals = [r.error_estimate for r in pt.spectrum_sweep(spec, grid).records]
        assert max(residuals) < 1e-9
        assert len(set(residuals)) > 1

    def test_quad_error_bounds_the_deviation(self):
        grid = np.geomspace(0.1, 3.0, 30)
        for scenario in (pt.Scenario.ACCEL_MIRROR_STATIC_ATOM, pt.Scenario.ACCEL_ATOM):
            quad = pt.ScenarioSpec(scenario, params(), pt.Method.QUADRATURE)
            closed = pt.ScenarioSpec(scenario, params())
            for q, c in zip(
                pt.spectrum_sweep(quad, grid).records, pt.spectrum_sweep(closed, grid).records
            ):
                assert 0.0 < q.error_estimate < 1e-12, scenario
                assert abs(q.probability - c.probability) <= q.error_estimate, scenario


class TestAtomAboveMirror:
    def test_thermal_factor(self):
        got = pt.accel_atom_mirror_probability(1.0)
        assert got * 2.0 * math.pi == pytest.approx(pt.planck_factor(2 * math.pi), rel=1e-12)

    def test_small_gap_limit(self):
        # (omega/a) * thermal factor -> 1/(2 pi)
        w = 1e-7
        assert w * pt.planck_factor(2 * math.pi * w) == pytest.approx(1.0 / (2 * math.pi), rel=1e-5)

    def test_two_mode_relative_phase(self):
        plus, minus = pt.accel_atom_mirror_amplitudes(1.0)
        assert minus == -plus
        assert 2.0 * abs(plus) ** 2 == pytest.approx(pt.accel_atom_mirror_probability(1.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            pt.accel_atom_mirror_probability(-1.0)

    def test_amplitudes_hold_the_probability_at_large_gap(self):
        for w in np.geomspace(1e-6, 200.0, 400).tolist():
            plus, _ = pt.accel_atom_mirror_amplitudes(w)
            p = pt.accel_atom_mirror_probability(w)
            assert 2.0 * abs(plus) ** 2 == pytest.approx(p, rel=1e-12, abs=0.0)
        for w in np.geomspace(200.0, 1e4, 50).tolist():
            plus, minus = pt.accel_atom_mirror_amplitudes(w)
            assert math.isfinite(plus.real) and minus == -plus


    @pytest.mark.parametrize("w", [1e-160, 1e-170, 1e-300])
    def test_gap_below_the_overflow_limit_is_a_domain_error(self, w):
        message = f"accel-atom-mirror probability overflows to inf at frequency {w!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            pt.accel_atom_mirror_probability(w)
        with pytest.raises(DomainError, match=re.escape(message)):
            pt.accel_atom_mirror_amplitudes(w)

    def test_both_functions_are_finite_from_the_limit(self):
        w = pt._ATOM_MIRROR_MIN_GAP
        assert w == pytest.approx(1.19e-155, rel=1e-2)
        p = pt.accel_atom_mirror_probability(w)
        plus, _ = pt.accel_atom_mirror_amplitudes(w)
        assert math.isfinite(p)
        assert 2.0 * abs(plus) ** 2 == pytest.approx(p, rel=1e-12)
        below = math.nextafter(w, 0.0)
        with pytest.raises(DomainError):
            pt.accel_atom_mirror_amplitudes(below)


class TestFreeFall:
    def test_exact_delegation_bitwise(self):
        p = params(v0=0.1, rg=1.0, nu_field=1.0, omega_atom=500.0, ell=7.7)
        mapped = pt.freefall_map(p)
        assert mapped.ell == 2.0
        assert mapped.z0 == pytest.approx(0.2)
        direct = pt.freefall_bh_probability(p)
        via_static = pt.static_atom_rindler_probability(mapped)
        assert direct == via_static  # bitwise: same dataclass contents

    def test_ratio_check_under_mapping(self):
        p = params(v0=0.1, rg=1.0, nu_field=1.0, omega_atom=1000.0)
        ratio = pt.absorption_emission_ratio(pt.freefall_map(p))
        assert ratio == pytest.approx(math.exp(2 * math.pi), rel=0.01)

    def test_speed_domain(self):
        with pytest.raises(DomainError):
            pt.freefall_map(params(v0=0.0))

    def test_both_above_the_switch_compares_like_with_like(self):
        # README freefall grid: 2 omega z0 = 200 > LARGE_X_SWITCH, where the
        # closed route is the regularized limit and so is the check
        p = params(v0=0.1, rg=1.0, omega_atom=1000.0)
        spec = pt.ScenarioSpec(pt.Scenario.FREEFALL_BH, p, pt.Method.BOTH)
        records = pt.spectrum_sweep(spec, np.geomspace(0.25, 4.0, 12)).records
        assert max(r.error_estimate for r in records) < 1e-9


# each scenario's public one-point call, where it returns a record
_SINGLE_POINT = {
    pt.Scenario.ACCEL_ATOM: lambda p, f: pt.accel_atom_probability(replace(p, omega_atom=f)),
    pt.Scenario.STATIC_ATOM_RINDLER_VAC: lambda p, f: pt.static_atom_rindler_probability(
        replace(p, nu_field=f)
    ),
    pt.Scenario.ACCEL_MIRROR_STATIC_ATOM: lambda p, f: pt.accel_mirror_mode_probability(f, p),
    pt.Scenario.FREEFALL_BH: lambda p, f: pt.freefall_bh_probability(replace(p, nu_field=f)),
}


class TestSpectrumSweep:
    def test_accel_atom_fit_recovers_unruh_temperature(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params(ell=1.0))
        grid = np.geomspace(0.1, 3.0, 30)
        result = pt.spectrum_sweep(spec, grid)
        assert result.fitted_temperature == pytest.approx(1.0 / (2 * math.pi), rel=1e-6)
        assert result.fit_residual < 1e-9

    def test_accel_atom_fit_scales_with_ell(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params(ell=2.5))
        result = pt.spectrum_sweep(spec, np.geomspace(0.1, 3.0, 16))
        assert result.fitted_temperature == pytest.approx(1.0 / (2 * math.pi * 2.5), rel=1e-6)

    def test_static_atom_far_regime_fit(self):
        spec = pt.ScenarioSpec(
            pt.Scenario.STATIC_ATOM_RINDLER_VAC, params(omega_atom=1.0, z0=100.0)
        )
        result = pt.spectrum_sweep(spec, np.geomspace(0.25, 3.0, 12))
        assert result.fitted_temperature == pytest.approx(1.0 / (2 * math.pi), rel=0.01)

    def test_freefall_fit_recovers_horizon_temperature(self):
        p = params(v0=0.1, rg=1.0, omega_atom=1000.0)
        spec = pt.ScenarioSpec(pt.Scenario.FREEFALL_BH, p)
        result = pt.spectrum_sweep(spec, np.geomspace(0.25, 4.0, 12))
        assert result.fitted_temperature == pytest.approx(1.0 / (4.0 * math.pi), rel=0.01)

    def test_mirror_scenario_fit(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_MIRROR_STATIC_ATOM, params())
        result = pt.spectrum_sweep(spec, np.linspace(0.25, 4.0, 16))
        assert result.fitted_temperature == pytest.approx(1.0 / (2 * math.pi), abs=1e-6)

    def test_empty_grid(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params())
        result = pt.spectrum_sweep(spec, [])
        assert result.records == ()
        assert result.fitted_temperature is None

    def test_short_grid_skips_fit(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params())
        result = pt.spectrum_sweep(spec, [0.5, 1.0, 2.0])
        assert len(result.records) == 3
        assert result.fitted_temperature is None

    def test_grid_must_increase(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params())
        with pytest.raises(DomainError):
            pt.spectrum_sweep(spec, [1.0, 1.0, 2.0])

    def test_parallel_matches_serial(self):
        spec = pt.ScenarioSpec(pt.Scenario.STATIC_ATOM_RINDLER_VAC, params(z0=10.0))
        grid = np.geomspace(0.2, 2.0, 8)
        serial = pt.spectrum_sweep(spec, grid)
        parallel = pt.spectrum_sweep(spec, grid, max_workers=4)
        assert serial.records == parallel.records
        assert serial.fitted_temperature == parallel.fitted_temperature

    @pytest.mark.parametrize("method", list(pt.Method))
    @pytest.mark.parametrize("scenario", list(pt.Scenario))
    def test_record_method_is_what_was_computed(self, scenario, method):
        spec = pt.ScenarioSpec(scenario, params(z0=10.0), method)
        grid = [0.5, 1.0, 2.0]
        if scenario is pt.Scenario.ACCEL_ATOM_MIRROR and method is not pt.Method.CLOSED_FORM:
            # closed form only: no quadrature to label "quad" or "both"
            with pytest.raises(DomainError, match=scenario.value):
                pt.spectrum_sweep(spec, grid)
            return
        assert [r.method for r in pt.spectrum_sweep(spec, grid).records] == [method.value] * 3

    @pytest.mark.parametrize(
        "scenario, p",
        [
            (pt.Scenario.STATIC_ATOM_RINDLER_VAC, params(omega_atom=1.0, z0=10.0)),  # X = 20
            (pt.Scenario.FREEFALL_BH, params(omega_atom=40.0, rg=1.0, v0=0.2)),  # X = 16
        ],
    )
    def test_ray_band_closed_sweep_runs_no_quadrature(self, monkeypatch, scenario, p):
        # the band's incomplete gamma is Gamma(s) minus a continued fraction
        calls = []
        quad = numerics.adaptive_finite_quad

        def counted(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(numerics, "adaptive_finite_quad", counted)
        grid = np.geomspace(0.1, 3.0, 30)
        records = pt.spectrum_sweep(pt.ScenarioSpec(scenario, p), grid).records
        assert len(records) == 30 and calls == []

    def test_ray_band_sweep_reaches_nu_40(self):
        # 2 omega z0 = 29.99, the top of the ray band; each point has the
        # bytes of a single-point call
        p = params(omega_atom=1.0, z0=14.995)
        spec = pt.ScenarioSpec(pt.Scenario.STATIC_ATOM_RINDLER_VAC, p)
        grid = np.geomspace(0.1, 40.0, 30)
        records = pt.spectrum_sweep(spec, grid).records
        for nu, rec in zip(grid, records):
            single = pt.static_atom_rindler_probability(replace(p, nu_field=nu))
            assert rec.probability == single.probability

    @pytest.mark.parametrize(
        "scenario, p",
        [
            (pt.Scenario.ACCEL_ATOM, params()),
            # 2 omega z0 = 10, the series branch, and 100, the regularized limit
            (pt.Scenario.STATIC_ATOM_RINDLER_VAC, params(z0=5.0)),
            (pt.Scenario.STATIC_ATOM_RINDLER_VAC, params(z0=50.0)),
            (pt.Scenario.ACCEL_ATOM_MIRROR, params()),
            (pt.Scenario.ACCEL_MIRROR_STATIC_ATOM, params(coupling_g=0.8)),
            # 2 omega z0 = 10 and 200
            (pt.Scenario.FREEFALL_BH, params(omega_atom=50.0, rg=1.0, v0=0.1)),
            (pt.Scenario.FREEFALL_BH, params(omega_atom=1000.0, rg=1.0, v0=0.1)),
        ],
    )
    def test_long_closed_sweep_is_bitwise_single_points(self, scenario, p):
        # 2,500 points take the array kernels; one point takes the scalar routes
        spec = pt.ScenarioSpec(scenario, p)
        grid = np.geomspace(0.05, 5.0, 2500)
        assert len(grid) >= numerics._BATCH_MIN
        records = pt.spectrum_sweep(spec, grid).records
        single = _SINGLE_POINT.get(scenario)
        for f, rec in zip(grid.tolist(), records):
            assert repr(rec) == repr(pt.spectrum_sweep(spec, [f]).records[0])
            if single is not None:
                assert repr(rec) == repr(single(p, f))

    @pytest.mark.parametrize("scenario", [pt.Scenario.ACCEL_ATOM, pt.Scenario.ACCEL_ATOM_MIRROR])
    def test_small_frequency_overflow_is_named(self, scenario):
        spec = pt.ScenarioSpec(scenario, params())
        message = f"{scenario.value} probability overflows to inf at frequency 1e-300"
        with pytest.raises(DomainError, match=message):
            pt.spectrum_sweep(spec, [1e-300, 1e-299])

    def test_coupling_scaling_across_sweep(self):
        grid = np.geomspace(0.3, 2.0, 6)
        base = pt.spectrum_sweep(pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params(coupling_g=1.0)), grid)
        scaled = pt.spectrum_sweep(pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params(coupling_g=3.0)), grid)
        for a, b in zip(base.records, scaled.records):
            assert b.probability == pytest.approx(9.0 * a.probability, rel=1e-13)


class TestSpectrumColumns:
    def test_columns_are_read_only_and_match_the_records(self):
        spec = pt.ScenarioSpec(pt.Scenario.STATIC_ATOM_RINDLER_VAC, params(z0=5.0))
        grid = np.geomspace(0.1, 3.0, 30)
        result = pt.spectrum_sweep(spec, grid)
        columns = (result.freq, result.probability, result.amplitude, result.error_estimate)
        for column in columns:
            assert column.shape == (30,) and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert result.amplitude.dtype == complex and result.method == "closed"
        assert result.records == tuple(
            pt.SpectrumRecord(f, p, a, "closed", e)
            for f, p, a, e in zip(*(c.tolist() for c in columns))
        )
        # the sweep copies the grid rather than freezing the caller's array
        assert grid.flags.writeable

    def test_zero_coupling_skips_the_fit(self):
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params(coupling_g=0.0))
        result = pt.spectrum_sweep(spec, np.geomspace(0.5, 2.0, 5))
        assert not result.probability.any()
        assert result.fitted_temperature is None and result.fit_residual is None


class TestVectorizedValidation:
    """A route's bad value fails the sweep, naming the first bad frequency."""

    GRID = np.geomspace(0.1, 3.0, 200)
    BAD = (117, 150)

    @staticmethod
    def _corrupt(probs, amps, i, kind):
        if kind == "negative":
            probs[i] = -probs[i]
            amps[i] = 1j * amps[i]
        elif kind == "nan":
            probs[i] = math.nan
        else:
            amps[i] *= 1.001

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("negative", "probability is -[0-9.e-]+, not finite and nonnegative, at"),
            ("nan", "probability is nan, not finite and nonnegative, at"),
            ("mismatch", "probability is not \\|amplitude\\|\\*\\*2 at"),
        ],
        ids=["negative", "nan", "mismatch"],
    )
    def test_bad_route_value_names_the_first_bad_frequency(self, monkeypatch, kind, message):
        routes = pt._SCENARIOS[pt.Scenario.ACCEL_ATOM]
        corrupt = self._corrupt

        def closed(p, freqs):
            probs, amps = routes.closed(p, freqs)
            for i in self.BAD:
                corrupt(probs, amps, i, kind)
            return probs, amps

        monkeypatch.setitem(pt._SCENARIOS, pt.Scenario.ACCEL_ATOM, routes._replace(closed=closed))
        spec = pt.ScenarioSpec(pt.Scenario.ACCEL_ATOM, params())
        first = self.GRID.tolist()[self.BAD[0]]
        with pytest.raises(DomainError, match=message) as info:
            pt.spectrum_sweep(spec, self.GRID)
        text = str(info.value)
        assert text.startswith("accel-atom probability")
        assert f"at frequency {first!r}" in text
        assert repr(self.GRID.tolist()[self.BAD[1]]) not in text
