"""Bogoliubov machinery and the KMS periodicity extraction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_lab import vacua as vc
from rindler_lab.errors import DomainError
from rindler_lab.modes import NullULine, SurfaceSampling
from rindler_lab.spacetime import EventRindler

# 1/(e^pi - 1) and 1/(e^{2 pi} - 1), mpmath 40 digits
PLANCK_HALF = 0.045165705363684115
PLANCK_ONE = 0.0018709365986606441


def random_pairs(n, seed=20260809, box=2.0):
    rng = np.random.default_rng(seed)
    return [
        (
            EventRindler(float(rng.uniform(-box, box)), float(rng.uniform(-box, box))),
            EventRindler(float(rng.uniform(-box, box)), float(rng.uniform(-box, box))),
        )
        for _ in range(n)
    ]


class TestBogoliubovClosed:
    @pytest.mark.parametrize("om", [0.05, 0.1, 1.0, 5.0, 10.0])
    def test_standard_normalization(self, om):
        pair = vc.bogoliubov_closed(om)
        assert abs(pair.normalization_defect) < 1e-12

    def test_occupation_is_thermal(self):
        pair = vc.bogoliubov_closed(0.5)
        assert abs(pair.beta) ** 2 == pytest.approx(PLANCK_HALF, rel=1e-12)

    def test_symmetric_convention(self):
        pair = vc.bogoliubov_closed(1.0, "symmetric")
        assert pair.alpha == pair.beta
        assert abs(pair.alpha) ** 2 == pytest.approx(PLANCK_ONE, rel=1e-12)
        assert pair.normalization_defect == pytest.approx(-1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            vc.bogoliubov_closed(0.0)
        with pytest.raises(DomainError):
            vc.bogoliubov_closed(1.0, "folklore")


class TestParticleNumber:
    def test_standard_value(self):
        assert vc.particle_number_foreign_vacuum(1.0) == pytest.approx(PLANCK_ONE, rel=1e-12)

    def test_large_frequency_vanishes(self):
        assert vc.particle_number_foreign_vacuum(50.0) < 1e-100

    def test_symmetric_half_value_labeled(self):
        assert vc.particle_number_foreign_vacuum(1.0, "symmetric") == pytest.approx(
            0.5 * PLANCK_ONE, rel=1e-12
        )
        assert vc.particle_number_foreign_vacuum(1.0, "symmetric") == pytest.approx(
            9.3546829933032205e-4, rel=1e-10
        )

    @pytest.mark.parametrize("om", [0.3, 1.0, 4.0])
    def test_both_directions_share_the_occupation(self, om):
        # the two frames' foreign-vacuum occupations are both sums of
        # |beta|^2; diagonal coefficients make them the same number
        pair = vc.bogoliubov_closed(om)
        assert vc.particle_number_foreign_vacuum(om) == pytest.approx(
            abs(pair.beta) ** 2, rel=1e-14
        )


class TestNumericOverlaps:
    def test_diagonal_ratio_is_boltzmann_weight(self):
        om = 1.0
        alpha = vc.alpha_numeric(om, om)
        beta = vc.beta_numeric(om, om)
        assert abs(beta / alpha) == pytest.approx(math.exp(-math.pi * om), rel=0.02)

    def test_diagonal_ratio_other_frequency(self):
        om = 0.5
        ratio = abs(vc.beta_numeric(om, om) / vc.alpha_numeric(om, om))
        assert ratio == pytest.approx(math.exp(-math.pi * om), rel=0.02)

    def test_off_diagonal_suppressed(self):
        b_diag = vc.beta_numeric(1.0, 1.0)
        b_off = vc.beta_numeric(1.0, 3.0)
        assert abs(b_off) / abs(b_diag) < 0.1

    def test_inverse_expansion_consistency(self):
        # <g, f*> = -<f, g*> for the creation-coefficient pairing; with the
        # real diagonal overlaps this is the conjugate-minus relation
        from rindler_lab.modes import ModeKind, ModeSpec, kg_inner

        sampling = SurfaceSampling(NullULine(side=+1), samples=8192, window=8 * math.pi)
        f = ModeSpec(ModeKind.UNRUH_MINKOWSKI, 1.0)
        g = ModeSpec(ModeKind.RINDLER_WEDGE, 1.0, wedge="left", direction=+1)
        beta = kg_inner(f, g, sampling, conjugate_g=True)
        inverse = kg_inner(g, f, sampling, conjugate_g=True)
        assert abs(inverse + beta.conjugate()) < 1e-10 * abs(beta)

    def test_window_requirement(self):
        small = SurfaceSampling(NullULine(side=+1), samples=1024, window=1.0)
        with pytest.raises(DomainError):
            vc.beta_numeric(1.0, 1.0, small)


class TestTwoPointFunction:
    def test_depends_only_on_interval(self):
        a = vc.two_point_minkowski_invariant(complex(-2.3, 0.4))
        b = vc.two_point_minkowski_invariant(complex(-2.3, 0.4))
        assert a == b

    def test_spacelike_real(self):
        val = vc.two_point_minkowski_invariant(-1.5)
        assert val.imag == 0.0

    def test_log_spacing(self):
        # interval scaling by e^2 shifts the value by -1/(2 pi)
        diff = vc.two_point_minkowski_invariant(-math.e**2) - vc.two_point_minkowski_invariant(-1.0)
        assert diff.real == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-12)

    def test_coincidence_error(self):
        with pytest.raises(DomainError):
            vc.two_point_minkowski_invariant(0.0)


class TestRindlerInterval:
    def test_coincident_events_vanish(self):
        x = EventRindler(0.4, -1.2)
        assert vc.rindler_interval(x, x, 1.0) == 0.0

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_imaginary_period(self, ell):
        x = EventRindler(0.3, 0.7)
        xp = EventRindler(-0.9, -0.2)
        base = vc.rindler_interval(x, xp, ell)
        shifted = vc.rindler_interval(
            EventRindler(x.tbar + 2j * math.pi * ell, x.zbar), xp, ell
        )
        assert abs(shifted - base) < 1e-12 * max(1.0, abs(base))

    def test_equal_position_symbolic_form(self):
        # zbar = zbar' = 0, tbar' = 0: ds2 = 2 ell^2 (cosh(tbar/ell) - 1)
        ell, tbar = 1.3, 0.8
        got = vc.rindler_interval(EventRindler(tbar, 0.0), EventRindler(0.0, 0.0), ell)
        want = 2.0 * ell * ell * (math.cosh(tbar / ell) - 1.0)
        assert got.real == pytest.approx(want, rel=1e-12)
        assert got.imag == 0.0

    def test_matches_minkowski_interval(self):
        from rindler_lab.spacetime import rindler_to_minkowski

        ell = 1.0
        x, xp = EventRindler(0.5, 0.25), EventRindler(-0.75, 1.0)
        a = rindler_to_minkowski(x, ell)
        b = rindler_to_minkowski(xp, ell)
        want = (a.t - b.t) ** 2 - (a.z - b.z) ** 2
        assert vc.rindler_interval(x, xp, ell).real == pytest.approx(want, rel=1e-12)


class TestKmsResidual:
    def test_exact_shift_has_tiny_residual(self):
        result = vc.kms_residual(random_pairs(64), ell=1.0)
        assert result.max_residual < 1e-10

    def test_temperature_extraction(self):
        result = vc.kms_residual(random_pairs(64), ell=1.0)
        assert result.t_extracted == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-3)
        assert result.fitted_period == pytest.approx(2.0 * math.pi, rel=1e-3)

    @pytest.mark.parametrize("ell", [0.5, 2.0])
    def test_temperature_scales_with_ell(self, ell):
        result = vc.kms_residual(random_pairs(32), ell=ell)
        assert result.t_extracted == pytest.approx(1.0 / (2.0 * math.pi * ell), rel=1e-3)

    def test_wrong_shift_is_discriminated(self):
        pairs = random_pairs(64)
        residual_off = vc.kms_twist_residual(pairs, 1.0, 1.5 * 2.0 * math.pi)
        assert residual_off > 1e-3

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DomainError):
            vc.kms_residual(random_pairs(4), ell=1.0)
        x = EventRindler(0.1, 0.2)
        with pytest.raises(DomainError):
            vc.kms_residual([(x, x)] * 8, ell=1.0)

    def test_accepts_two_point_sample_records(self):
        samples = [vc.TwoPointSample(x, xp) for x, xp in random_pairs(12)]
        assert vc.kms_residual(samples, ell=1.0).max_residual < 1e-10

    def test_scalar_shift_gives_float(self):
        value = vc.kms_twist_residual(random_pairs(8), 1.0, 2.0 * math.pi)
        assert type(value) is float


def per_shift_reference(pairs, ell, shift):
    """The twisted residual at one shift from the public scalar functions."""
    worst = 0.0
    for x, xp in pairs:
        ds_direct = vc.rindler_interval(x, xp, ell)
        x_shifted = EventRindler(complex(x.tbar) + 1j * shift, x.zbar)
        ds_twisted = vc.rindler_interval(xp, x_shifted, ell)
        marker = 1e-12 * max(1.0, abs(ds_direct))
        g_direct = vc.two_point_minkowski_invariant(ds_direct, marker)
        g_twisted = vc.two_point_minkowski_invariant(ds_twisted, marker)
        worst = max(worst, abs(g_direct - g_twisted))
    return worst


_coord = st.floats(-2.0, 2.0)
_event = st.builds(EventRindler, _coord, _coord)


class TestTwistResidualArray:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_event, _event), min_size=1, max_size=12),
        ell=st.floats(0.5, 2.0),
        periods=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
    )
    def test_matches_per_shift_reference(self, pairs, ell, periods):
        shifts = 2.0 * math.pi * ell * np.array(periods)
        try:
            want = [per_shift_reference(pairs, ell, float(sh)) for sh in shifts]
        except DomainError:
            # a vanishing interval: the array route must refuse it too
            with pytest.raises(DomainError):
                vc.kms_twist_residual(pairs, ell, shifts)
            return
        got = vc.kms_twist_residual(pairs, ell, shifts)
        assert got.shape == shifts.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        assert vc.kms_twist_residual(pairs, ell, float(shifts[0])) == got[0]

    def test_complex_times_match_reference(self):
        pairs = [
            (
                EventRindler(complex(x.tbar, 0.1 * k), x.zbar),
                EventRindler(complex(xp.tbar, -0.05 * k), xp.zbar),
            )
            for k, (x, xp) in enumerate(random_pairs(10))
        ]
        shifts = np.linspace(0.5, 1.5, 7) * 2.0 * math.pi * 1.3
        want = [per_shift_reference(pairs, 1.3, float(sh)) for sh in shifts]
        got = vc.kms_twist_residual(pairs, 1.3, shifts)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_shift_array_shape_is_kept(self):
        shifts = np.full((2, 3), 2.0 * math.pi)
        got = vc.kms_twist_residual(random_pairs(8), 1.0, shifts)
        assert got.shape == (2, 3)
        assert np.all(got < 1e-10)


class TestKmsDomainEdges:
    @pytest.mark.parametrize("ell", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_ell(self, ell):
        with pytest.raises(DomainError, match="ell must be positive and finite"):
            vc.kms_residual(random_pairs(8), ell)
        with pytest.raises(DomainError, match="ell must be positive and finite"):
            vc.kms_twist_residual(random_pairs(8), ell, 1.0)

    @pytest.mark.parametrize("ell", [1e-300, 1e-3, 0.005, 1e200])
    def test_overflowing_intervals_fail_without_warnings(self, ell):
        # 1e-300 and 1e-3 overflow exp or sinh per event, 0.005 the array
        # products, and 1e200 overflows ell**2 (it used to halve the period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                vc.kms_residual(random_pairs(8), ell)

    @pytest.mark.parametrize(
        "scan",
        [
            (0.0, 1.5),
            (-1.0, 1.5),
            (0.9, 0.9),
            (1.5, 0.5),
            (0.5, math.inf),
            (math.nan, 1.5),
            (0.5, math.nan),
        ],
    )
    def test_bad_scan(self, scan):
        with pytest.raises(DomainError, match="scan must be"):
            vc.kms_residual(random_pairs(8), 1.0, scan=scan)

    def test_non_finite_shift(self):
        with pytest.raises(DomainError, match="not finite"):
            vc.kms_twist_residual(random_pairs(8), 1.0, np.array([1.0, math.inf]))

    def test_narrow_scan_keeps_the_period(self):
        result = vc.kms_residual(random_pairs(16), 1.0, scan=(0.9, 1.1))
        assert result.fitted_period == pytest.approx(2.0 * math.pi, rel=1e-9)
