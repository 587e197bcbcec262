"""Bogoliubov machinery and the KMS periodicity extraction."""

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_lab import vacua as vc
from rindler_lab.errors import DomainError
from rindler_lab.modes import NullULine, SurfaceSampling
from rindler_lab.spacetime import EventRindler

from oracles import tapered_overlap

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

    @pytest.mark.parametrize("om", [226.0, 300.0, 1e4])
    def test_overflowing_weights_are_a_domain_error(self, om):
        # 2 sinh(pi omega) overflows from omega = 225.93; below it the pair stands
        assert abs(vc.bogoliubov_closed(225.9).alpha) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(DomainError, match=f"overflow at omega = {om:g}"):
            vc.bogoliubov_closed(om)
        with pytest.raises(DomainError, match=f"overflow at omega = {om:g}"):
            vc.particle_number_foreign_vacuum(om)


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
    @settings(max_examples=60, deadline=None)
    @given(om=st.floats(0.3, 5.0), om_bar=st.floats(0.3, 5.0))
    def test_overlaps_match_the_tapered_oracle(self, om, om_bar):
        # the trapezoid keeps its h^2/12 f'(edge) end term on the truncated
        # Gaussian, about 7e-10 of the diagonal at the default sampling
        neg, pos = vc._default_sampling()
        for numeric, sampling in ((vc.alpha_numeric, neg), (vc.beta_numeric, pos)):
            want, scale = tapered_overlap(om, om_bar, sampling)
            assert abs(numeric(om, om_bar) - want) <= 2e-9 * scale

    def test_diagonal_ratio_across_the_benchmark_range(self):
        for om in np.linspace(0.5, 2.0, 301):
            om = float(om)
            alpha, beta = vc.alpha_numeric(om, om), vc.beta_numeric(om, om)
            assert cmath.isfinite(alpha) and cmath.isfinite(beta)
            assert abs(beta / alpha) == pytest.approx(math.exp(-math.pi * om), rel=1e-12)

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

    def test_kg_inner_samples_the_surface_once(self, monkeypatch):
        calls = []
        grid = SurfaceSampling.grid

        def counted(self):
            calls.append(self)
            return grid(self)

        monkeypatch.setattr(SurfaceSampling, "grid", counted)
        vc.alpha_numeric(1.0, 1.0)
        vc.beta_numeric(1.0, 1.0)
        assert len(calls) == 2

    def test_overflowing_null_line_window_is_refused_at_construction(self):
        # u = -exp(s) overflows beyond s = 709.78; no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="NullULine window 800.0 overflows"):
                vc.alpha_numeric(1.0, 1.0, SurfaceSampling(NullULine(-1), samples=1024, window=800.0))
            with pytest.raises(DomainError, match="overflows"):
                SurfaceSampling(NullULine(+1), window=710.0)
            assert SurfaceSampling(NullULine(-1), window=709.0).window == 709.0

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


_coord = st.floats(-2.0, 2.0)
_event = st.builds(EventRindler, _coord, _coord)


def mp_interval(x, xp, ell):
    """``rindler_interval`` at 120 digits from the difference of squares of
    the Minkowski separations, and the size ``ell^2 (4ab cosh^2 X + (a - b)^2)``
    of its two terms (``X`` the real part of ``(tbar - tbar')/(2 ell)``)."""
    with mp.workdps(120):
        ell = mp.mpf(ell)
        a, b = mp.exp(mp.mpf(x.zbar) / ell), mp.exp(mp.mpf(xp.zbar) / ell)
        ta = mp.mpc(complex(x.tbar)) / ell
        tb = mp.mpc(complex(xp.tbar)) / ell
        d_sinh = a * mp.sinh(ta) - b * mp.sinh(tb)
        d_cosh = a * mp.cosh(ta) - b * mp.cosh(tb)
        ds2 = ell**2 * (d_sinh**2 - d_cosh**2)
        size = ell**2 * (4 * a * b * mp.cosh(mp.re(ta - tb) / 2) ** 2 + (a - b) ** 2)
        return complex(ds2), float(size)


_ell = st.floats(0.05, 2.0)


class TestIntervalAccuracy:
    """``ds2 = ell^2 [4ab sinh^2((tbar - tbar')/(2 ell)) - (a - b)^2]`` against mpmath.

    Errors are measured against the size of the two terms, which is
    ``|ds2|`` away from the light cone; on it the interval vanishes and
    only this scale is meaningful.
    """

    @settings(max_examples=200, deadline=None)
    @given(x=_event, xp=_event, ell=_ell)
    def test_relative_to_mpmath(self, x, xp, ell):
        want, size = mp_interval(x, xp, ell)
        assert abs(vc.rindler_interval(x, xp, ell) - want) <= 1e-13 * size

    @pytest.mark.parametrize("ell", [0.05, 0.1, 1.0])
    def test_kms_check_pairs_to_full_precision(self, ell):
        # kms-check's default pairs; the difference-of-squares form lost
        # every digit on them at ell <= 0.1
        for x, xp in random_pairs(64):
            want, _ = mp_interval(x, xp, ell)
            assert abs(vc.rindler_interval(x, xp, ell) - want) <= 1e-13 * abs(want)

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_event, _event), min_size=1, max_size=8),
        ell=_ell,
        periods=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
    )
    def test_array_path_matches_scalar(self, pairs, ell, periods):
        shifts = 2.0 * math.pi * ell * np.array(periods)
        parts = vc._interval_parts(pairs, ell)
        direct = vc._twisted_interval(parts, 0.0)
        twisted = vc._twisted_interval(parts, shifts[:, None] / (2.0 * ell))
        for p, (x, xp) in enumerate(pairs):
            _, size = mp_interval(x, xp, ell)
            got = complex(direct[0][p], direct[1][p])
            assert abs(got - vc.rindler_interval(x, xp, ell)) <= 1e-13 * size
            for k, shift in enumerate(shifts):
                got = complex(twisted[0][k, p], twisted[1][k, p])
                x_shifted = EventRindler(complex(x.tbar) + 1j * float(shift), x.zbar)
                want = vc.rindler_interval(xp, x_shifted, ell)
                assert abs(got - want) <= 1e-13 * size


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


def light_cone_ratio(x, xp, ell):
    """``|ds2|`` over the size ``ell^2 (4ab |sinh h|^2 + (a - b)^2)`` of its two terms.

    Both routes get ``ds2`` to a few ``eps`` times that size, so
    ``G = -log(ds2)/(4 pi)`` to about ``eps / ratio``.  At or below
    ``_LIGHT_CONE`` the pair counts as on the light cone, where ``G``
    diverges; the scan refuses it.
    """
    ds2 = abs(vc.rindler_interval(x, xp, ell))
    ab = math.exp((x.zbar + xp.zbar) / ell)
    a_minus_b = math.exp(xp.zbar / ell) * math.expm1((x.zbar - xp.zbar) / ell)
    sinh_h = cmath.sinh((complex(x.tbar) - complex(xp.tbar)) / (2.0 * ell))
    terms = ell * ell * (4.0 * ab * abs(sinh_h) ** 2 + a_minus_b**2)
    return ds2 / terms if ds2 else 0.0  # a coincident pair has no terms either


def per_shift_reference(pairs, ell, shift):
    """The twisted residual at one shift from the public scalar functions."""
    worst = 0.0
    for x, xp in pairs:
        if light_cone_ratio(x, xp, ell) <= vc._LIGHT_CONE:
            raise DomainError("two-point function diverges on the light cone")
        ds_direct = vc.rindler_interval(x, xp, ell)
        x_shifted = EventRindler(complex(x.tbar) + 1j * shift, x.zbar)
        ds_twisted = vc.rindler_interval(xp, x_shifted, ell)
        marker = 1e-12 * max(1.0, abs(ds_direct))
        g_direct = vc.two_point_minkowski_invariant(ds_direct, marker)
        g_twisted = vc.two_point_minkowski_invariant(ds_twisted, marker)
        worst = max(worst, abs(g_direct - g_twisted))
    return worst


def pair_at_ratio(ratio, ell=1.0):
    """A pair ``(0, 0), (1, 1 + delta)`` with ``light_cone_ratio`` about ``ratio``."""
    x, probe = EventRindler(0.0, 0.0), 1e-6
    slope = light_cone_ratio(x, EventRindler(1.0, 1.0 + probe), ell) / probe
    return x, EventRindler(1.0, 1.0 + ratio / slope)


class TestTwistResidualArray:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_event, _event), min_size=1, max_size=12),
        ell=st.floats(0.5, 2.0),
        periods=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
    )
    def test_matches_per_shift_reference(self, pairs, ell, periods):
        shifts = 2.0 * math.pi * ell * np.array(periods)
        ratio = min(light_cone_ratio(x, xp, ell) for x, xp in pairs)
        if vc._LIGHT_CONE / 2 < ratio < 2 * vc._LIGHT_CONE:
            # within roundoff of the light-cone bound either route may refuse
            # the pair; test_light_cone_bound_is_shared pins both sides of it
            return
        try:
            want = [per_shift_reference(pairs, ell, float(sh)) for sh in shifts]
        except DomainError:
            # a pair on the light cone: the array route must refuse it too
            with pytest.raises(DomainError):
                vc.kms_twist_residual(pairs, ell, shifts)
            return
        got = vc.kms_twist_residual(pairs, ell, shifts)
        assert got.shape == shifts.shape
        # G carries roundoff of about eps / ratio on both routes (measured at
        # most 0.25 of that); outside the bound's band this is at most 2**-23
        atol = 1e-13 + sys.float_info.epsilon / ratio
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        assert vc.kms_twist_residual(pairs, ell, float(shifts[0])) == got[0]

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_light_cone_pairs_are_refused(self, ell):
        # null separated: ds2 is roundoff, and the scalar route once got
        # exactly 0 and raised while the array route did not
        pairs = [(EventRindler(0.0, 0.0), EventRindler(ell, ell))] + random_pairs(8)
        with pytest.raises(DomainError, match="coincidence"):
            vc.kms_twist_residual(pairs, ell, 2.0 * math.pi * ell)
        with pytest.raises(DomainError):
            per_shift_reference(pairs, ell, 2.0 * math.pi * ell)

    @pytest.mark.parametrize("factor", [0.25, 4.0, 64.0])
    def test_light_cone_bound_is_shared(self, factor):
        # a pair inside or outside the bound: both routes refuse it inside,
        # and agree to its roundoff outside; at 64 times the bound (6e-8) the
        # property found the routes 6.5e-11 apart at shift 0, beyond 1e-13
        x, xp = pair_at_ratio(factor * vc._LIGHT_CONE)
        ratio = light_cone_ratio(x, xp, 1.0)
        assert factor / 2 < ratio / vc._LIGHT_CONE < 2 * factor
        pairs, shifts = [(x, xp)], 2.0 * math.pi * np.array([0.0, 0.5, 1.0])
        if factor < 1:
            with pytest.raises(DomainError, match="coincidence"):
                vc.kms_twist_residual(pairs, 1.0, shifts)
            with pytest.raises(DomainError):
                per_shift_reference(pairs, 1.0, 0.0)
            return
        want = [per_shift_reference(pairs, 1.0, float(sh)) for sh in shifts]
        got = vc.kms_twist_residual(pairs, 1.0, shifts)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=sys.float_info.epsilon / ratio)

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
        # 1e-300, 1e-3 and 0.005 overflow e^{(zbar + zbar')/ell} or the
        # squared sinh, and 1e200 overflows ell**2 (it used to halve the period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                vc.kms_residual(random_pairs(8), ell)

    def test_overflowing_scalar_interval_is_a_domain_error(self):
        with pytest.raises(DomainError, match="not finite"):
            vc.rindler_interval(EventRindler(0.0, 2.0), EventRindler(0.5, 1.0), 1e-3)
        with pytest.raises(DomainError, match="not finite"):
            vc.rindler_interval(EventRindler(0.0, 0.0), EventRindler(1.0, 0.0), 1e200)

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

    def test_scan_factors_shifts_from_pairs(self, monkeypatch):
        # cos and sin run once per pair and once per shift; an outer
        # product of them would take 2 x 241 x 64 = 30,848 elements for
        # the bracketing grids alone
        sizes = {"cos": 0, "sin": 0}
        for name in sizes:
            ufunc = getattr(np, name)

            def counted(arg, *args, name=name, ufunc=ufunc, **kwargs):
                sizes[name] += np.size(arg)
                return ufunc(arg, *args, **kwargs)

            monkeypatch.setattr(vc.np, name, counted)
        result = vc.kms_residual(random_pairs(64), 1.0)
        assert result.max_residual < 1e-10
        assert 0 < sizes["cos"] <= 1000 and 0 < sizes["sin"] <= 1000

    def test_narrow_scan_keeps_the_period(self):
        result = vc.kms_residual(random_pairs(16), 1.0, scan=(0.9, 1.1))
        assert result.fitted_period == pytest.approx(2.0 * math.pi, rel=1e-9)
