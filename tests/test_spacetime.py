"""Chart maps, worldlines and temperature identities."""

import math

import numpy as np
import pytest

from rindler_lab import spacetime as st
from rindler_lab.errors import DomainError, WedgeError


class TestParams:
    def test_defaults_valid(self):
        p = st.DimensionlessParams()
        assert p.ell == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ell": 0.0},
            {"ell": -1.0},
            {"v0": 1.0},
            {"v0": -0.1},
            {"omega_atom": 0.0},
            {"coupling_g": -1.0},
            {"z0": 0.0},
            {"rg": 0.0},
            {"nu_field": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            st.DimensionlessParams(**kwargs)


class TestTrajectory:
    def test_at_origin(self):
        e = st.rindler_trajectory(0.0, st.DimensionlessParams(ell=1.0))
        assert e == (0.0, 1.0)

    def test_at_unit_proper_time(self):
        e = st.rindler_trajectory(1.0, st.DimensionlessParams(ell=1.0))
        assert e.t == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert e.z == pytest.approx(math.cosh(1.0), rel=1e-15)

    @pytest.mark.parametrize("tau", [-3.0, -0.5, 0.0, 0.7, 2.5])
    @pytest.mark.parametrize("ell", [0.5, 1.0, 4.0])
    def test_hyperbola_invariant(self, tau, ell):
        e = st.rindler_trajectory(tau, st.DimensionlessParams(ell=ell))
        # cosh^2 - sinh^2 cancellation bounds the achievable precision
        eps = np.finfo(float).eps
        tol = max(1e-12 * ell**2, 4.0 * eps * e.z**2)
        assert abs(e.z**2 - e.t**2 - ell**2) < tol

    @pytest.mark.parametrize("tau", [-2.0, 0.0, 1.3])
    def test_is_zbar_zero_worldline(self, tau):
        ell = 1.7
        via_chart = st.rindler_to_minkowski(st.EventRindler(tau, 0.0), ell)
        direct = st.rindler_trajectory(tau, st.DimensionlessParams(ell=ell))
        assert via_chart == direct


class TestChartMaps:
    def test_chart_origin(self):
        assert st.rindler_to_minkowski(st.EventRindler(0.0, 0.0), 1.0) == (0.0, 1.0)

    def test_pure_spatial_offset(self):
        e = st.rindler_to_minkowski(st.EventRindler(0.0, math.log(2.0)), 1.0)
        assert e.t == 0.0
        assert e.z == pytest.approx(2.0, rel=1e-15)

    def test_inverse_example(self):
        r = st.minkowski_to_rindler(st.EventMinkowski(0.5, 1.0), 1.0)
        assert r.tbar == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
        assert r.zbar == pytest.approx(0.5 * math.log(0.75), rel=1e-14)

    def test_wedge_error(self):
        with pytest.raises(WedgeError):
            st.minkowski_to_rindler(st.EventMinkowski(2.0, 1.0), 1.0)
        with pytest.raises(WedgeError):
            st.minkowski_to_rindler(st.EventMinkowski(1.0, 1.0), 1.0)

    def test_round_trip_grid(self):
        # pointwise tolerance: once (t, z) are rounded doubles, z -/+ t is
        # only known to ~eps * e^{2|tbar|}, the chart's condition number
        eps = np.finfo(float).eps
        for zbar in np.linspace(-5.0, 5.0, 11):
            for tbar in np.linspace(-5.0, 5.0, 11):
                e = st.rindler_to_minkowski(st.EventRindler(float(tbar), float(zbar)), 1.0)
                back = st.minkowski_to_rindler(e, 1.0)
                tol = max(1e-12, 2.0 * eps * math.exp(2.0 * abs(tbar)))
                assert abs(complex(back.tbar) - tbar) < tol
                assert abs(back.zbar - zbar) < tol

    def test_static_worldline_rindler_velocity(self):
        # dzbar/dtbar = -t/z0 along z = z0, by central finite differences
        z0, ell = 1.5, 1.0
        for t in (-0.9, -0.2, 0.0, 0.4, 1.1):
            h = 1e-6
            plus = st.minkowski_to_rindler(st.EventMinkowski(t + h, z0), ell)
            minus = st.minkowski_to_rindler(st.EventMinkowski(t - h, z0), ell)
            vbar = (plus.zbar - minus.zbar) / (complex(plus.tbar).real - complex(minus.tbar).real)
            assert vbar == pytest.approx(-t / z0, abs=1e-8)


class TestNullCoords:
    def test_static_point(self):
        ell = 2.0
        nc = st.null_coords(st.EventMinkowski(0.0, ell), ell)
        assert nc == (-1.0, 1.0)

    @pytest.mark.parametrize("tau", [-1.0, 0.0, 0.8])
    def test_on_accelerated_worldline(self, tau):
        ell = 1.0
        e = st.rindler_trajectory(tau, st.DimensionlessParams(ell=ell))
        nc = st.null_coords(e, ell)
        assert nc.u == pytest.approx(-math.exp(-tau / ell), rel=1e-13)
        assert nc.v == pytest.approx(math.exp(tau / ell), rel=1e-13)

    @pytest.mark.parametrize("t, z", [(0.3, 1.4), (-2.0, 0.1), (5.0, -3.0)])
    def test_product_is_interval(self, t, z):
        ell = 1.3
        nc = st.null_coords(st.EventMinkowski(t, z), ell)
        assert nc.u * nc.v == pytest.approx((t * t - z * z) / ell**2, rel=1e-12)


class TestWedge:
    @pytest.mark.parametrize(
        "t, z, wedge",
        [
            (0.0, 5.0, st.Wedge.RIGHT),
            (0.0, -5.0, st.Wedge.LEFT),
            (5.0, 0.0, st.Wedge.FUTURE),
            (-5.0, 0.0, st.Wedge.PAST),
            (1.0, 1.0, st.Wedge.BOUNDARY),
            (-2.0, 2.0, st.Wedge.BOUNDARY),
            (0.0, 0.0, st.Wedge.BOUNDARY),
        ],
    )
    def test_classification(self, t, z, wedge):
        assert st.wedge_of(st.EventMinkowski(t, z)) is wedge


class TestFreeFall:
    def test_launch_point(self):
        p = st.DimensionlessParams(v0=0.1, rg=1.0)
        pt = st.freefall_trajectory(0.0, p)
        assert pt.r == pytest.approx(1.01, rel=1e-14)
        assert pt.t == 0.0

    def test_schwarzschild_time_example(self):
        p = st.DimensionlessParams(v0=0.1, rg=1.0)
        pt = st.freefall_trajectory(0.1, p)
        assert pt.t == pytest.approx(math.log(3.0), rel=1e-13)

    def test_horizon_crossing_domain(self):
        p = st.DimensionlessParams(v0=0.1, rg=1.0)
        with pytest.raises(DomainError):
            st.freefall_trajectory(0.2, p)
        # diverges toward the crossing
        assert st.freefall_trajectory(0.19999, p).t > 8.0

    def test_speed_guards(self):
        with pytest.raises(DomainError):
            st.freefall_trajectory(0.0, st.DimensionlessParams(v0=0.31))
        with pytest.warns(UserWarning):
            st.freefall_trajectory(0.0, st.DimensionlessParams(v0=0.2))

    def test_matches_static_atom_in_accelerated_chart(self):
        # (t(s), rbar(s)) equals the accelerated-chart image of the static
        # worldline z = 2 v0 rg under ell = 2 rg
        v0, rg = 0.1, 1.0
        p = st.DimensionlessParams(v0=v0, rg=rg)
        ell = 2.0 * rg
        z0 = st.equivalent_static_position(v0, rg)
        for s in np.linspace(-1.9 * rg * v0, 1.9 * rg * v0, 15):
            pt = st.freefall_trajectory(float(s), p)
            img = st.minkowski_to_rindler(st.EventMinkowski(float(s), z0), ell)
            assert abs(complex(img.tbar) - pt.t) < 1e-6
            assert abs(img.zbar - pt.rbar) < 1e-6


class TestEquivalence:
    def test_effective_acceleration(self):
        assert st.effective_acceleration(0.5) == 1.0
        assert st.effective_acceleration(1.0) == 0.5

    def test_static_position(self):
        assert st.equivalent_static_position(0.1, 1.0) == pytest.approx(0.2)
        assert st.equivalent_static_position(0.25, 2.0) == pytest.approx(1.0)

    def test_degenerate_flagged(self):
        with pytest.warns(UserWarning):
            assert st.equivalent_static_position(0.0, 1.0) == 0.0


class TestTemperatures:
    def test_si_constants_match_scipy(self):
        from scipy import constants

        assert st.SI_H == constants.h
        assert st.SI_HBAR == constants.hbar
        assert st.SI_C == constants.c
        assert st.SI_K == constants.k
        assert st.SI_G == constants.G

    def test_unruh_normalization(self):
        assert st.temperatures(alpha=2.0 * math.pi).t_unruh == pytest.approx(1.0, rel=1e-14)

    def test_bh_from_mass(self):
        assert st.temperatures(mass=1.0).t_bh == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("rg", [0.5, 1.0, 10.0])
    def test_equivalence_identity(self, rg):
        temps = st.temperatures(rg=rg)
        assert abs(temps.t_hbar / temps.t_bh - 1.0) < 1e-12

    def test_acceleration_equals_horizon_route(self):
        rg = 2.0
        via_alpha = st.temperatures(alpha=st.effective_acceleration(rg)).t_unruh
        via_rg = st.temperatures(rg=rg).t_hbar
        assert via_alpha == pytest.approx(via_rg, rel=1e-14)

    def test_si_unruh_inversion(self):
        from scipy import constants as c

        alpha_for_one_kelvin = 2.0 * math.pi * c.c * c.k / c.hbar
        temps = st.temperatures(alpha=alpha_for_one_kelvin, units="si")
        assert temps.t_unruh == pytest.approx(1.0, rel=1e-12)

    def test_si_hawking_inversion(self):
        from scipy import constants as c

        mass_for_one_kelvin = c.hbar * c.c**3 / (8.0 * math.pi * c.G * c.k)
        temps = st.temperatures(mass=mass_for_one_kelvin, units="si")
        assert temps.t_bh == pytest.approx(1.0, rel=1e-12)
        assert temps.t_hbar == pytest.approx(temps.t_bh, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            st.temperatures()
        with pytest.raises(DomainError):
            st.temperatures(alpha=-1.0)
        with pytest.raises(DomainError):
            st.temperatures(mass=1.0, units="imperial")
