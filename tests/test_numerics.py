"""Special functions and quadrature kernels against independent oracles.

High-precision reference values are frozen from 40-digit mpmath runs;
live mpmath cross-checks cover the surrounding parameter ranges.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rindler_lab import numerics as nm
from rindler_lab.errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    QuadratureBudgetError,
)

from oracles import brute_force_oscillatory, closed_form_oscillatory, ray_quadrature_lower_gamma

mp.mp.dps = 40

PI_OVER_SINH_PI = 0.27202905498213316  # pi / sinh(pi)


def relerr(a, b):
    return abs(a - b) / abs(b)


class TestLogGamma:
    def test_at_one(self):
        assert nm.log_gamma_complex(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_i_squared_modulus(self):
        # |Gamma(i)|^2 = pi / sinh(pi)
        val = math.exp(2.0 * nm.log_gamma_complex(1j).real)
        assert val == pytest.approx(PI_OVER_SINH_PI, rel=1e-13)

    def test_one_plus_i_against_frozen_highprec(self):
        # mpmath (40 digits): Gamma(1+1j) = 0.49801566811835604 - 0.15494982830181069j
        got = nm.gamma_complex(1 + 1j)
        assert relerr(got, 0.49801566811835604 - 0.15494982830181069j) < 1e-12

    @pytest.mark.parametrize(
        "z",
        [0.5 + 0.0j, 2.7, 1e-3, 0.5 + 0.5j, 1 + 25j, 5 - 7j, -0.5 + 3j, -2.2 - 4.4j, 30j, 0.001j],
    )
    def test_against_live_mpmath(self, z):
        got = nm.gamma_complex(z)
        want = complex(mp.gamma(mp.mpc(z)))
        assert relerr(got, want) < 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            nm.log_gamma_complex(z)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            nm.log_gamma_complex(complex("nan"))

    def test_identity_on_imaginary_axis(self):
        # |Gamma(ix)|^2 * x * sinh(pi x) = pi
        for x in np.geomspace(1e-3, 30.0, 50):
            val = math.exp(2.0 * nm.log_gamma_complex(1j * x).real)
            assert val * x * math.sinh(math.pi * x) / math.pi == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("z", [300j, 0.2 + 300j, -3.3 - 1000j, 1e4j])
    def test_reflection_where_sin_overflows(self, z):
        # sin(pi z) overflows for |Im z| above about 226; the reflection then
        # takes log sin(pi z) from its dominant exponential
        with pytest.raises(OverflowError):
            cmath.sin(math.pi * z)
        want = mp.loggamma(mp.mpc(z))
        for got in (nm.log_gamma_complex(z), nm.log_gamma_complex(np.full(nm._BATCH_MIN, z))[-1]):
            assert relerr(got.real, float(want.real)) < 1e-15
            turns = (got.imag - want.imag) / (2 * mp.pi)
            assert abs(float(turns - mp.nint(turns))) * 2 * math.pi < 1e-10

    def test_reflection_keeps_the_sine_below_its_overflow(self):
        # the largest |Im z| at which cmath.sin is finite keeps the plain route
        z = 225.9j
        expected = math.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - nm.log_gamma_complex(1.0 - z)
        assert nm.log_gamma_complex(z) == expected


class TestGammaAbsSqImag:
    def test_at_one(self):
        assert nm.gamma_abs_sq_imag(1.0) == pytest.approx(PI_OVER_SINH_PI, rel=1e-14)

    def test_at_five(self):
        # mpmath: pi / (5 sinh(5 pi)) = 1.8937737604793763e-7
        assert nm.gamma_abs_sq_imag(5.0) == pytest.approx(1.8937737604793763e-7, rel=1e-13)

    def test_small_x_limit(self):
        # x * sinh(pi x) * |Gamma(ix)|^2 -> pi as x -> 0+
        x = 1e-8
        assert nm.gamma_abs_sq_imag(x) * x * math.sinh(math.pi * x) == pytest.approx(
            math.pi, rel=1e-10
        )

    def test_large_x_no_overflow(self):
        assert nm.gamma_abs_sq_imag(400.0) == 0.0 or nm.gamma_abs_sq_imag(400.0) > 0.0

    def test_matches_log_gamma_route(self):
        for x in np.geomspace(1e-2, 30.0, 12):
            via_log = math.exp(2.0 * nm.log_gamma_complex(1j * x).real)
            assert nm.gamma_abs_sq_imag(float(x)) == pytest.approx(via_log, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            nm.gamma_abs_sq_imag(x)


class TestLowerIncompleteGamma:
    def test_s_equal_one_closed_form(self):
        assert nm.lower_incomplete_gamma(1.0, 2.0) == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-14
        )
        x = 3j
        got = nm.lower_incomplete_gamma(1.0, x)
        assert abs(got - (1.0 - cmath.exp(-x))) < 1e-13

    def test_against_ray_quadrature_oracle(self):
        got = nm.lower_incomplete_gamma(1 + 0.5j, -10j)
        want = ray_quadrature_lower_gamma(1 + 0.5j, -10j)
        assert relerr(got, want) < 1e-8

    def test_frozen_highprec_mid_band(self):
        # mpmath: gamma(1+0.5j, -10j) = 0.46851955063780367 + 1.8640460105721197j
        got = nm.lower_incomplete_gamma(1 + 0.5j, -10j)
        assert relerr(got, 0.46851955063780367 + 1.8640460105721197j) < 1e-12

    @pytest.mark.parametrize(
        "s, x",
        [
            (1 + 1j, -20j),
            (1 + 2j, 28j),
            (1 + 0.25j, -15j),
            (1 + 1j, 14 + 14j),
            (1 + 0.5j, -25j),
            (1 + 1j, 25.0),
            (1 + 0.5j, 20 + 20j),
        ],
    )
    def test_against_live_mpmath_mid_band(self, s, x):
        got = nm.lower_incomplete_gamma(s, x)
        want = complex(mp.gammainc(mp.mpc(s), 0, mp.mpc(x)))
        assert relerr(got, want) < 1e-12

    def test_large_imaginary_regularized_asymptote(self):
        # within the band of the leading asymptote: |gamma(1+i, -iX)|^2 -> |Gamma(1+i)|^2
        got = nm.lower_incomplete_gamma(1 + 1j, -100j)
        assert abs(abs(got) ** 2 / PI_OVER_SINH_PI - 1.0) < 0.01
        # conjugation-consistent on both imaginary sectors
        assert nm.lower_incomplete_gamma(1 + 1j, 200j) == nm.gamma_complex(1 + 1j)

    def test_large_positive_real_exact(self):
        got = nm.lower_incomplete_gamma(1 + 1j, 50.0)
        want = complex(mp.gammainc(mp.mpc(1, 1), 0, 50))
        assert relerr(got, want) < 1e-12

    @pytest.mark.parametrize(
        "s, x",
        [
            (1 + 0.3j, 2.0 + 0j),
            (1 + 0.3j, 5.0 + 0j),
            (1 + 1j, 10.0 + 0j),
            (1 + 2.5j, 3 + 4j),
            (1 + 1j, 10 - 6j),
        ],
    )
    def test_additivity_against_upper(self, s, x):
        # gamma(s,x) + Gamma(s,x) = Gamma(s); up to |x| = 12 the lower function
        # is the series, independent of the upper one's continued fraction
        lower = nm.lower_incomplete_gamma(s, x)
        upper = nm.upper_incomplete_gamma(s, x)
        total = nm.gamma_complex(s)
        assert abs(lower + upper - total) / abs(total) < 1e-10

    def test_zero_argument(self):
        assert nm.lower_incomplete_gamma(1 + 1j, 0.0) == 0.0

    def test_pole_in_s(self):
        with pytest.raises(PoleError):
            nm.lower_incomplete_gamma(0.0, 1.0)

    def test_unsupported_sector(self):
        with pytest.raises(ConvergenceError):
            nm.lower_incomplete_gamma(1 + 1j, -50.0 + 1j)

    @pytest.mark.parametrize("x", [-20.0, -1.0 - 20j, complex(-1e-9, 29.0), -12.5 + 0.5j])
    def test_left_half_plane_beyond_the_series_raises(self, x):
        with pytest.raises(ConvergenceError, match="Re\\(x\\) < 0"):
            nm.lower_incomplete_gamma(1 + 1j, x)

    @pytest.mark.parametrize(
        "s, x",
        [
            # large Re s, where Gamma(s) - Gamma(s, x) would cancel
            (30.0, 13.0),
            (50.0, 13.0),
            (30.0, 13j),
            (50.0, 13j),
            (50 - 20j, 13 - 13j),
            # Im(s) Im(x) > 0 with |Im s| large against |x|
            (1 + 19j, 12.5j),
            (1 + 18.7j, 12.5j),
            (0.7 - 30j, 15 - 10j),
            (1 + 45.1j, 30j),
            (1 + 60j, 13j),
            (1 + 80j, 40 + 20j),
            (1 - 40j, 28 - 10j),
            # Re s < 0 with |Im s| >= |x|
            (-5 + 20j, 13.0),
            # the -i axis at any nu
            (2 + 80j, -20j),
            (1 + 60j, -13j),
        ],
    )
    def test_series_where_s_is_far_from_the_negative_axis(self, s, x):
        # beyond |x| = 12, every s at least |x| from the non-positive real
        # axis keeps the series
        got = nm.lower_incomplete_gamma(s, x)
        assert got == nm._lower_gamma_series(complex(s), complex(x))
        assert relerr(got, complex(mp.gammainc(mp.mpc(s), 0, mp.mpc(x)))) < 1e-12

    @pytest.mark.parametrize("s, x", [(-5 + 10j, 13.0), (-30.5 + 1j, 20j), (-12.3, 15 - 5j)])
    def test_negative_re_s_near_the_axis_takes_the_fraction(self, s, x):
        got = nm.lower_incomplete_gamma(s, x)
        assert got == nm.gamma_complex(s) - nm.upper_incomplete_gamma(s, x)
        assert relerr(got, complex(mp.gammainc(mp.mpc(s), 0, mp.mpc(x)))) < 1e-12

    def test_deterministic(self):
        a = nm.lower_incomplete_gamma(1 + 0.7j, -19j)
        b = nm.lower_incomplete_gamma(1 + 0.7j, -19j)
        assert a == b


class TestLowerIncompleteGammaArray:
    # x on both imaginary half-axes (the detector family) and the positive
    # real axis, |x| drawn across the switches at 12 and 30
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.floats(0.5, 2.0),
                st.floats(0.05, 40.0, exclude_min=True, exclude_max=True),
            ),
            min_size=1,
            max_size=6,
        ),
        x_abs=st.floats(0.5, 40.0),
        theta=st.sampled_from([-math.pi / 2, math.pi / 2, 0.0]),
    )
    # one batch that mixes the series and the fraction beyond |x| = 12
    @example(entries=[(1.0, 12.0), (1.0, 13.0), (1.0, 19.5)], x_abs=12.5, theta=math.pi / 2)
    def test_array_matches_scalar_calls_and_mpmath(self, entries, x_abs, theta):
        x = cmath.rect(x_abs, theta)
        s = np.array([complex(re, nu) for re, nu in entries])
        band = nm._SERIES_SWITCH < abs(x) <= nm.LARGE_X_SWITCH
        batch = nm.lower_incomplete_gamma(s, x)
        assert batch.dtype == complex and batch.shape == s.shape
        for s_k, got in zip(s.tolist(), batch.tolist()):
            single = nm.lower_incomplete_gamma(s_k, x)
            assert type(single) is complex and got == single
            if band:
                assert relerr(got, complex(mp.gammainc(mp.mpc(s_k), 0, mp.mpc(x)))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        bad=st.sampled_from([0.0, -2.0, complex(math.nan, 1.0), complex(1.0, math.inf)]),
        at=st.integers(0, 3),
        x_abs=st.floats(0.5, 40.0),
    )
    def test_bad_entry_raises_as_a_scalar_call(self, bad, at, x_abs):
        x = complex(0.0, -x_abs)
        s = [1 + 0.5j, 1 + 1j, 1 + 2j]
        s.insert(at, bad)
        with pytest.raises((PoleError, DomainError)) as scalar:
            nm.lower_incomplete_gamma(bad, x)
        with pytest.raises(type(scalar.value)) as batch:
            nm.lower_incomplete_gamma(np.array(s), x)
        assert str(batch.value) == str(scalar.value)

    def test_shapes(self):
        assert nm.lower_incomplete_gamma(np.array([], dtype=complex), -20j).shape == (0,)
        with pytest.raises(DomainError):
            nm.lower_incomplete_gamma(np.ones((2, 2), dtype=complex), -20j)


def _long_batches(real, imag):
    """Complex arrays of at least ``_BATCH_MIN`` entries, so the array kernels run."""

    @st.composite
    def batches(draw):
        n = draw(st.integers(nm._BATCH_MIN, 2 * nm._BATCH_MIN))
        z = draw(arrays(float, n, elements=real, fill=st.nothing())).astype(complex)
        z.imag = draw(arrays(float, n, elements=imag, fill=st.nothing()))
        return z

    return batches()


def _entrywise(fn, batch, *args):
    return np.array([fn(v, *args) for v in batch.tolist()], dtype=complex)


_SERIES_X = st.one_of(
    st.builds(lambda r: complex(0.0, r), st.floats(1e-3, 12.0)),
    st.builds(lambda r: complex(0.0, -r), st.floats(1e-3, 12.0)),
    st.builds(lambda r: complex(r, 0.0), st.floats(1e-3, 12.0)),
    st.builds(cmath.rect, st.floats(1e-3, 11.99), st.floats(-math.pi / 2, 0.0)),
)


class TestArrayKernels:
    """Long batches take array kernels that must give the scalar routes' bytes."""

    @settings(max_examples=40, deadline=None)
    @given(s=_long_batches(st.floats(0.5, 2.0), st.floats(-60.0, 60.0)), x=_SERIES_X)
    def test_series_kernel_is_bitwise_the_scalar_series(self, s, x):
        assert abs(x) <= nm._SERIES_SWITCH
        got = nm.lower_incomplete_gamma(s, x)
        assert got.tobytes() == _entrywise(nm.lower_incomplete_gamma, s, x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(z=_long_batches(st.floats(-4.0, 5.0), st.floats(-400.0, 400.0)))
    # entries on both sides of Re z = 1/2, and on it
    @example(z=np.linspace(0.5 - 1e-9, 0.5 + 1e-9, nm._BATCH_MIN) + 3j)
    def test_lanczos_kernel_is_bitwise_the_scalar_log_gamma(self, z):
        z[(z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))] += 0.5
        got = nm.log_gamma_complex(z)
        assert got.tobytes() == _entrywise(nm.log_gamma_complex, z).tobytes()
        finite = z[got.real < 700.0]
        assert nm.gamma_complex(finite).tobytes() == _entrywise(nm.gamma_complex, finite).tobytes()

    def test_regularized_limit_is_bitwise_gamma(self):
        s = 1.0 + 1j * np.linspace(-60.0, 60.0, 2 * nm._BATCH_MIN)
        for x in (-50j, 200j, 40 + 45j):
            got = nm.lower_incomplete_gamma(s, x)
            assert got.tobytes() == _entrywise(nm.gamma_complex, s).tobytes()

    @pytest.mark.parametrize(
        "x", [0j, complex(0.0, -0.0), complex(5.0, 0.0), complex(5.0, -0.0), complex(-0.0, -3.0)]
    )
    def test_signed_zeros(self, x):
        a = np.linspace(0.5, 2.0, nm._BATCH_MIN)
        s = np.concatenate([a.astype(complex), a + 0.5j])
        s.imag[: nm._BATCH_MIN] = -0.0
        got = nm.lower_incomplete_gamma(s, x)
        assert got.tobytes() == _entrywise(nm.lower_incomplete_gamma, s, x).tobytes()
        z = np.concatenate([s, 0.3 - s])
        assert nm.log_gamma_complex(z).tobytes() == _entrywise(nm.log_gamma_complex, z).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -3.0, complex(math.nan, 1.0), complex(1.0, -math.inf)])
    @pytest.mark.parametrize("at", [0, nm._BATCH_MIN, 2 * nm._BATCH_MIN])
    def test_bad_entry_in_a_long_batch_raises_as_a_scalar_call(self, bad, at):
        # the first bad entry raises, also with a NaN after it, in long and
        # short batches
        good = list(1.0 + 1j * np.linspace(0.1, 5.0, 2 * nm._BATCH_MIN))
        batches = [
            np.array(good[:at] + [bad] + good[at:]),
            np.array(good[:at] + [bad, math.nan] + good[at:]),
            np.array([bad, math.nan]),
            np.array(good[:2] + [bad, math.nan] + good[2:4]),
        ]
        calls = [
            lambda v: nm.lower_incomplete_gamma(v, -4j),
            lambda v: nm.lower_incomplete_gamma(v, -40j),
            nm.log_gamma_complex,
            nm.gamma_complex,
        ]
        for call in calls:
            with pytest.raises((PoleError, DomainError)) as scalar:
                call(bad)
            for batch in batches:
                with pytest.raises(type(scalar.value)) as batched:
                    call(batch)
                assert str(batched.value) == str(scalar.value)

    def test_short_and_scalar_shapes(self):
        z = np.array([1 + 1j, 0.2 - 3j])
        assert type(nm.log_gamma_complex(1 + 1j)) is complex
        assert type(nm.gamma_complex(1 + 1j)) is complex
        assert nm.log_gamma_complex(z).tolist() == [nm.log_gamma_complex(v) for v in z.tolist()]
        assert nm.gamma_complex(np.array([], dtype=complex)).shape == (0,)
        with pytest.raises(DomainError):
            nm.log_gamma_complex(np.ones((2, 2), dtype=complex))


class TestUpperIncompleteGamma:
    @pytest.mark.parametrize(
        "s, x",
        [
            (1 + 1j, 35.0 + 0j),
            (1 + 0.5j, 50.0 + 0j),
            (1 + 2j, 31 + 5j),
            (1 + 1j, 5.0 + 0j),
            # the imaginary axis, the edge of the closed right half plane
            (1 + 3j, -20j),
            (1 + 0.5j, 15j),
            (2 - 10j, complex(-0.0, -25.0)),
        ],
    )
    def test_against_live_mpmath(self, s, x):
        got = nm.upper_incomplete_gamma(s, x)
        want = complex(mp.gammainc(mp.mpc(s), mp.mpc(x), mp.inf))
        assert relerr(got, want) < 1e-12

    @pytest.mark.parametrize("x", [-1.0, -1e-300 + 20j, 0.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            nm.upper_incomplete_gamma(1 + 1j, x)


class TestAdaptiveFiniteQuad:
    def test_linear(self):
        val, err = nm.adaptive_finite_quad(lambda x: x, 0.0, 1.0)
        assert val.real == pytest.approx(0.5, abs=1e-13)
        assert err < 1e-10

    def test_full_period(self):
        val, _ = nm.adaptive_finite_quad(lambda x: np.exp(1j * x), 0.0, 2.0 * math.pi)
        assert abs(val) < 1e-12

    def test_endpoint_power_singularity(self):
        val, _ = nm.adaptive_finite_quad(lambda x: x**-0.5, 1e-300, 1.0)
        assert val.real == pytest.approx(2.0, rel=1e-9)

    def test_finite_oscillatory_against_closed_form(self):
        # the wedge-crossing integrand at nu*ell = 1, 2*omega*z0 = 50
        om = 1.0
        x_upper = 50.0

        def integrand(x):
            return np.exp(1j * x + 1j * om * np.log(x))

        val, _ = nm.adaptive_finite_quad(
            integrand, 0.0, x_upper, nm.QuadratureConfig(max_subdivisions=400)
        )
        want = complex(mp.mpc(1j) * mp.e ** (-mp.pi * om / 2) * mp.gammainc(
            mp.mpc(1, om), 0, mp.mpc(0, -x_upper)
        ))
        assert relerr(val, want) < 1e-7

    def test_budget_error(self):
        with pytest.raises(QuadratureBudgetError):
            nm.adaptive_finite_quad(
                lambda x: np.sin(1000.0 * x),
                0.0,
                50.0,
                nm.QuadratureConfig(max_subdivisions=2),
            )

    def test_batch_columns_have_their_own_values(self):
        # rows of a batch integrand are integrated side by side on shared panels
        rates = np.array([1.0, 2.0, 5.0])
        val, err = nm.adaptive_finite_quad(lambda x: np.cos(np.outer(rates, x)), 0.0, 1.0)
        assert val.shape == err.shape == (3,)
        assert np.max(np.abs(val - np.sin(rates) / rates)) < 1e-13
        assert np.all(err < 1e-10)

    def test_batch_budget_error(self):
        # one easy and one wildly oscillating column: the shared panel budget
        # runs out on the second
        rates = np.array([1.0, 1000.0])
        with pytest.raises(QuadratureBudgetError):
            nm.adaptive_finite_quad(
                lambda x: np.sin(np.outer(rates, x)),
                0.0,
                50.0,
                nm.QuadratureConfig(max_subdivisions=40),
            )


def _ray_reference(nu, x_upper):
    # int_0^X e^{ix} x^{i nu} dx = i e^{-pi nu/2} gamma(1 + i nu, -iX)
    return complex(
        1j * mp.e ** (-mp.pi * nu / 2) * mp.gammainc(mp.mpc(1, nu), 0, mp.mpc(0, -x_upper))
    )


class TestFiniteRayIntegral:
    @settings(max_examples=25, deadline=None)
    @given(
        nus=st.lists(
            st.floats(0.05, 5.0, exclude_min=True, exclude_max=True), min_size=1, max_size=6
        ),
        x_upper=st.floats(0.5, 30.0, exclude_min=True),
    )
    def test_batch_matches_columns_and_mpmath(self, nus, x_upper):
        batch = nm.finite_ray_integral(np.array(nus), x_upper)
        for nu, val, err in zip(nus, batch.value, batch.error):
            single = nm.finite_ray_integral(nu, x_upper)
            want = _ray_reference(nu, x_upper)
            assert relerr(val, want) < 1e-9
            assert relerr(single.value, want) < 1e-9
            assert relerr(val, single.value) < 1e-9
            assert 0.0 < err < 1e-9

    def test_scalar_returns_plain_numbers(self):
        val, err = nm.finite_ray_integral(1.0, 10.0)
        assert isinstance(val, complex) and isinstance(err, float)

    def test_domain(self):
        with pytest.raises(DomainError):
            nm.finite_ray_integral(1.0, 0.0)
        with pytest.raises(DomainError):
            nm.finite_ray_integral(np.array([1.0, np.nan]), 5.0)


class TestOscillatoryPowerIntegral:
    def test_counter_rotating_kernel_modulus(self):
        # Omega=1, p=-1, sign=-1: e^{-pi/2} Gamma(-i), |.|^2 = e^{-pi} pi/sinh(pi)
        got = nm.oscillatory_power_integral(1.0, -1.0, -1)
        assert abs(got) ** 2 == pytest.approx(0.011755441347369110, rel=1e-9)
        want = cmath.exp(-math.pi / 2.0) * nm.gamma_complex(-1j)
        assert relerr(got, want) < 1e-9

    def test_regularized_unit_integral(self):
        # Omega=0, p=0, sign=+1: regularized int_0^inf e^{ix} dx = i
        got = nm.oscillatory_power_integral(0.0, 0.0, +1)
        assert abs(got - 1j) < 1e-11

    def test_against_brute_force_oracle_single(self):
        got = nm.oscillatory_power_integral(2.0, 0.0, +1)
        want = brute_force_oscillatory(2.0, 0.0, +1)
        assert relerr(got, want) < 1e-8

    @pytest.mark.parametrize("omega", [0.1, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("p", [-1.0, 0.0])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_brute_force_sweep(self, omega, p, sign):
        got = nm.oscillatory_power_integral(omega, p, sign)
        want = brute_force_oscillatory(omega, p, sign)
        assert relerr(got, want) < 1e-6

    @pytest.mark.parametrize("omega", [0.1, 1.0, 3.3])
    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.0])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_closed_form_sweep(self, omega, p, sign):
        got = nm.oscillatory_power_integral(omega, p, sign)
        want = closed_form_oscillatory(omega, p, sign)
        assert relerr(got, want) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nm.oscillatory_power_integral(1.0, -1.5, +1)
        with pytest.raises(PoleError):
            nm.oscillatory_power_integral(0.0, -1.0, +1)
        with pytest.raises(DomainError):
            nm.oscillatory_power_integral(1.0, 0.0, 2)

    def test_deterministic(self):
        a = nm.oscillatory_power_integral(1.3, -1.0, +1)
        b = nm.oscillatory_power_integral(1.3, -1.0, +1)
        assert a == b

    @pytest.mark.parametrize("p", [-1.0, 0.0])
    def test_array_omega_matches_closed_form(self, p):
        omegas = np.geomspace(0.1, 3.0, 30)
        got = nm.oscillatory_power_integral(omegas, p, -1)
        assert isinstance(nm.oscillatory_power_integral(1.0, p, -1), complex)
        assert got.shape == omegas.shape
        for om, val in zip(omegas, got):
            assert relerr(val, closed_form_oscillatory(float(om), p, -1)) < 1e-9


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            nm.QuadratureConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            nm.QuadratureConfig(max_subdivisions=0)
        with pytest.raises(DomainError):
            nm.QuadratureConfig(rotation_decay_cutoff=2.0)
