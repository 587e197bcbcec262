"""Mode families, Klein-Gordon products and spectral content."""

import math
import warnings

import numpy as np
import pytest

from rindler_lab import modes as md
from rindler_lab.errors import DomainError, ResolutionError, SupportError

UM = md.ModeKind.UNRUH_MINKOWSKI


def null_line(side, window=8 * math.pi, samples=8192, taper="gaussian"):
    return md.SurfaceSampling(md.NullULine(side=side), samples=samples, window=window, taper=taper)


class TestModeSpec:
    def test_zero_frequency_rejected(self):
        with pytest.raises(DomainError):
            md.ModeSpec(md.ModeKind.PLANE_WAVE_RIGHT, 0.0)

    def test_wedge_families_need_positive_frequency(self):
        with pytest.raises(DomainError):
            md.ModeSpec(md.ModeKind.RINDLER_WEDGE, -1.0)
        with pytest.raises(DomainError):
            md.ModeSpec(md.ModeKind.MIRROR_FAMILY_2, -0.5)

    def test_unruh_minkowski_any_sign(self):
        md.ModeSpec(UM, -2.0)
        md.ModeSpec(UM, 2.0)


class TestEvalMode:
    def test_plane_wave_values(self):
        spec = md.ModeSpec(md.ModeKind.PLANE_WAVE_RIGHT, 2.0)
        got = md.eval_mode(spec, 0.25, 9.0)  # independent of v
        want = np.exp(-1j * 2.0 * 0.25) / math.sqrt(8.0 * math.pi)
        assert abs(got - want) < 1e-15

    def test_static_mirror_boundary(self):
        for om in (0.3, 1.0, 4.0):
            spec = md.ModeSpec(md.ModeKind.MIRROR_STATIC, om)
            t = np.linspace(-5.0, 5.0, 101)
            assert np.max(np.abs(md.eval_mode(spec, t, t))) == 0.0

    def test_accelerated_mirror_boundary(self):
        # family 2 vanishes on the mirror surface u v = -1
        u = -np.exp(np.linspace(-3.0, 3.0, 201))
        v = -1.0 / u
        for om in (0.5, 1.0, 2.0):
            vals = md.eval_mode(md.ModeSpec(md.ModeKind.MIRROR_FAMILY_2, om), u, v)
            assert np.max(np.abs(vals)) < 1e-12

    def test_family_supports(self):
        # family 1 lives at v < 0, family 3 at u > 0, family 2 in u<0, v>0
        f1 = md.ModeSpec(md.ModeKind.MIRROR_FAMILY_1, 1.0)
        f2 = md.ModeSpec(md.ModeKind.MIRROR_FAMILY_2, 1.0)
        f3 = md.ModeSpec(md.ModeKind.MIRROR_FAMILY_3, 1.0)
        assert md.eval_mode(f1, 0.5, 1.0) == 0.0
        assert abs(md.eval_mode(f1, 0.5, -1.0)) > 0.0
        assert md.eval_mode(f3, -0.5, 1.0) == 0.0
        assert abs(md.eval_mode(f3, 0.5, -1.0)) > 0.0
        assert md.eval_mode(f2, 0.5, 1.0) == 0.0
        assert md.eval_mode(f2, -0.5, -1.0) == 0.0
        assert abs(md.eval_mode(f2, -0.5, 1.0)) > 0.0

    def test_rindler_wedge_supports(self):
        right_mover = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="right", direction=+1)
        assert md.eval_mode(right_mover, 0.5, 1.0) == 0.0
        assert abs(md.eval_mode(right_mover, -0.5, 1.0) - np.exp(1j * math.log(0.5)) / math.sqrt(4 * math.pi)) < 1e-15
        left_mover = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="right", direction=-1)
        assert md.eval_mode(left_mover, -0.5, -1.0) == 0.0
        assert abs(md.eval_mode(left_mover, -0.5, 2.0)) > 0.0

    def test_unruh_branch_factor_against_small_lambda_limit(self):
        # oracle: evaluate (u -+ i*lambda)^{i Omega} at lambda = 1e-8
        for om in (0.5, 1.0, 2.0):
            norm = md.unruh_normalization(om)
            upper = md.eval_mode(md.ModeSpec(UM, om, branch=md.BranchCut.UPPER), -1.0, 0.0)
            oracle_upper = norm * complex(-1.0 - 1e-8j) ** complex(0.0, om)
            assert abs(upper - oracle_upper) / abs(oracle_upper) < 1e-6
            lower = md.eval_mode(md.ModeSpec(UM, om, branch=md.BranchCut.LOWER), -1.0, 0.0)
            oracle_lower = norm * complex(-1.0 + 1e-8j) ** complex(0.0, om)
            assert abs(lower - oracle_lower) / abs(oracle_lower) < 1e-6

    def test_unruh_wedge_weights(self):
        # restriction weights: e^{+pi O} relative across the horizon (upper cut)
        om = 1.0
        spec = md.ModeSpec(UM, om)
        inside = md.eval_mode(spec, -1.0, 0.0)
        outside = md.eval_mode(spec, 1.0, 0.0)
        assert abs(inside / outside) == pytest.approx(math.exp(math.pi * om), rel=1e-12)

    def test_branch_point_returns_zero(self):
        assert md.eval_mode(md.ModeSpec(UM, 1.0), 0.0, 0.5) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            md.eval_mode(md.ModeSpec(UM, 1.0), float("nan"), 0.0)

    @pytest.mark.parametrize(
        "kind",
        [
            md.ModeKind.PLANE_WAVE_LEFT,
            md.ModeKind.RINDLER_WEDGE,
            UM,
            md.ModeKind.MIRROR_STATIC,
            md.ModeKind.MIRROR_FAMILY_2,
            md.ModeKind.EXTENDED_LEFT,
        ],
    )
    def test_scalar_and_array_paths_agree(self, kind):
        spec = md.ModeSpec(kind, 1.0)
        u = np.array([-1.5, -0.5, 0.5, 1.5])
        v = np.array([0.7, 1.1, -0.3, 2.0])
        batch = md.eval_mode(spec, u, v)
        for k in range(len(u)):
            assert md.eval_mode(spec, float(u[k]), float(v[k])) == batch[k]


class TestKgInner:
    def test_plane_wave_norm_positive_real(self):
        spec = md.ModeSpec(md.ModeKind.PLANE_WAVE_RIGHT, 2.0)
        sampling = md.SurfaceSampling(md.ConstZLine(0.0), samples=4096, window=4 * math.pi)
        val = md.kg_inner(spec, spec, sampling)
        assert val.real > 0.0
        assert abs(val.imag) < 1e-10 * val.real

    def test_negative_frequency_norm_negative(self):
        spec = md.ModeSpec(md.ModeKind.PLANE_WAVE_RIGHT, -2.0)
        sampling = md.SurfaceSampling(md.ConstZLine(0.0), samples=4096, window=4 * math.pi)
        assert md.kg_inner(spec, spec, sampling).real < 0.0

    def test_rindler_wedge_norms_positive(self):
        right = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="right", direction=+1)
        left = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="left", direction=+1)
        assert md.kg_inner(right, right, null_line(-1)).real > 0.0
        assert md.kg_inner(left, left, null_line(+1)).real > 0.0

    @pytest.mark.parametrize(
        "f, g, sampling_side",
        [
            (md.ModeSpec(UM, 1.0), md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0), -1),
            (md.ModeSpec(UM, 0.5), md.ModeSpec(UM, 2.0), -1),
            (
                md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 0.7),
                md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.9),
                -1,
            ),
        ],
    )
    def test_conjugate_symmetry(self, f, g, sampling_side):
        sampling = null_line(sampling_side)
        fg = md.kg_inner(f, g, sampling)
        gf = md.kg_inner(g, f, sampling)
        assert abs(fg - gf.conjugate()) < 1e-10 * max(1.0, abs(fg))

    @pytest.mark.parametrize(
        "f, g",
        [
            (md.ModeSpec(UM, 1.0), md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0)),
            (md.ModeSpec(UM, 0.5), md.ModeSpec(UM, 2.0)),
        ],
    )
    def test_double_conjugation_antisymmetry(self, f, g):
        # <f*, g*> = -<g, f>
        sampling = null_line(-1)
        lhs = md.kg_inner(f, g, sampling, conjugate_f=True, conjugate_g=True)
        rhs = -md.kg_inner(g, f, sampling)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("kind", list(md.ModeKind))
    @pytest.mark.parametrize("direction", [+1, -1])
    def test_exact_derivatives_match_central_differences(self, kind, direction):
        spec = md.ModeSpec(kind, 1.3, direction=direction)
        rng = np.random.default_rng(5)
        u = rng.uniform(0.2, 3.0, 40) * rng.choice([-1.0, 1.0], 40)
        v = rng.uniform(0.2, 3.0, 40) * rng.choice([-1.0, 1.0], 40)
        h = 1e-6
        # along t (du/dt = dv/dt = 1) and along s = log|u| at fixed v (du/ds = u)
        up, down = math.exp(h), math.exp(-h)
        lines = [
            ((1.0, 1.0), md.eval_mode(spec, u + h, v + h) - md.eval_mode(spec, u - h, v - h)),
            ((u, 0.0), md.eval_mode(spec, u * up, v) - md.eval_mode(spec, u * down, v)),
        ]
        for rates, difference in lines:
            _, slope = md._evaluate(spec, u, v, rates)
            np.testing.assert_allclose(slope, difference / (2 * h), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("kind", [UM, md.ModeKind.MIRROR_STATIC])
    def test_branch_point_node_at_odd_sample_count(self, kind):
        # 1025 nodes symmetric about 0 put one on t = 0, where u = v = 0 on
        # the z = 0 line; a power law and its derivative are 0 there
        spec = md.ModeSpec(kind, 1.0)
        sampling = md.SurfaceSampling(md.ConstZLine(0.0), samples=1025, window=4 * math.pi)
        s, u, v, _, _ = sampling.grid()
        assert u[512] == 0.0 and v[512] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, slope = md._evaluate(spec, u, v, (1.0, 1.0))
            assert value[512] == 0.0 and slope[512] == 0.0
            assert np.all(np.isfinite(slope))
            # a line through a node at u = 0 alone, where the static mirror
            # does not vanish identically
            line = md.SurfaceSampling(md.ConstZLine(float(s[600])), 1025, 4 * math.pi)
            _, u, v, _, _ = line.grid()
            assert u[600] == 0.0
            value, slope = md._evaluate(spec, u, v, (1.0, 1.0))
            assert np.all(np.isfinite(value)) and np.all(np.isfinite(slope))

    def test_disjoint_supports(self):
        f = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="right", direction=+1)
        g = md.ModeSpec(md.ModeKind.RINDLER_WEDGE, 1.0, wedge="left", direction=+1)
        with pytest.raises(SupportError):
            md.kg_inner(f, g, null_line(-1))

    def test_window_too_small_without_taper(self):
        from rindler_lab.errors import WindowError

        spec = md.ModeSpec(md.ModeKind.PLANE_WAVE_RIGHT, 2.0)
        sampling = md.SurfaceSampling(
            md.ConstZLine(0.0), samples=1024, window=4 * math.pi, taper="none"
        )
        with pytest.raises(WindowError):
            md.kg_inner(spec, spec, sampling)


class TestExtendedModes:
    def test_weights_at_unit_frequency(self):
        own, other = md.extended_mode_weights(1.0)
        assert own == pytest.approx(math.exp(math.pi / 2) / math.sqrt(2 * math.sinh(math.pi)), rel=1e-14)
        assert own == pytest.approx(1.000944, rel=1e-5)
        assert other == pytest.approx(0.0432542, rel=1e-4)

    @pytest.mark.parametrize("om", [0.25, 1.0, 5.0])
    def test_squared_weight_difference_is_one(self, om):
        own, other = md.extended_mode_weights(om)
        assert own**2 - other**2 == pytest.approx(1.0, rel=1e-12)

    def test_right_wedge_restriction_proportional_to_wedge_mode(self):
        om = 1.0
        u = -np.exp(np.linspace(-2, 2, 64))
        ext = md.extended_rindler_mode(om, "right", u)
        wedge = md.eval_mode(
            md.ModeSpec(md.ModeKind.RINDLER_WEDGE, om, wedge="right", direction=+1), u, 1.0
        )
        own, _ = md.extended_mode_weights(om)
        ratios = ext / wedge
        assert np.allclose(ratios, own, rtol=1e-12)

    @pytest.mark.parametrize("kind", [md.ModeKind.EXTENDED_RIGHT, md.ModeKind.EXTENDED_LEFT])
    @pytest.mark.parametrize("om", [0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
    def test_norm_positive_both_frequency_signs(self, kind, om):
        spec = md.ModeSpec(kind, om)
        total = (
            md.kg_inner(spec, spec, null_line(-1))
            + md.kg_inner(spec, spec, null_line(+1))
        )
        assert total.real > 0.0
        assert abs(total.imag) < 1e-9 * total.real

    def test_left_family_concentrates_in_left_wedge(self):
        om = 1.0
        left = md.extended_rindler_mode(om, "left", np.array([-1.0, 1.0]))
        own, other = md.extended_mode_weights(om)
        assert abs(left[1]) / abs(left[0]) == pytest.approx(own / other, rel=1e-12)

    def test_left_family_is_opposite_frequency_global_mode(self):
        om = 1.3
        u = np.concatenate([-np.exp(np.linspace(-2, 2, 16)), np.exp(np.linspace(-2, 2, 16))])
        left = md.extended_rindler_mode(om, "left", u)
        um = md.eval_mode(md.ModeSpec(UM, -om), u, 0.0)
        assert np.allclose(left, um, rtol=1e-13)

    def test_matches_unruh_minkowski_global_form(self):
        om = 1.3
        u = np.concatenate([-np.exp(np.linspace(-2, 2, 32)), np.exp(np.linspace(-2, 2, 32))])
        ext = md.extended_rindler_mode(om, "right", u)
        um = md.eval_mode(md.ModeSpec(UM, om), u, 0.0)
        assert np.allclose(ext, um, rtol=1e-13)

    def test_wedge_side_validation(self):
        with pytest.raises(DomainError):
            md.extended_rindler_mode(1.0, "future", -1.0)


class TestPositiveFrequencyContent:
    def window(self, om):
        w = max(16 * math.pi, 16 * math.pi / abs(om))
        n = 1 << 16
        return md.SurfaceSampling(md.ConstZLine(0.0), samples=n, window=w)

    def test_upper_cut_is_positive_frequency(self):
        pos, neg = md.positive_frequency_content(md.ModeSpec(UM, 1.0), self.window(1.0))
        assert neg < 1e-3
        assert pos + neg == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_is_negative_frequency(self):
        pos, _ = md.positive_frequency_content(
            md.ModeSpec(UM, 1.0), self.window(1.0), conjugate=True
        )
        assert pos < 1e-3

    @pytest.mark.parametrize("om", [0.25, 0.5, 1.0, 2.0, 4.0, -1.0])
    def test_window_limited_bound_across_frequencies(self, om):
        _, neg = md.positive_frequency_content(md.ModeSpec(UM, om), self.window(om))
        assert neg < 1e-3

    def test_plane_wave_single_frequency(self):
        _, neg = md.positive_frequency_content(
            md.ModeSpec(md.ModeKind.PLANE_WAVE_RIGHT, 2.0), self.window(2.0)
        )
        assert neg < 1e-6

    def test_resolution_error(self):
        small = md.SurfaceSampling(md.ConstZLine(0.0), samples=1024, window=math.pi)
        with pytest.raises(ResolutionError):
            md.positive_frequency_content(md.ModeSpec(UM, 1.0), small)
