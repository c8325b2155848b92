"""Segment classification: signed distances, wedges, curves, Moebius maps."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebiusgeo as mg
from moebiusgeo import spaces
from moebiusgeo.errors import NotPtolemyError, ValidationError

from helpers import (chord_metric_oracle, ordered_quads, ptolemy_equality_residuals,
                     random_halfplane_curve, random_quadrant_curve)

coord = st.floats(min_value=-10.0, max_value=10.0)
point = st.tuples(coord, coord)


def straight_curve(n=21, R=1.0):
    t = np.linspace(0.0, 1.0, n)
    return mg.QuadrantCurve(R, R * np.column_stack([1.0 - t, t]))


def halfcircle_curve(n=21, R=1.0):
    t = np.linspace(0.0, 1.0, n)
    return mg.QuadrantCurve(R, R * np.column_stack([np.cos(np.pi * t / 2),
                                                    np.sin(np.pi * t / 2)]))


class TestSignedDistance:
    def test_axis_pair(self):
        assert mg.signed_distance((1, 0), (0, 1)) == 1.0

    def test_equal_points(self):
        assert mg.signed_distance((2.5, 1.5), (2.5, 1.5)) == 0.0

    def test_hand_value(self):
        assert mg.signed_distance((2, 1), (1, 3)) == 5.0

    @given(point, point)
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, p, q):
        assert mg.signed_distance(p, q) == -mg.signed_distance(q, p)


class TestIdentityResidual:
    def test_integer_example(self):
        assert mg.ptolemy_identity_residual((1, 0), (1, 1), (0, 1), (-1, 1)) == 0.0

    def test_repeated_point(self):
        p = (3.7, -2.2)
        assert mg.ptolemy_identity_residual(p, p, (1, 4), (2, 2)) == 0.0

    @given(point, point, point, point)
    @settings(max_examples=300, deadline=None)
    def test_identity_holds(self, p1, p2, p3, p4):
        res = mg.ptolemy_identity_residual(p1, p2, p3, p4)
        terms = [mg.signed_distance(p1, p2) * mg.signed_distance(p3, p4),
                 mg.signed_distance(p2, p3) * mg.signed_distance(p1, p4),
                 mg.signed_distance(p1, p3) * mg.signed_distance(p2, p4)]
        scale = max(1e-30, max(abs(t) for t in terms))
        assert abs(res) <= 1e-9 * scale


class TestWedge:
    def test_boundary_chord(self):
        w = mg.WedgeRegion((1, 0), (0, 1))
        loc = mg.wedge_contains(w, (0.5, 0.5))
        assert loc.region == "boundary"
        assert np.isclose(loc.lam, 0.5) and np.isclose(loc.mu, 0.5)

    def test_outside_below_chord(self):
        w = mg.WedgeRegion((1, 0), (0, 1))
        assert mg.wedge_contains(w, (0.4, 0.4)).region == "outside"

    def test_outside_skew(self):
        w = mg.WedgeRegion((1, 0), (0, 1))
        loc = mg.wedge_contains(w, (3, 1))
        assert loc.region == "outside" and np.isclose(loc.lam, 3.0)

    def test_inside(self):
        w = mg.WedgeRegion((1, 0), (0, 1))
        assert mg.wedge_contains(w, (1.0, 1.0)).region == "inside"

    def test_collinear_rejected(self):
        with pytest.raises(ValidationError):
            mg.WedgeRegion((1, 1), (2, 2))

    def test_wrong_orientation_rejected(self):
        with pytest.raises(ValidationError):
            mg.WedgeRegion((0, 1), (1, 0))


class TestCurveValidation:
    def test_wrong_endpoint(self):
        with pytest.raises(ValidationError, match="first sample"):
            mg.QuadrantCurve(1.0, [(0.9, 0.0), (0.0, 1.0)])

    def test_argument_must_increase(self):
        with pytest.raises(ValidationError, match="argument"):
            mg.QuadrantCurve(1.0, [(1, 0), (0.8, 0.4), (0.9, 0.45), (0, 1)])

    def test_duplicate_sample_rejected(self):
        with pytest.raises(ValidationError, match="argument"):
            mg.QuadrantCurve(1.0, [(1, 0), (0.7, 0.7), (0.7, 0.7), (0, 1)])

    def test_wedge_violation(self):
        with pytest.raises(ValidationError, match="wedge"):
            mg.QuadrantCurve(1.0, [(1, 0), (0.4, 0.45), (0, 1)])

    def test_concave_rejected(self):
        samples = [(1, 0), (0.9, 0.6), (0.62, 0.66), (0.6, 1.1), (0, 1)]
        with pytest.raises(ValidationError, match="convex"):
            mg.QuadrantCurve(1.0, samples)

    def test_straight_curve_valid(self):
        straight_curve()


# (curve class, R, samples, eps or None for the default, message fragment):
# one row per check of the shared curve core, in each class's check order
Q, H = mg.QuadrantCurve, mg.HalfplaneCurve
QUARTER = [(1, 0), (0.6, 0.6), (0, 1)]
HALF = [(1, 0), (0, 1), (-1, 0)]
CURVE_REJECTIONS = [
    (Q, 0.0, QUARTER, None, "R must be positive and finite"),
    (H, float("inf"), HALF, None, "R must be positive and finite"),
    (Q, 1.0, [(1, 0)], None, r"samples must be an \(n >= 2, 2\) array"),
    (H, 1.0, [(1, 0), (-1, 0)], None, r"samples must be an \(n >= 3, 2\) array"),
    (Q, 1.0, [(1, 0), (np.nan, 0.5), (0, 1)], None, "samples must be finite"),
    (H, 1.0, [(1, 0), (0, np.inf), (-1, 0)], None, "samples must be finite"),
    (Q, 1.0, [(1, 0), (0.5, -0.2), (0, 1)], None, "sample 1 leaves the closed first quadrant"),
    (H, 1.0, [(1, 0), (0.5, -0.3), (0, 1), (-1, 0)], None,
     "sample 1 leaves the closed upper halfplane"),
    (Q, 1.0, [(0.9, 0), (0, 1)], None, r"first sample must be \(R, 0\)"),
    (H, 1.0, [(0.5, 0), (0, 1), (-1, 0)], None, r"first sample must be \(R, 0\)"),
    (Q, 1.0, [(1, 0), (0, 0.9)], None, r"last sample must be \(0, R\)"),
    (H, 1.0, [(1, 0), (0, 1), (-0.5, 0)], None, r"last sample must be \(-R, 0\)"),
    (Q, 1.0, [(1, 0), (0.8, 0.4), (0.9, 0.45), (0, 1)], None,
     "argument is not strictly increasing at sample 2"),
    (H, 1.0, [(1, 0), (0.5, 0.5), (0, 1), (0.4, 0.4), (-1, 0)], None,
     "argument is not strictly increasing at sample 3"),
    (Q, 1.0, [(1, 0), (0.4, 0.45), (0, 1)], None, "sample 1 leaves the endpoint wedge"),
    (Q, 1.0, [(1, 0), (0.9, 0.6), (0.62, 0.66), (0.6, 1.1), (0, 1)], None,
     "polyline is not convex at sample 2"),
    (H, 1.0, [(1, 0), (0.5, 0.2), (0, 1), (-1, 0)], None, "polyline is not convex at sample 1"),
    # breaks both convexity and the sector: convexity is checked first
    (H, 1.0, [(1, 0), (3, 2), (2, 1.95), (0.9, 2), (-1, 0)], None,
     "polyline is not convex at sample 2"),
    (H, 1.0, [(1, 0), (3, 2), (0.9, 2), (-1, 0)], None, "no sector direction contains the curve"),
    (Q, 1.0, QUARTER, float("inf"), "eps must be finite and nonnegative, not inf"),
    (H, 1.0, HALF, float("nan"), "eps must be finite and nonnegative, not nan"),
    (Q, 1.0, QUARTER, -1e-9, "eps must be finite and nonnegative, not -1e-09"),
    (H, 1.0, HALF, -1.0, "eps must be finite and nonnegative, not -1.0"),
    # R is checked before eps
    (Q, -1.0, QUARTER, float("nan"), "R must be positive and finite"),
]


class TestSharedCurveChecks:
    @pytest.mark.parametrize("cls, R, samples, eps, message", CURVE_REJECTIONS)
    def test_rejection_message(self, cls, R, samples, eps, message):
        with pytest.raises(ValidationError, match=message):
            cls(R, samples) if eps is None else cls(R, samples, eps)

    @pytest.mark.parametrize("cls, samples, end", [(Q, QUARTER, 1.0), (H, HALF, 2.0)])
    def test_params_default_and_explicit(self, cls, samples, end):
        # the parameters are derived, evenly spaced; explicit ones are refused
        assert np.array_equal(cls(1.0, samples).params, np.linspace(0.0, end, 3))
        with pytest.raises(TypeError):
            cls(1.0, samples, params=[0, 1, 5])
        assert [f.name for f in dataclasses.fields(cls)] == ["R", "samples", "eps"]

    @pytest.mark.parametrize("cls, samples, clipped", [
        (Q, [(1, -1e-12), (0.6, 0.6), (-1e-12, 1)], slice(None)),
        (H, [(1, -1e-12), (0, 1), (-1, -1e-12)], slice(1, None)),
    ])
    def test_samples_within_tolerance_are_clipped(self, cls, samples, clipped):
        assert (cls(1.0, samples).samples[:, clipped] >= 0.0).all()


class TestSegmentFromCurve:
    def test_straight_is_interval(self):
        curve = straight_curve(11)
        sp = mg.segment_from_curve(curve)
        t = curve.params
        expect = np.abs(t[:, None] - t[None, :])
        assert np.abs(sp.dist - expect).max() <= 1e-15

    def test_halfcircle_chord_metric(self):
        # oracle: chords of a Euclidean circle of radius 1/2
        curve = halfcircle_curve(17)
        sp = mg.segment_from_curve(curve)
        t = curve.params
        expect = chord_metric_oracle(0.5, np.pi * t[:, None], np.pi * t[None, :])
        assert np.abs(sp.dist - expect).max() <= 1e-14

    def test_random_curves_are_metrics_with_ptolemy_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            curve = random_quadrant_curve(rng, R=1.0 + rng.uniform(0, 2), per_edge=1)
            sp = mg.segment_from_curve(curve)  # constructor validates the metric
            quads = ordered_quads(sp.n)
            assert ptolemy_equality_residuals(sp.dist, quads).max() <= 1e-9

    def test_samples_inside_endpoint_wedge(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            curve = random_quadrant_curve(rng, R=0.5 + rng.uniform(0, 3))
            w = mg.WedgeRegion((curve.R, 0.0), (0.0, curve.R))
            for p in curve.samples:
                assert mg.wedge_contains(w, p).region != "outside"

    def test_triple_wedge_membership(self):
        rng = np.random.default_rng(1)
        curve = random_quadrant_curve(rng, n_interior=6, per_edge=2)
        S = curve.samples
        n = len(S)
        for i in range(0, n - 2, 2):
            for j in range(i + 1, n - 1):
                for k in range(j + 1, n, 2):
                    w = mg.WedgeRegion(S[i], S[k])
                    assert mg.wedge_contains(w, S[j]).region != "outside"


class TestAreaFormAtEveryScale:
    """The products of coordinates of the area form used to underflow below
    about 1e-160: the straight 6-sample curve read as an all-zero matrix at
    R = 1e-300, and d(t0, t1) as 0.2001 R at 1e-160."""

    @pytest.mark.parametrize("R", [1e-300, 1e-160])
    def test_straight_curve(self, R):
        curve = straight_curve(6, R)
        t = curve.params
        sp = mg.segment_from_curve(curve)
        assert np.allclose(sp.dist, R * np.abs(t[:, None] - t), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("shift", [-1000, -600, -300, 300, 600, 1000])
    @pytest.mark.parametrize("circle", [False, True])
    def test_power_of_two_scaling_is_exact(self, shift, circle):
        rng = np.random.default_rng(3)
        make, build = ((random_halfplane_curve, mg.circle_from_curve) if circle
                       else (random_quadrant_curve, mg.segment_from_curve))
        curve = make(rng, n_interior=8, per_edge=1)
        scaled = type(curve)(math.ldexp(curve.R, shift), np.ldexp(curve.samples, shift))
        assert build(scaled).dist.tobytes() == np.ldexp(build(curve).dist, shift).tobytes()


class TestCurveChecksAtEveryScale:
    """The turns and endpoint norms of the curve checks used to overflow above
    about 1e154: a valid 3-sample curve at 1e160 raised OverflowError, and a
    round one at 1e200 was refused for its last sample."""

    @pytest.mark.parametrize("R", [1e-300, 1.0, 1e160, 1e300])
    def test_three_sample_curve(self, R):
        curve = mg.QuadrantCurve(R, [[R, 0.0], [R / 2, R / 2], [0.0, R]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = mg.segment_from_curve(curve)
        assert np.allclose(sp.dist[0], [0.0, R / 2, R], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("R", [1.0, 1e200])
    @pytest.mark.parametrize("cls, end", [(mg.QuadrantCurve, 0.5), (mg.HalfplaneCurve, 1.0)])
    def test_dented_round_curve_is_refused_alike(self, R, cls, end):
        t = np.linspace(0.0, end * np.pi, 9)
        S = R * np.column_stack([np.cos(t), np.sin(t)])
        S[4] *= 0.8  # pulled inward: the curve turns clockwise at sample 4
        with pytest.raises(ValidationError, match="polyline is not convex at sample 4"):
            cls(R, S)
        S[4] /= 0.8
        assert cls(R, S).n == 9


class TestCurveFromSegment:
    def test_interval_gives_straight_curve(self):
        sp = mg.space_from_points(np.linspace(0, 1, 9)[:, None])
        curve = mg.curve_from_segment(sp)
        t = np.linspace(0, 1, 9)
        assert np.abs(curve.samples - np.column_stack([1 - t, t])).max() <= 1e-15

    def test_roundtrip_metric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            curve = random_quadrant_curve(rng, per_edge=1)
            sp = mg.segment_from_curve(curve)
            back = mg.curve_from_segment(sp)
            assert np.abs(back.samples - curve.samples).max() <= 1e-12 * curve.R
            again = mg.segment_from_curve(back)
            assert np.abs(again.dist - sp.dist).max() <= 1e-12 * curve.R

    def test_non_segment_reports_witness(self):
        D = np.abs(np.subtract.outer(np.linspace(0, 1, 6), np.linspace(0, 1, 6)))
        D[2, 3] = D[3, 2] = 0.3  # breaks the ordered equality
        sp = mg.ExtendedMetricSpace(tuple(f"q{i}" for i in range(6)), D)
        with pytest.raises(NotPtolemyError) as err:
            mg.curve_from_segment(sp)
        assert err.value.witness is not None

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_witness_at_large_scale(self, scale):
        # the area-form products of unscaled distances would overflow above
        # about 1e154, and the NaN residuals would pass the check
        D = np.abs(np.subtract.outer(np.linspace(0, 1, 6), np.linspace(0, 1, 6)))
        D[2, 3] = D[3, 2] = 0.3
        errs = []
        for s in (1.0, scale):
            sp = mg.ExtendedMetricSpace(tuple(f"q{i}" for i in range(6)), D * s)
            with warnings.catch_warnings(), pytest.raises(NotPtolemyError) as err:
                warnings.simplefilter("error")
                mg.curve_from_segment(sp)
            errs.append(err.value)
        assert errs[1].witness == errs[0].witness
        assert abs(errs[1].residual / errs[0].residual - 1.0) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-9, 1e-10, 1e-150])
    def test_small_scale_round_trip(self, scale):
        # coincidence is judged against the space's scale, not an absolute floor
        x = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
        sp = mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(6)),
                                    np.abs(np.subtract.outer(x, x)) * scale)
        curve = mg.curve_from_segment(sp)
        assert curve.R == sp.scale
        back = mg.segment_from_curve(curve)
        assert np.abs(back.dist - sp.dist).max() <= 2.0 ** -52 * sp.scale

    @pytest.mark.parametrize("scale", [1.0, 1e-150])
    def test_coincident_endpoints_rejected(self, scale):
        D = np.array([[0.0, 1.0, 1e-10], [1.0, 0.0, 1.0], [1e-10, 1.0, 0.0]]) * scale
        sp = mg.ExtendedMetricSpace(tuple("abc"), D)
        with pytest.raises(ValidationError, match="endpoints coincide"):
            mg.curve_from_segment(sp)

    def test_underflowing_gap_falls_back_to_the_exact_pass(self, monkeypatch):
        # at 1e-300 the squared chain edges underflow: no proof, and no warning
        x = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
        D = np.abs(np.subtract.outer(x, x)) * 1e-300
        passes = []
        check = spaces._check_triangle
        monkeypatch.setattr(spaces, "_check_triangle", lambda *a: passes.append(check(*a)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with spaces._triangle_deferred():
                sp = mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(6)), D)
                curve = mg.curve_from_segment(sp)
        assert curve.R == sp.scale and len(passes) == 1

    def test_omega_rejected(self):
        sp = mg.space_from_points([[0.0], [1.0]], add_omega=True)
        with pytest.raises(ValueError):
            mg.curve_from_segment(sp)


class TestEuclideanFamily:
    def test_halfcircle_equation(self):
        curve = mg.euclidean_segment_curve(1.0, 0.5, "minor", 33)
        a, b = curve.samples[:, 0], curve.samples[:, 1]
        assert np.abs(a ** 2 + b ** 2 - 1.0).max() <= 1e-9

    def test_unit_radius_minor_branch(self):
        curve = mg.euclidean_segment_curve(1.0, 1.0, "minor", 33)
        a, b = curve.samples[:, 0], curve.samples[:, 1]
        assert np.abs(a ** 2 + b ** 2 + np.sqrt(3.0) * a * b - 1.0).max() <= 1e-9

    def test_scaled_halfcircle(self):
        curve = mg.euclidean_segment_curve(2.0, 1.0, "major", 33)
        a, b = curve.samples[:, 0], curve.samples[:, 1]
        assert np.abs(a ** 2 + b ** 2 - 4.0).max() <= 1e-9

    def test_law_of_cosines_all_samples(self):
        for R, r in [(1.0, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
            for branch in ("minor", "major"):
                curve = mg.euclidean_segment_curve(R, r, branch, 41)
                cb = mg.ellipse_cos_beta(R, r, branch)
                a, b = curve.samples[:, 0], curve.samples[:, 1]
                resid = np.abs(a ** 2 + b ** 2 - 2 * a * b * cb - R ** 2)
                assert resid.max() <= 1e-9

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            mg.euclidean_segment_curve(1.0, 0.49)

    @pytest.mark.parametrize("args, message", [((1.0, 0.1), "at least R/2"),
                                               ((1.0, 1.0, "bogus"), "branch")])
    def test_cos_beta_rejects_what_the_curve_rejects(self, args, message):
        for build in (mg.euclidean_segment_curve, mg.ellipse_cos_beta):
            with pytest.raises(ValueError, match=message):
                build(*args)

    def test_embedded_arc_matches_its_own_metric(self):
        # the synthesized metric equals the ambient chord metric of the arc
        curve = mg.euclidean_segment_curve(1.0, 0.8, "minor", 21)
        sp = mg.segment_from_curve(curve)
        half = np.arcsin(1.0 / 1.6)
        phi = np.linspace(-half, half, 21)
        pts = 0.8 * np.column_stack([np.cos(phi), np.sin(phi)])
        expect = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert np.abs(sp.dist - expect).max() <= 1e-12


class TestAngleParameterize:
    def test_straight_formula(self):
        curve = straight_curve(11)
        t = curve.params
        alphas = mg.angle_parameterize(curve)
        expect = np.arctan2(t, 1.0 - t)
        assert np.allclose(alphas, expect, atol=1e-15)

    def test_endpoints(self):
        curve = halfcircle_curve(9)
        alphas = mg.angle_parameterize(curve)
        assert alphas[0] == 0.0 and np.isclose(alphas[-1], np.pi / 2)

    def test_monotone_on_random_curves(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            alphas = mg.angle_parameterize(random_quadrant_curve(rng))
            assert (np.diff(alphas) > 0).all()


class TestReflectionSymmetry:
    def test_reflected_curve_is_isometric(self):
        rng = np.random.default_rng(4)
        curve = random_quadrant_curve(rng, per_edge=1)
        refl = curve.reflected()
        D1 = mg.segment_from_curve(curve).dist
        D2 = mg.segment_from_curve(refl).dist
        assert np.abs(D2 - D1[::-1, ::-1]).max() <= 1e-12 * curve.R


class TestSegmentMoebiusMap:
    def test_self_map_is_identity(self):
        sp = mg.segment_from_curve(halfcircle_curve(21))
        anchors = ("t0", "t7", "t20")
        m = mg.segment_moebius_map(sp, anchors, sp, anchors)
        assert np.abs(m.dst_params - np.linspace(0, 1, 21)).max() <= 1e-12
        assert m.max_crt_deviation <= 1e-12

    def test_straight_to_halfcircle(self):
        src = mg.segment_from_curve(straight_curve(21))
        dst = mg.segment_from_curve(halfcircle_curve(1025))
        m = mg.segment_moebius_map(src, ("t0", "t10", "t20"),
                                   dst, ("t0", "t512", "t1024"))
        assert m.max_crt_deviation <= 1e-6

    def test_swapped_boundary_anchors_reverse_orientation(self):
        src = mg.segment_from_curve(straight_curve(15))
        dst = mg.segment_from_curve(halfcircle_curve(257))
        fwd = mg.segment_moebius_map(src, ("t0", "t7", "t14"),
                                     dst, ("t0", "t128", "t256"))
        rev = mg.segment_moebius_map(src, ("t0", "t7", "t14"),
                                     dst, ("t256", "t128", "t0"))
        assert (np.diff(fwd.dst_params) > 0).all()
        assert (np.diff(rev.dst_params) < 0).all()
        # the half-circle is symmetric end to end, so the reversed map is the
        # forward one read from the other end of the destination
        assert np.abs(rev.dst_params - (1 - fwd.dst_params)).max() <= 1e-12
        assert np.abs(rev.dst_points - fwd.dst_points[:, ::-1]).max() <= 1e-12

    def test_interior_anchor_required(self):
        sp = mg.segment_from_curve(straight_curve(9))
        with pytest.raises(ValueError):
            mg.segment_moebius_map(sp, ("t0", "t8", "t4"), sp, ("t0", "t4", "t8"))


class TestCurveJson:
    def test_roundtrip(self):
        from moebiusgeo.segments import curve_from_json_dict, curve_to_json_dict
        curve = halfcircle_curve(9)
        data = curve_to_json_dict(curve)
        assert set(data) == {"R", "samples"}
        back = curve_from_json_dict(data)
        assert np.abs(back.samples - curve.samples).max() <= 1e-15

    def test_circle_file_rejected(self):
        from moebiusgeo.segments import curve_from_json_dict
        data = {"kind": "circle", "R": 1.0, "samples": [[1, 0], [0, 1], [-1, 0]]}
        with pytest.raises(ValidationError, match="use 'circle synth'"):
            curve_from_json_dict(data)
