"""Circle classification: sectors, halfplane curves, Moebius maps."""

import math
import warnings

import numpy as np
import pytest

import moebiusgeo as mg
from moebiusgeo.errors import NotPtolemyError, ValidationError

from helpers import (apex_index, chord_metric_oracle, ordered_quads,
                     ptolemy_equality_residuals, random_halfplane_curve)


class TestSector:
    def test_vertical_inside(self):
        s = mg.SectorRegion(2.0, (0, 1))
        loc = mg.sector_contains(s, (0, 2))
        assert loc.region == "inside" and loc.s == 0.0 and loc.t == 2.0

    def test_outside(self):
        s = mg.SectorRegion(2.0, (0, 1))
        loc = mg.sector_contains(s, (3, 1))
        assert loc.region == "outside" and np.isclose(loc.s, 1.5)

    def test_base_corner_boundary(self):
        s = mg.SectorRegion(2.0, (0, 1))
        loc = mg.sector_contains(s, (2, 0))
        assert loc.region == "boundary" and np.isclose(loc.s, 1.0) and loc.t == 0.0

    def test_degenerate_direction(self):
        with pytest.raises(ValidationError):
            mg.SectorRegion(2.0, (1, 0))

    def test_zero_direction(self):
        with pytest.raises(ValidationError, match="sector direction must be a nonzero vector"):
            mg.SectorRegion(2.0, (0, 0))

    @pytest.mark.parametrize("x", [(math.nan, 1), (1, math.inf)], ids=["nan", "inf"])
    def test_non_finite_direction(self, x):
        with pytest.raises(ValidationError, match="nonzero vector, and finite"):
            mg.SectorRegion(1.0, x)

    @pytest.mark.parametrize("v", [(math.nan, 0.5), (0.5, math.inf)], ids=["nan", "inf"])
    def test_non_finite_point(self, v):
        with pytest.raises(ValidationError, match="is not finite"):
            mg.sector_contains(mg.SectorRegion(2.0, (0, 1)), v)

    def test_tilted_direction(self):
        s = mg.SectorRegion(1.0, (1, 1))
        assert mg.sector_contains(s, (1.5, 1.0)).region == "inside"


class TestSectorAtEveryScale:
    """The direction was normalized by a norm that overflowed at (1e200, 1e200),
    which was then refused as parallel to the base axis, and underflowed to 0
    at (1e-170, 1e-170), which was refused as not a nonzero vector."""

    @pytest.mark.parametrize("k", [-560, -24, 0, 30, 660],
                             ids=["2^-560", "2^-24", "2^0", "2^30", "2^660"])
    def test_direction_stores_the_unit_vector_of_unit_scale(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = mg.SectorRegion(1.0, (2.0 ** k, 2.0 ** k)).x
        assert x.tobytes() == mg.SectorRegion(1.0, (1.0, 1.0)).x.tobytes()

    @pytest.mark.parametrize("c", [1e200, 1e-170, 1e-200], ids=["1e200", "1e-170", "1e-200"])
    def test_diagonal_direction(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = mg.SectorRegion(1.0, (c, c)).x
        assert np.allclose(x, [math.sqrt(0.5)] * 2, rtol=1e-15, atol=0.0)

    def test_zero_direction_stays_refused(self):
        for x in ((0.0, 0.0), (-0.0, 0.0)):
            with pytest.raises(ValidationError, match="nonzero vector"):
                mg.SectorRegion(1.0, x)


class TestSectorShapes:
    """A sector and a located point are planar: (0, 1, 9) was normalized over
    three coordinates, which turned the direction, a third coordinate of a
    point was ignored, and a short or nested one raised a bare IndexError."""

    @pytest.mark.parametrize("x, shape", [
        pytest.param((0, 1, 9), r"\(3,\)", id="3-vector"),
        pytest.param((1.0,), r"\(1,\)", id="1-vector"),
        pytest.param(5.0, r"\(\)", id="scalar"),
        pytest.param([[0, 1]], r"\(1, 2\)", id="nested"),
    ])
    def test_directions_of_another_shape_are_refused(self, x, shape):
        with pytest.raises(ValidationError, match=rf"sector direction x .* shape {shape}"):
            mg.SectorRegion(1.0, x)

    @pytest.mark.parametrize("v", [
        pytest.param((0.5, 0.75, -100), id="3-vector"),
        pytest.param((0.5,), id="1-vector"),
        pytest.param(5.0, id="scalar"),
        pytest.param([[0.5, 0.75]], id="nested"),
    ])
    def test_points_of_another_shape_are_refused(self, v):
        with pytest.raises(ValidationError, match="point must be a vector of 2 coordinates"):
            mg.sector_contains(mg.SectorRegion(1.0, (0, 1)), v)


class TestSectorNumbers:
    """A sector direction and a located point hold numbers: letters raised
    numpy's own ValueError, and ("0", "1") built a sector."""

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: mg.SectorRegion(1.0, ["a", "b"]),
                     "sector direction x must hold numbers, not strings", id="letters"),
        pytest.param(lambda: mg.SectorRegion(1.0, ("0", "1")),
                     "sector direction x must hold numbers, not strings", id="strings"),
        pytest.param(lambda: mg.sector_contains(mg.SectorRegion(1.0, (0, 1)), ["x", "y"]),
                     "point must hold numbers, not strings", id="point-letters"),
    ])
    def test_refused(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


class TestHalfplaneCurveValidation:
    def test_chordal_curve_valid(self):
        curve = mg.chordal_circle_curve(2.0, 16)
        assert curve.n_points == 16
        loc_all = [mg.sector_contains(curve.sector(), p).region for p in curve.samples]
        assert "outside" not in loc_all

    def test_doubled_segment_rejected(self):
        # collapsing back along the same ray stalls the argument
        samples = [(1, 0), (0.5, 0.5), (0, 1), (0.4, 0.4), (-1, 0)]
        with pytest.raises(ValidationError, match="argument"):
            mg.HalfplaneCurve(1.0, samples)

    def test_endpoint_checks(self):
        with pytest.raises(ValidationError, match="first sample"):
            mg.HalfplaneCurve(1.0, [(0.5, 0), (0, 1), (-1, 0)])
        with pytest.raises(ValidationError, match="last sample"):
            mg.HalfplaneCurve(1.0, [(1, 0), (0, 1), (-0.5, 0)])

    def test_lower_halfplane_rejected(self):
        with pytest.raises(ValidationError, match="halfplane"):
            mg.HalfplaneCurve(1.0, [(1, 0), (0.5, -0.3), (0, 1), (-1, 0)])

    def test_sector_violation_rejected(self):
        # a spike far beyond the base corners cannot fit any sector
        samples = [(1, 0), (8.0, 0.1), (0, 1), (-1, 0)]
        with pytest.raises(ValidationError):
            mg.HalfplaneCurve(1.0, samples)


    def test_sector_witness_on_narrow_feasible_interval(self):
        # the feasible cot interval of the sector direction is 1e-9 wide
        curve = mg.HalfplaneCurve(1.0, [(1, 0), (3, 2), (1, 2), (-1, 0)])
        regions = [mg.sector_contains(curve.sector(), p).region for p in curve.samples]
        assert "outside" not in regions
        with pytest.raises(ValidationError, match="no sector direction"):
            mg.HalfplaneCurve(1.0, [(1, 0), (3, 2), (0.9, 2), (-1, 0)])

    def test_sector_witness_without_an_interior_sample(self):
        # no sample lies above eps * R, so nothing bounds the direction: vertical
        curve = mg.HalfplaneCurve(1.0, [[1, 0], [0, 1e-12], [-1, 0]])
        assert np.array_equal(curve.sector_witness, [0.0, 1.0])


class TestChordalCircle:
    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_positive_diameter_required(self, R):
        with pytest.raises(ValueError, match="R must be positive"):
            mg.chordal_circle_curve(R, 8)

    def test_distance_formula_exact(self):
        curve = mg.chordal_circle_curve(2.0, 24)
        sp = mg.circle_from_curve(curve)
        t = curve.params[:-1]
        expect = chord_metric_oracle(1.0, np.pi * t[:, None], np.pi * t[None, :])
        assert np.abs(sp.dist - expect).max() <= 1e-12

    def test_half_scale(self):
        c1 = mg.chordal_circle_curve(1.0, 12)
        c2 = mg.chordal_circle_curve(2.0, 12)
        assert np.abs(2.0 * c1.samples - c2.samples).max() <= 1e-15

    def test_generator_output_revalidates(self):
        curve = mg.chordal_circle_curve(3.5, 30)
        sp = mg.circle_from_curve(curve)
        back = mg.curve_from_circle(sp)
        assert np.abs(back.samples - curve.samples).max() <= 1e-12


class TestChordalCircleAtTheFloatLimits:
    """At R = 1e308 the sector witness overflowed in a - R (1 + eps), and an
    infinite R warned before any check."""

    @pytest.mark.parametrize("k", [-1000, 1023], ids=["2^-1000", "2^1023"])
    def test_witness_does_not_depend_on_the_unit(self, k):
        R = 2.0 ** k
        witness = mg.chordal_circle_curve(R, 8).sector_witness
        assert np.array_equal(witness, mg.chordal_circle_curve(1.0, 8).sector_witness)

    @pytest.mark.parametrize("R", [1e308, 2.0 ** 1023], ids=["1e308", "2^1023"])
    def test_round_trip_near_the_largest_float(self, R):
        curve = mg.chordal_circle_curve(R, 8)
        back = mg.curve_from_circle(mg.circle_from_curve(curve))
        assert back.R == R
        assert np.abs(back.samples / R - curve.samples / R).max() <= 1e-12

    @pytest.mark.parametrize("R", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_refused(self, R):
        with pytest.raises(ValidationError, match="R must be positive and finite"):
            mg.chordal_circle_curve(R, 8)


class TestCircleFromCurve:
    def test_random_curves_are_metrics_with_cyclic_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            curve = random_halfplane_curve(rng, R=1.0 + rng.uniform(0, 2), per_edge=1)
            sp = mg.circle_from_curve(curve)  # constructor validates the metric
            quads = ordered_quads(sp.n)
            assert ptolemy_equality_residuals(sp.dist, quads).max() <= 1e-9

    def test_signed_form_nonnegative_in_sample_order(self):
        rng = np.random.default_rng(7)
        curve = random_halfplane_curve(rng, R=2.0, n_interior=8, per_edge=1)
        S = curve.samples[:-1]
        M = mg.signed_distance(S[:, None], S)
        assert M[np.triu_indices(len(M), k=1)].min() >= 0.0

    def test_interior_triples_in_wedge(self):
        rng = np.random.default_rng(1)
        curve = random_halfplane_curve(rng, n_interior=8, per_edge=1)
        S = curve.samples[1:-1]
        n = len(S)
        for i in range(0, n - 2, 2):
            for k in range(i + 2, n, 2):
                w = mg.WedgeRegion(S[i], S[k])
                for j in range(i + 1, k):
                    assert mg.wedge_contains(w, S[j]).region != "outside"


class TestCurveFromCircle:
    def test_square_on_unit_circle(self):
        theta = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        sp = mg.space_from_points(pts, labels=["e", "n", "w", "s"])
        curve = mg.curve_from_circle(sp)
        r2 = np.sqrt(2.0)
        expect = np.array([[2, 0], [r2, r2], [0, 2], [-r2, r2], [-2, 0]])
        assert np.abs(curve.samples - expect).max() <= 1e-12

    def test_default_base_is_max_distance(self):
        curve = mg.chordal_circle_curve(2.0, 10)
        sp = mg.circle_from_curve(curve)
        back = mg.curve_from_circle(sp)
        assert np.isclose(back.R, 2.0)

    @pytest.mark.parametrize("R", [2.0, 2e-10])
    def test_small_circle_classifies(self, R):
        # coincidence is judged against the space's scale, not an absolute floor
        curve = mg.chordal_circle_curve(R, 10)
        back = mg.curve_from_circle(mg.circle_from_curve(curve))
        assert back.R == R and np.abs(back.samples - curve.samples).max() <= 1e-15 * R

    def test_coincident_base_points_rejected(self):
        D = np.array([[0.0, 1.0, 1e-10], [1.0, 0.0, 1.0], [1e-10, 1.0, 0.0]]) * 1e-150
        with pytest.raises(ValidationError, match="base points coincide"):
            mg.curve_from_circle(mg.ExtendedMetricSpace(tuple("abc"), D), minus_one="c")

    def test_explicit_minus_one(self):
        rng = np.random.default_rng(2)
        curve = random_halfplane_curve(rng, R=1.5, n_interior=8)
        sp = mg.circle_from_curve(curve)
        k = apex_index(curve)
        back = mg.curve_from_circle(sp, minus_one=f"t{k}")
        assert np.abs(back.samples - curve.samples).max() <= 1e-12

    def test_roundtrip_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            curve = random_halfplane_curve(rng, n_interior=9)
            sp = mg.circle_from_curve(curve)
            k = apex_index(curve)
            back = mg.curve_from_circle(sp, minus_one=f"t{k}")
            again = mg.circle_from_curve(back)
            assert np.abs(again.dist - sp.dist).max() <= 1e-12 * curve.R

    def test_two_pointed_presentation_any_base_pair(self):
        # the presentation depends on the chosen base pair, the metric does not
        sp = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 12))
        order = [f"t{(3 + i) % 12}" for i in range(12)]
        idx = [sp.index(x) for x in order]
        D0 = sp.dist[np.ix_(idx, idx)]
        for minus in ("t9", "t7", "t5"):
            curve = mg.curve_from_circle(sp, order=order, minus_one=minus)
            back = mg.circle_from_curve(curve)
            assert np.abs(back.dist - D0).max() <= 1e-12

    def test_perturbed_input_reports_witness(self):
        curve = mg.chordal_circle_curve(2.0, 10)
        sp = mg.circle_from_curve(curve)
        D = sp.dist.copy()
        D[2, 5] *= 1.02
        D[5, 2] = D[2, 5]
        sp2 = mg.ExtendedMetricSpace(sp.labels, D)
        with pytest.raises(NotPtolemyError) as err:
            mg.curve_from_circle(sp2)
        assert err.value.witness is not None

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_witness_at_large_scale(self, scale):
        # the area-form products of unscaled distances would overflow above
        # about 1e154, and the NaN residuals would pass the check
        D = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 10)).dist.copy()
        D[2, 5] *= 1.02
        D[5, 2] = D[2, 5]
        errs = []
        for s in (1.0, scale):
            sp = mg.ExtendedMetricSpace(tuple(f"t{i}" for i in range(len(D))), D * s)
            with warnings.catch_warnings(), pytest.raises(NotPtolemyError) as err:
                warnings.simplefilter("error")
                mg.curve_from_circle(sp)
            errs.append(err.value)
        assert errs[1].witness == errs[0].witness
        assert abs(errs[1].residual / errs[0].residual - 1.0) <= 1e-12

    def test_too_few_points(self):
        sp = mg.space_from_points([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            mg.curve_from_circle(sp)


class TestCircleMoebiusMap:
    def test_self_map_is_identity(self):
        sp = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 24))
        anchors = ("t0", "t8", "t16")
        m = mg.circle_moebius_map(sp, anchors, sp, anchors)
        assert np.abs(m.dst_positions - np.arange(24)).max() <= 1e-9
        assert m.max_crt_deviation <= 1e-12

    def test_scaling_map_between_radii(self):
        # circles of Euclidean radii 1 and 5 with anchors at matching angles
        s1 = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 36))
        s5 = mg.circle_from_curve(mg.chordal_circle_curve(10.0, 36))
        m = mg.circle_moebius_map(s1, ("t0", "t12", "t24"), s5, ("t0", "t12", "t24"))
        assert np.abs(m.dst_positions - np.arange(36)).max() <= 1e-9
        assert m.max_crt_deviation <= 1e-9

    def test_map_to_nonround_circle(self):
        rng = np.random.default_rng(4)
        src = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 18))
        dst_curve = random_halfplane_curve(rng, R=1.3, n_interior=10, per_edge=480)
        dst = mg.circle_from_curve(dst_curve)
        n = dst.n
        m = mg.circle_moebius_map(src, ("t0", "t6", "t12"),
                                  dst, ("t0", f"t{n // 3}", f"t{2 * n // 3}"))
        assert m.max_crt_deviation <= 1e-6

    def test_reversed_anchor_orientation(self):
        sp = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 24))
        m = mg.circle_moebius_map(sp, ("t0", "t8", "t16"), sp, ("t0", "t16", "t8"))
        # orientation reversal: positions run backwards around the cycle
        assert m.max_crt_deviation <= 1e-9

    def test_degenerate_anchors_rejected(self):
        sp = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 12))
        triple = ("t0", "t4", "t8")
        for anchors in [("t0", "t0", "t4"), ("t0", "t4"), ("t0", "t2", "t4", "t0"),
                        ("t0", "t2", "t4", "t6")]:
            for src, dst in [(anchors, triple), (triple, anchors)]:
                with pytest.raises(ValueError, match="three distinct points"):
                    mg.circle_moebius_map(sp, src, sp, dst)


class TestCurveJson:
    def test_roundtrip_and_kind(self):
        from moebiusgeo.circles import curve_from_json_dict, curve_to_json_dict
        curve = mg.chordal_circle_curve(2.0, 8)
        data = curve_to_json_dict(curve)
        assert data["kind"] == "circle"
        back = curve_from_json_dict(data)
        assert np.abs(back.samples - curve.samples).max() <= 1e-15
