"""Core spaces: validation, cross-ratio triples, Ptolemy scans, line embedding."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebiusgeo as mg
from moebiusgeo import spaces
from moebiusgeo.errors import ValidationError

from helpers import brute_force_line_embedding

INF = math.inf


def line_space_with_omega(xs):
    return mg.space_from_points(np.asarray(xs, dtype=float)[:, None], add_omega=True)


class TestValidation:
    def test_asymmetric_rejected(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            mg.ExtendedMetricSpace(("a", "b"), D)

    def test_negative_rejected(self):
        D = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            mg.ExtendedMetricSpace(("a", "b"), D)

    def test_triangle_violation_rejected(self):
        D = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValidationError, match="triangle"):
            mg.ExtendedMetricSpace(("a", "b", "c"), D)

    def test_inf_only_against_omega(self):
        D = np.array([[0.0, INF, 1.0], [INF, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValidationError):
            mg.ExtendedMetricSpace(("a", "b", "c"), D, omega=None)

    def test_omega_row_must_be_infinite(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            mg.ExtendedMetricSpace(("a", "b"), D, omega=1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            mg.ExtendedMetricSpace(("a", "a"), np.zeros((2, 2)))

    def test_valid_extended_space(self):
        sp = line_space_with_omega([0.0, 1.0, 3.0])
        assert sp.omega == 3
        assert sp.labels[sp.omega] == "omega"
        assert np.isinf(sp.dist[0, 3])


class TestCrt:
    def test_double_omega_convention(self):
        sp = line_space_with_omega([0.0, 1.0])
        t = mg.crt(sp, (0, 1, 2, 2))
        assert np.allclose(t.entries, [0.0, 0.5, 0.5])

    def test_double_omega_other_positions(self):
        sp = line_space_with_omega([0.0, 1.0])
        assert np.allclose(mg.crt(sp, (2, 2, 0, 1)).entries, [0.0, 0.5, 0.5])
        assert np.allclose(mg.crt(sp, (2, 0, 2, 1)).entries, [0.5, 0.0, 0.5])
        assert np.allclose(mg.crt(sp, (2, 0, 1, 2)).entries, [0.5, 0.5, 0.0])

    def test_collinear_with_omega(self):
        # reduced formula gives (d(0,1) : d(0,3) : d(1,3)) = (1 : 3 : 2) / 6
        sp = line_space_with_omega([0.0, 1.0, 3.0])
        t = mg.crt(sp, (0, 1, 2, 3))
        assert np.allclose(t.entries, np.array([1.0, 3.0, 2.0]) / 6.0, atol=1e-15)
        assert t.region() == "boundary"

    def test_unit_square_corners(self):
        sq = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        t = mg.crt(sq, (0, 1, 2, 3))
        assert np.allclose(t.entries, [0.25, 0.5, 0.25], atol=1e-15)
        assert t.region() == "boundary"

    def test_inadmissible_quadruple(self):
        sq = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError, match="inadmissible"):
            mg.crt(sq, (0, 0, 0, 1))

    def test_degenerate_quadruple(self):
        D = np.zeros((4, 4))
        sp = mg.ExtendedMetricSpace(("a", "b", "c", "d"), D)
        with pytest.raises(ValidationError, match="degenerate"):
            mg.crt(sp, (0, 1, 2, 3))

    def test_repeated_finite_point(self):
        sq = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        t = mg.crt(sq, (0, 0, 1, 2))
        assert t.a == 0.0 and np.isclose(t.b, t.c)

    def test_labels_accepted(self):
        sq = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert mg.crt(sq, ("p0", "p1", "p2", "p3")).deviation(mg.crt(sq, (0, 1, 2, 3))) == 0.0

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_invariance(self, lam):
        sq = mg.space_from_points([(0, 0), (1, 0), (2, 1), (0, 3)])
        scaled = mg.ExtendedMetricSpace(sq.labels, lam * sq.dist)
        t0 = mg.crt(sq, (0, 1, 2, 3))
        t1 = mg.crt(scaled, (0, 1, 2, 3))
        assert t0.deviation(t1) <= 1e-12

    def test_relabeling_isometry_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        sp = mg.space_from_points(pts)
        perm = rng.permutation(6)
        sp2 = mg.ExtendedMetricSpace(
            tuple(sp.labels[i] for i in perm), sp.dist[np.ix_(perm, perm)]
        )
        inv = np.argsort(perm)
        quad = (0, 2, 3, 5)
        mapped = tuple(int(inv[q]) for q in quad)
        assert mg.crt(sp, quad).deviation(mg.crt(sp2, mapped)) <= 1e-15

    def test_continuity_under_perturbation(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(5, 3))
        sp = mg.space_from_points(pts)
        delta = 1e-6
        D2 = np.triu(sp.dist * (1.0 + delta * rng.uniform(-1, 1, size=(5, 5))), 1)
        D2 = D2 + D2.T
        sp2 = mg.ExtendedMetricSpace(sp.labels, D2)
        dev = mg.crt(sp, (0, 1, 2, 4)).deviation(mg.crt(sp2, (0, 1, 2, 4)))
        assert dev <= 20.0 * delta


class TestClassify:
    def test_center_interior(self):
        t = mg.CrossRatioTriple(1 / 3, 1 / 3, 1 / 3)
        assert mg.classify_simplex(t) == "interior"

    def test_corner_boundary(self):
        assert mg.classify_simplex(mg.CrossRatioTriple(0.0, 0.5, 0.5)) == "boundary"

    def test_outside(self):
        assert mg.classify_simplex(mg.CrossRatioTriple(0.6, 0.2, 0.2)) == "outside"

    def test_equality_case_is_boundary(self):
        assert mg.classify_simplex(mg.CrossRatioTriple(0.5, 0.25, 0.25)) == "boundary"


class TestIsPtolemy:
    def test_five_ones_one_two(self):
        # four points, five distances 1 and one distance 2: Ptolemy
        D = np.ones((4, 4)) - np.eye(4)
        D[0, 1] = D[1, 0] = 2.0
        sp = mg.ExtendedMetricSpace(("a", "b", "c", "d"), D)
        rep = mg.is_ptolemy(sp)
        assert rep.holds and rep.n_checked == 1

    def test_l1_square_fails(self):
        sp = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)], p=1.0)
        rep = mg.is_ptolemy(sp)
        assert not rep.holds
        assert rep.worst_quad == ("p0", "p1", "p2", "p3")
        assert rep.worst_margin > 0.1

    def test_random_euclidean_holds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pts = rng.normal(size=(rng.integers(4, 13), rng.integers(2, 5)))
            assert mg.is_ptolemy(mg.space_from_points(pts)).holds

    def test_omega_subsets_scanned(self):
        sp = line_space_with_omega([0.0, 1.0, 3.0])
        rep = mg.is_ptolemy(sp)
        assert rep.holds and rep.n_checked == 1

    def test_small_space_trivial(self):
        sp = mg.space_from_points([(0, 0), (1, 0), (0, 1)])
        rep = mg.is_ptolemy(sp)
        assert rep.holds and rep.n_checked == 0


class TestCircleQuadruple:
    def test_unit_square_cyclic(self):
        sq = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert mg.is_circle_quadruple(sq, (0, 1, 2, 3))

    def test_tetrahedron_false(self):
        D = np.ones((4, 4)) - np.eye(4)
        sp = mg.ExtendedMetricSpace(("a", "b", "c", "d"), D)
        for quad in [(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]:
            assert not mg.is_circle_quadruple(sp, quad)
            assert mg.crt(sp, quad).region() == "interior"

    def test_collinear_plus_omega(self):
        sp = line_space_with_omega([0.0, 1.0, 3.0])
        assert mg.is_circle_quadruple(sp, (0, 1, 2, 3))

    def test_line_circle_through_omega_gives_triangle_equality(self):
        # finite triples of a circle through the remote point are collinear
        sp = line_space_with_omega([0.0, 0.7, 1.9, 2.4])
        for quad in [(0, 1, 2, 4), (0, 2, 3, 4), (1, 2, 3, 4)]:
            assert mg.is_circle_quadruple(sp, quad)
        assert mg.all_triples_collinear(
            mg.space_from_points(np.array([0.0, 0.7, 1.9, 2.4])[:, None])
        )


class TestLineEmbed:
    def test_three_collinear(self):
        sp = mg.space_from_points(np.array([0.0, 1.0, 3.0])[:, None])
        coords = mg.line_embed(sp)
        assert coords is not None
        gaps = np.abs(np.abs(coords[:, None] - coords[None, :]) - sp.dist)
        assert gaps.max() <= 1e-12

    def test_equilateral_fails(self):
        D = np.ones((3, 3)) - np.eye(3)
        sp = mg.ExtendedMetricSpace(("a", "b", "c"), D)
        assert mg.line_embed(sp) is None

    def test_reflection_ambiguous_point(self):
        sp = mg.space_from_points(np.array([0.0, 4.0, 7.0, 2.0])[:, None])
        coords = mg.line_embed(sp)
        assert coords is not None
        oracle = brute_force_line_embedding(sp.dist, 1e-9)
        assert oracle is not None
        gaps = np.abs(np.abs(coords[:, None] - coords[None, :]) - sp.dist)
        assert gaps.max() <= 1e-12

    def test_succeeds_iff_triples_collinear(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            if trial % 2 == 0:
                pts = rng.normal(size=(6, 1)) * 3.0
                sp = mg.space_from_points(pts)
            else:
                pts = rng.normal(size=(6, 2))
                sp = mg.space_from_points(pts)
            embedded = mg.line_embed(sp) is not None
            assert embedded == mg.all_triples_collinear(sp)

    def test_omega_rejected(self):
        sp = line_space_with_omega([0.0, 1.0])
        with pytest.raises(ValueError):
            mg.line_embed(sp)

    def test_single_point(self):
        sp = mg.ExtendedMetricSpace(("a",), np.zeros((1, 1)))
        assert np.allclose(mg.line_embed(sp), [0.0])


class TestScanTiling:
    def test_results_do_not_depend_on_block_size(self, monkeypatch):
        # 42 points span blocks of several minimum indices at the default budget
        sp = mg.sample_space("sphere", n=3, count=42, seed=9)
        corr = mg.PointedCorrespondence.identity(sp, mg.invert_at(sp, 0))
        default = mg.is_ptolemy(sp), mg.crt_equivalent(corr)
        monkeypatch.setattr("moebiusgeo.spaces._BLOCK_ELEMENTS", 1)  # one index per block
        single = mg.is_ptolemy(sp), mg.crt_equivalent(corr)
        assert single[0] == default[0]
        assert single[1].witness == default[1].witness
        assert single[1].max_deviation == default[1].max_deviation

    def test_tie_break_prefers_first_finite_subset(self, monkeypatch):
        # omega at index 0 and collinear integer points: every margin is exactly 0
        xs = np.arange(6.0)
        D = np.full((7, 7), INF)
        D[0, 0] = 0.0
        D[1:, 1:] = np.abs(xs[:, None] - xs[None, :])
        sp = mg.ExtendedMetricSpace(("omega",) + tuple("abcdef"), D, omega=0)
        reports = [mg.is_ptolemy(sp)]
        monkeypatch.setattr("moebiusgeo.spaces._BLOCK_ELEMENTS", 1)  # ties across blocks
        reports.append(mg.is_ptolemy(sp))
        for report in reports:
            assert report.holds and report.worst_margin == 0.0
            assert report.worst_quad == ("a", "b", "c", "d")
            assert report.n_checked == math.comb(6, 4) + math.comb(6, 3)
            assert mg.circle_quadruple_census(sp) == (report.n_boundary, report.n_checked)


class TestSmallScale:
    """Cross-ratio products of a metric scaled by 2^-560 underflow unless the
    scans rescale the matrix first."""

    @pytest.mark.parametrize("kind, holds", [("l1", False), ("halfspace", True)])
    def test_scaled_space_keeps_its_report(self, kind, holds):
        sp = mg.sample_space(kind, n=2, count=12, seed=3)
        small = mg.ExtendedMetricSpace(sp.labels, np.ldexp(sp.dist, -560), sp.omega)
        report = mg.is_ptolemy(small)
        assert report == mg.is_ptolemy(sp) and report.holds is holds
        assert mg.circle_quadruple_census(small) == mg.circle_quadruple_census(sp)

    @pytest.mark.parametrize("shift", [-530, -560])
    def test_scaled_crt_keeps_its_triple(self, shift):
        sp = mg.sample_space("sphere", n=2, count=12, seed=3)
        small = mg.ExtendedMetricSpace(sp.labels, np.ldexp(sp.dist, shift))
        assert mg.is_ptolemy(small).holds
        for quad in itertools.combinations(range(8), 4):
            assert mg.crt(small, quad) == mg.crt(sp, quad)
            assert mg.is_circle_quadruple(small, quad) == mg.is_circle_quadruple(sp, quad)

    def test_scaled_copy_is_crt_equivalent(self):
        sp = mg.sample_space("sphere", n=2, count=12, seed=3)
        small = mg.ExtendedMetricSpace(sp.labels, np.ldexp(sp.dist, -560))
        report = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, small))
        assert report.equivalent and report.max_deviation == 0.0


def _loose_line():
    """Six points on a line with d(p0, p5) 1e-7 short: a segment within eps = 1e-6."""
    D = np.abs(np.arange(6.0)[:, None] - np.arange(6.0))
    D[0, 5] = D[5, 0] = 5.0 - 1e-7
    return mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(6)), D, eps=1e-6)


class TestSpaceTolerance:
    """Every predicate on a space reads the tolerance the space was built with."""

    def test_loose_line_passes_every_predicate(self):
        sp = _loose_line()
        assert mg.is_ptolemy(sp).holds
        assert mg.circle_quadruple_census(sp) == (15, 15)
        assert mg.line_embed(sp) is not None
        assert mg.all_triples_collinear(sp)
        assert mg.curve_from_segment(sp).eps == 1e-6
        assert sp.tol == 1e-6 * sp.scale

    def test_dist_is_read_only(self):
        sp = _loose_line()
        with pytest.raises(ValueError):
            sp.dist[0, 1] = 1.0
        assert sp.dist[0, 1] == 1.0

    @pytest.mark.parametrize("name, args", [
        ("is_ptolemy", ()),
        ("circle_quadruple_census", ()),
        ("is_circle_quadruple", ((0, 1, 2, 3),)),
        ("line_embed", ()),
        ("all_triples_collinear", ()),
        ("crt", ((0, 1, 2, 3),)),
        ("invert_at", (0,)),
        ("bound_at", (0,)),
        ("curve_from_segment", ()),
        ("curve_from_circle", ()),
        ("segment_moebius_map", ((0, 1, 5), None, (0, 1, 5))),
        ("circle_moebius_map", ((0, 1, 2), None, (0, 1, 2))),
    ])
    def test_no_per_call_eps(self, name, args):
        sp = _loose_line()
        args = tuple(sp if a is None else a for a in args)
        with pytest.raises(TypeError, match="eps"):
            getattr(mg, name)(sp, *args, eps=1e-6)


class TestJson:
    def test_roundtrip_with_omega(self):
        sp = line_space_with_omega([0.0, 1.0, 3.0])
        data = mg.space_to_json_dict(sp)
        assert data["omega"] == "omega"
        assert data["matrix"][0][3] == "inf"
        back = mg.space_from_json_dict(data)
        assert back.labels == sp.labels
        finite = np.isfinite(sp.dist)
        assert np.array_equal(back.dist[finite], sp.dist[finite])

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            mg.space_from_json_dict({"points": ["a"]})
        with pytest.raises(ValidationError):
            mg.space_from_json_dict({"points": ["a", "b"], "omega": None,
                                     "matrix": [[0, "nan"], ["nan", 0]]})

    def test_unknown_omega_label(self):
        with pytest.raises(ValidationError):
            mg.space_from_json_dict({"points": ["a", "b"], "omega": "zz",
                                     "matrix": [[0, 1], [1, 0]]})

    def test_boolean_cell_rejected(self):
        data = json.loads('{"points": ["a", "b"], "matrix": [[0, true], [true, 0]]}')
        with pytest.raises(ValidationError, match="matrix cell True is not a number or 'inf'"):
            mg.space_from_json_dict(data)

    def test_huge_integer_cell_rejected(self):
        big = 10 ** 400
        with pytest.raises(ValidationError, match="integer of 1329 bits") as exc:
            mg.space_from_json_dict({"points": ["a", "b"], "matrix": [[0, big], [big, 0]]})
        assert len(str(exc.value)) < 80

    def test_ragged_rows_named(self):
        with pytest.raises(ValidationError, match="matrix row 1 has 1 cells, row 0 has 2"):
            mg.space_from_json_dict({"points": ["a", "b"], "matrix": [[0, 1], [1]]})


def reference_text(space) -> str:
    return json.dumps(mg.space_to_json_dict(space), indent=2, sort_keys=True) + "\n"


# Labels that JSON escapes, and distances whose repr is not plain
LABELS = st.one_of(st.sampled_from(['"', "\\", "\u00e9", "\u2028", "\U0001d11e", 'a"b\\c']),
                   st.text(max_size=3))
DISTANCES = st.one_of(st.sampled_from([1e-300, 5e-324, 1e16, 0.1]),
                      st.floats(min_value=0.0, max_value=1e300))


def max_metric_space(labels, x, omega=None):
    """d(i, j) = max(x_i, x_j) off the diagonal is a metric for any x >= 0."""
    D = np.maximum.outer(x, x)
    np.fill_diagonal(D, 0.0)
    if omega is not None:
        D[omega, :] = D[:, omega] = INF
        D[omega, omega] = 0.0
    return mg.ExtendedMetricSpace(tuple(labels), D, omega)


@st.composite
def json_spaces(draw):
    labels = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
    n = len(labels)
    x = np.array(draw(st.lists(DISTANCES, min_size=n, max_size=n)))
    return max_metric_space(labels, x, draw(st.none() | st.integers(0, n - 1)))


class TestJsonChunks:
    @settings(max_examples=150, deadline=None)
    @given(json_spaces())
    def test_equals_json_dumps(self, space):
        assert "".join(mg.space_to_json_chunks(space)) == reference_text(space)

    @pytest.mark.parametrize("labels, x, omega", [
        (["a"], [0.0], None),
        (["omega"], [0.0], 0),
        (["omega", '"q"', "b\\", "\u00e9"], [0.0, 1e-300, 5e-324, 1e16], 0),
        (["a", "b", "c"], [0.1, 1e16, 5e-324], 2),
        (["a", "b", "c"], [0.1, 1e-300, 1.0], None),
    ])
    def test_edge_cases(self, labels, x, omega):
        space = max_metric_space(labels, np.array(x), omega)
        assert "".join(mg.space_to_json_chunks(space)) == reference_text(space)


class TestLabelIndex:
    def test_labels_resolve_to_their_position(self):
        labels = tuple(f"q{(7 * i) % 300}" for i in range(300))
        sp = mg.space_from_points(np.arange(300.0)[:, None], labels)
        assert [sp.index(lab) for lab in labels] == [labels.index(lab) for lab in labels]
        assert sp.index(17) == 17

    def test_unknown_label(self):
        sp = line_space_with_omega([0.0, 1.0])
        with pytest.raises(KeyError) as exc:
            sp.index("zz")
        assert exc.value.args == ("unknown point label 'zz'",)


class TestSampledTriangleCheck:
    def test_chunks_draw_the_one_shot_triples(self, monkeypatch):
        # d = 1 off the diagonal except d(a, b) = 2.5: a sampled triple fails
        # exactly when its first two points are a and b and its third is not
        m = 300
        rng = np.random.default_rng(spaces._TRIANGLE_SAMPLE_SEED)
        i, j, k = rng.integers(0, m, size=(spaces._SAMPLED_TRIANGLES, 3)).T
        fails = (i != j) & (k != i) & (k != j)
        pairs, first = np.unique((np.minimum(i, j) * m + np.maximum(i, j))[fails],
                                 return_index=True)
        first = np.flatnonzero(fails)[first]
        late = first >= spaces._TRIANGLE_CHUNK
        a, b = divmod(int(pairs[late][np.argmin(first[late])]), m)
        D = np.ones((m, m)) - np.eye(m)
        D[a, b] = D[b, a] = 2.5
        labels = [f"p{x}" for x in range(m)]
        bad = D[i, j] > D[i, k] + D[k, j] + 1e-9
        r = int(np.argmax(bad))
        assert r >= spaces._TRIANGLE_CHUNK
        expected = (f"triangle inequality fails: "
                    f"d({labels[i[r]]},{labels[j[r]]}) > via {labels[k[r]]}")
        for chunk in (spaces._TRIANGLE_CHUNK, 7):
            monkeypatch.setattr(spaces, "_TRIANGLE_CHUNK", chunk)
            with pytest.raises(ValidationError) as exc:
                mg.ExtendedMetricSpace(tuple(labels), D)
            assert str(exc.value) == expected
