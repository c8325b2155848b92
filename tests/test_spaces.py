"""Core spaces: validation, cross-ratio triples, Ptolemy scans, line embedding."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebiusgeo as mg
from moebiusgeo import spaces
from moebiusgeo.errors import NotPtolemyError, ValidationError

from helpers import (brute_force_line_embedding, per_cell, reference_crt_deviation,
                     reference_first_violation, reference_ptolemy_scan,
                     reference_validation)

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

    def test_overflowing_asymmetry_rejected(self):
        # d(a, b) - d(b, a) overflows to inf: an asymmetry, not a RuntimeWarning
        with pytest.raises(ValidationError) as exc:
            mg.ExtendedMetricSpace(("a", "b"), [[0, 1.7e308], [-1e308, 0]], eps=1.0)
        assert str(exc.value) == "distance matrix is not symmetric"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            mg.ExtendedMetricSpace(("a", "a"), np.zeros((2, 2)))

    def test_valid_extended_space(self):
        sp = line_space_with_omega([0.0, 1.0, 3.0])
        assert sp.omega == 3
        assert sp.labels[sp.omega] == "omega"
        assert np.isinf(sp.dist[0, 3])

    def test_only_p_1_and_2(self):
        with pytest.raises(ValueError, match="only p=1 and p=2 are supported"):
            mg.space_from_points([[0.0], [1.0]], p=3.0)


def _triple(**cells):
    """The equilateral space on a, b, c with the given cells changed, e.g.
    ``ab=2.0`` sets d(a, b) only and ``ab_ba=2.0`` both d(a, b) and d(b, a)."""
    D = np.ones((3, 3)) - np.eye(3)
    for name, value in cells.items():
        for pair in name.split("_"):
            D["abc".index(pair[0]), "abc".index(pair[1])] = value
    return D


def _fault(key, labels, D, omega, message):
    """A case of one fault.  Its id is the one pytest once numbered by the
    case's position; ``key`` keeps that number, so a new case takes a new key
    and renames no other."""
    return pytest.param(labels, D, omega, message,
                        id=f"{labels or 'labels0'}-{key}-{omega}-{message}")


class TestValidationMessages:
    """Each fault with its exact message, and which of two faults is named."""

    @pytest.mark.parametrize("labels, D, omega, message", [
        _fault("D0", (), np.zeros((0, 0)), None, "a space needs at least one point"),
        _fault("D1", "aa", np.zeros((2, 2)), None, "point labels must be unique"),
        _fault("D2", "ab", np.zeros((2, 3)), None,
               "distance matrix shape (2, 3) does not match 2 labels"),
        _fault("D3", "abc", _triple(ab=np.nan), None, "distance matrix contains NaN"),
        _fault("D4", "abc", _triple(bc_cb=-0.5), None, "negative distance at (b, c)"),
        _fault("D5", "abc", _triple(ab=INF), None, "infinity pattern is not symmetric"),
        _fault("D6", "abc", _triple(ab=1.5), None, "distance matrix is not symmetric"),
        _fault("D7", "abc", _triple(bb=0.5), None, "diagonal entries must vanish"),
        _fault("D8", "abc", _triple(), 3, "omega index 3 out of range"),
        _fault("D9", "abc", _triple(), -1, "omega index -1 out of range"),
        _fault("D10", "abc", _triple(), 2,
               "omega must be at infinite distance from every other point"),
        _fault("D11", "abc", _triple(ac_ca=INF), None,
               "infinite distance between finite points (a, c)"),
        _fault("D12", "abcd", np.array([[0.0, 1.0, INF, INF], [1.0, 0.0, 1.0, INF],
                                        [INF, 1.0, 0.0, INF], [INF, INF, INF, 0.0]]), 3,
               "infinite distance between finite points (a, c)"),
        _fault("D13", "abc", _triple(ab_ba=3.0), None,
               "triangle inequality fails: d(a,b) > d(a,c) + d(c,b)"),
    ])
    def test_single_fault(self, labels, D, omega, message):
        with pytest.raises(ValidationError) as exc:
            mg.ExtendedMetricSpace(tuple(labels), D, omega)
        assert str(exc.value) == message

    @pytest.mark.parametrize("labels, D, omega, message", [
        _fault("D0", "aa", np.zeros((2, 3)), None, "point labels must be unique"),
        _fault("D1", "ab", np.full((2, 3), np.nan), None,
               "distance matrix shape (2, 3) does not match 2 labels"),
        _fault("D2", "abc", _triple(ab=np.nan, bc_cb=-0.5), None, "distance matrix contains NaN"),
        _fault("D3", "abc", _triple(ab=INF, bc_cb=-0.5), None, "negative distance at (b, c)"),
        _fault("D4", "abc", _triple(ab=-INF), None, "negative distance at (a, b)"),
        _fault("D5", "abc", _triple(ab=INF, bc=1.5), None, "infinity pattern is not symmetric"),
        _fault("D6", "abc", _triple(ab=1.5, cc=0.5), None, "distance matrix is not symmetric"),
        _fault("D7", "abc", _triple(cc=0.5), 7, "diagonal entries must vanish"),
        _fault("D8", "abc", _triple(ab_ba=INF), 2,
               "omega must be at infinite distance from every other point"),
        _fault("D9", "abc", _triple(ab_ba=INF, bc_cb=3.0), None,
               "infinite distance between finite points (a, b)"),
        _fault("D10", "abc", _triple(ab_ba=-0.5, bc_cb=3.0), None, "negative distance at (a, b)"),
        _fault("D11", "abc", _triple(ab=1.5, bc_cb=3.0), None, "distance matrix is not symmetric"),
    ])
    def test_first_fault_is_named(self, labels, D, omega, message):
        with pytest.raises(ValidationError) as exc:
            mg.ExtendedMetricSpace(tuple(labels), D, omega)
        assert str(exc.value) == message

    def test_slack_within_tolerance_is_absorbed(self):
        # a negative entry, an asymmetry and a diagonal entry, each within tol
        sp = mg.ExtendedMetricSpace(tuple("abc"), _triple(ab=1.0 + 1e-10, bc_cb=-0.0, cc=1e-10,
                                                          ac_ca=1.0 - 1e-10))
        assert sp.dist[0, 1] == sp.dist[1, 0] == (2.0 + 1e-10) / 2.0
        assert sp.dist[2, 2] == 0.0 and np.signbit(sp.dist).sum() == 0
        sp = mg.ExtendedMetricSpace(("a", "b"), np.array([[0.0, -1e-10], [-1e-10, 0.0]]))
        assert sp.dist.tolist() == [[0.0, 0.0], [0.0, 0.0]] and sp.scale == 0.0

    def test_triangle_pass_runs_at_the_stored_tol(self):
        # averaging d(a,b) lowers the largest entry from 10.01 to 10, so the
        # stored tol is 0.1, below the excess 0.10005 of the triangle abc
        D = np.array([[0.0, 10.01, 5.0], [9.99, 0.0, 4.89995], [5.0, 4.89995, 0.0]])
        with pytest.raises(ValidationError) as exc:
            mg.ExtendedMetricSpace(tuple("abc"), D, eps=1e-2)
        assert str(exc.value) == "triangle inequality fails: d(a,b) > d(a,c) + d(c,b)"
        assert exc.value.witness == ("a", "b", "c")
        assert exc.value.residual > 0.1


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.tobytes()


@st.composite
def raw_matrices(draw):
    """A labelled matrix that is a metric (or, with a remote point anywhere, an
    extended metric) at one of several scales, with up to three faults: an
    asymmetry, a negative entry or a diagonal entry just below, at or just
    above the tolerance, a -0.0, an inf, -inf or NaN cell, a pair beyond half
    the largest float, or an omega index out of range.  An eps of inf or NaN
    is rejected, as is a negative one."""
    n = draw(st.integers(1, 6))
    eps = draw(st.sampled_from([1e-9, 1e-3, 0.25, 0.0, INF, math.nan, -1e-9]))
    scale = draw(st.sampled_from([1.0, 3.0, 2.0 ** -40, 1e-300, 1e300, 1.2e308]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = rng.standard_normal((n, 2))
    D = np.sqrt(((P[:, None] - P) ** 2).sum(-1))
    D *= scale / max(D.max(), 1.0)
    omega = draw(st.none() | st.integers(-1, n))
    if omega is not None and 0 <= omega < n and draw(st.booleans()):
        D[omega, :] = D[:, omega] = INF
        D[omega, omega] = 0.0
    # a fault at 1.2e308 may overflow, and an asymmetry of inf added to a
    # -inf cell makes a NaN cell
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            finite = D[np.isfinite(D)]
            tol = min(eps, 1.0) * max(finite.max(initial=0.0), 1.0)
            near = tol * draw(st.sampled_from([1.0, 1.0 - 2.0 ** -30, 1.0 + 2.0 ** -30, 0.5, 2.0]))
            fault = draw(st.sampled_from(["asym", "neg", "negpair", "diag", "zero", "inf",
                                          "infpair", "neginf", "nan", "huge"]))
            if fault == "asym":
                D[i, j] = D[j, i] + near
            elif fault == "neg":
                D[i, j] = -near
            elif fault == "negpair":
                D[i, j] = D[j, i] = -near
            elif fault == "diag":
                D[i, i] = near
            elif fault == "zero":
                D[i, j] = -0.0
            elif fault == "inf":
                D[i, j] = INF
            elif fault == "infpair":
                D[i, j] = D[j, i] = INF
            elif fault == "neginf":
                D[i, j] = -INF
            elif fault == "nan":
                D[i, j] = np.nan
            else:
                D[i, j] = D[j, i] = 1.7e308
    return tuple(f"p{i}" for i in range(n)), D, omega, eps


def assert_matches_reference(labels, D, omega=None, eps=1e-9):
    """The constructor raises the reference's message, or stores its
    bit-identical dist, scale and tol and leaves its triangle pass pending
    on the same submatrix, labels and tolerance; neither writes to ``D``."""
    given_bits = _bits(D)
    with np.errstate(over="ignore"):
        try:
            expected = reference_validation(labels, D, omega, eps)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                mg.ExtendedMetricSpace(labels, D, omega, eps=eps)
            assert str(got.value) == str(exc)
            assert _bits(D) == given_bits
            return
        with spaces._triangle_deferred():
            sp = mg.ExtendedMetricSpace(labels, D, omega, eps=eps)
            pending = sp._triangle
            vars(sp)["_triangle"] = None  # the reference judges the pass
    dist, scale, tol, (sub, finite_labels, check_tol) = expected
    assert _bits(sp.dist) == _bits(dist) and not sp.dist.flags.writeable
    assert sp.scale.hex() == scale.hex() and sp.tol.hex() == tol.hex()
    assert _bits(pending[0]) == _bits(sub) and pending[1] == finite_labels
    assert sp.tol.hex() == check_tol.hex()
    assert _bits(D) == given_bits


class TestValidationReference:
    """The constructor against the checks written out one mask at a time."""

    @settings(max_examples=600, deadline=None)
    @given(raw_matrices())
    def test_matches_reference(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("D, omega", [
        # exactly symmetric beyond half the largest float: d + d overflows
        (np.array([[0.0, 1.7e308], [1.7e308, 0.0]]), None),
        (np.array([[0.0, 1.0, 1.7e308], [1.0, 0.0, 1.7e308], [1.7e308, 1.7e308, 0.0]]), 2),
        # the largest entry on the diagonal, within tolerance
        (np.array([[1e-10, 1e-11], [1e-11, 0.0]]), None),
        # the largest entry moves when the pair is averaged
        (np.array([[0.0, 2.0 + 1e-9], [2.0, 0.0]]), None),
        (np.array([[-0.0, -0.0], [-0.0, -0.0]]), None),
        (np.array([[0.0, INF], [INF, 0.0]]), 1),
    ], ids=["D0-None", "D1-2", "D2-None", "D3-None", "D4-None", "D5-1"])
    def test_stored_scale_edges(self, D, omega):
        assert_matches_reference(tuple("abc"[:len(D)]), D, omega)

    # an eps of inf or NaN would turn every check off, and a negative one
    # would reject every matrix as a negative distance
    @pytest.mark.parametrize("eps", [INF, math.nan, -1.0])
    @pytest.mark.parametrize("D, omega", [
        (np.array([[0.0, 1.0, -INF], [1.0, 0.0, INF], [INF, INF, 0.0]]), 2),
        (np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), None),
    ], ids=["D0-2", "D1-None"])
    def test_non_finite_eps_rejected(self, D, omega, eps):
        with pytest.raises(ValidationError, match=f"^eps must be finite and nonnegative, not {eps}$"):
            mg.ExtendedMetricSpace(tuple("abc"[:len(D)]), D, omega, eps=eps)

    def test_symmetrizing_beyond_half_the_largest_float_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            sp = mg.ExtendedMetricSpace(("a", "b"), np.array([[0.0, 1.7e308], [1.7e308, 0.0]]))
            assert sp.scale == 1.7e308 and sp.dist[0, 1] == 1.7e308 and sp.tol == 1e-9 * 1.7e308
            D = np.array([[0.0, 1.0, 1.7e308], [1.0, 0.0, 1.7e308], [1.7e308, 1.7e308, 0.0]])
            with pytest.raises(ValidationError, match="^omega must be at infinite distance"):
                mg.ExtendedMetricSpace(tuple("abc"), D, 2)


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


class TestUnitRemote:
    """The search mode of ``_unit_remote`` and its mode for the matrix of a
    space (the space's ``scale`` and remote point) give the same bits."""

    @pytest.mark.parametrize("kind", mg.spheres.SAMPLE_KINDS)
    def test_modes_agree(self, kind):
        cases = 0
        for n, seed in itertools.product((1, 2, 3), range(5)):
            sp = mg.sample_space(kind, n=n, count=9, seed=seed)
            family = [sp]
            if kind != "l1":  # not Ptolemy: its inversions are refused
                family += [mg.invert_at(sp, z) for z in ("p0", "p4", "p7")]
            for space, k in itertools.product(family, (0, 600, -600)):
                scaled = mg.ExtendedMetricSpace(space.labels, np.ldexp(space.dist, k),
                                                space.omega, space.eps)
                search = spaces._unit_remote(scaled.dist)
                known = spaces._unit_remote(scaled.dist, scaled.scale, scaled.omega)
                assert search.tobytes() == known.tobytes()
                cases += 1
        assert cases == (45 if kind == "l1" else 180)


class TestClassify:
    def test_center_interior(self):
        t = mg.CrossRatioTriple(1 / 3, 1 / 3, 1 / 3)
        assert t.region() == "interior"

    def test_corner_boundary(self):
        assert mg.CrossRatioTriple(0.0, 0.5, 0.5).region() == "boundary"

    def test_outside(self):
        assert mg.CrossRatioTriple(0.6, 0.2, 0.2).region() == "outside"

    def test_equality_case_is_boundary(self):
        assert mg.CrossRatioTriple(0.5, 0.25, 0.25).region() == "boundary"

    @pytest.mark.parametrize("entries, message", [
        ((-0.1, 0.6, 0.5), "cross-ratio entries must be nonnegative: (-0.1, 0.6, 0.5)"),
        ((0.5, 0.5, 0.5), "cross-ratio entries must sum to 1: (0.5, 0.5, 0.5)"),
        ((math.nan, 0.5, 0.5), "cross-ratio entries must sum to 1: (nan, 0.5, 0.5)"),
        ((0.5, math.nan, 0.5), "cross-ratio entries must sum to 1: (0.5, nan, 0.5)"),
    ], ids=["negative", "sum", "nan-first", "nan-second"])
    def test_entries_refused(self, entries, message):
        with pytest.raises(ValidationError) as exc:
            mg.CrossRatioTriple(*entries)
        assert str(exc.value) == message

    def test_a_quadruple_has_four_points(self):
        sp = line_space_with_omega([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="a quadruple needs exactly four points"):
            mg.crt(sp, (0, 1, 2))


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
        assert mg.line_embed(
            mg.space_from_points(np.array([0.0, 0.7, 1.9, 2.4])[:, None])
        ) is not None


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
            assert embedded == (brute_force_line_embedding(sp.dist, sp.tol) is not None)

    def test_menger_four_cycle(self):
        # unit sides and diagonals 2: every triple attains triangle equality,
        # yet the four points do not embed in a line (nor satisfy Ptolemy)
        D = np.array([[0.0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
        sp = mg.ExtendedMetricSpace(("a", "b", "c", "d"), D)
        for tri in itertools.combinations(range(4), 3):
            a, b, c = sorted(D[i, j] for i, j in itertools.combinations(tri, 2))
            assert a + b == c
        assert mg.line_embed(sp) is None
        assert brute_force_line_embedding(sp.dist, sp.tol) is None
        assert not mg.is_ptolemy(sp).holds

    def test_omega_rejected(self):
        sp = line_space_with_omega([0.0, 1.0])
        with pytest.raises(ValueError):
            mg.line_embed(sp)

    def test_single_point(self):
        sp = mg.ExtendedMetricSpace(("a",), np.zeros((1, 1)))
        assert np.allclose(mg.line_embed(sp), [0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7), st.integers(-34, -27))
    def test_a_line_near_the_tolerance_embeds(self, xs, k):
        # the first point within tol of every other point no longer refuses the
        # line when some other pair lies farther apart than tol
        x = np.ldexp(np.array([0.0, *xs]), k)
        sp = mg.space_from_points(x[:, None])
        coords = mg.line_embed(sp)
        assert coords is not None
        assert np.abs(np.abs(np.subtract.outer(coords, coords)) - sp.dist).max() <= sp.tol


def count_passes(monkeypatch) -> list[int]:
    """The number of passes of each kernel scan run from now on."""
    passes = []
    kernel = spaces._quad_passes

    def counted(*mats, **options):
        passes.append(0)
        for item in kernel(*mats, **options):
            passes[-1] += 1
            yield item

    monkeypatch.setattr(spaces, "_quad_passes", counted)
    return passes


class TestScanTiling:
    def test_results_do_not_depend_on_block_size(self, monkeypatch):
        # 42 points span several passes at the default budget
        sp = mg.sample_space("sphere", n=3, count=42, seed=9)
        inv = mg.invert_at(sp, 0)
        # a perturbed inversion, so the deviation is no longer 0 and has one witness
        rng = np.random.default_rng(4)
        noise = rng.uniform(-1e-6, 1e-6, inv.dist.shape)
        bent = inv.dist * (1.0 + noise + noise.T)
        perm = np.arange(sp.n)
        passes = count_passes(monkeypatch)
        default = mg.is_ptolemy(sp), spaces.max_crt_deviation(sp.dist, None, bent, 0, perm)
        assert default[1][0] > 0.0 and default[1][1] is not None
        monkeypatch.setattr("moebiusgeo.spaces._BLOCK_ELEMENTS", 1)  # one row per pass
        fresh = mg.ExtendedMetricSpace(sp.labels, sp.dist)  # no stored report
        single = mg.is_ptolemy(fresh), spaces.max_crt_deviation(sp.dist, None, bent, 0, perm)
        assert single == default
        rows = sum(range(1, sp.n - 2))  # one pass per row a of each middle index b
        assert passes[0] == passes[1] > 1 and passes[2:] == [rows, rows]

    def test_tie_break_prefers_first_finite_subset(self, monkeypatch):
        # omega at index 0 and collinear integer points: every margin is exactly 0
        xs = np.arange(6.0)
        D = np.full((7, 7), INF)
        D[0, 0] = 0.0
        D[1:, 1:] = np.abs(xs[:, None] - xs[None, :])
        sp = mg.ExtendedMetricSpace(("omega",) + tuple("abcdef"), D, omega=0)
        passes = count_passes(monkeypatch)
        reports = [(sp, mg.is_ptolemy(sp))]
        monkeypatch.setattr("moebiusgeo.spaces._BLOCK_ELEMENTS", 1)  # ties across passes
        fresh = mg.ExtendedMetricSpace(sp.labels, D, omega=0)  # no stored report
        reports.append((fresh, mg.is_ptolemy(fresh)))
        assert passes == [1, sum(range(1, sp.n - 2))]  # all subsets at once, then a row a time
        for space, report in reports:
            assert report.holds and report.worst_margin == 0.0
            assert report.worst_quad == ("a", "b", "c", "d")
            assert report.n_checked == math.comb(6, 4) + math.comb(6, 3)
            assert mg.circle_quadruple_census(space) == (report.n_boundary, report.n_checked)


class TestOneScan:
    def test_census_reuses_the_scan(self, monkeypatch):
        passes = []
        kernel = spaces._quad_passes
        monkeypatch.setattr(spaces, "_quad_passes",
                            lambda *m, **options: passes.append(m) or kernel(*m, **options))
        sp = mg.sample_space("l1", n=2, count=12, seed=3)
        report = mg.is_ptolemy(sp)
        assert mg.circle_quadruple_census(sp) == (report.n_boundary, report.n_checked)
        assert mg.is_ptolemy(sp) is report
        assert len(passes) == 1


@st.composite
def scan_spaces(draw, n=None):
    """4-20 points, the remote point at any index or none: Gaussian points,
    distinct integers on a line (every margin ties at 0), a 2x2 grid with
    repeated points (a pseudometric: some subsets have all products 0) and
    integer l1 points (not Ptolemy)."""
    n = draw(st.integers(4, 20)) if n is None else n
    omega = draw(st.none() | st.integers(0, n - 1))
    kind = draw(st.sampled_from(["normal", "line", "grid", "l1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = n - (omega is not None)
    P = {"normal": lambda: rng.standard_normal((m, 3)),
         "line": lambda: rng.permutation(3 * m)[:m, None].astype(float),
         "grid": lambda: rng.integers(0, 2, (m, 2)).astype(float),
         "l1": lambda: rng.integers(0, 5, (m, 2)).astype(float)}[kind]()
    D = np.abs(P[:, None] - P[None]).sum(-1) if kind == "l1" else np.sqrt(
        ((P[:, None] - P[None]) ** 2).sum(-1))
    return with_remote(D, omega)


def with_remote(D, omega):
    """The space of the finite matrix ``D`` with a remote point inserted at
    index ``omega`` (none for None), labeled p0, p1, ..."""
    if omega is not None:
        D = np.insert(np.insert(D, omega, INF, axis=0), omega, INF, axis=1)
        D[omega, omega] = 0.0
    return mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(len(D))), D, omega)


@st.composite
def space_pairs(draw):
    """Two spaces of one size and a permutation between them."""
    first = draw(scan_spaces())
    second = draw(scan_spaces(first.n))
    return first, second, np.asarray(draw(st.permutations(range(first.n))))


class TestKernelReference:
    """The kernel against a brute-force scan over itertools.combinations, at
    budgets that split every pass, split it oddly, or group all of it."""

    @settings(max_examples=100, deadline=None)
    @given(space_pairs())
    def test_matches_brute_force(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("points, omega", [
        # (p0, p4, p5, p6) is the first worst subset; a pass before its own
        # holds the tie (p2, p3, p5, p6)
        ([(1, 0), (2, 0), (0, 2), (1, 2), (0, 0), (1, 1), (0, 1)], None),
        # (p1, p2, p3, p0) with the remote point p0 ties the first worst
        # subset (p1, p2, p4, p5) and comes before it in its pass
        ([(2, 2), (2, 1), (2, 0), (0, 1), (1, 1)], 0),
        # (p0, p1, p2, p5) with the remote point p5 last ties the first worst
        # subset (p0, p1, p3, p4) and comes before it in lexicographic order
        ([(0, 1), (1, 1), (1, 0), (2, 2), (1, 2)], 5),
    ], ids=["points0-None", "points1-0", "points2-5"])
    def test_ties_of_l1_points(self, points, omega):
        P = np.array(points, dtype=float)
        sp = with_remote(np.abs(P[:, None] - P[None]).sum(-1), omega)
        self.check(sp, sp, np.arange(sp.n))

    @pytest.mark.parametrize("n", [18, 19])
    @pytest.mark.parametrize("apart", [0, 3])
    def test_ties_of_collinear_points_with_the_remote_point_last(self, n, apart):
        # n - 1 points on two parallel lines, ``apart`` of them on the first,
        # then the remote point.  Every subset of four points of the second
        # line and every subset of three collinear points and the remote
        # point ties at margin 0, and all others are below -1e-5.  With
        # apart = 0 every margin ties; with apart = 3 the tie (p0, p1, p2,
        # omega) comes first in lexicographic order, and the witness is
        # (p3, p4, p5, p6).  18 points are the largest space scanned in one
        # pass at the default budget, 19 the smallest scanned in several.
        P = [(x, 0.0) for x in (0.0, 1.0, 3.0)[:apart]] + [(10.0 + i, 5.0)
                                                           for i in range(n - 1 - apart)]
        sp = mg.space_from_points(P, add_omega=True)
        assert sp.omega == n - 1 and spaces._one_pass(n) == (n == 18)
        self.check(sp, sp, np.arange(n))

    @pytest.mark.parametrize("n", [8, 18, 19])
    @pytest.mark.parametrize("at", ["none", "first", "middle", "last"])
    def test_coincident_points_whose_products_all_vanish(self, n, at):
        # p0 = p1 = p2 and the last three finite points coincide, so every
        # subset holding three of them has three products 0 and margin -0.5,
        # outside n_boundary.  At the default budget 8 and 18 points take the
        # one-pass kernel and 19 the multi-pass one; budgets 1 and 7 split all.
        m = n - (at != "none")
        P = np.random.default_rng(n).standard_normal((m, 2))
        P[1] = P[2] = P[0]
        P[m - 2] = P[m - 1] = P[m - 3]
        omega = {"none": None, "first": 0, "middle": m // 2, "last": m}[at]
        sp = with_remote(np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1)), omega)
        assert spaces._one_pass(n) == (n <= 18)
        finite = [sp.labels[i] for i in sp.finite_indices]
        with pytest.raises(ValidationError, match="all cross-ratio products vanish"):
            mg.crt(sp, finite[:4])
        self.check(sp, sp, np.arange(n))

    @pytest.mark.parametrize("n, omega", [(8, None), (18, "last"), (19, 0)])
    def test_products_below_the_normal_range(self, n, omega):
        # an l1 square of side 2^-530 at the origin (each of its points at
        # distance |x| from a Euclidean point x): the products of the square
        # are subnormal and its margin, 4/6 - 1/2, is the worst, so its sums
        # must be divided as they are
        m = n - (omega is not None)
        far = np.random.default_rng(m).standard_normal((m - 4, 2))
        D = np.zeros((m, m))
        D[:4, :4] = np.ldexp([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], -530)
        D[4:, 4:] = np.sqrt(((far[:, None] - far[None]) ** 2).sum(-1))
        D[:4, 4:] = np.sqrt((far ** 2).sum(-1))
        D[4:, :4] = D[:4, 4:].T
        sp = with_remote(D, m if omega == "last" else omega)
        report = mg.is_ptolemy(sp)
        square = tuple(sp.labels[i] for i in sp.finite_indices[:4])
        assert (report.worst_margin, report.worst_quad) == (4 / 6 - 0.5, square)
        self.check(sp, sp, np.arange(n))

    @pytest.mark.parametrize("n", [6, 19])
    @pytest.mark.parametrize("omega", [None, 0, 3])
    def test_every_point_coincides(self, n, omega):
        # every margin is -0.5: the witness is the first subset of finite points
        m = n - (omega is not None)
        sp = with_remote(np.zeros((m, m)), omega)
        self.check(sp, sp, np.arange(n))
        report = mg.is_ptolemy(sp)
        finite = [sp.labels[i] for i in sp.finite_indices]
        assert (report.worst_margin, report.worst_quad, report.n_boundary) == (
            -0.5, tuple(finite[:4]), 0)

    @staticmethod
    def check(sp, other, perm):
        margin, witness, boundary = reference_ptolemy_scan(sp)
        deviation = reference_crt_deviation(sp.dist, other.dist, perm)
        checked = math.comb(len(sp.finite_indices), 4) + (
            math.comb(len(sp.finite_indices), 3) if sp.omega is not None else 0)
        for budget in (1, 7, spaces._BLOCK_ELEMENTS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spaces, "_BLOCK_ELEMENTS", budget)
                fresh = mg.ExtendedMetricSpace(sp.labels, sp.dist, sp.omega)
                assert mg.is_ptolemy(fresh) == mg.PtolemyReport(
                    margin <= sp.eps, witness, margin, checked, boundary)
                assert mg.circle_quadruple_census(fresh) == (boundary, checked)
                assert spaces.max_crt_deviation(
                    sp.dist, sp.omega, other.dist, other.omega, perm) == deviation


@st.composite
def correspondences(draw):
    """A scan space, its inversion at a point (the space itself where that
    fails), perhaps perturbed so that no conformal factor fits, and a
    permutation of the target's rows."""
    sp = draw(scan_spaces())
    try:
        target = mg.invert_at(sp, draw(st.integers(0, sp.n - 1)))
    except (ValueError, NotPtolemyError):  # coincident points, or not Ptolemy
        target = sp
    if draw(st.booleans()):
        noise = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
            -1e-6, 1e-6, (sp.n, sp.n))
        D = target.dist * (1.0 + (noise + noise.T))  # exactly symmetric; inf stays inf
        target = mg.ExtendedMetricSpace(target.labels, D, target.omega, eps=1e-3)
    return sp, target, np.asarray(draw(st.permutations(range(sp.n))))


class TestIdentityCorrespondence:
    """The identity correspondence skips the relabelling of the target; its
    report equals the one of the same target with permuted rows and labels."""

    @settings(max_examples=100, deadline=None)
    @given(correspondences())
    def test_matches_a_permuted_target(self, case):
        sp, target, perm = case
        omega = None if target.omega is None else int(np.argsort(perm)[target.omega])
        shuffled = mg.ExtendedMetricSpace(tuple(target.labels[i] for i in perm),
                                          target.dist[np.ix_(perm, perm)], omega, eps=target.eps)
        identity = mg.PointedCorrespondence.identity(sp, target)
        relabelled = mg.PointedCorrespondence(sp, shuffled, {lab: lab for lab in sp.labels})
        assert identity.is_identity()
        assert mg.crt_equivalent(identity) == mg.crt_equivalent(relabelled)


class TestScanMemory:
    def test_peak_is_bounded_at_128_points(self):
        g = np.random.default_rng(128).standard_normal((128, 3))
        sp = mg.space_from_points(g / np.linalg.norm(g, axis=1)[:, None])
        tracemalloc.start()
        try:
            mg.is_ptolemy(sp)
            scan_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            spaces.max_crt_deviation(sp.dist, None, sp.dist, None, np.arange(sp.n))
            deviation_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan_peak <= 8 * 2 ** 20
        assert deviation_peak <= 8 * 2 ** 20

    def test_one_layout_per_size(self):
        # a space of 10 points and one of 9 points and the remote point share
        # the single-pass layout of 10 points
        rng = np.random.default_rng(10)
        spaces._one_pass_layout.cache_clear()
        mg.is_ptolemy(mg.space_from_points(rng.standard_normal((10, 2))))
        mg.is_ptolemy(mg.space_from_points(rng.standard_normal((9, 2)), add_omega=True))
        assert spaces._one_pass_layout.cache_info().currsize == 1


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


class TestPointsAtEveryScale:
    """Squared coordinate differences used to underflow below about 1e-154
    and overflow above about 1e154: six points 1e-300 apart read as one
    point, and at 1e200 the build failed with an overflow warning."""

    @pytest.mark.parametrize("spacing", [1e-300, 1e-160, 1e200])
    def test_collinear_distances_are_exact(self, spacing):
        x = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0]) * spacing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = mg.space_from_points(x[:, None], add_omega=True)
        # sqrt(fl(d * d)) = |d| whenever d * d neither overflows nor underflows
        assert sp.dist[:6, :6].tobytes() == np.abs(np.subtract.outer(x, x)).tobytes()
        assert sp.scale == spacing

    @pytest.mark.parametrize("shift", [-1000, -600, -481, 481, 600, 900])
    def test_power_of_two_scaling_is_exact(self, shift):
        P = np.random.default_rng(4).standard_normal((7, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = mg.space_from_points(np.ldexp(P, shift))
        assert scaled.dist.tobytes() == np.ldexp(mg.space_from_points(P).dist, shift).tobytes()


class TestPointsShape:
    """Coordinates are rows: rows of rows stored a (4, 4, 1) matrix, on which
    is_ptolemy checked one quadruple and invert_at failed, and [] read as one
    point with no coordinate."""

    @pytest.mark.parametrize("points, message", [
        pytest.param([[[0, 0]], [[1, 1]], [[2, 5]], [[3, 1]]],
                     r"coordinate rows, not an array of shape \(4, 1, 2\)", id="rows-of-rows"),
        pytest.param(np.zeros((2, 1, 1)), r"coordinate rows, not an array of shape \(2, 1, 1\)",
                     id="3-d-array"),
        pytest.param([], "a space needs at least one point", id="empty-list"),
        pytest.param(np.zeros((0, 3)), "a space needs at least one point", id="zero-rows"),
    ])
    def test_refused(self, points, message):
        with pytest.raises(ValidationError, match=message):
            mg.space_from_points(points)

    @pytest.mark.parametrize("points, add_omega, labels", [
        pytest.param([1.0, 2.0], False, ("p0",), id="1-d-is-one-row"),
        pytest.param([], True, ("omega",), id="empty-list-with-omega"),
        pytest.param(np.zeros((0, 3)), True, ("omega",), id="zero-rows-with-omega"),
    ])
    def test_kept(self, points, add_omega, labels):
        assert mg.space_from_points(points, add_omega=add_omega).labels == labels


class TestNumericInput:
    """Arrays from outside hold numbers: strings and booleans built a space
    silently (("0", "0") and ("3", "4") at distance 5), ragged rows and letters
    raised numpy's own ValueError, a complex cell a bare TypeError, and None
    read as NaN."""

    @pytest.mark.parametrize("points, message", [
        pytest.param([["0", "0"], ["3", "4"]], "points must hold numbers, not strings",
                     id="strings"),
        pytest.param([[True, False], [False, True]], "points must hold numbers, not booleans",
                     id="booleans"),
        pytest.param([[0, 0], [1]], "points must be rows of one length", id="ragged"),
        pytest.param([["a", "b"]], "points must hold numbers, not strings", id="letters"),
        pytest.param([[1j, 0], [0, 0]], "points must hold numbers, not complex numbers",
                     id="complex"),
        pytest.param([[None, 0], [0, 0]], "points must hold numbers, not None", id="none"),
        pytest.param([[b"1", 0], [0, 0]], "points must hold numbers, not strings", id="bytes"),
        pytest.param([[0, 10 ** 400], [0, 0]], "points must hold numbers that fit a float",
                     id="int-beyond-the-float-range"),
    ])
    def test_points_refused(self, points, message):
        with pytest.raises(ValidationError, match=message):
            mg.space_from_points(points)

    @pytest.mark.parametrize("matrix, message", [
        pytest.param([["0", "1"], ["1", "0"]], "distance matrix must hold numbers, not strings",
                     id="strings"),
        pytest.param([[False, True], [True, False]],
                     "distance matrix must hold numbers, not booleans", id="booleans"),
        pytest.param([[0, 1], [1]], "distance matrix must be rows of one length", id="ragged"),
    ])
    def test_matrix_refused(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            mg.ExtendedMetricSpace(("a", "b"), matrix)

    @pytest.mark.parametrize("build, distance", [
        pytest.param(lambda: mg.ExtendedMetricSpace(("a", "b"), [[0, 10 ** 30], [10 ** 30, 0]]),
                     1e30, id="wide-ints-in-a-matrix"),
        pytest.param(lambda: mg.space_from_points([[0], [10 ** 30]]), 1e30,
                     id="wide-ints-as-coordinates"),
        pytest.param(lambda: mg.space_from_points([[True, 4.0], [0, 0]]), math.sqrt(17.0),
                     id="booleans-among-floats-are-numbers"),
    ])
    def test_numbers_kept(self, build, distance):
        assert build().dist[0, 1] == distance

    def test_a_float_array_is_not_copied(self):
        # as the CLI hands the constructor the array its reader converted
        M = np.zeros((3, 3))
        assert spaces._float_array(M, "distance matrix") is M
        assert spaces._checked_input(("a", "b", "c"), M, 1e-9)[2] is M


class TestPointsAtTheFloatLimits:
    """Under the suite's RuntimeWarning filter, an infinite coordinate raised
    "invalid value encountered in subtract", and a difference beyond the
    largest float "overflow encountered in subtract"."""

    @pytest.mark.parametrize("points, p, message", [
        pytest.param([[math.inf, 0.0], [0.0, 0.0]], 2.0, "distance matrix contains NaN",
                     id="inf-coordinate"),
        pytest.param([[0.0, 0.0], [0.0, -math.inf]], 1.0, "distance matrix contains NaN",
                     id="minus-inf-coordinate-l1"),
        pytest.param([[0.0, 0.0], [math.nan, 0.0]], 2.0, "distance matrix contains NaN",
                     id="nan-coordinate"),
        pytest.param([[1e308], [-1e308]], 2.0,
                     r"infinite distance between finite points \(p0, p1\)", id="overflow-l2"),
        pytest.param([[1e308], [-1e308]], 1.0,
                     r"infinite distance between finite points \(p0, p1\)", id="overflow-l1"),
        pytest.param([[1e308], [-1e308], [0.0]], 2.0,
                     r"infinite distance between finite points \(p0, p1\)",
                     id="overflow-beside-a-finite-square"),
    ])
    def test_refused(self, points, p, message):
        with pytest.raises(ValidationError, match=message):
            mg.space_from_points(points, p=p)


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
        assert mg.curve_from_segment(sp).eps == 1e-6
        assert sp.tol == 1e-6 * sp.scale

    def test_dist_is_read_only(self):
        sp = _loose_line()
        with pytest.raises(ValueError):
            sp.dist[0, 1] = 1.0
        assert sp.dist[0, 1] == 1.0

    # the number in each case's id is pinned, so a case keeps its test name
    # when another case is added or removed
    @pytest.mark.parametrize("name, args", [pytest.param(name, args, id=f"{name}-args{k}")
                                            for k, name, args in [
        (0, "is_ptolemy", ()),
        (1, "circle_quadruple_census", ()),
        (2, "is_circle_quadruple", ((0, 1, 2, 3),)),
        (3, "line_embed", ()),
        (5, "crt", ((0, 1, 2, 3),)),
        (6, "invert_at", (0,)),
        (7, "bound_at", (0,)),
        (8, "curve_from_segment", ()),
        (9, "curve_from_circle", ()),
        (10, "segment_moebius_map", ((0, 1, 5), None, (0, 1, 5))),
        (11, "circle_moebius_map", ((0, 1, 2), None, (0, 1, 2))),
    ]])
    def test_no_per_call_eps(self, name, args):
        sp = _loose_line()
        args = tuple(sp if a is None else a for a in args)
        with pytest.raises(TypeError, match="eps"):
            getattr(mg, name)(sp, *args, eps=1e-6)

    # the functions that take an eps argument refuse one as a space does
    @pytest.mark.parametrize("eps", [INF, math.nan, -1.0])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda eps: mg.CrossRatioTriple(1.0, 0.0, 0.0).region(eps), id="region"),
        pytest.param(lambda eps: mg.wedge_contains(mg.WedgeRegion((1, 0), (0, 1)), (100.0, -50.0),
                                                   eps=eps), id="wedge_contains"),
        pytest.param(lambda eps: mg.sector_contains(mg.SectorRegion(1.0, (0, 1)), (100.0, -50.0),
                                                    eps=eps), id="sector_contains"),
        pytest.param(lambda eps: mg.crt_equivalent(mg.PointedCorrespondence.identity(
            _loose_line(), _loose_line()), eps=eps), id="crt_equivalent"),
    ])
    def test_eps_arguments_follow_the_space_rule(self, call, eps):
        with pytest.raises(ValidationError, match=f"^eps must be finite and nonnegative, not {eps}$"):
            call(eps)


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

    @pytest.mark.parametrize("points", ["abc", {"a": 0, "b": 1, "c": 2}], ids=["abc", "points1"])
    def test_points_not_a_list_rejected(self, points):
        # a string and an object iterate to the labels a, b, c, which were accepted
        with pytest.raises(ValidationError, match="points must be a list"):
            mg.space_from_json_dict({"points": points,
                                     "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})

    @pytest.mark.parametrize("matrix, message", [
        pytest.param(matrix, message, id=f"{key}-{message}") for key, matrix, message in [
            ("matrix0", {"a": 1}, "matrix must be a list, not dict"),
            ("abc", "abc", "matrix must be a list, not str"),
            ("matrix2", [[0, 1], {"a": 1}], "matrix row 1 must be a list, not dict"),
            ("matrix3", [[0, 1], "ab"], "matrix row 1 must be a list, not str"),
            # an earlier bad cell is named first
            ("matrix4", [[0, "x"], "ab"], "matrix cell 'x' is not a number or 'inf'"),
        ]])
    def test_matrix_not_a_list_rejected(self, matrix, message):
        # an object or a string iterates to keys or characters, which were read as cells
        with pytest.raises(ValidationError, match=message):
            mg.space_from_json_dict({"points": ["a", "b"], "matrix": matrix})

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


def read_outcome(data):
    try:
        space = mg.space_from_json_dict(data)
    except ValidationError as exc:
        return "error", str(exc)
    return space.labels, space.omega, space.dist.tobytes(), space.scale, space.tol


class TestDecodedMatrixParity:
    """A decoded matrix of plain numbers takes one conversion; every value
    and every message stays that of the per-cell read."""

    CASES = {
        "floats": [[0, 1.5, 2.0], [1.5, 0, 0.5], [2.0, 0.5, 0]],
        "all ints": [[0, 3, 5], [3, 0, 4], [5, 4, 0]],
        "all units": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "uint64 max": [[0, 18446744073709551615], [18446744073709551615, 0]],
        "beyond the float range": [[0, 2 ** 1100], [2 ** 1100, 0]],
        "true": [[0, True], [True, 0]],
        "false": [[False, 1], [1, 0]],
        "none": [[0, None], [None, 0]],
        "inf": [[0, "inf"], ["inf", 0]],
        "padded infinity": [[0, " Infinity "], [" Infinity ", 0]],
        "nan string": [[0, "nan"], ["nan", 0]],
        "ragged": [[0, 1], [1]],
        "ragged first": [[0], [1, 0]],
        "nested": [[0, [1]], [[1], 0]],
        "nested row": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]],
        "beyond the float range before nan": [[0, 2 ** 1100], ["nan", 0]],
        "one unit": [[0, 1.0, 2.5], [1.0, 0, 2.0], [2.5, 2.0, 0]],
        "true beside a unit": [[0, 1.0, 2.5], [1.0, 0, True], [2.5, True, 0]],
        "true on the diagonal": [[True, 1.5], [1.5, 0]],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_as_the_per_cell_read(self, name, monkeypatch):
        rows = self.CASES[name]
        data = {"points": ["a", "b", "c"][:len(rows)], "omega": None, "matrix": rows}
        got = read_outcome(data)
        monkeypatch.setattr(spaces, "_matrix_cells", per_cell)
        assert got == read_outcome(data)

    @pytest.mark.parametrize("name, fast", [("floats", True), ("all ints", True),
                                            ("all units", True),
                                            ("uint64 max", True), ("inf", True),
                                            ("padded infinity", True), ("ragged", False),
                                            ("one unit", True)])
    def test_one_conversion_for_plain_numbers(self, name, fast):
        assert (type(spaces._matrix_cells(self.CASES[name])) is np.ndarray) is fast

    @pytest.mark.parametrize("cell", [True, False])
    @pytest.mark.parametrize("row", [0, 17, 39])
    def test_a_boolean_among_units_is_refused(self, cell, row):
        # the rows with an off-diagonal 0 or 1 have their types read, the others not
        D = np.abs(np.subtract.outer(np.arange(40.0), np.arange(40.0))) / 39.0 + 0.5
        np.fill_diagonal(D, 0.0)
        D[0, -1] = D[-1, 0] = 1.0
        rows = D.tolist()
        assert spaces._cells_array(rows).tobytes() == D.tobytes()
        rows[row][(row + 5) % 40] = cell
        assert spaces._cells_array(rows) is None
        with pytest.raises(ValidationError, match=f"matrix cell {cell} is not a number or 'inf'"):
            mg.space_from_json_dict({"points": [f"p{i}" for i in range(40)], "matrix": rows})

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.lists(st.one_of(st.integers(min_value=-2 ** 1030, max_value=2 ** 1030),
                                    st.floats(allow_nan=True, allow_infinity=True),
                                    st.sampled_from(["inf", " Infinity ", "nan", "1.5"]),
                                    st.booleans(), st.none()),
                          min_size=0, max_size=3), min_size=0, max_size=3),
        # square, with the booleans that np.array reads as 0 and 1 among 0s and 1s
        st.integers(min_value=1, max_value=6).flatmap(lambda n: st.lists(
            st.lists(st.sampled_from([0, 1, 0.0, 1.0, True, False]), min_size=n, max_size=n),
            min_size=n, max_size=n))))
    def test_cells_as_the_per_cell_read(self, rows):
        def cells(read):
            try:
                out = read(rows)
            except ValidationError as exc:
                return str(exc)
            if type(out) is list and len({len(row) for row in out}) > 1:
                return "ragged"
            out = np.asarray(out, dtype=float)
            return out.shape, out.tobytes()

        assert cells(spaces._matrix_cells) == cells(per_cell)


def reference_text(space) -> str:
    return json.dumps(mg.space_to_json_dict(space), indent=2, sort_keys=True) + "\n"


# Labels that JSON escapes
LABELS = st.one_of(st.sampled_from(['"', "\\", "\u00e9", "\u2028", "\U0001d11e", 'a"b\\c']),
                   st.text(max_size=3))
# Distances from every binade up to 2^1020 (the triangle pass adds two), 0 and
# the subnormals included, the floats at and next to the ends of the range that
# orjson writes like repr, and distances inside that range, so that both
# writers of space_to_json_chunks are exercised
LO, HI = spaces._ORJSON_REPR_RANGE
EDGES = [0.0, 5e-324, 3e-320, 2.2250738585072014e-308, 1e-300, 0.1, 2.0 ** 1020,
         *(float(np.nextafter(x, toward)) for x in (LO, HI) for toward in (0.0, INF)), LO, HI]
IN_RANGE = st.one_of(st.sampled_from([0.0, LO, float(np.nextafter(HI, 0.0))]),
                     st.floats(min_value=LO, max_value=HI, exclude_max=True))
DISTANCES = st.one_of(st.sampled_from(EDGES), IN_RANGE,
                      st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                                st.integers(-1073, 1020)))


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
    x = np.array(draw(st.lists(draw(st.sampled_from([IN_RANGE, DISTANCES])),
                               min_size=n, max_size=n)))
    return max_metric_space(labels, x, draw(st.none() | st.integers(0, n - 1)))


class TestJsonChunks:
    @settings(max_examples=300, deadline=None)
    @given(json_spaces())
    def test_equals_json_dumps(self, space):
        assert b"".join(mg.space_to_json_chunks(space)) == reference_text(space).encode()

    @pytest.mark.parametrize("labels, x, omega", [
        (["a"], [0.0], None),
        (["omega"], [0.0], 0),
        (["omega", '"q"', "b\\", "\u00e9"], [0.0, 1e-300, 5e-324, 1e16], 0),
        (["a", "b", "c"], [0.1, 1e16, 5e-324], 2),
        (["a", "b", "c"], [0.1, 1e-300, 1.0], None),
    ], ids=["labels0-x0-None", "labels1-x1-0", "labels2-x2-0", "labels3-x3-2", "labels4-x4-None"])
    def test_edge_cases(self, labels, x, omega):
        space = max_metric_space(labels, np.array(x), omega)
        assert b"".join(mg.space_to_json_chunks(space)) == reference_text(space).encode()

    @pytest.mark.parametrize("omega", [None, 0, 17, 39])
    def test_forty_points(self, omega):
        x = np.random.default_rng(40).uniform(0.0, 3.0, 40)
        x[5] = 1e16
        space = max_metric_space([f"p{i}" for i in range(40)], x, omega)
        assert b"".join(mg.space_to_json_chunks(space)) == reference_text(space).encode()

    @pytest.mark.parametrize("omega", [None, 0, 17, 39])
    def test_forty_points_inside_the_orjson_range(self, omega):
        x = np.random.default_rng(40).uniform(1e-4, 3.0, 40)
        space = max_metric_space([f"p{i}" for i in range(40)], x, omega)
        assert b"".join(mg.space_to_json_chunks(space)) == reference_text(space).encode()

    @pytest.mark.parametrize("x, fast", [
        ([0.0, LO, 2.0, np.nextafter(HI, 0.0)], True),
        ([0.0, 0.0, 0.0, 0.0], True),
        ([0.0, np.nextafter(LO, 0.0), 1.0, 1.0], False),
        ([0.0, 1.0, HI, 1.0], False),
        ([0.0, 1.0, 5e-324, 1.0], False),
    ], ids=["x0-True", "x1-True", "x2-False", "x3-False", "x4-False"])
    def test_orjson_writes_inside_its_range_only(self, x, fast, monkeypatch):
        import orjson
        calls = []
        dumps = orjson.dumps
        monkeypatch.setattr(orjson, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
        for omega in (None, 3):
            space = max_metric_space(["a", "b", "c", "d"], np.array(x), omega)
            assert b"".join(mg.space_to_json_chunks(space)) == reference_text(space).encode()
        assert len(calls) == (2 if fast else 0)

    def test_fortran_ordered_matrix(self):
        D = np.asfortranarray([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        space = mg.ExtendedMetricSpace._derived(("a", "b", "c"), D, None, 1e-9)
        assert b"".join(mg.space_to_json_chunks(space)) == reference_text(space).encode()


def same_objects(a, b) -> bool:
    """Equal JSON values of equal types, floats bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a.hex() == b.hex()
    if type(a) is list:
        return len(a) == len(b) and all(map(same_objects, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(map(same_objects, a.values(), b.values()))
    return a == b


# Documents that both decoders accept: _read_json keeps orjson's objects for
# the first six and decodes the others again with the stdlib
STRICT_DOCUMENTS = [
    '{"points": ["a", "b"], "omega": null, "matrix": [[0, 1.5], [1.5, 0.0]]}',
    '{"matrix": [[0.1, 0.30000000000000004, 1e-4, 9.999999999999999e-05, 1e16, 1e+16]]}',
    '{"matrix": [[5e-324, 2.4703282292062328e-324, 2.4703282292062327e-324, 1e-400, '
    '2.2250738585072011e-308, 1.7976931348623157e308, -0.0, -0]]}',
    '{"matrix": [[0.1000000000000000055511151231257827021181583404541015625, '
    '1.00000000000000011102230246251565404236316680908203125, 123456789012345678901e-5]]}',
    '{"matrix": [[9007199254740993, 18446744073709551615, -9223372036854775808, 1E5, 2.5e+3]]}',
    '{"points": ["\\u00e9", "\\ud83d\\ude00", "\\"q\\"", "a\\/b", "\\u0000", "\\u2028"], '
    '"omega": "\\u00e9", "R": 2.0, "kind": "circle", "samples": [[2.0, 0], [0, 2.0]]}',
    '{"points": ["a", "a"], "points": ["b"], "extra": [true, false, null, 1, "x"], "n": {}}',
    '{"points": [18446744073709551616], "omega": 1}',
    '{"omega": 18446744073709551616, "matrix": 18446744073709551616}',
    '{"matrix": [[0, [18446744073709551616]], [1, {"a": 2}]], "x": [[[[1]]]]}',
    '[[0.5, 1], {"points": []}]',
    "18446744073709551616",
]


class TestReadJson:
    @pytest.mark.parametrize("text", STRICT_DOCUMENTS)
    def test_values_and_types_equal_the_stdlib(self, text, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert same_objects(spaces._read_json(str(path)), json.loads(text))

    @pytest.mark.parametrize("text, alike", [
        *((text, True) for text in STRICT_DOCUMENTS[:6]),
        *((text, False) for text in STRICT_DOCUMENTS[6:]),
    ])
    def test_orjson_objects_are_kept_only_where_alike(self, text, alike):
        import orjson
        assert spaces._decoded_alike(orjson.loads(text)) is alike

    def test_widened_integers_in_a_matrix_row_are_the_same_numbers(self, tmp_path):
        big = ["18446744073709551616", "-9223372036854775809", "123456789012345678901234567890"]
        text = '{"points": ["a", "b", "c", "d"], "matrix": [[0, %s, %s, %s]]}' % tuple(big)
        path = tmp_path / "doc.json"
        path.write_text(text)
        row = spaces._read_json(str(path))["matrix"][0]
        assert type(row[1]) is float  # orjson's object is kept
        assert [float(v).hex() for v in row] == [float(v).hex() for v in json.loads(text)["matrix"][0]]

    def test_nesting_beyond_the_stdlib_limit_is_refused_as_before(self, tmp_path):
        text = '{"points": ["a"], "matrix": [[0]], "x": ' + "[" * 5000 + "]" * 5000 + "}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(RecursionError):
            json.loads(text)
        with pytest.raises(RecursionError):
            spaces._read_json(str(path))


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

    @pytest.mark.parametrize("i", [3, -1])
    def test_index_out_of_range(self, i):
        sp = line_space_with_omega([0.0, 1.0])
        with pytest.raises(KeyError) as exc:
            sp.index(i)
        assert exc.value.args == (f"point index {i} out of range",)


def triangle_message(labels, i, j, k) -> str:
    return (f"triangle inequality fails: "
            f"d({labels[i]},{labels[j]}) > d({labels[i]},{labels[k]}) + d({labels[k]},{labels[j]})")


# Five points of a line with d(0, 2) = 2.5 > d(0, 1) + d(1, 2)
BENT_LINE = np.abs(np.arange(5.0)[:, None] - np.arange(5.0))
BENT_LINE[0, 2] = BENT_LINE[2, 0] = 2.5


def assert_bent_line_failure(exc, omega):
    """The failure of the bent line with the remote point inserted at ``omega``."""
    finite = [f"p{i}" for i in range(6) if i != omega]
    assert str(exc) == triangle_message(finite, 0, 2, 1)
    assert exc.witness == (finite[0], finite[2], finite[1]) and exc.residual == 0.5


class TestExactTriangleCheck:
    def test_collinear_300_points_with_one_long_pair(self):
        # the seeded sampler of earlier versions accepted this space
        D = np.abs(np.arange(300.0)[:, None] - np.arange(300.0))
        D[5, 7] = D[7, 5] = 2.5
        with pytest.raises(ValidationError) as exc:
            mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(300)), D)
        assert str(exc.value) == "triangle inequality fails: d(p5,p7) > d(p5,p6) + d(p6,p7)"

    @pytest.mark.parametrize("cells", [1, 7, 4096, None])
    def test_single_violating_triple_near_the_end(self, monkeypatch, cells):
        # d = 2 off the diagonal, d(296, 298) = d(298, 299) = 1 and
        # d(296, 299) = 2.5: only the triple {296, 298, 299} fails
        m = 300
        D = np.full((m, m), 2.0) - 2.0 * np.eye(m)
        D[296, 298] = D[298, 296] = D[298, 299] = D[299, 298] = 1.0
        D[296, 299] = D[299, 296] = 2.5
        labels = [f"p{i}" for i in range(m)]
        assert reference_first_violation(D, 2e-9) == (296, 299, 298)
        if cells is not None:
            monkeypatch.setattr(spaces, "_TRIANGLE_CELLS", cells)
        with pytest.raises(ValidationError) as exc:
            mg.ExtendedMetricSpace(tuple(labels), D)
        assert str(exc.value) == triangle_message(labels, 296, 299, 298)

    @pytest.mark.parametrize("omega", [0, 3, 5])
    def test_failing_block_beside_the_remote_point(self, omega):
        # the finite block is a copy beside the remote point, first, in the
        # middle or last; each fails on one triangle
        with pytest.raises(ValidationError) as exc:
            with_remote(BENT_LINE, omega)
        assert_bent_line_failure(exc.value, omega)

    @settings(max_examples=120, deadline=None)
    @given(m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           bumps=st.integers(0, 3), cells=st.sampled_from([1, 7, 500, None]))
    def test_matches_brute_force(self, m, seed, bumps, cells):
        # collinear integers have many exact equalities; a bump breaks a few
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 6, m).astype(float)
        D = np.abs(x[:, None] - x)
        for _ in range(bumps if m > 1 else 0):
            i, j = rng.choice(m, 2, replace=False)
            D[i, j] = D[j, i] = D[i, j] + rng.choice([1e-10, 1e-8, 0.5])
        labels = [f"q{i}" for i in range(m)]
        expected = reference_first_violation(D, 1e-9 * max(D.max(), 1.0))
        patch = pytest.MonkeyPatch()
        if cells is not None:
            patch.setattr(spaces, "_TRIANGLE_CELLS", cells)
        try:
            if expected is None:
                mg.ExtendedMetricSpace(tuple(labels), D)
            else:
                with pytest.raises(ValidationError) as exc:
                    mg.ExtendedMetricSpace(tuple(labels), D)
                assert str(exc.value) == triangle_message(labels, *expected)
        finally:
            patch.undo()

    def test_remote_point_rows_are_not_checked(self):
        D = np.abs(np.arange(300.0)[:, None] - np.arange(300.0))
        D[0, :] = D[:, 0] = INF
        D[0, 0] = 0.0
        sp = mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(300)), D, 0)
        assert sp.omega == 0
        D[5, 7] = D[7, 5] = 2.5
        with pytest.raises(ValidationError, match=r"d\(p5,p7\) > d\(p5,p6\) \+ d\(p6,p7\)"):
            mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(300)), D, 0)


class TestDeferredTriangle:
    def test_pending_pass_runs_on_leaving_the_block(self):
        D = np.abs(np.arange(5.0)[:, None] - np.arange(5.0))
        D[0, 2] = D[2, 0] = 2.5
        with pytest.raises(ValidationError, match="triangle inequality fails"):
            with spaces._triangle_deferred():
                sp = mg.ExtendedMetricSpace(tuple("abcde"), D)
                assert sp._triangle is not None
        assert sp._triangle is None

    def test_triangle_failure_replaces_a_later_error(self):
        D = np.abs(np.arange(5.0)[:, None] - np.arange(5.0))
        D[0, 2] = D[2, 0] = 2.5
        with pytest.raises(ValidationError, match="triangle inequality fails"):
            with spaces._triangle_deferred():
                mg.ExtendedMetricSpace(tuple("abcde"), D)
                raise KeyError("later")

    def test_passes_after_a_failure_still_run(self):
        D = np.abs(np.arange(5.0)[:, None] - np.arange(5.0))
        bent = D.copy()
        bent[0, 2] = bent[2, 0] = 2.5
        later = D.copy()
        later[1, 3] = later[3, 1] = 2.5
        with pytest.raises(ValidationError) as exc:
            with spaces._triangle_deferred():
                first = mg.ExtendedMetricSpace(tuple("abcde"), bent)
                metric = mg.ExtendedMetricSpace(tuple("abcde"), D)
                second = mg.ExtendedMetricSpace(tuple("vwxyz"), later)
        assert str(exc.value) == triangle_message("abcde", 0, 2, 1)
        assert first._triangle is None and metric._triangle is None and second._triangle is None

    @pytest.mark.parametrize("omega", [0, 3, 5])
    def test_failing_block_beside_the_remote_point(self, omega):
        with pytest.raises(ValidationError) as exc:
            with spaces._triangle_deferred():
                sp = with_remote(BENT_LINE, omega)
                block, pending_labels = sp._triangle  # asserted after the block
        assert_bent_line_failure(exc.value, omega)
        assert sp._triangle is None
        assert block.tobytes() == BENT_LINE.tobytes()
        assert pending_labels == [f"p{i}" for i in range(6) if i != omega]

    def test_a_proof_clears_the_pass(self):
        D = np.abs(np.arange(5.0)[:, None] - np.arange(5.0))
        D[0, 2] = D[2, 0] = 2.5
        with spaces._triangle_deferred():
            sp = mg.ExtendedMetricSpace(tuple("abcde"), D)
            sp._settle_triangle(0.0)
        assert sp._triangle is None
        # with eps = 0 no bound proves the pass, which runs and fails
        with pytest.raises(ValidationError, match="triangle inequality fails"):
            with spaces._triangle_deferred():
                sp = mg.ExtendedMetricSpace(tuple("abcde"), D, eps=0.0)
                sp._settle_triangle(0.0)
        assert sp._triangle is None


class TestFrozenSpace:
    def test_tolerance_cannot_go_stale(self):
        # assigning eps after construction used to leave tol and the stored
        # Ptolemy report of the old eps in place
        sp = mg.sample_space("sphere", n=2, count=12, seed=0)
        before = mg.is_ptolemy(sp)
        for name, value in (("eps", 0.4), ("labels", tuple("abcdefghijkl")), ("omega", 0)):
            with pytest.raises(AttributeError):
                setattr(sp, name, value)
        assert sp.eps == 1e-9 and sp.tol == 1e-9 * max(sp.scale, 1.0)
        assert mg.is_ptolemy(sp) == before and mg.circle_quadruple_census(sp) == (0, 495)
        loose = dataclasses.replace(sp, eps=0.4)
        assert mg.circle_quadruple_census(loose) == (495, 495)
        assert loose.tol == 0.4 * max(loose.scale, 1.0)


class TestFrozenCurve:
    @pytest.mark.parametrize("build, synth", [
        (lambda: mg.chordal_circle_curve(2.0, 8), mg.circle_from_curve),
        (lambda: mg.euclidean_segment_curve(2.0, 1.0, n_samples=9), mg.segment_from_curve),
    ])
    def test_fields_cannot_skip_the_checks(self, build, synth):
        # assigning eps and R after construction used to skip every check:
        # circle_from_curve then built a space with NaN eps and d(t0, t1) < 0
        curve = build()
        for name, value in (("eps", math.nan), ("R", -3.0), ("samples", curve.samples[::-1])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(curve, name, value)
        with pytest.raises(ValueError, match="read-only"):
            curve.samples[1, 0] = 5.0
        space = synth(curve)
        assert curve.eps == space.eps == 1e-9 and curve.R == 2.0
        assert space.dist.min() == 0.0 and space.dist[0, 1] > 0.0

def _records_holding_arrays():
    """Builders of the records with array fields, each called twice below."""
    P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    segment = mg.segment_from_curve(mg.euclidean_segment_curve(1.0, 1.0, n_samples=5))
    circle = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 8))
    return {
        "space": lambda: mg.space_from_points(P),
        "quadrant_curve": lambda: mg.euclidean_segment_curve(1.0, 1.0, n_samples=5),
        "halfplane_curve": lambda: mg.chordal_circle_curve(2.0, 8),
        "wedge": lambda: mg.WedgeRegion([1.0, 0.0], [0.0, 1.0]),
        "sector": lambda: mg.SectorRegion(1.0, [0.0, 1.0]),
        "segment_map": lambda: mg.segment_moebius_map(segment, ("t0", "t2", "t4"),
                                                      segment, ("t0", "t2", "t4")),
        "circle_map": lambda: mg.circle_moebius_map(circle, ("t0", "t2", "t4"),
                                                    circle, ("t0", "t2", "t4")),
        "exotic_report": lambda: mg.exotic_report(mg.GluedSpaceConfig(ell=1.0), (0.5, 1.0)),
        "sampled_circle": lambda: mg.circumcircle_three(*P[:3], n_samples=6),
        "correspondence": lambda: mg.PointedCorrespondence.identity(segment, segment),
    }


class TestRecordsHoldingArrays:
    """Records with array fields compare and hash by identity: a generated
    field-wise ``__eq__`` would ask an array for its truth value."""

    @pytest.mark.parametrize("kind", list(_records_holding_arrays()))
    def test_compare_by_identity(self, kind):
        build = _records_holding_arrays()[kind]
        first, second = build(), build()
        assert first != second and not first == second
        assert first == first and second == second
        assert len({first, second, first}) == 2
