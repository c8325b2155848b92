"""Derived spaces: each builder that skips the input checks against the full
constructor on the same matrix.

``space_from_points``, ``invert_at``, ``bound_at``, ``segment_from_curve``
and ``circle_from_curve`` build their matrix themselves and hand it to
``ExtendedMetricSpace._derived``, which checks only NaN, inf and the triangle
inequality.  Each call of it is recorded here and replayed through the
constructor and ``helpers.reference_validation``: the stored ``dist`` bytes,
``scale``, ``tol``, ``omega`` and labels, or the exception and its message,
must be the same.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import moebiusgeo as mg
from moebiusgeo import spaces
from moebiusgeo.errors import NotPtolemyError, ValidationError

from helpers import (random_halfplane_curve, random_quadrant_curve, reference_first_violation,
                     reference_validation)

INF = math.inf

_ORIGINAL = vars(mg.ExtendedMetricSpace)["_derived"]
DERIVED = _ORIGINAL.__func__


@contextlib.contextmanager
def recorded_derivations():
    """Record the arguments of every ``ExtendedMetricSpace._derived`` call."""
    calls = []

    def record(cls, labels, dist, omega, eps, positions=None, bound=None):
        calls.append((labels, dist.copy(), omega, eps, bound))
        return DERIVED(cls, labels, dist, omega, eps, positions, bound)

    mg.ExtendedMetricSpace._derived = classmethod(record)
    try:
        yield calls
    finally:
        mg.ExtendedMetricSpace._derived = _ORIGINAL


def outcome(build):
    """The space ``build`` returns, or the exception it raises."""
    try:
        return build()
    except (ValidationError, ValueError) as exc:
        return exc


def constructed(labels, M, omega, eps, bound=None):
    """The full constructor on ``M``, checked against the reference checks;
    the derived space's pending triangle pass is the reference's, and where
    the builder's ``bound`` cleared it, the reference finds no violation."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = reference_validation(labels, M, omega, eps)
        except ValidationError as exc:
            ref = exc
        got = outcome(lambda: mg.ExtendedMetricSpace(labels, M, omega, eps=eps))
    if isinstance(ref, ValidationError):
        assert type(got) is ValidationError and str(got) == str(ref)
        return got
    sub, finite_labels, check_tol = ref[3]
    with np.errstate(over="ignore"), spaces._triangle_deferred():
        derived = DERIVED(mg.ExtendedMetricSpace, labels, M.copy(), omega, eps, None, bound)
        pending = derived._triangle
        derived._settle_triangle(proven=True)
        if pending is None:  # a proof cleared the pass: the exact pass holds
            assert bound is not None and reference_first_violation(sub, check_tol) is None
        else:
            assert pending[0].tobytes() == sub.tobytes() and pending[0].shape == sub.shape
            assert pending[1] == finite_labels and pending[2].hex() == check_tol.hex()
    if isinstance(got, ValidationError):  # the triangle pass, which the reference leaves pending
        assert reference_first_violation(sub, check_tol) is not None
        assert str(got).startswith("triangle inequality fails: ")
    else:
        dist, scale, tol, _ = ref
        assert got.dist.tobytes() == dist.tobytes()
        assert (got.scale.hex(), got.tol.hex()) == (scale.hex(), tol.hex())
    return got


def assert_same(got, expected):
    """Two outcomes agree: the same exception type and message, or the same
    stored matrix bytes, scale, tolerance, remote point and labels."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, mg.ExtendedMetricSpace), got
    assert got.dist.tobytes() == expected.dist.tobytes()
    assert got.dist.shape == expected.dist.shape and not got.dist.flags.writeable
    assert (got.scale.hex(), got.tol.hex()) == (expected.scale.hex(), expected.tol.hex())
    assert (got.omega, got.labels, got.eps) == (expected.omega, expected.labels, expected.eps)
    assert got._triangle is None


def assert_derived_like_constructed(build, calls, wrap=lambda exc: exc):
    """``build`` made at most one derived call; its outcome is the
    constructor's on the recorded matrix (an error passed through ``wrap``)."""
    calls.clear()
    got = outcome(build)
    assert len(calls) <= 1
    if not calls:
        return got
    expected = constructed(*calls[0])
    if isinstance(expected, Exception):
        expected = wrap(expected)
    assert_same(got, expected)
    return got


def not_ptolemy(failure):
    """How ``inversions._rescaled`` reports a validation error of its output."""
    return lambda exc: NotPtolemyError(
        f"{failure} violates the triangle inequality; the input space is not Ptolemy ({exc})")


def plain_distances(P, p, add_omega):
    """The distance matrix of the points by the textbook formula."""
    diff = P[:, None, :] - P[None, :, :]
    D = np.sqrt((diff ** 2).sum(-1)) if p == 2.0 else np.abs(diff).sum(-1)
    if add_omega:
        full = np.full((len(D) + 1, len(D) + 1), INF)
        full[:-1, :-1] = D
        full[-1, -1] = 0.0
        D = full
    return D


# scales around and beyond the window [2^-480, 2^480] of space_from_points,
# and where inverting makes d / (f f) overflow or underflow
SCALES = [-1070, -1000, -600, -541, -481, -479, -300, -40, 0, 40, 300, 479, 481, 541, 600, 1000]


@st.composite
def point_sets(draw):
    """Points at a scale 2^k under l2 or l1, maybe with a remote point, with
    at most one fault: a NaN or inf coordinate, duplicate labels, a label
    count that does not match, or an eps that is NaN, inf or negative."""
    count, dim = draw(st.integers(0, 7)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = rng.standard_normal((count, dim))
    if count and draw(st.booleans()):  # coincident and collinear points
        P[-1] = P[0] if draw(st.booleans()) else 2.0 * P[0]
    with np.errstate(over="ignore"):
        P = np.ldexp(P, draw(st.sampled_from(SCALES)))
    p = draw(st.sampled_from([1.0, 2.0]))
    add_omega = draw(st.booleans())
    labels, eps = None, 1e-9
    fault = draw(st.sampled_from([None] * 6 + ["nan", "inf", "dup", "count", "eps"]))
    if fault in ("nan", "inf") and count:
        P[draw(st.integers(0, count - 1)), 0] = np.nan if fault == "nan" else -INF
    elif fault == "dup" and count >= 2:
        labels = ["a"] * count
    elif fault == "count":
        labels = [f"x{i}" for i in range(count + draw(st.sampled_from([-1, 1])))]
    elif fault == "eps":
        eps = draw(st.sampled_from([math.nan, INF, -1e-9]))
    else:
        eps = draw(st.sampled_from([1e-9, 0.0, 0.25]))
    return P, labels, p, add_omega, eps


class TestDerivedMatchesConstructor:
    @settings(max_examples=400, deadline=None)
    @given(point_sets(), st.integers(0, 7))
    def test_points_and_their_inversions(self, case, at):
        P, labels, p, add_omega, eps = case
        with recorded_derivations() as calls, np.errstate(all="ignore"):
            space = assert_derived_like_constructed(
                lambda: mg.space_from_points(P, labels, p=p, add_omega=add_omega, eps=eps), calls)
            if not calls:  # refused before the matrix was handed on
                assert isinstance(space, ValidationError)
                names = labels if labels is not None else [f"p{i}" for i in range(len(P))]
                names = list(names) + ["omega"] * add_omega
                expected = outcome(lambda: mg.ExtendedMetricSpace(
                    tuple(names), plain_distances(P, p, add_omega), len(P) if add_omega else None,
                    eps=eps))
                assert_same(space, expected)
                return
            if isinstance(space, Exception):
                return
            z = at % space.n
            label = space.labels[z]
            inverted = assert_derived_like_constructed(
                lambda: mg.invert_at(space, z), calls, not_ptolemy(f"inversion at {label!r}"))
            if z != space.omega:
                assert_derived_like_constructed(
                    lambda: mg.bound_at(space, z), calls, not_ptolemy(f"bounded metric at {label!r}"))
            if isinstance(inverted, NotPtolemyError):
                assert isinstance(inverted.__cause__, ValidationError)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-1000, 200), st.booleans())
    def test_curve_spaces(self, seed, k, circle):
        rng = np.random.default_rng(seed)
        R = math.ldexp(1.0, k)
        try:
            if circle:
                curve = random_halfplane_curve(rng, R=R, n_interior=int(rng.integers(3, 10)),
                                               per_edge=int(rng.integers(0, 3)))
            else:
                curve = random_quadrant_curve(rng, R=R, n_interior=int(rng.integers(3, 10)),
                                              per_edge=int(rng.integers(0, 3)))
        except ValidationError:  # the hull's samples fail a curve check at this scale
            assume(False)
        build = mg.circle_from_curve if circle else mg.segment_from_curve
        with recorded_derivations() as calls:
            space = assert_derived_like_constructed(lambda: build(curve), calls)
        assert len(calls) == 1 and isinstance(space, mg.ExtendedMetricSpace)

    def test_overflowing_inversion_factors(self):
        # the points 0, t and b on a line, inverted at 0: the product of the
        # factors t and b is in range, but d(t, b) / (t b) = 1 / t = 2^1074 is not
        with recorded_derivations() as calls, np.errstate(over="ignore"):
            t, b = 2.0 ** -1074, 2.0 ** 1000
            space = mg.ExtendedMetricSpace(tuple("abc"), np.array([[0, t, b], [t, 0, b], [b, b, 0]]))
            got = assert_derived_like_constructed(lambda: mg.invert_at(space, 0), calls,
                                                  not_ptolemy("inversion at 'a'"))
        assert str(got.__cause__) == "infinite distance between finite points (b, c)"

    def test_odd_subnormal_beyond_half_the_largest_float(self):
        # the constructor halves before it averages above DBL_MAX / 2, which
        # rounds an odd subnormal entry; the derived space keeps that rounding
        d = 3 * 2.0 ** -1074
        M = np.array([[0.0, d, 1.7e308], [d, 0.0, 1.7e308], [1.7e308, 1.7e308, 0.0]])
        with np.errstate(over="ignore"):  # the triangle pass adds two such entries
            derived = DERIVED(mg.ExtendedMetricSpace, tuple("abc"), M.copy(), None, 1e-9)
            assert_same(derived, constructed(tuple("abc"), M, None, 1e-9))
        assert derived.dist[0, 1] != d


class TestDerivedInvariants:
    @pytest.mark.parametrize("build", [
        lambda: mg.sample_space("halfspace", n=2, count=6, seed=1),
        lambda: mg.invert_at(mg.sample_space("sphere", n=2, count=6, seed=1), "p2"),
        lambda: mg.bound_at(mg.sample_space("line", n=1, count=5, seed=2), "p0"),
        lambda: mg.segment_from_curve(mg.euclidean_segment_curve(1.0, 0.8, "minor", 9)),
        lambda: mg.circle_from_curve(mg.chordal_circle_curve(2.0, 8)),
    ])
    def test_read_only_and_frozen(self, build):
        space = build()
        assert not space.dist.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            space.dist[0, 0] = 1.0
        for name, value in (("eps", 0.4), ("labels", ("a",)), ("omega", None), ("dist", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(space, name, value)
        assert space._triangle is None
        assert dataclasses.replace(space).dist.tobytes() == space.dist.tobytes()

    @pytest.mark.parametrize("build, curve", [
        (mg.segment_from_curve, mg.euclidean_segment_curve(1.0, 0.8, "minor", 33)),
        (mg.circle_from_curve, mg.chordal_circle_curve(2.0, 32)),
    ])
    def test_curve_proof_clears_the_pass(self, build, curve, monkeypatch):
        passes = []
        check = spaces._check_triangle
        monkeypatch.setattr(spaces, "_check_triangle", lambda *a: passes.append(check(*a)))
        with spaces._triangle_deferred():
            space = build(curve)
            assert space._triangle is None
        assert passes == []

    def test_inverting_the_l1_square_names_the_triple(self):
        square = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)], p=1.0)
        with pytest.raises(NotPtolemyError) as err:
            mg.invert_at(square, "p0")
        assert str(err.value) == (
            "inversion at 'p0' violates the triangle inequality; the input space is not "
            "Ptolemy (triangle inequality fails: d(p1,p3) > d(p1,p2) + d(p2,p3))")
        assert isinstance(err.value.__cause__, ValidationError)


def finite_block(space):
    fin = space.finite_indices
    return space.dist.take(fin, 0).take(fin, 1)


def proof_verdict(build):
    """Build inside a deferred block: whether a proof cleared the space's
    triangle pass, and the space (None if the build or its pass failed)."""
    try:
        with spaces._triangle_deferred():
            space = build()
            cleared = space._triangle is None
    except ValidationError:
        return False, None
    return cleared, space


EPS_AT_THE_EDGE = [0.0, 1e-15, 1e-9]


@st.composite
def near_collinear_points(draw):
    """Points at a scale 2^k, often near a line, so some triangle is tight."""
    count, dim = draw(st.integers(3, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        t = rng.standard_normal(count)
        P = t[:, None] * rng.standard_normal(dim)
        P += draw(st.sampled_from([0.0, 1e-16, 1e-12, 1e-9])) * rng.standard_normal((count, dim))
    else:
        P = rng.standard_normal((count, dim))
    return np.ldexp(P, draw(st.sampled_from([-1000, -600, -40, 0, 40, 600, 1000])))


def noisy(D, rng, noise):
    """``D`` with a symmetric relative noise of at most ``noise`` on its finite entries."""
    E = rng.uniform(-noise, noise, D.shape)
    E = (E + E.T) / 2.0
    return np.where(np.isfinite(D), D * (1.0 + E), D)


class TestProofsAgreeWithThePass:
    """A proof clears a triangle pass only where the exact pass holds."""

    @settings(max_examples=300, deadline=None)
    @given(near_collinear_points(), st.sampled_from([1.0, 2.0]), st.booleans(),
           st.sampled_from(EPS_AT_THE_EDGE))
    def test_points(self, P, p, add_omega, eps):
        cleared, space = proof_verdict(
            lambda: mg.space_from_points(P, p=p, add_omega=add_omega, eps=eps))
        event(f"cleared: {cleared}")
        if cleared:
            assert eps > 0.0
            assert reference_first_violation(finite_block(space), space.tol) is None

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["sphere", "hemisphere", "euclidean", "halfspace",
                            "ball-complement", "line", "collinear"]),
           st.integers(4, 12), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 2e-10, 3e-10, 1e-9, 1e-7, 1e-6]),
           st.sampled_from([-1000, -300, 0, 300, 1000]), st.sampled_from(EPS_AT_THE_EDGE),
           st.integers(0, 12))
    def test_scanned_inversions(self, kind, count, seed, noise, k, eps, at):
        rng = np.random.default_rng(seed)
        if kind == "collinear":  # a tight Ptolemy equality on every quadruple
            base = mg.space_from_points(np.sort(rng.standard_normal(count))[:, None])
        else:
            base = mg.sample_space(kind, n=int(rng.integers(1, 4)), count=count, seed=seed)
        D = np.ldexp(noisy(np.array(base.dist), rng, noise), k)
        try:
            space = mg.ExtendedMetricSpace(base.labels, D, base.omega, eps=eps)
        except ValidationError:
            return
        mg.is_ptolemy(space)
        z = at % space.n
        if z == space.omega:
            return
        try:
            cleared, inverted = proof_verdict(lambda: mg.invert_at(space, z))
        except ValueError:  # a point coincides with z
            return
        event(f"cleared: {cleared}")
        if cleared:
            assert eps > 0.0
            assert reference_first_violation(finite_block(inverted), inverted.tol) is None


class TestProofsClearPasses:
    def count_passes(self, monkeypatch):
        passes = []
        check = spaces._check_triangle
        monkeypatch.setattr(spaces, "_check_triangle", lambda *a: passes.append(a) or check(*a))
        return passes

    def test_sample_spaces_and_their_scanned_inversions(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        for i, kind in enumerate(mg.spheres.SAMPLE_KINDS * 3):
            space = mg.sample_space(kind, n=1 + i % 3, count=4 + i % 13, seed=i)
            if mg.is_ptolemy(space).holds:
                mg.invert_at(space, 0)
        assert passes == []

    def test_an_unscanned_inversion_runs_the_pass(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        space = mg.sample_space("sphere", n=2, count=8, seed=3)
        mg.invert_at(space, 0)
        assert len(passes) == 1
        mg.is_ptolemy(space)
        mg.invert_at(space, 0)
        mg.bound_at(space, 0)  # no proof
        assert len(passes) == 2

    def test_a_margin_above_a_sixth_of_eps_runs_the_pass(self, monkeypatch):
        # four concyclic points, with the diagonal d(a, c) stretched by 1.6e-9:
        # the margin is about 4e-10, a passing scan at eps = 1e-9, but an
        # inverted triangle may fail by 6 margin scale', and here one does
        theta = np.array([0.0, 1.0, 2.5, 4.0])
        P = np.column_stack([np.cos(theta), np.sin(theta)])
        D = np.sqrt(((P[:, None] - P) ** 2).sum(-1))
        D[0, 2] = D[2, 0] = D[0, 2] * (1.0 + 1.6e-9)
        space = mg.ExtendedMetricSpace(tuple("abcd"), D)
        report = mg.is_ptolemy(space)
        assert report.holds and 1e-9 / 6.0 < report.worst_margin <= 1e-9
        passes = self.count_passes(monkeypatch)
        with pytest.raises(NotPtolemyError) as err:
            mg.invert_at(space, "b")
        assert len(passes) == 1 and err.value.witness == ("b", "a", "c", "d")

    def test_eps_zero_runs_every_pass(self, monkeypatch):
        passes = self.count_passes(monkeypatch)
        space = mg.sample_space("euclidean", n=2, count=6, seed=1, eps=0.0)
        mg.is_ptolemy(space)
        mg.invert_at(space, 0)
        assert len(passes) == 2


class TestWitnesses:
    def test_triangle_failure_names_its_triple(self):
        D = np.abs(np.arange(4.0)[:, None] - np.arange(4.0))
        D[0, 2] = D[2, 0] = 2.5
        with pytest.raises(ValidationError) as err:
            mg.ExtendedMetricSpace(tuple("abcd"), D)
        assert str(err.value) == "triangle inequality fails: d(a,c) > d(a,b) + d(b,c)"
        assert err.value.witness == ("a", "c", "b") and err.value.residual == 0.5

    def test_bound_at_names_the_triangle(self):
        square = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)], p=1.0)
        with pytest.raises(NotPtolemyError) as err:
            mg.bound_at(square, "p1")
        assert str(err.value) == (
            "bounded metric at 'p1' violates the triangle inequality; the input space is not "
            "Ptolemy (triangle inequality fails: d(p0,p2) > d(p0,p3) + d(p3,p2))")
        assert err.value.witness == ("p0", "p2", "p3") and err.value.residual > 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_inversion_witness_fails_ptolemy(self, seed):
        space = mg.sample_space("l1", n=2, count=8, seed=seed)
        failures = 0
        for z in space.labels:
            try:
                mg.invert_at(space, z)
            except NotPtolemyError as exc:
                failures += 1
                assert exc.witness[0] == z and len(set(exc.witness)) == 4
                assert exc.residual > 0.0
                triple = mg.crt(space, exc.witness)
                assert max(triple.a, triple.b, triple.c) - 0.5 > 0.0
        assert failures > 0
