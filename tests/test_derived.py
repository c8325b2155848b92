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
from hypothesis import assume, given, settings
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

    def record(cls, labels, dist, omega, eps, positions=None):
        calls.append((labels, dist.copy(), omega, eps))
        return DERIVED(cls, labels, dist, omega, eps, positions)

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


def constructed(labels, M, omega, eps):
    """The full constructor on ``M``, checked against the reference checks;
    the derived space's pending triangle pass is the reference's."""
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
        derived = DERIVED(mg.ExtendedMetricSpace, labels, M.copy(), omega, eps)
        pending = derived._triangle
        derived._settle_triangle(proven=True)
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
