"""Inversions, bounded metrics, crt equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebiusgeo as mg
from moebiusgeo import inversions
from moebiusgeo.errors import NotPtolemyError, ValidationError
from moebiusgeo.spaces import max_crt_deviation

from helpers import apex_index, random_halfplane_curve


def line_space_with_omega(xs):
    return mg.space_from_points(np.asarray(xs, dtype=float)[:, None], add_omega=True)


def random_ptolemy_space(rng, with_omega=False):
    kind = rng.integers(0, 2)
    count = int(rng.integers(5, 9))
    if kind == 0:
        pts = rng.normal(size=(count, 3))
        return mg.space_from_points(pts, add_omega=with_omega)
    g = rng.normal(size=(count, 3))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return mg.space_from_points(g, add_omega=with_omega)


class TestInvertAt:
    def test_line_example(self):
        sp = line_space_with_omega([0.0, 1.0, 2.0])
        inv = mg.invert_at(sp, "p0")
        assert inv.omega == 0
        assert np.isclose(inv.dist[1, 2], 0.5)
        assert np.isclose(inv.dist[1, 3], 1.0)
        assert np.isclose(inv.dist[2, 3], 0.5)
        # triangle equality is preserved along the inverted line
        assert np.isclose(inv.dist[1, 2] + inv.dist[2, 3], inv.dist[1, 3])

    def test_double_inversion_restores(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sp = random_ptolemy_space(rng, with_omega=True)
            z = sp.labels[int(rng.integers(0, sp.n - 1))]
            inv = mg.invert_at(sp, z)
            back = mg.invert_at(inv, "omega")
            finite = np.isfinite(sp.dist) & (sp.dist > 0)
            rel = np.abs(back.dist[finite] - sp.dist[finite]) / sp.dist[finite]
            assert rel.max() <= 1e-12

    def test_chordal_circle_becomes_line(self):
        curve = mg.chordal_circle_curve(2.0, 8)
        sp = mg.circle_from_curve(curve)
        inv = mg.invert_at(sp, "t0")
        order = [i for i in range(sp.n) if i != 0]
        D = inv.dist
        for a, b, c in zip(order, order[1:], order[2:]):
            assert abs(D[a, b] + D[b, c] - D[a, c]) <= 1e-12

    def test_coincident_point_rejected(self):
        D = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        sp = mg.ExtendedMetricSpace(("a", "b", "c"), D)
        with pytest.raises(ValueError, match="distance 0"):
            mg.invert_at(sp, "a")

    @pytest.mark.parametrize("omega", [None, 0, 3, 5])
    def test_coincident_partner_named_first(self, omega):
        # the message names the first point coinciding with the one inverted
        # at, never that point itself, whichever index the remote point has
        for coincident in ([1, 3], [1, 2, 4], [0, 4]):
            x = np.arange(5.0)
            x[coincident] = 7.0
            D = np.abs(np.subtract.outer(x, x))
            if omega is not None:
                D = np.insert(np.insert(D, omega, math.inf, axis=0), omega, math.inf, axis=1)
                D[omega, omega] = 0.0
            sp = mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(len(D))), D, omega)
            finite = [sp.labels[i] for i in sp.finite_indices]
            for at in coincident:
                first = next(i for i in coincident if i != at)
                with pytest.raises(ValueError) as exc:
                    mg.invert_at(sp, finite[at])
                assert str(exc.value) == (f"cannot invert at {finite[at]!r}: "
                                          f"distance 0 to {finite[first]!r}")

    def test_non_ptolemy_detected(self):
        sp = mg.space_from_points([(0, 0), (1, 0), (1, 1), (0, 1)], p=1.0)
        with pytest.raises(NotPtolemyError):
            mg.invert_at(sp, "p0")

    def test_invert_at_omega_is_identity(self):
        sp = line_space_with_omega([0.0, 1.0, 2.0])
        out = mg.invert_at(sp, "omega")
        finite = np.isfinite(sp.dist)
        assert np.array_equal(out.dist[finite], sp.dist[finite])


    @pytest.mark.parametrize("shift", [-600, 600])
    def test_factor_products_out_of_range(self, shift):
        # f(x) f(y) of the points 0, 1, 3 scaled by 2^shift used to leave the
        # range of a float: 0 / 0 on the diagonal at 2^-600, and 0 for d(p1, p2)
        # at 2^600
        sp = mg.space_from_points(np.ldexp([[0.0], [1.0], [3.0]], shift))
        assert mg.invert_at(sp, "p0").dist[1, 2] == math.ldexp(2.0 / 3.0, -shift)

    def test_factors_further_apart_than_the_range_of_a_product(self):
        # the factors 2^-600 and 2^600 of the points 0, x, y: no one power of
        # two brings the squares of both into range
        t, b = 2.0 ** -600, 2.0 ** 600
        sp = mg.ExtendedMetricSpace(("z", "x", "y"), np.array([[0, t, b], [t, 0, b], [b, b, 0]]))
        assert mg.invert_at(sp, "z").dist[1, 2] == b / (t * b)

    def test_bound_factor_products_out_of_range(self):
        # the factors d(., p0) + 1 are 2^600 and 3 2^600
        sp = mg.space_from_points(np.ldexp([[0.0], [1.0], [3.0]], 600))
        assert mg.bound_at(sp, "p0").dist[1, 2] == math.ldexp(2.0 / 3.0, -600)

    def test_factor_scaling_keeps_every_bit(self):
        sp = random_ptolemy_space(np.random.default_rng(5), with_omega=True)
        for shift in (-1000, -300, 300, 1000):
            scaled = mg.ExtendedMetricSpace(sp.labels, np.ldexp(sp.dist, shift), sp.omega)
            got = mg.invert_at(scaled, "p1").dist
            assert got.tobytes() == np.ldexp(mg.invert_at(sp, "p1").dist, -shift).tobytes()


class TestLeastOffDiagonal:
    @staticmethod
    def ravelled(D):
        """The formula of earlier versions: the rows of the matrix without
        its first cell, n + 1 cells each, hold the diagonal last."""
        n = len(D)
        return float(D.ravel()[1:].reshape(n - 1, n + 1)[:, :n].min(initial=math.inf))

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_matches_the_ravelled_formula(self, n):
        rng = np.random.default_rng(n)
        tiny = np.nextafter(0.0, 1.0)
        for fill in (None, math.inf, tiny, 0.0):
            D = rng.uniform(0.5, 2.0, (n, n))
            D = D + D.T
            np.fill_diagonal(D, 0.0 if fill is None else -1.0)  # the diagonal is not read
            if fill is not None and n > 1:
                D[0, n - 1] = D[n - 1, 0] = fill
                D[n // 2, 0] = math.inf
            assert inversions._least_off_diagonal(D) == self.ravelled(D)
        assert inversions._least_off_diagonal(np.full((n, n), math.inf)) == math.inf


class TestBoundAt:
    def test_interval_example(self):
        sp = mg.space_from_points(np.array([0.0, 3.0])[:, None])
        out = mg.bound_at(sp, "p0")
        assert np.isclose(out.dist[0, 1], 0.75)

    def test_omega_becomes_finite_at_one(self):
        sp = line_space_with_omega([0.0, 3.0])
        out = mg.bound_at(sp, "p0")
        assert out.omega is None
        assert np.isclose(out.dist[0, 2], 1.0)
        assert np.isclose(out.dist[1, 2], 0.25)

    def test_diameter_at_most_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sp = random_ptolemy_space(rng, with_omega=bool(rng.integers(0, 2)))
            out = mg.bound_at(sp, sp.labels[0])
            assert out.dist.max() <= 1.0 + 1e-12

    def test_bound_at_omega_rejected(self):
        sp = line_space_with_omega([0.0, 1.0])
        with pytest.raises(ValueError):
            mg.bound_at(sp, "omega")


class TestCrtEquivalence:
    def test_identity_zero_deviation(self):
        sp = random_ptolemy_space(np.random.default_rng(3))
        rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, sp))
        assert rep.equivalent and rep.max_deviation == 0.0

    def test_inversion_preserves_crt(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            sp = random_ptolemy_space(rng, with_omega=bool(rng.integers(0, 2)))
            z = sp.labels[0]
            inv = mg.invert_at(sp, z)
            rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, inv))
            assert rep.max_deviation <= 1e-9

    def test_bound_preserves_crt(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            sp = random_ptolemy_space(rng, with_omega=bool(rng.integers(0, 2)))
            out = mg.bound_at(sp, sp.labels[1])
            rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, out))
            assert rep.max_deviation <= 1e-9

    def test_perturbation_detected_with_witness(self):
        curve = mg.chordal_circle_curve(2.0, 8)
        sp = mg.circle_from_curve(curve)
        D = sp.dist.copy()
        D[1, 2] *= 1.01
        D[2, 1] = D[1, 2]
        sp2 = mg.ExtendedMetricSpace(sp.labels, D)
        rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, sp2))
        assert not rep.equivalent
        assert rep.witness is not None and set(rep.witness) & {"t1", "t2"}

    def test_nonidentity_mapping(self):
        # relabeled copy under the matching permutation is equivalent
        rng = np.random.default_rng(6)
        sp = random_ptolemy_space(rng)
        perm = rng.permutation(sp.n)
        sp2 = mg.ExtendedMetricSpace(
            tuple(f"x{i}" for i in range(sp.n)), sp.dist[np.ix_(perm, perm)]
        )
        inv = np.argsort(perm)
        mapping = {sp.labels[j]: f"x{int(inv[j])}" for j in range(sp.n)}
        rep = mg.crt_equivalent(mg.PointedCorrespondence(sp, sp2, mapping))
        assert rep.equivalent

    def test_identity_takes_the_factor_path(self):
        sp = random_ptolemy_space(np.random.default_rng(3), with_omega=True)
        rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, sp))
        assert (rep.method, rep.factor_residual, rep.witness) == ("factor", 0.0, None)
        assert rep.n_checked == math.comb(sp.n, 4)

    def test_zero_distance_takes_the_scan_path(self):
        # p0 and p1 coincide; inverting the line at -1 is a line metric again
        xs = np.array([0.0, 0.0, 1.0, 3.0, 7.0, 12.0])
        D = np.abs(xs[:, None] - xs)
        sp = mg.ExtendedMetricSpace(tuple(f"p{i}" for i in range(6)), D)
        inv = mg.ExtendedMetricSpace(sp.labels, D / np.outer(xs + 1.0, xs + 1.0))
        rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, inv))
        assert (rep.method, rep.factor_residual, rep.equivalent) == ("scan", None, True)
        assert rep.witness == ("p0", "p3", "p4", "p5")
        assert rep.max_deviation == max_crt_deviation(D, None, inv.dist, None, np.arange(6))[0]

    def test_perturbed_circle_takes_the_scan_path(self):
        curve = mg.chordal_circle_curve(2.0, 8)
        sp = mg.circle_from_curve(curve)
        D = sp.dist.copy()
        D[1, 2] = D[2, 1] = D[1, 2] * 1.01
        other = mg.ExtendedMetricSpace(sp.labels, D)
        rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, other))
        assert (rep.method, rep.equivalent) == ("scan", False)
        assert rep.factor_residual > 0.0
        assert rep.witness == ("t0", "t1", "t2", "t3")
        assert rep.max_deviation == max_crt_deviation(sp.dist, None, D, None, np.arange(8))[0]

    @pytest.mark.parametrize("labels, message", [
        (("p0", "p1", "p2", "x"), "mapping must be injective into the target labels"),
        (("p0", "p1", "p2"), "mapping must be injective into the target labels"),
        (("p0", "p1", "p3", "p2", "p4"), "source and target cardinality differ"),
    ], ids=["labels0-mapping must be injective into the target labels",
            "labels1-mapping must be injective into the target labels",
            "labels2-source and target cardinality differ"])
    def test_identity_of_other_labels_is_checked(self, labels, message):
        sp = mg.space_from_points(np.arange(4.0)[:, None])
        other = mg.ExtendedMetricSpace(labels, np.abs(np.subtract.outer(
            np.arange(len(labels)), np.arange(len(labels)))).astype(float))
        with pytest.raises(ValidationError) as exc:
            mg.PointedCorrespondence.identity(sp, other)
        assert str(exc.value) == message

    @pytest.mark.parametrize("omega", [False, True])
    def test_identity_of_equal_labels_as_validated(self, omega):
        sp = random_ptolemy_space(np.random.default_rng(11), with_omega=omega)
        for target in (sp, mg.invert_at(sp, "p1"), mg.bound_at(sp, "p2")):
            fast = mg.PointedCorrespondence.identity(sp, target)
            checked = mg.PointedCorrespondence(sp, target, {lab: lab for lab in sp.labels})
            assert fast.is_identity() and checked.is_identity()
            assert (fast.source, fast.target, fast.mapping) == (
                checked.source, checked.target, checked.mapping)
            assert mg.crt_equivalent(fast) == mg.crt_equivalent(checked)

    def test_mapping_is_a_read_only_copy(self):
        # the caller's dict, edited after construction, made target_indices
        # [0 0 2 3] and still got a verdict
        sp = random_ptolemy_space(np.random.default_rng(11))
        given = {lab: lab for lab in sp.labels}
        corr = mg.PointedCorrespondence(sp, sp, given)
        before = (corr.target_indices().tolist(), mg.crt_equivalent(corr))
        given["p1"] = "p0"
        assert (corr.target_indices().tolist(), mg.crt_equivalent(corr)) == before
        for c in (corr, mg.PointedCorrespondence.identity(sp, sp)):
            with pytest.raises(TypeError):
                c.mapping["p1"] = "p0"
            assert c.target_indices().tolist() == list(range(sp.n))

    def test_three_points_refused(self):
        sp = mg.space_from_points(np.array([[0.0], [1.0], [3.0]]))
        with pytest.raises(ValueError, match="crt comparison needs at least four points"):
            mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, sp))

    def test_cardinality_mismatch(self):
        sp = random_ptolemy_space(np.random.default_rng(7))
        other = mg.space_from_points([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(mg.ValidationError):
            mg.PointedCorrespondence(sp, other, {lab: lab for lab in sp.labels})


class TestCircleInversionInvariant:
    def test_remove_any_point_and_invert_gives_collinear(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            curve = random_halfplane_curve(rng, R=2.0, n_interior=7)
            sp = mg.circle_from_curve(curve)
            apex_index(curve)  # generator sanity: the apex sample exists
            for j in range(sp.n):
                inv = mg.invert_at(sp, j)
                order = [(j + s) % sp.n for s in range(1, sp.n)]
                D = inv.dist
                for a, b, c in zip(order, order[1:], order[2:]):
                    scale = max(D[a, c], 1.0)
                    assert abs(D[a, b] + D[b, c] - D[a, c]) <= 1e-9 * scale


def _loose(labels, D, omega):
    # the spaces only carry the matrices: a loose tolerance admits any
    # positive symmetric matrix, as the bound is a property of matrices
    if omega is not None:
        D[omega, :] = D[:, omega] = np.inf
        D[omega, omega] = 0.0
    return mg.ExtendedMetricSpace(labels, D, omega, eps=1.0)


class TestConformalFactorBound:
    """The factor path's bound never falls below the scanned deviation."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(4, 9), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.sampled_from([0.0, 1e-3, 0.5, 3.0]),
           omegas=st.sampled_from([(None, None), (0, None), (None, 1), (2, 0)]),
           noise=st.sampled_from([0.0, 0.0, 1e-15, 1e-9, 1e-6, 1e-2]),
           eps_at=st.sampled_from([None, -1, 1]))
    def test_bound_covers_the_scan(self, n, seed, spread, omegas, noise, eps_at):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3)) * math.exp(rng.normal() * 3.0)
        U = np.linalg.norm(pts[:, None] - pts, axis=-1)
        lam = np.exp(rng.normal(size=n) * spread + rng.normal() * 5.0)
        k, m = omegas
        # remote points count as 1 in the products; pick the rows of U so
        # that the source's row k and the target's row m are exactly that
        if m is not None:
            if k is not None:
                lam[k] = 1.0 / lam[m]
            U[m, :] = U[:, m] = 1.0 / (lam[m] * lam)
        if k is not None:
            U[k, :] = U[:, k] = 1.0
        np.fill_diagonal(U, 0.0)
        V = np.outer(lam, lam) * U
        jitter = np.exp(noise * rng.normal(size=(n, n)))
        V *= np.sqrt(jitter * jitter.T)
        labels = tuple(f"x{i}" for i in range(n))
        src, tgt = _loose(labels, U, k), _loose(labels, V, m)
        dev, quad = max_crt_deviation(src.dist, None, tgt.dist, None, np.arange(n))
        eps = 1e-9 if eps_at is None else dev * (1.0 + eps_at * 1e-6)
        rep = mg.crt_equivalent(mg.PointedCorrespondence.identity(src, tgt), eps)
        assert dev <= rep.max_deviation
        assert rep.equivalent == (dev <= eps)
        assert rep.n_checked == math.comb(n, 4)
        if rep.method == "scan":
            assert rep.max_deviation == dev
            assert rep.witness == tuple(labels[i] for i in quad)
        else:
            assert rep.witness is None and rep.max_deviation <= eps
