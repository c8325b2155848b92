"""Sphere models: chordal metric, stereographic projection, circumcircles,
sample corpora."""

import math

import numpy as np
import pytest

import moebiusgeo as mg
from moebiusgeo import spheres
from moebiusgeo.errors import ValidationError

from helpers import csv_bytes, ordered_quads, ptolemy_equality_residuals


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestChordalMetric:
    def test_antipodal(self):
        assert np.isclose(mg.chordal_metric([0, 0, 1], [0, 0, -1]), 2.0)

    def test_orthogonal(self):
        assert np.isclose(mg.chordal_metric([1, 0, 0], [0, 1, 0]), np.sqrt(2.0))

    def test_same_point(self):
        assert mg.chordal_metric([1, 0, 0], [1, 0, 0]) == 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            mg.chordal_metric([1, 1, 0], [0, 0, 1])

    @pytest.mark.parametrize("u", [[math.nan, 0.0], [math.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_rejected(self, u):
        with pytest.raises(ValidationError, match="not a unit vector"):
            mg.chordal_metric(u, [1.0, 0.0])
        with pytest.raises(ValidationError, match="not a unit vector"):
            mg.stereographic(u)

    @pytest.mark.parametrize("u", [[1.0], [[1.0, 0.0]]], ids=["length-1", "2-d"])
    def test_not_a_vector_of_length_two_rejected(self, u):
        with pytest.raises(ValidationError, match="1-d unit vectors of length >= 2"):
            mg.chordal_metric(u, [1.0, 0.0])


class TestStereographic:
    def test_south_pole_to_origin(self):
        assert np.allclose(mg.stereographic([0.0, 0.0, -1.0]), [0.0, 0.0])

    def test_equator_fixed(self):
        assert np.allclose(mg.stereographic([1.0, 0.0, 0.0]), [1.0, 0.0])

    def test_pole_to_infinity(self):
        assert mg.stereographic([0.0, 0.0, 1.0]) is None

    def test_pole_of_another_dimension_rejected(self):
        with pytest.raises(ValidationError, match="pole dimension does not match the point"):
            mg.stereographic([0.0, 0.0, 1.0], pole=[0.0, 1.0])

    @pytest.mark.parametrize("theta", [1e-9, 1e-5], ids=["1e-9", "1e-5"])
    def test_near_the_pole(self, theta):
        # 1 - u_k cancelled: at 1e-9 cos rounds to 1, and the image was [nan, inf]
        x, y = mg.stereographic([0.0, math.sin(theta), math.cos(theta)])
        assert x == 0.0 and math.isclose(y, 1.0 / math.tan(theta / 2.0), rel_tol=1e-12)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: mg.stereographic(["a", "b"]), "u must hold numbers, not strings",
                     id="stereographic-letters"),
        pytest.param(lambda: mg.chordal_metric([1.0, 0.0], ["a", "b"]),
                     "v must hold numbers, not strings", id="chordal-letters"),
        pytest.param(lambda: mg.circumcircle_three(["a", "b"], (0, 1), (1, 0)),
                     "x1 must hold numbers, not strings", id="circumcircle-letters"),
    ])
    def test_cells_are_numbers(self, build, message):
        # numpy's own ValueError ("could not convert string to float") escaped
        with pytest.raises(ValidationError, match=message):
            build()

    def test_distance_identity(self):
        # |su - sv| = 2 |u - v| / (|u - N| |v - N|), checked pointwise
        rng = np.random.default_rng(0)
        N = np.array([0.0, 0.0, 1.0])
        for _ in range(100):
            u = unit(rng.normal(size=3))
            v = unit(rng.normal(size=3))
            su, sv = mg.stereographic(u), mg.stereographic(v)
            lhs = np.linalg.norm(su - sv)
            rhs = 2.0 * np.linalg.norm(u - v) / (
                np.linalg.norm(u - N) * np.linalg.norm(v - N))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)

    def test_crt_preserved(self):
        def entries(pts):
            D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            prods = np.array([D[0, 1] * D[2, 3], D[0, 2] * D[1, 3], D[0, 3] * D[1, 2]])
            return prods / prods.sum()

        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            pts = np.array([unit(rng.normal(size=3)) for _ in range(4)])
            proj = np.array([mg.stereographic(p) for p in pts])
            worst = max(worst, np.abs(entries(pts) - entries(proj)).max())
        assert worst <= 1e-12

    def test_crt_preserved_through_spaces(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pts = np.array([unit(rng.normal(size=3)) for _ in range(4)])
            chordal = mg.space_from_points(pts)
            proj = np.array([mg.stereographic(p) for p in pts])
            plane = mg.space_from_points(proj)
            dev = mg.crt(chordal, (0, 1, 2, 3)).deviation(mg.crt(plane, (0, 1, 2, 3)))
            assert dev <= 1e-12

    def test_crt_preserved_with_pole_in_quadruple(self):
        rng = np.random.default_rng(2)
        pole = unit(rng.normal(size=3))
        pts = [unit(rng.normal(size=3)) for _ in range(3)]
        chordal = mg.space_from_points(np.vstack([pts, pole]))
        proj = np.array([mg.stereographic(p, pole) for p in pts])
        plane = mg.space_from_points(proj, add_omega=True)
        dev = mg.crt(chordal, (0, 1, 2, 3)).deviation(mg.crt(plane, (0, 1, 2, 3)))
        assert dev <= 1e-12

    def test_arbitrary_pole_projects_pole_itself(self):
        pole = unit([1.0, 2.0, -0.5])
        assert mg.stereographic(pole, pole) is None


class TestCircumcircle:
    def test_right_triangle(self):
        circ = mg.circumcircle_three((0, 0), (1, 0), (0, 1))
        assert np.allclose(circ.center, [0.5, 0.5])
        assert np.isclose(circ.radius, np.sqrt(2.0) / 2.0)

    def test_inputs_on_circle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts = rng.normal(size=(3, 3))
            circ = mg.circumcircle_three(*pts)
            for p in pts:
                assert abs(np.linalg.norm(p - circ.center) - circ.radius) <= 1e-10
            assert np.allclose(circ.points[0], pts[0])

    def test_equator_from_three_points(self):
        theta = np.array([0.1, 1.9, 4.0])
        pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(3)])
        circ = mg.circumcircle_three(*pts)
        assert np.allclose(circ.center, 0.0, atol=1e-12)
        assert np.isclose(circ.radius, 1.0)
        assert np.abs(np.linalg.norm(circ.points, axis=1) - 1.0).max() <= 1e-12

    def test_sampled_quadruples_satisfy_equality(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(3, 2))
        sp = mg.circumcircle_three(*pts, n_samples=24).space()
        quads = ordered_quads(24)
        assert ptolemy_equality_residuals(sp.dist, quads).max() <= 1e-9
        assert mg.is_circle_quadruple(sp, (0, 5, 11, 19))

    def test_two_triples_same_circle(self):
        rng = np.random.default_rng(5)
        circ = mg.circumcircle_three(*rng.normal(size=(3, 3)))
        p = circ.points
        other = mg.circumcircle_three(p[2], p[9], p[17])
        assert np.abs(other.center - circ.center).max() <= 1e-10
        assert abs(other.radius - circ.radius) <= 1e-10

    def test_collinear_rejected(self):
        with pytest.raises(ValidationError, match="collinear"):
            mg.circumcircle_three((0, 0), (1, 1), (2, 2))

    def test_write_csv(self, tmp_path):
        circ = mg.circumcircle_three((0, 0), (1, 0), (0, 1), n_samples=8)
        path = tmp_path / "circle.csv"
        circ.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,x0,x1"
        assert len(lines) == 9

    @pytest.mark.parametrize("points, n_samples", [
        (((0, 0), (1, 0), (0, 1)), 8),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5),
        (((0.0, 1e-7, 3.0), (2.5e6, 0.0, 1.0), (-1.0, 7.0, 0.125)), 3),
    ], ids=["plane", "space", "wide_range"])
    def test_write_csv_bytes(self, points, n_samples, tmp_path):
        circ = mg.circumcircle_three(*points, n_samples=n_samples)
        path = tmp_path / "circle.csv"
        circ.write_csv(str(path))
        m, k = circ.points.shape
        theta = 2.0 * np.pi * np.arange(m) / m
        assert path.read_bytes() == csv_bytes(["theta", *(f"x{i}" for i in range(k))],
                                              [theta, *circ.points.T])

    def test_coincident_rejected(self):
        with pytest.raises(ValidationError, match="coincide"):
            mg.circumcircle_three((0, 0), (0, 0), (1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, bad):
        # a NaN gave a NaN circle, and an infinity read as coincident points
        with pytest.raises(ValidationError, match="inputs must be finite"):
            mg.circumcircle_three((bad, 0.0), (1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("points, radius", [
        (((1e300, 0.0), (0.0, 1e300), (-1e300, 0.0)), 1e300),
        (((3e200, 0.0, 0.0), (0.0, 3e200, 0.0), (0.0, 0.0, 3e200)), 3e200 * math.sqrt(2 / 3)),
    ], ids=["plane", "space"])
    def test_near_the_largest_float(self, points, radius):
        # the edge norms overflowed to inf, and the points were refused as coincident
        circ = mg.circumcircle_three(*points)
        assert math.isclose(circ.radius, radius, rel_tol=1e-15)
        for p in points:
            assert math.isclose(math.hypot(*(np.asarray(p) - circ.center)), radius, rel_tol=1e-15)
        assert np.allclose(circ.points[0], points[0], rtol=1e-15, atol=1e-15 * radius)

    @pytest.mark.parametrize("k", [-30, 30, 600, 1000])
    def test_a_power_of_two_scales_the_circle_exactly(self, k):
        pts = np.random.default_rng(6).normal(size=(3, 3))
        ref = mg.circumcircle_three(*pts)
        circ = mg.circumcircle_three(*np.ldexp(pts, k))
        assert np.array_equal(circ.center, np.ldexp(ref.center, k))
        assert circ.radius == math.ldexp(ref.radius, k)
        assert np.array_equal(circ.points, np.ldexp(ref.points, k))
        assert np.array_equal(circ.basis, ref.basis)

    def test_side_1e_300_is_refused(self):
        # the floor 1e-12 * max(scale, 1) still reads the unit of length
        with pytest.raises(ValidationError, match="coincide"):
            mg.circumcircle_three((0.0, 0.0), (1e-300, 0.0), (0.0, 1e-300))

    def test_vectors_of_different_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="common dimension >= 2"):
            mg.circumcircle_three((0, 0), (1, 0), (0, 0, 1))


class TestSampleSpace:
    def test_sphere_and_hemisphere_are_ptolemy(self):
        for seed in range(5):
            assert mg.is_ptolemy(mg.sample_space("sphere", 2, 12, seed)).holds
            assert mg.is_ptolemy(mg.sample_space("hemisphere", 2, 12, seed)).holds

    def test_l1_always_fails(self):
        for seed in range(5):
            assert not mg.is_ptolemy(mg.sample_space("l1", 2, 8, seed)).holds

    def test_line_plus_omega_all_circle_quadruples(self):
        sp = mg.sample_space("line", 1, 8, seed=7)
        boundary, total = mg.circle_quadruple_census(sp)
        assert boundary == total > 0

    def test_halfspace_and_ball_complement(self):
        for kind in ("halfspace", "ball-complement"):
            sp = mg.sample_space(kind, 3, 10, seed=1)
            assert sp.omega == 10
            assert mg.is_ptolemy(sp).holds

    def test_determinism(self):
        a = mg.sample_space("sphere", 3, 10, seed=42)
        b = mg.sample_space("sphere", 3, 10, seed=42)
        assert np.array_equal(
            a.dist[np.isfinite(a.dist)], b.dist[np.isfinite(b.dist)])
        c = mg.sample_space("sphere", 3, 10, seed=43)
        assert not np.array_equal(
            a.dist[np.isfinite(a.dist)], c.dist[np.isfinite(c.dist)])

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            mg.sample_space("sphere", 5, 10, 0)
        with pytest.raises(ValueError):
            mg.sample_space("sphere", 2, 65, 0)
        with pytest.raises(ValueError):
            mg.sample_space("klein-bottle", 2, 10, 0)

    def test_a_vanishing_draw_is_redrawn(self):
        class Draws:  # a generator whose first draw holds two rows of norm below 1e-12
            def __init__(self):
                self.draws = [np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 1e-13]]),
                              np.array([[0.0, 2.0], [6.0, 8.0]])]

            def standard_normal(self, shape):
                g = self.draws.pop(0)
                assert g.shape == shape
                return g

        rows = spheres._unit_rows(Draws(), 3, 2)
        assert np.array_equal(rows, [[0.6, 0.8], [0.0, 1.0], [0.6, 0.8]])
