"""Sphere models: chordal metric, stereographic projection, circumcircles,
sample corpora."""

import numpy as np
import pytest

import moebiusgeo as mg
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


class TestStereographic:
    def test_south_pole_to_origin(self):
        assert np.allclose(mg.stereographic([0.0, 0.0, -1.0]), [0.0, 0.0])

    def test_equator_fixed(self):
        assert np.allclose(mg.stereographic([1.0, 0.0, 0.0]), [1.0, 0.0])

    def test_pole_to_infinity(self):
        assert mg.stereographic([0.0, 0.0, 1.0]) is None

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
