"""Round-sphere models: chordal metric, stereographic projection,
circumcircles through three points, and seeded sample corpora.

Sample generation is deterministic: points come from ``numpy``'s
``default_rng`` seeded by the caller, with uniform sphere samples obtained
by normalizing standard Gaussian draws.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .spaces import (DEFAULT_EPS, ExtendedMetricSpace, _check_count, _float_array, _Record,
                     _unit_exponent, _write_csv, space_from_points)

UNIT_TOL = 1e-12

MAX_DIMENSION = 4
MAX_COUNT = 64

SAMPLE_KINDS = ("sphere", "hemisphere", "euclidean", "halfspace",
                "ball-complement", "line", "l1")


def _check_unit(u, name: str) -> np.ndarray:
    u = _float_array(u, name)
    if u.ndim != 1 or len(u) < 2:
        raise ValidationError("sphere points are 1-d unit vectors of length >= 2")
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_TOL:  # true for NaN too
        raise ValidationError(f"not a unit vector: |u| = {np.linalg.norm(u)!r}")
    return u


def chordal_metric(u, v) -> float:
    """Euclidean distance between two unit vectors; ranges over [0, 2]."""
    return float(np.linalg.norm(_check_unit(u, "u") - _check_unit(v, "v")))


def stereographic(u, pole=None) -> np.ndarray | None:
    """Stereographic projection of a unit vector from the given pole.

    The default pole is the last coordinate axis; other poles are handled
    by first reflecting them onto it (an isometry of the sphere).  The pole
    itself maps to the point at infinity, returned as None.  In the northern
    hemisphere the denominator 1 - u_k, which cancels near the pole, is
    computed as |u_perp|^2 / (1 + u_k), equal for a unit vector.
    """
    u = _check_unit(u, "u")
    k = len(u)
    north = np.zeros(k)
    north[-1] = 1.0
    if pole is None:
        pole = north
    else:
        pole = _check_unit(pole, "pole")
        if len(pole) != k:
            raise ValidationError("pole dimension does not match the point")
    if np.linalg.norm(u - pole) <= UNIT_TOL:
        return None
    v = pole - north
    if np.linalg.norm(v) > UNIT_TOL:
        u = u - 2.0 * v * (v @ u) / (v @ v)
    w, h = u[:-1], u[-1]
    return w / ((w @ w) / (1.0 + h) if h > 0.0 else 1.0 - h)


class SampledCircle(_Record):
    """A circle in k-dimensional Euclidean space with cyclic samples."""

    center: np.ndarray
    radius: float
    basis: np.ndarray
    points: np.ndarray

    def space(self, labels=None, eps: float = DEFAULT_EPS) -> ExtendedMetricSpace:
        """Chord-distance metric space of the samples, in cyclic order."""
        if labels is None:
            labels = [f"c{i}" for i in range(len(self.points))]
        return space_from_points(self.points, labels, eps=eps)

    def write_csv(self, path: str) -> None:
        """Sample table (theta, x0, x1, ...) for external plotting."""
        m, k = self.points.shape
        theta = 2.0 * np.pi * np.arange(m) / m
        _write_csv(path, ["theta", *(f"x{i}" for i in range(k))], [theta, *self.points.T])


def circumcircle_three(x1, x2, x3, n_samples: int = 24) -> SampledCircle:
    """The circle through three affinely independent points.

    Works in any ambient dimension >= 2 by solving in the plane the points
    span; for unit vectors this is the circle cut out of the sphere by that
    plane.  The first sample coincides with ``x1`` and the three inputs lie
    on the circle to machine accuracy.
    """
    _check_count(n_samples, "n_samples", 1)
    pts = [_float_array(p, name) for p, name in ((x1, "x1"), (x2, "x2"), (x3, "x3"))]
    if len({p.shape for p in pts}) != 1 or pts[0].ndim != 1 or len(pts[0]) < 2:
        raise ValidationError("inputs must be three vectors of a common dimension >= 2")
    if not np.isfinite(pts).all():
        raise ValidationError("inputs must be finite")
    # a power of two scales the largest coordinate into [1/2, 1) (below, if it
    # is subnormal: 2^-e stays finite), so no norm overflows; exactly undone below
    e = max(_unit_exponent(*pts), -1021)
    p1, p2, p3 = (np.ldexp(p, -e) for p in pts)
    v1 = p2 - p1
    v2 = p3 - p1
    n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
    floor = 1e-12 * max(n1, n2, math.ldexp(1.0, -e))  # 1e-12 * max(scale, 1) unscaled
    if min(n1, n2, np.linalg.norm(p3 - p2)) <= floor:
        raise ValidationError("points coincide")
    e1 = v1 / n1
    f = v2 - (v2 @ e1) * e1
    cy = np.linalg.norm(f)
    if cy <= floor:
        raise ValidationError("points are collinear")
    e2 = f / cy
    cx = v2 @ e1
    ux = n1 / 2.0
    uy = (cx * cx + cy * cy - 2.0 * ux * cx) / (2.0 * cy)
    radius = math.hypot(ux, uy)
    center = p1 + ux * e1 + uy * e2
    u_dir = (p1 - center) / radius
    u2d = np.array([u_dir @ e1, u_dir @ e2])
    w_dir = -u2d[1] * e1 + u2d[0] * e2
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    points = center + radius * (np.cos(theta)[:, None] * u_dir + np.sin(theta)[:, None] * w_dir)
    return SampledCircle(np.ldexp(center, e), math.ldexp(radius, e), np.vstack([e1, e2]),
                         np.ldexp(points, e))


def _unit_rows(rng, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    while True:
        norms = np.sqrt((g * g).sum(axis=1))  # np.linalg.norm's formula, without its dispatch
        redo = norms < 1e-12
        if not redo.any():
            return g / norms[:, None]
        g[redo] = rng.standard_normal((int(redo.sum()), dim))


def sample_space(kind: str, n: int = 2, count: int = 12, seed: int = 0,
                 eps: float = DEFAULT_EPS) -> ExtendedMetricSpace:
    """A reproducible random test space of the requested kind.

    Kinds: "sphere" and "hemisphere" (chordal metric on S^n), "euclidean"
    (points of E^n), "halfspace" and "ball-complement" (E^n subsets, with a
    remote point appended), "line" (collinear points plus a remote point),
    and "l1" (taxicab plane metric; always contains an axis-aligned square,
    so it always fails the Ptolemy inequality).
    """
    if kind not in SAMPLE_KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; choose from {SAMPLE_KINDS}")
    _check_count(n, "dimension", 1, MAX_DIMENSION)
    _check_count(count, "count", 1, MAX_COUNT)
    rng = np.random.default_rng(seed)
    if kind == "l1":  # taxicab plane with an embedded square witness
        if count < 4:
            raise ValueError("l1 samples need at least four points for the square witness")
        dim = max(n, 2)
        pts = rng.uniform(-1.0, 1.0, (count, dim))
        cx, cy = rng.uniform(-1.0, 1.0, 2)
        h = rng.uniform(0.2, 1.0)
        square = np.array([[cx - h, cy - h], [cx + h, cy - h], [cx + h, cy + h], [cx - h, cy + h]])
        pts[:4, :2] = square
        if dim > 2:
            pts[:4, 2:] = rng.uniform(-1.0, 1.0, dim - 2)
        return space_from_points(pts, p=1.0, eps=eps)
    if kind in ("sphere", "hemisphere"):
        pts = _unit_rows(rng, count, n + 1)
    elif kind in ("euclidean", "halfspace"):
        pts = rng.standard_normal((count, n))
    elif kind == "ball-complement":
        pts = _unit_rows(rng, count, n) * (1.0 + rng.exponential(1.0, count))[:, None]
    else:  # line
        pts = np.sort(rng.standard_normal(count))[:, None]
    if kind in ("hemisphere", "halfspace"):
        pts[:, -1] = np.abs(pts[:, -1])
    return space_from_points(pts, add_omega=kind in ("halfspace", "ball-complement", "line"),
                             eps=eps)
