"""Classification of Ptolemy circles via upper-halfplane curves.

A circle metric with a chosen base pair at distance R is encoded by the
curve t -> (a_t, b_t) in the closed upper halfplane, where b_t is the
distance to the first base point and a_t is the signed distance to the
second (positive on the first arc, negative on the second).  The curve
runs from (R, 0) through (0, R) to (-R, 0) with strictly increasing
argument, turns consistently, and is contained in a vertical-type sector
spanned over the base segment; distances are recovered as |<Jp, q>| / R.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .spaces import (DEFAULT_EPS, ExtendedMetricSpace, _check_count, _check_eps, _Frozen,
                     _Record, _unit_exponent, _Value)
from .segments import (_PlanarCurve, _anchor_triple, _check_convex, _check_length,
                       _curve_from_json, _curve_space, _curve_to_json, _loop_positions,
                       _map_onto, _ordered, _plane_vector, _recover)


class SectorRegion(_Frozen):
    """The sector of points s*(R, 0) + t*x with -1 <= s <= 1 and t >= 0."""

    R: float
    x: np.ndarray

    def __post_init__(self):
        _check_length(self.R)
        # at unit scale the norm neither overflows nor underflows; it cancels from x
        x = _plane_vector(self.x, "sector direction x")
        x = np.ldexp(x, -_unit_exponent(x))
        norm = np.linalg.norm(x)
        if not norm > 0:
            raise ValidationError("sector direction must be a nonzero vector, and finite")
        x = x / norm
        if abs(x[1]) <= 1e-12:
            raise ValidationError("sector direction is parallel to the base axis")
        x.flags.writeable = False
        vars(self)["x"] = x


class SectorLocation(_Value):
    """Where a point lies against a sector, and its coordinates s and t."""

    region: str
    s: float
    t: float


def sector_contains(sector: SectorRegion, v, eps: float = DEFAULT_EPS) -> SectorLocation:
    """Locate v via the decomposition v = s*(R, 0) + t*x."""
    _check_eps(eps)
    v = _plane_vector(v, "point")
    t = v[1] / sector.x[1]
    s = (v[0] - t * sector.x[0]) / sector.R
    tol = eps * max(1.0, abs(s), abs(t) / sector.R)
    if abs(s) > 1.0 + tol or t < -tol * sector.R:
        return SectorLocation("outside", s, t)
    if abs(s) >= 1.0 - tol or t <= tol * sector.R:
        return SectorLocation("boundary", s, t)
    return SectorLocation("inside", s, t)


def _find_sector_witness(samples: np.ndarray, R: float, eps: float) -> np.ndarray:
    """An upward unit direction whose sector contains the curve.

    Each sample off the base axis bounds the cotangent of the direction
    from both sides; the midpoint of the feasible interval is returned.  A
    power of two scales the samples and R, as in ``segments._check_convex``,
    so no bound overflows; the ratios are exact at every normal scale.
    """
    e = _unit_exponent(samples, R)
    a, b = np.ldexp(samples, -e).T
    R = math.ldexp(R, -e)
    interior = b > eps * R
    slack = R * (1.0 + eps)
    if not interior.any():
        return np.array([0.0, 1.0])
    lower = ((a[interior] - slack) / b[interior]).max()
    upper = ((a[interior] + slack) / b[interior]).min()
    if lower > upper:
        raise ValidationError("no sector direction contains the curve")
    theta = math.atan2(1.0, 0.5 * (lower + upper))
    return np.array([math.cos(theta), math.sin(theta)])


class HalfplaneCurve(_PlanarCurve):
    """An ordered sample sequence of a circle parameterization.

    The first and last samples represent the same circle point approached
    from either side; the sample count is one more than the point count of
    the encoded circle.  Validated on construction, including the search
    for a sector witness direction.
    """

    _end = 2.0
    _closed = True

    def __post_init__(self):
        S = self._checked_samples(3, slice(1, 2), "upper halfplane", (-self.R, 0.0), "(-R, 0)")
        _check_convex(S, self.R, self.eps)
        S.flags.writeable = False
        vars(self).update(samples=S, sector_witness=_find_sector_witness(S, self.R, self.eps))

    @property
    def n_points(self) -> int:
        return len(self.samples) - 1

    def sector(self) -> SectorRegion:
        return SectorRegion(self.R, self.sector_witness)


def chordal_circle_curve(R: float, n_samples: int = 64,
                         eps: float = DEFAULT_EPS) -> HalfplaneCurve:
    """The curve of the round circle of diameter R (chord metric).

    Samples sit at parameters t = 0, ..., 2 with coordinates
    (R cos(pi t / 2), R sin(pi t / 2)); an even ``n_samples`` places a
    sample exactly at (0, R).
    """
    _check_length(R)
    _check_count(n_samples, "n_samples", 2)
    t = np.linspace(0.0, 2.0, n_samples + 1)
    samples = np.column_stack([R * np.cos(np.pi * t / 2), R * np.sin(np.pi * t / 2)])
    return HalfplaneCurve(R, samples, eps=eps)


def circle_from_curve(curve: HalfplaneCurve) -> ExtendedMetricSpace:
    """The circle metric of a curve on its sampled points.

    The final sample duplicates the first point and is dropped; adjacency
    in the returned space is the cyclic sample order.
    """
    return _curve_space(curve, curve.samples[:-1])


def curve_from_circle(space: ExtendedMetricSpace, order=None, minus_one=None) -> HalfplaneCurve:
    """Recover the halfplane curve of a circle metric.

    ``order`` lists the points cyclically (defaults to label order); the
    first entry is the base point.  ``minus_one`` names the second base
    point and defaults to the point farthest from the base, ties broken by
    lowest position.  Raises :class:`NotPtolemyError` when the cyclic
    Ptolemy equality fails.
    """
    idx, D = _ordered(space, order, "circle", "three", 3)
    if minus_one is None:
        k = int(np.argmax(D[0]))
    else:
        k = idx.index(space.index(minus_one))
    if k == 0:
        raise ValueError("the second base point must differ from the first")
    return _recover(HalfplaneCurve, space, idx, D, k, "base points coincide",
                    "cyclic Ptolemy equality fails around")


class CircleMap(_Record):
    """A sampled Moebius homeomorphism between two circles."""

    src_labels: tuple[str, ...]
    dst_positions: np.ndarray
    dst_params: np.ndarray
    dst_points: np.ndarray
    max_crt_deviation: float | None = None
    witness: tuple[str, ...] | None = None


def circle_moebius_map(src_space: ExtendedMetricSpace, src_anchors,
                       dst_space: ExtendedMetricSpace, dst_anchors) -> CircleMap:
    """The unique Moebius map between two circles matching anchor triples.

    Both circles run cyclically in label order.  Each point's position
    along the boundary loop of its own anchor triple is matched by monotone
    piecewise-linear inversion on the destination cycle, which is
    reoriented so the destination anchors follow the same rotational
    direction.  The stage shared with segments (``segments._map_onto``)
    interpolates the mapped points on the destination curve and compares
    all mapped 4-subset cross-ratio triples against the source.
    """
    sa = _anchor_triple(src_space, src_anchors)
    da = _anchor_triple(dst_space, dst_anchors)
    n_dst = dst_space.n

    curve_from_circle(src_space)

    # reorient the destination cycle to start at x1' running toward x2'
    step = 1 if (da[1] - da[0]) % n_dst < (da[2] - da[0]) % n_dst else -1
    dst_cycle_idx = [(da[0] + step * i) % n_dst for i in range(n_dst)]
    dst_curve = curve_from_circle(dst_space, order=dst_cycle_idx)

    s_dst = _loop_positions(dst_space.dist, *da)[dst_cycle_idx]
    if (np.diff(s_dst) <= 0).any():
        raise ValidationError("destination loop positions are not monotone")

    s_src = _loop_positions(src_space.dist, *sa)

    grid = np.arange(n_dst + 1, dtype=float)  # the cycle positions of the destination samples
    positions = np.interp(s_src, np.append(s_dst, 1.5), grid)
    mapped = _map_onto(positions, grid, dst_curve.params, dst_curve.samples, src_space,
                       dst_curve.R)
    return CircleMap(src_space.labels, positions, *mapped)


def curve_to_json_dict(curve: HalfplaneCurve) -> dict:
    return _curve_to_json(curve, kind="circle")


def curve_from_json_dict(data: dict, eps: float = DEFAULT_EPS) -> HalfplaneCurve:
    return _curve_from_json(HalfplaneCurve, data, eps)
