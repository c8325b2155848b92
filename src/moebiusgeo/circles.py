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
from dataclasses import dataclass

import numpy as np

from .errors import NotPtolemyError, ValidationError
from .spaces import DEFAULT_EPS, ExtendedMetricSpace, max_crt_deviation
from .segments import DEFAULT_EPS_ARG, _anchor_products, _signed_matrix

SECTOR_SCAN_STEP = 1e-3


@dataclass
class SectorRegion:
    """The sector of points s*(R, 0) + t*x with -1 <= s <= 1 and t >= 0."""

    R: float
    x: np.ndarray

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError("R must be positive and finite")
        x = np.asarray(self.x, dtype=float)
        norm = np.linalg.norm(x)
        if norm <= 0:
            raise ValidationError("sector direction must be a nonzero vector")
        self.x = x / norm
        if abs(self.x[1]) <= 1e-12:
            raise ValidationError("sector direction is parallel to the base axis")


@dataclass
class SectorLocation:
    region: str
    s: float
    t: float


def sector_contains(sector: SectorRegion, v, eps: float = DEFAULT_EPS) -> SectorLocation:
    """Locate v via the decomposition v = s*(R, 0) + t*x."""
    v = np.asarray(v, dtype=float)
    t = v[1] / sector.x[1]
    s = (v[0] - t * sector.x[0]) / sector.R
    tol = eps * max(1.0, abs(s), abs(t) / sector.R)
    if abs(s) > 1.0 + tol or t < -tol * sector.R:
        return SectorLocation("outside", s, t)
    if abs(s) >= 1.0 - tol or t <= tol * sector.R:
        return SectorLocation("boundary", s, t)
    return SectorLocation("inside", s, t)


def _find_sector_witness(samples: np.ndarray, R: float, eps: float) -> np.ndarray:
    """Scan upward unit directions for one whose sector contains the curve.

    Directions are scanned on a fixed 1e-3 radian grid; when the feasible
    interval of slopes is narrower than the grid, its midpoint is used as a
    fallback candidate before giving up.
    """
    b = samples[:, 1]
    a = samples[:, 0]
    interior = b > eps * R
    slack = R * (1.0 + eps)
    if not interior.any():
        return np.array([0.0, 1.0])
    lower = ((a[interior] - slack) / b[interior]).max()
    upper = ((a[interior] + slack) / b[interior]).min()
    if lower > upper:
        raise ValidationError("no sector direction contains the curve")
    thetas = np.arange(SECTOR_SCAN_STEP, math.pi, SECTOR_SCAN_STEP)
    cots = np.cos(thetas) / np.sin(thetas)
    hits = np.flatnonzero((cots >= lower) & (cots <= upper))
    if len(hits):
        theta = thetas[hits[len(hits) // 2]]
        return np.array([math.cos(theta), math.sin(theta)])
    mid = 0.5 * (lower + upper)
    theta = math.atan2(1.0, mid)
    return np.array([math.cos(theta), math.sin(theta)])


@dataclass
class HalfplaneCurve:
    """An ordered sample sequence of a circle parameterization.

    The first and last samples represent the same circle point approached
    from either side; the sample count is one more than the point count of
    the encoded circle.  Validated on construction, including the search
    for a sector witness direction.
    """

    R: float
    samples: np.ndarray
    params: np.ndarray | None = None
    eps: float = DEFAULT_EPS
    eps_arg: float = DEFAULT_EPS_ARG

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValidationError("R must be positive and finite")
        S = np.array(self.samples, dtype=float)
        if S.ndim != 2 or S.shape[1] != 2 or S.shape[0] < 3:
            raise ValidationError("samples must be an (n >= 3, 2) array")
        if not np.isfinite(S).all():
            raise ValidationError("samples must be finite")
        tol = self.eps * self.R
        if S[:, 1].min() < -tol:
            k = int(np.argmin(S[:, 1]))
            raise ValidationError(f"sample {k} leaves the closed upper halfplane")
        S[:, 1] = np.clip(S[:, 1], 0.0, None)
        if np.linalg.norm(S[0] - (self.R, 0.0)) > tol:
            raise ValidationError("first sample must be (R, 0)")
        if np.linalg.norm(S[-1] - (-self.R, 0.0)) > tol:
            raise ValidationError("last sample must be (-R, 0)")
        args = np.arctan2(S[:, 1], S[:, 0])
        bad = np.argwhere(np.diff(args) <= self.eps_arg)
        if len(bad):
            raise ValidationError(
                f"argument is not strictly increasing at sample {int(bad[0, 0]) + 1}"
            )
        edges = np.diff(S, axis=0)
        turns = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
        if len(turns) and turns.min() < -self.eps * self.R ** 2:
            k = int(np.argmin(turns)) + 1
            raise ValidationError(f"polyline is not convex at sample {k}")
        self.sector_witness = _find_sector_witness(S, self.R, self.eps)
        n = S.shape[0]
        if self.params is None:
            self.params = np.linspace(0.0, 2.0, n)
        else:
            self.params = np.asarray(self.params, dtype=float)
            if self.params.shape != (n,) or (np.diff(self.params) <= 0).any():
                raise ValidationError("params must be strictly increasing, one per sample")
        self.samples = S

    @property
    def n(self) -> int:
        return len(self.samples)

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
    if R <= 0:
        raise ValueError("R must be positive")
    t = np.linspace(0.0, 2.0, n_samples + 1)
    samples = np.column_stack([R * np.cos(np.pi * t / 2), R * np.sin(np.pi * t / 2)])
    return HalfplaneCurve(R, samples, t, eps=eps)


def circle_from_curve(curve: HalfplaneCurve, labels=None) -> ExtendedMetricSpace:
    """The circle metric of a curve on its sampled points.

    The final sample duplicates the first point and is dropped; adjacency
    in the returned space is the cyclic sample order.
    """
    S = curve.samples[:-1]
    D = np.abs(_signed_matrix(S)) / curve.R
    np.fill_diagonal(D, 0.0)
    if labels is None:
        labels = [f"t{i}" for i in range(len(S))]
    return ExtendedMetricSpace(tuple(labels), D, None, eps=curve.eps)


def curve_from_circle(space: ExtendedMetricSpace, order=None, minus_one=None,
                      eps: float = DEFAULT_EPS) -> HalfplaneCurve:
    """Recover the halfplane curve of a circle metric.

    ``order`` lists the points cyclically (defaults to label order); the
    first entry is the base point.  ``minus_one`` names the second base
    point and defaults to the point farthest from the base, ties broken by
    lowest position.  Raises :class:`NotPtolemyError` when the cyclic
    Ptolemy equality fails.
    """
    if space.omega is not None:
        raise ValueError("circle classification requires a finite space")
    idx = [space.index(x) for x in (order if order is not None else space.labels)]
    if len(idx) != space.n or len(set(idx)) != space.n:
        raise ValueError("order must list every point exactly once")
    n = len(idx)
    if n < 3:
        raise ValueError("a circle needs at least three points")
    D = space.dist[np.ix_(idx, idx)]
    if minus_one is None:
        k = int(np.argmax(D[0]))
    else:
        k = idx.index(space.index(minus_one))
    if k == 0:
        raise ValueError("the second base point must differ from the first")
    R = D[0, k]
    if R <= eps * max(space.scale, 1.0):
        raise ValidationError("base points coincide")
    b = D[:, 0]
    sign = np.where(np.arange(n) <= k, 1.0, -1.0)
    a = sign * D[:, k]
    samples = np.vstack([np.column_stack([a, b]), [-R, 0.0]])
    sd = _signed_matrix(samples[:-1])
    resid = np.abs(D * R - sd)
    scale = np.maximum(np.abs(D) * R, np.abs(sd))
    iu = np.triu_indices(n, k=1)
    rel = resid[iu] / np.maximum(scale[iu], 1e-300)
    worst = int(np.argmax(rel))
    if rel[worst] > eps:
        i, j = iu[0][worst], iu[1][worst]
        witness = (space.labels[idx[0]], space.labels[idx[i]],
                   space.labels[idx[j]], space.labels[idx[k]])
        raise NotPtolemyError(
            f"cyclic Ptolemy equality fails around {witness} "
            f"(relative residual {rel[worst]:.3e})",
            witness=witness, residual=float(rel[worst]),
        )
    return HalfplaneCurve(R, samples, None, eps=eps)


def _loop_positions(D: np.ndarray, i1: int, i2: int, i3: int) -> np.ndarray:
    """Position in [0, 1.5) along the full boundary loop through the three
    corner triples, starting at the image of the first anchor."""
    P = _anchor_products(D, i1, i2, i3)
    T = P.sum(axis=1)
    if (T <= 0).any():
        raise ValidationError("degenerate anchors: cross-ratio products vanish")
    N = P / T[:, None]
    imax = np.argmax(N, axis=1)
    s = np.where(imax == 2, N[:, 0], np.where(imax == 0, 0.5 + N[:, 1], 1.0 + N[:, 2]))
    s[i1] = 0.0
    return s


def _rotated(order: list, start: int, reverse: bool) -> list:
    out = order[start:] + order[:start]
    if reverse:
        out = [out[0]] + out[1:][::-1]
    return out


@dataclass
class CircleMap:
    """A sampled Moebius homeomorphism between two circles."""

    src_labels: tuple[str, ...]
    dst_positions: np.ndarray
    dst_params: np.ndarray
    dst_points: np.ndarray
    max_crt_deviation: float | None = None
    witness: tuple[str, ...] | None = None


def circle_moebius_map(src_space: ExtendedMetricSpace, src_anchors,
                       dst_space: ExtendedMetricSpace, dst_anchors, *,
                       src_order=None, dst_order=None,
                       eps: float = DEFAULT_EPS, verify: bool = True) -> CircleMap:
    """The unique Moebius map between two circles matching anchor triples.

    Each point's position along the boundary loop of its own anchor triple
    is matched by monotone piecewise-linear inversion on the destination
    cycle, which is reoriented so the destination anchors follow the same
    rotational direction.  Mapped points are interpolated on the
    destination curve; with ``verify`` all mapped 4-subset cross-ratio
    triples are compared against the source.
    """
    src_labels = list(src_order if src_order is not None else src_space.labels)
    dst_labels = list(dst_order if dst_order is not None else dst_space.labels)
    src_idx = [src_space.index(x) for x in src_labels]
    dst_idx = [dst_space.index(x) for x in dst_labels]
    sa = [src_idx.index(src_space.index(x)) for x in src_anchors]
    da = [dst_idx.index(dst_space.index(x)) for x in dst_anchors]
    if len(set(sa)) != 3 or len(set(da)) != 3:
        raise ValueError("anchor triples must consist of three distinct points")
    n_src, n_dst = len(src_idx), len(dst_idx)

    curve_from_circle(src_space, order=src_labels, eps=eps)

    # reorient the destination cycle to start at x1' running toward x2'
    fwd2 = (da[1] - da[0]) % n_dst
    fwd3 = (da[2] - da[0]) % n_dst
    reverse = not fwd2 < fwd3
    dst_cycle = _rotated(dst_labels, da[0], reverse)
    dst_curve = curve_from_circle(dst_space, order=dst_cycle, eps=eps)
    dst_cycle_idx = [dst_space.index(x) for x in dst_cycle]

    Dd = dst_space.dist[np.ix_(dst_cycle_idx, dst_cycle_idx)]
    d1, d2, d3 = (dst_cycle_idx.index(dst_space.index(x)) for x in dst_anchors)
    s_dst = _loop_positions(Dd, d1, d2, d3)
    if (np.diff(s_dst) <= 0).any():
        raise ValidationError("destination loop positions are not monotone")

    Ds = src_space.dist[np.ix_(src_idx, src_idx)]
    s_src = _loop_positions(Ds, *sa)

    xp = np.append(s_dst, 1.5)
    positions = np.interp(s_src, xp, np.arange(n_dst + 1, dtype=float))
    mapped_params = np.interp(positions, np.arange(n_dst + 1, dtype=float), dst_curve.params)
    base = np.clip(np.floor(positions).astype(int), 0, n_dst - 1)
    frac = positions - base
    Sd = dst_curve.samples
    mapped_points = (1.0 - frac[:, None]) * Sd[base] + frac[:, None] * Sd[base + 1]

    dev = None
    witness = None
    if verify and n_src >= 4:
        Dm = np.abs(_signed_matrix(mapped_points)) / dst_curve.R
        np.fill_diagonal(Dm, 0.0)
        dev, quad = max_crt_deviation(Ds, None, Dm, None, np.arange(n_src))
        witness = tuple(src_space.labels[src_idx[i]] for i in quad)
    return CircleMap(tuple(src_labels), positions, mapped_params, mapped_points,
                     dev, witness)


def curve_to_json_dict(curve: HalfplaneCurve) -> dict:
    return {"kind": "circle", "R": float(curve.R),
            "samples": [[float(a), float(b)] for a, b in curve.samples]}


def curve_from_json_dict(data: dict, eps: float = DEFAULT_EPS) -> HalfplaneCurve:
    try:
        R = float(data["R"])
        samples = np.asarray(data["samples"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed curve JSON: {exc}") from exc
    return HalfplaneCurve(R, samples, None, eps=eps)
