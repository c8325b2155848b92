"""Classification of Ptolemy segments via planar quadrant curves.

A segment metric with endpoints at distance R is encoded by the curve
t -> (d(t, far end), d(t, near end)) in the closed first quadrant, running
from (R, 0) to (0, R).  Distances are recovered from the signed area form
<Jp, q> = a_p b_q - b_p a_q divided by R; curves that are convex, sweep a
strictly increasing argument, and stay inside the wedge spanned by the two
endpoint images correspond exactly to valid segment metrics.  The curve
checks, recovery, anchor positions, map check and JSON here serve circles too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPtolemyError, ValidationError
from .spaces import DEFAULT_EPS, ExtendedMetricSpace, max_crt_deviation

DEFAULT_EPS_ARG = 1e-10


def signed_distance(p, q):
    """<Jp, q> = a_p b_q - b_p a_q; antisymmetric, broadcasts over stacks."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def ptolemy_identity_residual(p1, p2, p3, p4):
    """<Jp1,p2><Jp3,p4> + <Jp2,p3><Jp1,p4> - <Jp1,p3><Jp2,p4>.

    Vanishes identically for arbitrary planar points; broadcasts.
    """
    return (signed_distance(p1, p2) * signed_distance(p3, p4)
            + signed_distance(p2, p3) * signed_distance(p1, p4)
            - signed_distance(p1, p3) * signed_distance(p2, p4))


@dataclass
class WedgeRegion:
    """The region T(u, w) of points lam*u + mu*w whose (lam, mu, 1) satisfy
    the triangle inequality, with lam, mu >= 0."""

    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        det = signed_distance(self.u, self.w)
        nu = np.linalg.norm(self.u)
        nw = np.linalg.norm(self.w)
        if abs(det) <= 1e-14 * max(nu * nw, 1.0):
            raise ValidationError("wedge directions are collinear")
        if det < 0:
            raise ValidationError("wedge requires arg(u) < arg(w)")


@dataclass
class WedgeLocation:
    region: str
    lam: float
    mu: float


def wedge_contains(wedge: WedgeRegion, v, eps: float = DEFAULT_EPS) -> WedgeLocation:
    """Locate v relative to T(u, w) via its decomposition v = lam*u + mu*w."""
    v = np.asarray(v, dtype=float)
    det = signed_distance(wedge.u, wedge.w)
    lam = signed_distance(v, wedge.w) / det
    mu = signed_distance(wedge.u, v) / det
    tol = eps * max(1.0, abs(lam), abs(mu))
    conditions = (lam, mu, lam + mu - 1.0, 1.0 + lam - mu, 1.0 + mu - lam)
    if min(conditions) < -tol:
        return WedgeLocation("outside", lam, mu)
    if min(conditions) <= tol:
        return WedgeLocation("boundary", lam, mu)
    return WedgeLocation("inside", lam, mu)


def _curve_samples(R: float, samples, eps: float, min_n: int, clipped: slice,
                   region: str, last: tuple[float, float], last_text: str) -> np.ndarray:
    """Checks shared by quadrant and halfplane curves; returns the samples.

    Coordinates in ``clipped`` must be nonnegative up to eps * R (the closed
    ``region``) and are clipped to zero; the first sample must be (R, 0),
    the last ``last``, and the argument must increase strictly.
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise ValidationError("R must be positive and finite")
    S = np.array(samples, dtype=float)
    if S.ndim != 2 or S.shape[1] != 2 or S.shape[0] < min_n:
        raise ValidationError(f"samples must be an (n >= {min_n}, 2) array")
    if not np.isfinite(S).all():
        raise ValidationError("samples must be finite")
    tol = eps * R
    below = (S[:, clipped] < -tol).any(axis=1)
    if below.any():
        raise ValidationError(f"sample {int(np.argmax(below))} leaves the closed {region}")
    np.clip(S[:, clipped], 0.0, None, out=S[:, clipped])
    if np.linalg.norm(S[0] - (R, 0.0)) > tol:
        raise ValidationError("first sample must be (R, 0)")
    if np.linalg.norm(S[-1] - last) > tol:
        raise ValidationError(f"last sample must be {last_text}")
    args = np.arctan2(S[:, 1], S[:, 0])
    bad = np.argwhere(np.diff(args) <= DEFAULT_EPS_ARG)
    if len(bad):
        raise ValidationError(
            f"argument is not strictly increasing at sample {int(bad[0, 0]) + 1}"
        )
    return S


def _check_convex(S: np.ndarray, R: float, eps: float) -> None:
    """Discrete convexity: consecutive edges never turn clockwise."""
    edges = np.diff(S, axis=0)
    turns = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
    if len(turns) and turns.min() < -eps * R ** 2:
        k = int(np.argmin(turns)) + 1
        raise ValidationError(f"polyline is not convex at sample {k}")


def _curve_params(params, n: int, end: float) -> np.ndarray:
    """Sample parameters: evenly spaced on [0, end] by default."""
    if params is None:
        return np.linspace(0.0, end, n)
    params = np.asarray(params, dtype=float)
    if params.shape != (n,) or (np.diff(params) <= 0).any():
        raise ValidationError("params must be strictly increasing, one per sample")
    return params


@dataclass
class QuadrantCurve:
    """An ordered sample sequence of a segment parameterization.

    Samples run from (R, 0) to (0, R) in the closed first quadrant with
    strictly increasing argument, stay inside the endpoint wedge, and turn
    consistently (discrete convexity).  Validated on construction.
    """

    R: float
    samples: np.ndarray
    params: np.ndarray | None = None
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        S = _curve_samples(self.R, self.samples, self.eps, 2, slice(None),
                           "first quadrant", (0.0, self.R), "(0, R)")
        lam, mu = S.T / self.R
        wedge_ok = (lam + mu >= 1.0 - self.eps) & (np.abs(lam - mu) <= 1.0 + self.eps)
        if not wedge_ok.all():
            k = int(np.argwhere(~wedge_ok)[0, 0])
            raise ValidationError(f"sample {k} leaves the endpoint wedge")
        _check_convex(S, self.R, self.eps)
        self.params = _curve_params(self.params, len(S), 1.0)
        self.samples = S

    @property
    def n(self) -> int:
        return len(self.samples)

    def reflected(self) -> "QuadrantCurve":
        """Reflection across the quadrant bisector; an isometric segment."""
        return QuadrantCurve(self.R, self.samples[::-1, ::-1].copy(), None, eps=self.eps)


def _signed_matrix(samples: np.ndarray) -> np.ndarray:
    a = samples[:, 0]
    b = samples[:, 1]
    return np.outer(a, b) - np.outer(b, a)


def _area_metric(points: np.ndarray, R: float) -> np.ndarray:
    """The matrix |<Jp, q>| / R over all pairs of points, with a zero diagonal."""
    D = np.abs(_signed_matrix(points)) / R
    np.fill_diagonal(D, 0.0)
    return D


def _curve_space(points: np.ndarray, R: float, labels, eps: float) -> ExtendedMetricSpace:
    if labels is None:
        labels = [f"t{i}" for i in range(len(points))]
    return ExtendedMetricSpace(tuple(labels), _area_metric(points, R), None, eps=eps)


def segment_from_curve(curve: QuadrantCurve, labels=None) -> ExtendedMetricSpace:
    """The segment metric of a curve: d(s, t) = |<Jp_s, p_t>| / R.

    The result satisfies the Ptolemy equality for every ordered quadruple.
    """
    return _curve_space(curve.samples, curve.R, labels, curve.eps)


def _ordered(space: ExtendedMetricSpace, order, shape: str, least: str, min_n: int):
    """Point indices in ``order`` (default: label order) and the reordered matrix."""
    if space.omega is not None:
        raise ValueError(f"{shape} classification requires a finite space")
    idx = [space.index(x) for x in (order if order is not None else space.labels)]
    if len(idx) != space.n or len(set(idx)) != space.n:
        raise ValueError("order must list every point exactly once")
    if len(idx) < min_n:
        raise ValueError(f"a {shape} needs at least {least} points")
    return idx, space.dist[np.ix_(idx, idx)]


def _check_area_form(D: np.ndarray, R: float, samples: np.ndarray, labels: list,
                     k: int, eps: float, failure: str) -> None:
    """Raise :class:`NotPtolemyError` unless R * D matches the area form of the samples.

    The witness is the worst pair with the base points labels[0] and labels[k].
    """
    sd = _signed_matrix(samples)
    resid = np.abs(D * R - sd)
    scale = np.maximum(np.abs(D) * R, np.abs(sd))
    iu = np.triu_indices(len(D), k=1)
    rel = resid[iu] / np.maximum(scale[iu], 1e-300)
    worst = int(np.argmax(rel))
    if rel[worst] > eps:
        i, j = iu[0][worst], iu[1][worst]
        witness = (labels[0], labels[i], labels[j], labels[k])
        raise NotPtolemyError(
            f"{failure} {witness} (relative residual {rel[worst]:.3e})",
            witness=witness, residual=float(rel[worst]),
        )


def curve_from_segment(space: ExtendedMetricSpace, order=None) -> QuadrantCurve:
    """Recover the quadrant curve of a segment metric.

    ``order`` lists the points from one endpoint to the other (defaults to
    label order).  Raises :class:`NotPtolemyError` with the worst offending
    quadruple when the ordered Ptolemy equality fails.
    """
    idx, D = _ordered(space, order, "segment", "two", 2)
    R = D[0, -1]
    if R <= space.tol:
        raise ValidationError("endpoints coincide: d(first, last) is zero")
    samples = np.column_stack([D[:, -1], D[:, 0]])
    _check_area_form(D, R, samples, [space.labels[i] for i in idx], -1, space.eps,
                     "ordered Ptolemy equality fails for")
    return QuadrantCurve(R, samples, None, eps=space.eps)


def _half_angle(R: float, r: float, branch: str) -> float:
    """Half the angle a chord of length R subtends at the centre of a circle
    of radius r >= R/2; ``branch`` names the minor or major arc."""
    if r < R / 2.0 * (1.0 - 1e-12):
        raise ValueError("arc radius must be at least R/2")
    if branch not in ("minor", "major"):
        raise ValueError("branch must be 'minor' or 'major'")
    return math.asin(min(1.0, R / (2.0 * r)))


def euclidean_segment_curve(R: float, r: float, branch: str = "minor",
                            n_samples: int = 65, eps: float = DEFAULT_EPS) -> QuadrantCurve:
    """The curve of a planar circular arc joining two points at distance R.

    The arc has radius r >= R/2; ``branch`` picks the minor or major arc.
    The image in the quadrant lies on the ellipse
    a^2 + b^2 - 2 a b cos(beta) = R^2, where beta is the (constant)
    inscribed angle of the chord seen from the chosen arc.
    """
    half = _half_angle(R, r, branch)
    span = 2.0 * half if branch == "minor" else 2.0 * half - 2.0 * math.pi
    phi = np.linspace(-half, -half + span, n_samples)
    pts = r * np.column_stack([np.cos(phi), np.sin(phi)])
    A = pts[0]
    B = r * np.array([math.cos(half), math.sin(half)])
    a = np.linalg.norm(pts - B, axis=1)
    b = np.linalg.norm(pts - A, axis=1)
    return QuadrantCurve(R, np.column_stack([a, b]), None, eps=eps)


def ellipse_cos_beta(R: float, r: float, branch: str = "minor") -> float:
    """cos(beta) of the ellipse carrying the arc's quadrant image."""
    half = _half_angle(R, r, branch)
    return -math.cos(half) if branch == "minor" else math.cos(half)


def angle_parameterize(curve: QuadrantCurve) -> np.ndarray:
    """Angles of the samples relative to the (R, 0) axis, in [0, pi/2]."""
    s = curve.samples
    return np.arctan2(s[:, 1], s[:, 0])


def _anchor_simplex(D: np.ndarray, i1: int, i2: int, i3: int) -> np.ndarray:
    """Normalized cross-ratio products of every point against the anchor triple."""
    P = np.column_stack([D[:, i1] * D[i2, i3], D[:, i2] * D[i1, i3], D[:, i3] * D[i1, i2]])
    T = P.sum(axis=1)
    if (T <= 0).any():
        raise ValidationError("degenerate anchors: cross-ratio products vanish")
    return P / T[:, None]


def _segment_path_positions(D: np.ndarray, i1: int, i2: int, i3: int) -> np.ndarray:
    """Position in [0, 1] along the boundary path through the corner triples.

    On the first edge (third entry maximal) the position is the first
    normalized entry; on the second edge (first entry maximal) it is 1/2
    plus the second.  Both edges have equal length, so this coordinate is
    proportional to arc length.
    """
    N = _anchor_simplex(D, i1, i2, i3)
    return np.where(N[:, 2] >= N[:, 0], N[:, 0], 0.5 + N[:, 1])


def _map_deviation(D: np.ndarray, points: np.ndarray, R: float, labels: list):
    """Worst cross-ratio deviation of mapped points from the source matrix.

    The mapped points carry the curve metric |<Jp, q>| / R.  Returns the
    deviation and the labels of the witness 4-subset, or (None, None) for
    fewer than four points.
    """
    if len(D) < 4:
        return None, None
    dev, quad = max_crt_deviation(D, None, _area_metric(points, R), None, np.arange(len(D)))
    return dev, tuple(labels[i] for i in quad)


@dataclass
class SegmentMap:
    """A sampled Moebius homeomorphism between two segments."""

    src_labels: tuple[str, ...]
    src_params: np.ndarray
    dst_params: np.ndarray
    dst_points: np.ndarray
    max_crt_deviation: float | None = None
    witness: tuple[str, ...] | None = None


def segment_moebius_map(src_space: ExtendedMetricSpace, src_anchors,
                        dst_space: ExtendedMetricSpace, dst_anchors, *,
                        src_order=None, dst_order=None) -> SegmentMap:
    """The unique anchor-matching Moebius map between two segments.

    Anchors are triples (x1, x2, x3): x1 and x3 the two boundary points in
    either orientation, x2 interior.  Every source sample is sent to the
    destination parameter whose boundary-path position matches, by monotone
    piecewise-linear inversion; destination points are interpolated along
    the destination curve.  The cross-ratio triples of all mapped 4-subsets
    are compared against the source.
    """
    src_idx, Ds = _ordered(src_space, src_order, "segment", "two", 2)
    src_curve = curve_from_segment(src_space, src_idx)
    dst_idx, Dd = _ordered(dst_space, dst_order, "segment", "two", 2)
    dst_curve = curve_from_segment(dst_space, dst_idx)

    def anchor_positions(space, idx, anchors):
        pos = [idx.index(space.index(x)) for x in anchors]
        n = len(idx)
        if {pos[0], pos[2]} != {0, n - 1}:
            raise ValueError("x1 and x3 must be the two boundary points")
        if not 0 < pos[1] < n - 1:
            raise ValueError("x2 must be an interior point")
        return pos

    sp = anchor_positions(src_space, src_idx, src_anchors)
    dp = anchor_positions(dst_space, dst_idx, dst_anchors)
    s_src = _segment_path_positions(Ds, *sp)
    s_dst = _segment_path_positions(Dd, *dp)

    diffs = np.diff(s_dst)
    if (diffs > 0).all():
        xp, f_param = s_dst, dst_curve.params
        f_points = dst_curve.samples
    elif (diffs < 0).all():
        xp, f_param = s_dst[::-1], dst_curve.params[::-1]
        f_points = dst_curve.samples[::-1]
    else:
        raise ValidationError("destination path positions are not monotone")

    tol = 1e-9
    if s_src.min() < xp[0] - tol or s_src.max() > xp[-1] + tol:
        raise ValueError("source map value outside the sampled destination range")
    s_clip = np.clip(s_src, xp[0], xp[-1])
    mapped_params = np.interp(s_clip, xp, f_param)
    mapped_points = np.column_stack([
        np.interp(s_clip, xp, f_points[:, 0]),
        np.interp(s_clip, xp, f_points[:, 1]),
    ])
    labels = tuple(src_space.labels[i] for i in src_idx)
    dev, witness = _map_deviation(Ds, mapped_points, dst_curve.R, labels)
    return SegmentMap(labels, src_curve.params, mapped_params, mapped_points, dev, witness)


def _curve_to_json(curve, **kind) -> dict:
    return {**kind, "R": float(curve.R),
            "samples": [[float(a), float(b)] for a, b in curve.samples]}


def _curve_from_json(cls, data: dict, eps: float):
    try:
        R = float(data["R"])
        samples = np.asarray(data["samples"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed curve JSON: {exc}") from exc
    return cls(R, samples, None, eps=eps)


def curve_to_json_dict(curve: QuadrantCurve) -> dict:
    return _curve_to_json(curve)


def curve_from_json_dict(data: dict, eps: float = DEFAULT_EPS) -> QuadrantCurve:
    """A segment curve from JSON; circle curves (``"kind": "circle"``) are refused."""
    if isinstance(data, dict) and data.get("kind") == "circle":
        raise ValidationError("this is a circle curve; use 'circle synth'")
    return _curve_from_json(QuadrantCurve, data, eps)
