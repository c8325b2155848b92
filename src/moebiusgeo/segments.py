"""Classification of Ptolemy segments via planar quadrant curves.

A segment metric with endpoints at distance R is encoded by the curve
t -> (d(t, far end), d(t, near end)) in the closed first quadrant, running
from (R, 0) to (0, R).  Distances are recovered from the signed area form
<Jp, q> = a_p b_q - b_p a_q divided by R; curves that are convex, sweep a
strictly increasing argument, and stay inside the wedge spanned by the two
endpoint images correspond exactly to valid segment metrics.  The curve
checks, recovery, anchor positions, map stage and JSON here serve circles too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPtolemyError, ValidationError
from .spaces import (_PLAIN_NUMBERS, DEFAULT_EPS, ExtendedMetricSpace, _check_eps,
                     _triangle_deferred, max_crt_deviation)

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


@dataclass
class _PlanarCurve:
    """The fields and checks that quadrant and halfplane curves share.  The
    sample parameters are not stored: they are evenly spaced on [0, 1] for a
    quadrant curve and on [0, 2] for a halfplane curve."""

    R: float
    samples: np.ndarray
    eps: float = DEFAULT_EPS

    _end = 1.0  # the parameter of the last sample
    _closed = False  # whether the last sample returns to the first point

    def _checked_samples(self, min_n: int, clipped: slice, region: str,
                         last: tuple[float, float], last_text: str) -> np.ndarray:
        """Checks shared by quadrant and halfplane curves; returns the samples.

        R must be positive and finite, and eps finite and nonnegative.
        Coordinates in ``clipped`` must be nonnegative up to eps * R (the
        closed ``region``) and are clipped to zero; the first sample must be
        (R, 0), the last ``last``, and the argument must increase strictly.
        """
        R = self.R
        if not (R > 0.0 and math.isfinite(R)):
            raise ValidationError("R must be positive and finite")
        _check_eps(self.eps)
        S = np.array(self.samples, dtype=float)
        if S.ndim != 2 or S.shape[1] != 2 or S.shape[0] < min_n:
            raise ValidationError(f"samples must be an (n >= {min_n}, 2) array")
        if not np.isfinite(S).all():
            raise ValidationError("samples must be finite")
        tol = self.eps * R
        below = (S[:, clipped] < -tol).any(axis=1)
        if below.any():
            raise ValidationError(f"sample {int(np.argmax(below))} leaves the closed {region}")
        np.clip(S[:, clipped], 0.0, None, out=S[:, clipped])
        # the endpoint norms at a power-of-two scale (see _check_convex)
        e = _unit_exponent(S, R)
        ends = np.ldexp(S[[0, -1]] - ((R, 0.0), last), e)
        if np.linalg.norm(ends[0]) > math.ldexp(tol, e):
            raise ValidationError("first sample must be (R, 0)")
        if np.linalg.norm(ends[1]) > math.ldexp(tol, e):
            raise ValidationError(f"last sample must be {last_text}")
        args = np.arctan2(S[:, 1], S[:, 0])
        bad = np.argwhere(np.diff(args) <= DEFAULT_EPS_ARG)
        if len(bad):
            raise ValidationError(
                f"argument is not strictly increasing at sample {int(bad[0, 0]) + 1}"
            )
        return S

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def params(self) -> np.ndarray:
        """Evenly spaced sample parameters from 0 to 1 (quadrant) or 2 (halfplane)."""
        return np.linspace(0.0, self._end, self.n)


def _unit_exponent(S: np.ndarray, R: float) -> int:
    """The power of two that scales the largest of R and the coordinates of
    the samples S into [1/2, 1)."""
    return -math.frexp(max(R, float(np.abs(S).max())))[1]


def _check_convex(S: np.ndarray, R: float, eps: float) -> None:
    """Discrete convexity: consecutive edges never turn clockwise.

    A power of two scales the samples and R, as in :func:`_area_metric`, so
    the turns neither overflow nor underflow at the curve's own scale; the
    scaling is exact where no subnormal number is involved, so it leaves the
    verdict on a curve of normal scale as it was.
    """
    e = _unit_exponent(S, R)
    edges = np.diff(np.ldexp(S, e), axis=0)
    turns = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
    if len(turns) and turns.min() < -eps * math.ldexp(R, e) ** 2:
        k = int(np.argmin(turns)) + 1
        raise ValidationError(f"polyline is not convex at sample {k}")


@dataclass
class QuadrantCurve(_PlanarCurve):
    """An ordered sample sequence of a segment parameterization.

    Samples run from (R, 0) to (0, R) in the closed first quadrant with
    strictly increasing argument, stay inside the endpoint wedge, and turn
    consistently (discrete convexity).  Validated on construction.
    """

    def __post_init__(self):
        S = self._checked_samples(2, slice(None), "first quadrant", (0.0, self.R), "(0, R)")
        lam, mu = S.T / self.R
        wedge_ok = (lam + mu >= 1.0 - self.eps) & (np.abs(lam - mu) <= 1.0 + self.eps)
        if not wedge_ok.all():
            k = int(np.argwhere(~wedge_ok)[0, 0])
            raise ValidationError(f"sample {k} leaves the endpoint wedge")
        _check_convex(S, self.R, self.eps)
        self.samples = S

    def reflected(self) -> "QuadrantCurve":
        """Reflection across the quadrant bisector; an isometric segment."""
        return QuadrantCurve(self.R, self.samples[::-1, ::-1].copy(), self.eps)


def _area_metric(points: np.ndarray, R: float) -> np.ndarray:
    """The matrix |<Jp, q>| / R over all pairs of points, with a zero diagonal.

    A power of two scales the largest coordinate into [1/2, 1), and R with
    it, as in :func:`_check_area_form`, so the products neither overflow nor
    underflow at the curve's own scale; the scaling and its undoing are exact.
    """
    e = -math.frexp(float(np.abs(points).max()))[1]
    P = np.ldexp(points, e)
    D = np.abs(signed_distance(P[:, None], P))
    D /= math.ldexp(R, e)
    np.fill_diagonal(D, 0.0)
    return np.ldexp(D, -e, out=D)


def _convex_gap(curve, M: float) -> float:
    """How far the samples of ``curve`` are from a strict curve, or inf.

    A strict curve passes the curve's checks with zero tolerance, and its
    area form is a metric by the classification theorem.  The chain here
    runs through the samples, with the first and last snapped onto their
    exact values, and keeps a sample only where it turns left by more than
    moving each point by 16 u M could undo (u the unit roundoff, M the
    largest coordinate), so a chain that passes the checks is strict.
    Returns the largest distance of a sample from the chain, plus 16 u M.
    """
    u = 2.0 ** -53
    S = curve.samples
    P = S.copy()
    P[[0, -1]] = np.round(P[[0, -1]] / curve.R) * curve.R
    pts = P.tolist()
    chain = [0]
    for c in range(1, len(pts)):  # a Graham scan
        while len(chain) > 1:
            (ax, ay), (bx, by), (cx, cy) = pts[chain[-2]], pts[chain[-1]], pts[c]
            e1x, e1y, e2x, e2y = bx - ax, by - ay, cx - bx, cy - by
            if e1x * e2y - e1y * e2x > 64 * u * M * (abs(e1x) + abs(e1y) + abs(e2x) + abs(e2y)):
                break
            chain.pop()
        chain.append(c)
    try:
        type(curve)(curve.R, P[chain], eps=0.0)
    except ValidationError:
        return math.inf
    chain = np.array(chain)
    hi = np.maximum(np.searchsorted(chain, np.arange(len(P))), 1)  # the chain edge over each sample
    A, d = P[chain[hi - 1]], P[chain[hi]] - P[chain[hi - 1]]
    # an edge whose squared length underflows gives NaN, which proves nothing;
    # one whose products overflow gives NaN or the distance to an end of the
    # edge, which overstates the gap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.clip(((S - A) * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    return float(np.hypot(*(S - A - t[:, None] * d).T).max()) + 16 * u * M


def _settle_by_curve(space: ExtendedMetricSpace, curve, residual: float) -> None:
    """Settle the pending triangle pass of a space whose distances are, pair by
    pair, within relative ``residual`` of the area form of ``curve``.

    The samples lie within distance g of a strict curve (``_convex_gap``),
    whose area form is a metric; that moves each distance of the samples'
    area form by at most (2 M g + g^2) / R, M the largest coordinate.  The
    residual moves each distance of the space by at most residual * scale
    more.  A triangle moves by three such amounts, so every triangle holds
    within tol when their sum, plus an allowance for the rounding of the
    area form (products of coordinates up to M, divided by R) and of the
    pass's sums, is at most tol.  For a convex curve g is at the rounding
    level and, with tol = eps * scale, this reads residual <= eps/3 less a
    few units of roundoff times 1 + M^2 / (R * scale).  Otherwise the exact
    pass runs.
    """
    if space._triangle is None:
        return
    u = 2.0 ** -53
    M = float(np.abs(curve.samples).max())
    g = _convex_gap(curve, M)
    slack = (3 * residual * (1 + residual) * space.scale + 3 * (2 * M + g) * g / curve.R
             + 24 * u * (space.scale + M * M / curve.R) + 2 * u * space.tol)
    space._settle_triangle(proven=slack <= space.tol)


def _curve_space(curve, points: np.ndarray) -> ExtendedMetricSpace:
    """The space of ``points`` on ``curve`` under the area form, labelled t0,
    t1, ..., which the curve proves a metric when it is strict."""
    labels = tuple(f"t{i}" for i in range(len(points)))
    with _triangle_deferred():
        # exactly symmetric: fl(a_s b_t) = fl(b_t a_s), so <Jp_t, p_s> = -<Jp_s, p_t>
        space = ExtendedMetricSpace._derived(labels, _area_metric(points, curve.R), None, curve.eps)
        _settle_by_curve(space, curve, 0.0)
    return space


def segment_from_curve(curve: QuadrantCurve) -> ExtendedMetricSpace:
    """The segment metric of a curve: d(s, t) = |<Jp_s, p_t>| / R.

    The result satisfies the Ptolemy equality for every ordered quadruple.
    """
    return _curve_space(curve, curve.samples)


def _ordered(space: ExtendedMetricSpace, order, shape: str, least: str, min_n: int):
    """Point indices in ``order`` (default: label order) and the reordered matrix."""
    if space.omega is not None:
        raise ValueError(f"{shape} classification requires a finite space")
    idx = [space.index(x) for x in (order if order is not None else space.labels)]
    if len(idx) != space.n or len(set(idx)) != space.n:
        raise ValueError("order must list every point exactly once")
    if len(idx) < min_n:
        raise ValueError(f"a {shape} needs at least {least} points")
    return idx, space.dist.take(idx, 0).take(idx, 1)


def _check_area_form(D: np.ndarray, R: float, samples: np.ndarray, labels: list,
                     k: int, eps: float, failure: str) -> float:
    """Raise :class:`NotPtolemyError` unless R * D matches the area form of the samples.

    The witness is the worst pair with the base points labels[0] and labels[k].
    Returns the worst relative residual.  A power of two scales the largest
    distance into [1/2, 1), as ``spaces._unit_remote`` does: no product can
    overflow, and the exact scaling leaves the residuals as they are.
    """
    e = -math.frexp(float(D.max()))[1]
    DR = np.ldexp(D, e) * math.ldexp(R, e)
    S = np.ldexp(samples, e)
    sd = signed_distance(S[:, None], S)
    resid = np.abs(DR - sd)
    scale = np.maximum(np.abs(DR), np.abs(sd))
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
    return float(rel[worst])


def _recover(cls, space: ExtendedMetricSpace, idx: list, D: np.ndarray, k: int,
             coincide: str, failure: str):
    """The curve of class ``cls`` through the points of ``space`` in the order
    ``idx`` (``D`` their matrix): sample t is (+-d(t, x_k), d(t, x_0)), negative
    after x_k, and a closed curve ends in (-R, 0), R = d(x_0, x_k).  The errors
    say ``coincide`` when R is zero at the space's scale, and ``failure`` when
    the distances are not the area form of the samples."""
    R = D[0, k]
    if R <= space.eps * space.scale:
        raise ValidationError(coincide)
    a = np.where(np.arange(len(D)) <= k, 1.0, -1.0) * D[:, k]
    samples = np.column_stack([a, D[:, 0]])
    residual = _check_area_form(D, R, samples, [space.labels[i] for i in idx], k,
                                space.eps, failure)
    if cls._closed:
        samples = np.vstack([samples, [-R, 0.0]])
    curve = cls(R, samples, eps=space.eps)
    _settle_by_curve(space, curve, residual)
    return curve


def curve_from_segment(space: ExtendedMetricSpace, order=None) -> QuadrantCurve:
    """Recover the quadrant curve of a segment metric.

    ``order`` lists the points from one endpoint to the other (defaults to
    label order); the endpoints are the base points, with no closing sample.
    Raises :class:`NotPtolemyError` with the worst offending quadruple when
    the ordered Ptolemy equality fails.
    """
    idx, D = _ordered(space, order, "segment", "two", 2)
    return _recover(QuadrantCurve, space, idx, D, len(idx) - 1,
                    "endpoints coincide: d(first, last) is zero",
                    "ordered Ptolemy equality fails for")


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
    return QuadrantCurve(R, np.column_stack([a, b]), eps=eps)


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


def _map_onto(s: np.ndarray, xp: np.ndarray, params: np.ndarray, samples: np.ndarray,
              src_space: ExtendedMetricSpace, R: float):
    """The destination parameters and points at the source positions ``s``,
    interpolated over the increasing destination positions ``xp``, and the
    worst cross-ratio deviation of the points, under the curve metric
    |<Jp, q>| / R, from ``src_space`` with the labels of its witness 4-subset
    (None and None for fewer than four points)."""
    params = np.interp(s, xp, params)
    points = np.column_stack([np.interp(s, xp, c) for c in samples.T])
    if src_space.n < 4:
        return params, points, None, None
    dev, quad = max_crt_deviation(src_space.dist, None, _area_metric(points, R), None,
                                  np.arange(src_space.n))
    return params, points, dev, tuple(src_space.labels[i] for i in quad)


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
                        dst_space: ExtendedMetricSpace, dst_anchors) -> SegmentMap:
    """The unique anchor-matching Moebius map between two segments.

    Both segments run in label order.  Anchors are triples (x1, x2, x3): x1
    and x3 the two boundary points in either orientation, x2 interior.
    Every source sample is sent to the destination parameter whose
    boundary-path position matches, by monotone piecewise-linear inversion
    (``_map_onto``, shared with circles), which also compares the
    cross-ratio triples of all mapped 4-subsets against the source.
    """
    src_curve = curve_from_segment(src_space)
    dst_curve = curve_from_segment(dst_space)

    def anchor_positions(space, anchors):
        pos = [space.index(x) for x in anchors]
        if {pos[0], pos[2]} != {0, space.n - 1}:
            raise ValueError("x1 and x3 must be the two boundary points")
        if not 0 < pos[1] < space.n - 1:
            raise ValueError("x2 must be an interior point")
        return pos

    s_src = _segment_path_positions(src_space.dist, *anchor_positions(src_space, src_anchors))
    s_dst = _segment_path_positions(dst_space.dist, *anchor_positions(dst_space, dst_anchors))

    o = slice(None, None, 1 if s_dst[-1] > s_dst[0] else -1)  # the destination, increasing
    xp = s_dst[o]
    if not (np.diff(xp) > 0).all():
        raise ValidationError("destination path positions are not monotone")

    if s_src.min() < xp[0] - 1e-9 or s_src.max() > xp[-1] + 1e-9:
        raise ValueError("source map value outside the sampled destination range")
    # np.interp holds its end values beyond xp, which clips s_src into range
    mapped = _map_onto(s_src, xp, dst_curve.params[o], dst_curve.samples[o], src_space,
                       dst_curve.R)
    return SegmentMap(src_space.labels, src_curve.params, *mapped)


def _curve_to_json(curve, **kind) -> dict:
    return {**kind, "R": float(curve.R),
            "samples": [[float(a), float(b)] for a, b in curve.samples]}


def _curve_from_json(cls, data: dict, eps: float):
    """A curve from its JSON dict, whose ``R`` and sample cells are JSON numbers."""
    try:
        R, samples = data["R"], data["samples"]
        # the cells of a list of lists; any other shape fails the curve's shape check
        rows = [row for row in samples if type(row) is list] if type(samples) is list else []
        for name, v in [("R", R), *(("sample cell", v) for row in rows for v in row)]:
            if type(v) not in _PLAIN_NUMBERS:  # the matrix reader's plain-number test
                raise TypeError(f"{name} {v!r} is not a number")
        R, samples = float(R), np.asarray(samples, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed curve JSON: {exc}") from exc
    return cls(R, samples, eps=eps)


def curve_to_json_dict(curve: QuadrantCurve) -> dict:
    return _curve_to_json(curve)


def curve_from_json_dict(data: dict, eps: float = DEFAULT_EPS) -> QuadrantCurve:
    """A segment curve from JSON; circle curves (``"kind": "circle"``) are refused."""
    if isinstance(data, dict) and data.get("kind") == "circle":
        raise ValidationError("this is a circle curve; use 'circle synth'")
    return _curve_from_json(QuadrantCurve, data, eps)
