"""Shared generators and independent oracles for the test suite."""

import itertools
import math
import sys

import numpy as np

from moebiusgeo import QuadrantCurve, HalfplaneCurve
from moebiusgeo.errors import ValidationError
from moebiusgeo.glued import BoundaryPoint, GluedSpaceConfig, _seam_cosh, halfplane_point
from moebiusgeo.inversions import EquivalenceReport
from moebiusgeo.spaces import _U, _check_eps, _parse_cell, _unit_remote, max_crt_deviation
from moebiusgeo.spheres import _unit_rows


def convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in ccw order."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.array(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _arc_between(hull: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Vertices from start to end following the ccw hull order."""
    idx_start = int(np.argmin(np.linalg.norm(hull - start, axis=1)))
    rolled = np.roll(hull, -idx_start, axis=0)
    idx_end = int(np.argmin(np.linalg.norm(rolled - end, axis=1)))
    return rolled[: idx_end + 1]


def _densify(arc: np.ndarray, per_edge: int) -> np.ndarray:
    if per_edge <= 0:
        return arc
    out = [arc[0]]
    for a, b in zip(arc[:-1], arc[1:]):
        for k in range(1, per_edge + 1):
            out.append(a + (b - a) * k / (per_edge + 1))
        out.append(b)
    return np.array(out)


def random_quadrant_curve(rng, R=1.0, n_interior=8, per_edge=0) -> QuadrantCurve:
    """A random valid segment curve: the outer hull arc of wedge points."""
    pts = []
    while len(pts) < n_interior:
        x, y = rng.uniform(0.0, 1.6 * R, 2)
        if x + y >= R * 1.001 and abs(x - y) <= R * 0.999 and min(x, y) > 1e-3 * R:
            pts.append((x, y))
    cloud = np.vstack([[R, 0.0], [0.0, R], pts])
    hull = convex_hull_ccw(cloud)
    arc = _arc_between(hull, np.array([R, 0.0]), np.array([0.0, R]))
    return QuadrantCurve(R, _densify(arc, per_edge))


def random_halfplane_curve(rng, R=1.0, n_interior=10, per_edge=0) -> HalfplaneCurve:
    """A random valid circle curve through an apex sample at (0, R)."""
    pts = []
    while len(pts) < n_interior:
        x = rng.uniform(-0.999 * R, 0.999 * R)
        y = rng.uniform(0.05 * R, 0.95 * R)
        pts.append((x, y))
    cloud = np.vstack([[R, 0.0], [-R, 0.0], [0.0, R], pts])
    hull = convex_hull_ccw(cloud)
    arc = _arc_between(hull, np.array([R, 0.0]), np.array([-R, 0.0]))
    return HalfplaneCurve(R, _densify(arc, per_edge))


def apex_index(curve: HalfplaneCurve) -> int:
    """Index of the sample at (0, R)."""
    k = int(np.argmin(np.abs(curve.samples[:, 0])))
    assert abs(curve.samples[k, 0]) < 1e-9 * curve.R
    assert abs(curve.samples[k, 1] - curve.R) < 1e-9 * curve.R
    return k


def ptolemy_equality_residuals(D: np.ndarray, quads: np.ndarray):
    """Relative residual of d13 d24 = d12 d34 + d14 d23 per ordered row.

    Independent of the cross-ratio machinery: raw products only.
    """
    i, j, k, l = quads.T
    lhs = D[i, k] * D[j, l]
    rhs = D[i, j] * D[k, l] + D[i, l] * D[j, k]
    scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
    return np.abs(lhs - rhs) / scale


def ordered_quads(n: int) -> np.ndarray:
    import itertools
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), 4)),
        dtype=np.int64,
    ).reshape(-1, 4)


def noisy_line() -> tuple[np.ndarray, np.ndarray]:
    """The line 0, 0.25, 0.5, 1 - 1e-6, 1, and its copy with d(2, 3) raised by
    the factor 1 + 1e-5: a segment at eps = 1e-4, whose point 3 reads loop
    position 1 + 5e-7 against the anchors 0, 2, 4."""
    x = np.array([0.0, 0.25, 0.5, 1.0 - 1e-6, 1.0])
    clean = np.abs(np.subtract.outer(x, x))
    noisy = clean.copy()
    noisy[2, 3] = noisy[3, 2] = clean[2, 3] * (1.0 + 1e-5)
    return clean, noisy


def chord_metric_oracle(radius: float, theta1, theta2):
    """Chord length between two angles on a circle of the given radius."""
    return 2.0 * radius * np.abs(np.sin((np.asarray(theta2) - np.asarray(theta1)) / 2.0))


def brute_force_line_embedding(D: np.ndarray, tol: float):
    """Search all sign patterns for coordinates realizing D, or None."""
    import itertools
    n = len(D)
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        coords = np.array([0.0] + [s * D[0, i + 1] for i, s in enumerate(signs)])
        if np.abs(np.abs(coords[:, None] - coords[None, :]) - D).max() <= tol:
            return coords
    return None


def _products(M, quad):
    a, b, c, d = quad
    return M[a][b] * M[c][d], M[a][c] * M[b][d], M[a][d] * M[b][c]


def reference_ptolemy_scan(space):
    """Brute-force Ptolemy scan over ``itertools.combinations``.

    Uses the scan kernel's matrix (remote point last, ``_unit_remote``) and
    product order.  Returns the worst margin, the labels of the first worst
    subset (subsets of finite points before those with the remote point,
    each in lexicographic order; None below four points) and the number of
    subsets whose margin lies within ``eps`` of 0.
    """
    remote = space.omega is not None
    order = space.finite_indices + ([space.omega] if remote else [])
    M = _unit_remote(space.dist[np.ix_(order, order)]).tolist()
    last = len(order) - 1 if remote else -1
    worst, witness, boundary = -math.inf, None, 0
    quads = sorted(itertools.combinations(range(len(order)), 4), key=lambda q: (q[3] == last, q))
    for quad in quads:
        p1, p2, p3 = _products(M, quad)
        s = p1 + p2 + p3
        margin = max(p1, p2, p3) / s - 0.5 if s > 0 else -0.5
        boundary += abs(margin) <= space.eps
        if margin > worst:
            worst, witness = margin, quad
    if witness is None:
        return -0.5, None, 0
    return worst, tuple(space.labels[order[i]] for i in witness), boundary


def reference_crt_deviation(D1, D2, perm):
    """Brute-force ``max_crt_deviation`` over ``itertools.combinations``: the
    worst deviation and the lexicographically first subset attaining it."""
    A = _unit_remote(np.asarray(D1, dtype=float)).tolist()
    B = _unit_remote(np.asarray(D2, dtype=float))[np.ix_(perm, perm)].tolist()
    worst, witness = -math.inf, None
    for quad in itertools.combinations(range(len(A)), 4):
        triples = []
        for M in (A, B):
            P = _products(M, quad)
            s = P[0] + P[1] + P[2]
            triples.append([p / s for p in P] if s > 0 else None)
        if None in triples:
            dev = 0.0 if triples[0] is triples[1] else 1.0
        else:
            dev = max(abs(x - y) for x, y in zip(*triples))
        if dev > worst:
            worst, witness = dev, quad
    return (0.0, None) if witness is None else (worst, witness)


def _reference_log_factor(A: np.ndarray, B: np.ndarray):
    """The three-anchor fit f = log lambda of B ~ lambda(x) lambda(y) A, with
    the largest residual and the largest |log(B/A)| off the diagonal; None
    when such an entry is 0 or subnormal.  Overwrites both diagonals."""
    n = len(A)
    A.flat[:: n + 1] = B.flat[:: n + 1] = 1.0
    if not (A.min() >= sys.float_info.min and B.min() >= sys.float_info.min):
        return None
    ell = np.log(B / A)
    ell01, ell02 = ell[0, 1:3].tolist()
    f = ell[0] - 0.5 * (ell01 + ell02 - float(ell[1, 2]))
    f[0] = ell01 - f[1]
    resid = np.abs(ell - f[:, None] - f)
    return (f, float(resid.max(where=~np.eye(n, dtype=bool), initial=0.0)),
            float(np.abs(ell).max()))


def reference_crt_equivalent(corr, eps: float = 1e-9) -> EquivalenceReport:
    """``crt_equivalent`` in one function: the factor fit, its rounding slack
    and bound inline, then the factor report or the scan."""
    _check_eps(eps)
    src, tgt = corr.source, corr.target
    if src.n < 4:
        raise ValueError("crt comparison needs at least four points")
    A = _unit_remote(src.dist, src.scale, src.omega)
    B = _unit_remote(tgt.dist, tgt.scale, tgt.omega)
    perm = None if corr.is_identity() else corr.target_indices()
    if perm is not None:
        B = B.take(perm, 0).take(perm, 1)
    f, resid, log_max = _reference_log_factor(A, B) or (None, None, None)
    if resid is not None:
        slack = _U * (2.0 + 12.0 * log_max + 4.0 * float(np.abs(f).max()))
        bound = (0.0 if resid == 0.0 and (A == B).all()
                 else math.expm1(4.0 * (resid + slack)) + 24.0 * _U)
        if bound <= eps:
            return EquivalenceReport(True, bound, None, math.comb(src.n, 4), "factor", resid)
    if perm is None:
        perm = np.arange(src.n)
    dev, quad = max_crt_deviation(src.dist, src.omega, tgt.dist, tgt.omega, perm)
    witness = tuple(src.labels[i] for i in quad)
    return EquivalenceReport(dev <= eps, dev, witness, math.comb(src.n, 4), "scan", resid)


def reference_first_violation(D: np.ndarray, tol: float):
    """The first (i, j, k) in row-major order, over every j, with
    d(i, j) > d(i, k) + d(k, j) + tol, or None; one row i at a time."""
    for i in range(len(D)):
        bad = D[i][:, None] > D[i][None, :] + D.T + tol  # [j, k]
        if bad.any():
            j, k = np.argwhere(bad)[0]
            return i, int(j), int(k)
    return None


def reference_validation(labels, dist, omega=None, eps=1e-9):
    """The checks of ``ExtendedMetricSpace`` written out one mask at a time,
    as the constructor made them before it validated in whole-matrix passes.

    Returns the stored ``dist``, ``scale`` and ``tol`` and the pending
    triangle pass (finite submatrix, its labels, the stored ``tol`` it runs
    at), or raises the constructor's ``ValidationError``.
    """
    if math.isnan(eps) or eps < 0.0 or eps == math.inf:
        raise ValidationError(f"eps must be finite and nonnegative, not {eps}")
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if n == 0:
        raise ValidationError("a space needs at least one point")
    if len(set(labels)) != n:
        raise ValidationError("point labels must be unique")
    D = np.array(dist, dtype=float)
    if D.shape != (n, n):
        raise ValidationError(f"distance matrix shape {D.shape} does not match {n} labels")
    if np.isnan(D).any():
        raise ValidationError("distance matrix contains NaN")
    finite_mask = np.isfinite(D)
    scale = float(D[finite_mask].max(initial=0.0))
    tol = eps * max(scale, 1.0)
    if (D < -tol).any():
        i, j = np.argwhere(D < -tol)[0]
        raise ValidationError(f"negative distance at ({labels[i]}, {labels[j]})")
    if (np.isfinite(D) != np.isfinite(D.T)).any():
        raise ValidationError("infinity pattern is not symmetric")
    with np.errstate(invalid="ignore"):
        asym = np.abs(D - D.T)
    asym[~(finite_mask & finite_mask.T)] = 0.0
    if asym.max(initial=0.0) > tol:
        raise ValidationError("distance matrix is not symmetric")
    if asym.max(initial=0.0) > 0.0:  # an exactly symmetric matrix is kept as given
        other = np.where(finite_mask.T, D.T, D)
        D = np.where(finite_mask, D / 2.0 + other / 2.0, D)
    np.clip(D, 0.0, None, out=D)
    if np.abs(np.diag(D)).max(initial=0.0) > tol:
        raise ValidationError("diagonal entries must vanish")
    np.fill_diagonal(D, 0.0)
    fin = list(range(n))
    if omega is not None:
        omega = int(omega)
        if not 0 <= omega < n:
            raise ValidationError(f"omega index {omega} out of range")
        del fin[omega]
        if fin and not np.isinf(D[omega, fin]).all():
            raise ValidationError("omega must be at infinite distance from every other point")
    sub = D if omega is None else D[np.ix_(fin, fin)]
    if not np.isfinite(sub).all():
        bad = np.argwhere(~np.isfinite(sub))[0]
        raise ValidationError("infinite distance between finite points "
                              f"({labels[fin[bad[0]]]}, {labels[fin[bad[1]]]})")
    scale = float(D[finite_mask].max(initial=0.0))
    tol = eps * max(scale, 1.0)
    return D, scale, tol, (sub, [labels[i] for i in fin], tol)


def per_cell(rows):
    """The matrix read cell by cell, as every decoded matrix was read before
    the one-conversion path of ``spaces._cells_array``."""
    return [list(map(_parse_cell, row)) for row in rows]


def csv_bytes(header, columns) -> bytes:
    """The sample table of a header and columns: one line per row, each value
    written with ``%.17g``, every line ending in a newline."""
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines).encode()


# The glued space's interior model: distances between interior points and the
# canonical rays, the reference that the closed-form Gromov products and the
# seam crossing are checked against.

def base_point(cfg: GluedSpaceConfig, which: str):
    if which == "o":
        return halfplane_point(0.0, 0.0)
    if which in ("o'", "oprime"):
        return halfplane_point(cfg.ell, 0.0)
    raise ValueError("base must be 'o' or 'oprime'")


def gamma_point(tau: float):
    """A point on the seam geodesic."""
    return halfplane_point(0.0, tau)


def _dist_matrix(points) -> np.ndarray:
    """Glued distances between all pairs of a list of interior points.

    Rotating a bulk point y about the seam into the plane opposite the
    halfplane unfolds a crossing into one hyperbolic-plane geodesic: with
    sinh r the distance from y to the seam, the halfplane point (rho, tau) has
    cosh d = cosh rho cosh d(gamma(tau), y) + sinh rho sinh r.  Coordinates a
    point lacks read as those of o.  The diagonal may be nan, as cosh d(x, x)
    overflows for rho(x) > 355.
    """
    bulk = np.array([c == "H3" for c, _ in points])[:, None]
    r, t = np.array([(0.0, 0.0) if c == "H3" else p for c, p in points]).T
    Y = np.array([p if c == "H3" else (0.0, 0.0, 0.0, 1.0) for c, p in points])
    rc, tc, P = r[:, None], t[:, None], Y[:, None]
    cosh_gamma, _, _, sinh_r, _ = _seam_cosh(tc, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.cosh(rc) * cosh_gamma + np.sinh(rc) * sinh_r  # halfplane row, bulk column
        h2 = np.cosh(rc) * np.cosh(r) * np.cosh(tc - t) - np.sinh(rc) * np.sinh(r)
    h3 = P[..., 3] * Y[:, 3] - P[..., 0] * Y[:, 0] - P[..., 1] * Y[:, 1] - P[..., 2] * Y[:, 2]
    ch = np.where(bulk == bulk.T, np.where(bulk, h3, h2), np.where(bulk, cross.T, cross))
    return np.arccosh(np.maximum(1.0, ch))


def glued_distance(cfg: GluedSpaceConfig, x, y) -> float:
    """Distance between two interior points of the glued space."""
    return float(_dist_matrix([x, y])[0, 1])


def ray_point(xi: BoundaryPoint, t: float):
    """The point at arclength t along the canonical ray from o toward xi."""
    if xi.kind == "north":
        return gamma_point(t)
    if xi.kind == "south":
        return gamma_point(-t)
    if xi.kind == "equator":
        s, c = math.sin(xi.angle), math.cos(xi.angle)
        return ("H3", np.array([0.0, math.sinh(t) * c, math.sinh(t) * s, math.cosh(t)]))
    phi = xi.angle
    rho = math.asinh(math.sinh(t) * math.sin(phi))
    tau = math.atanh(math.sinh(t) * math.cos(phi) / math.cosh(t))
    return halfplane_point(rho, tau)


def reference_sample_points(kind: str, n: int, count: int, seed: int):
    """The draws of ``sample_space`` written one branch per kind: the points,
    the exponent ``p`` and whether a remote point is appended."""
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        pts = _unit_rows(rng, count, n + 1)
        return pts, 2.0, False
    if kind == "hemisphere":
        pts = _unit_rows(rng, count, n + 1)
        pts[:, -1] = np.abs(pts[:, -1])
        return pts, 2.0, False
    if kind == "euclidean":
        return rng.standard_normal((count, n)), 2.0, False
    if kind == "halfspace":
        pts = rng.standard_normal((count, n))
        pts[:, -1] = np.abs(pts[:, -1])
        return pts, 2.0, True
    if kind == "ball-complement":
        dirs = _unit_rows(rng, count, n)
        radii = 1.0 + rng.exponential(1.0, count)
        return dirs * radii[:, None], 2.0, True
    if kind == "line":
        xs = np.sort(rng.standard_normal(count))
        return xs[:, None], 2.0, True
    # taxicab plane with an embedded square witness
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
    return pts, 1.0, False
