"""Extended metric spaces, cross-ratio triples, and Ptolemy checks.

An extended metric space is a finite labeled point set with a symmetric
distance matrix.  One point may be designated as the remote point
``omega``: it sits at infinite distance from every other point while the
remaining points carry an ordinary metric.

The cross-ratio triple of an admissible quadruple ``(x, y, z, w)`` is the
projective triple

    ( d(x,y) d(z,w) : d(x,z) d(y,w) : d(x,w) d(y,z) )

normalized onto the standard 2-simplex.  A space is Ptolemy when every
quadruple's triple has entries satisfying the triangle inequality; the
triple sits on the boundary of that region exactly for quadruples of a
metric circle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_EPS = 1e-9

# Exhaustive triangle-inequality validation is cubic in the point count;
# above this size a large seeded sample of triples is checked instead.
_FULL_TRIANGLE_LIMIT = 256
_SAMPLED_TRIANGLES = 2_000_000
_TRIANGLE_SAMPLE_SEED = 24251
# Sampled triples are drawn and checked this many at a time; the draws of
# consecutive chunks equal one draw of all of them.
_TRIANGLE_CHUNK = 1 << 16


@dataclass
class ExtendedMetricSpace:
    """A finite labeled point set with a symmetric extended distance matrix.

    ``dist[i, j]`` is infinite exactly when one of ``i, j`` is the remote
    point ``omega`` and the other is not.  Validation runs eagerly on
    construction: symmetry, zero diagonal, nonnegativity, the infinity
    pattern, and the triangle inequality on the finite part.  The stored
    ``dist`` is read-only.  ``scale`` is its largest finite entry, and
    ``tol = eps * max(scale, 1)`` is the absolute tolerance of every
    distance comparison on the space; predicates on cross-ratio triples
    compare against ``eps`` itself.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    omega: int | None = None
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        self.labels = tuple(str(x) for x in self.labels)
        n = len(self.labels)
        if n == 0:
            raise ValidationError("a space needs at least one point")
        self._positions = {label: i for i, label in enumerate(self.labels)}
        if len(self._positions) != n:
            raise ValidationError("point labels must be unique")
        D = np.array(self.dist, dtype=float)
        if D.shape != (n, n):
            raise ValidationError(
                f"distance matrix shape {D.shape} does not match {n} labels"
            )
        if np.isnan(D).any():
            raise ValidationError("distance matrix contains NaN")

        finite_mask = np.isfinite(D)
        scale = float(D[finite_mask].max(initial=0.0))
        tol = self.eps * max(scale, 1.0)

        if (D < -tol).any():
            i, j = np.argwhere(D < -tol)[0]
            raise ValidationError(f"negative distance at ({self.labels[i]}, {self.labels[j]})")
        if (np.isfinite(D) != np.isfinite(D.T)).any():
            raise ValidationError("infinity pattern is not symmetric")
        with np.errstate(invalid="ignore"):
            asym = np.abs(D - D.T)
        asym[~(finite_mask & finite_mask.T)] = 0.0
        if asym.max(initial=0.0) > tol:
            raise ValidationError("distance matrix is not symmetric")
        D = np.where(finite_mask, (D + np.where(finite_mask.T, D.T, D)) / 2.0, D)
        np.clip(D, 0.0, None, out=D)

        if np.abs(np.diag(D)).max(initial=0.0) > tol:
            raise ValidationError("diagonal entries must vanish")
        np.fill_diagonal(D, 0.0)

        if self.omega is not None:
            om = int(self.omega)
            if not 0 <= om < n:
                raise ValidationError(f"omega index {om} out of range")
            self.omega = om
            others = [i for i in range(n) if i != om]
            if others and not np.isinf(D[om, others]).all():
                raise ValidationError("omega must be at infinite distance from every other point")
            fin = others
        else:
            fin = list(range(n))
        sub = D[np.ix_(fin, fin)]
        if not np.isfinite(sub).all():
            bad = np.argwhere(~np.isfinite(sub))[0]
            raise ValidationError(
                "infinite distance between finite points "
                f"({self.labels[fin[bad[0]]]}, {self.labels[fin[bad[1]]]})"
            )
        _check_triangle(sub, [self.labels[i] for i in fin], tol)
        D.flags.writeable = False
        self.dist = D
        # taken on the stored, symmetrized matrix; finite_mask is unchanged
        self.scale = float(D[finite_mask].max(initial=0.0))
        self.tol = self.eps * max(self.scale, 1.0)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def finite_indices(self) -> list[int]:
        return [i for i in range(self.n) if i != self.omega]

    def index(self, point) -> int:
        """Resolve a label or integer index to an index."""
        if isinstance(point, str):
            try:
                return self._positions[point]
            except KeyError:
                raise KeyError(f"unknown point label {point!r}") from None
        i = int(point)
        if not 0 <= i < self.n:
            raise KeyError(f"point index {i} out of range")
        return i

    def omega_label(self) -> str | None:
        return None if self.omega is None else self.labels[self.omega]


def _check_triangle(sub: np.ndarray, labels: list[str], tol: float) -> None:
    """Triangle inequality on a finite symmetric matrix, chunked over rows."""
    m = len(labels)
    if m <= 2:
        return
    if m <= _FULL_TRIANGLE_LIMIT:
        block = max(1, (2 ** 22) // (m * m))
        for start in range(0, m, block):
            rows = slice(start, min(start + block, m))
            # through[i, j, k] = d(i, k) + d(k, j)
            through = sub[rows, None, :] + sub.T[None, :, :]
            direct = sub[rows, :, None]
            if (direct > through + tol).any():
                i_, j_, k_ = np.argwhere(direct > through + tol)[0]
                i = start + i_
                raise ValidationError(
                    "triangle inequality fails: "
                    f"d({labels[i]},{labels[j_]}) > d({labels[i]},{labels[k_]}) + d({labels[k_]},{labels[j_]})"
                )
        return
    rng = np.random.default_rng(_TRIANGLE_SAMPLE_SEED)
    flat = sub.ravel()
    for start in range(0, _SAMPLED_TRIANGLES, _TRIANGLE_CHUNK):
        size = min(_TRIANGLE_CHUNK, _SAMPLED_TRIANGLES - start)
        i, j, k = rng.integers(0, m, size=(size, 3)).T
        bad = flat[i * m + j] > flat[i * m + k] + flat[k * m + j] + tol
        if bad.any():
            b = int(np.argmax(bad))
            raise ValidationError(
                "triangle inequality fails: "
                f"d({labels[i[b]]},{labels[j[b]]}) > via {labels[k[b]]}"
            )


def space_from_points(points, labels=None, *, p: float = 2.0, add_omega: bool = False,
                      eps: float = DEFAULT_EPS) -> ExtendedMetricSpace:
    """Build a space from coordinate rows under an l^p metric (p=2 or p=1).

    With ``add_omega`` a remote point labeled ``omega`` is appended.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    count = P.shape[0]
    diff = P[:, None, :] - P[None, :, :]
    if p == 2.0:
        D = np.sqrt((diff ** 2).sum(axis=-1))
    elif p == 1.0:
        D = np.abs(diff).sum(axis=-1)
    else:
        raise ValueError("only p=1 and p=2 are supported")
    if labels is None:
        labels = [f"p{i}" for i in range(count)]
    labels = list(labels)
    omega = None
    if add_omega:
        full = np.full((count + 1, count + 1), np.inf)
        full[:count, :count] = D
        full[count, count] = 0.0
        D = full
        labels.append("omega")
        omega = count
    return ExtendedMetricSpace(tuple(labels), D, omega, eps=eps)


@dataclass(frozen=True)
class CrossRatioTriple:
    """A normalized projective triple (a : b : c) with a + b + c = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        e = (self.a, self.b, self.c)
        if min(e) < -1e-12:
            raise ValidationError(f"cross-ratio entries must be nonnegative: {e}")
        if abs(sum(e) - 1.0) > 1e-12:
            raise ValidationError(f"cross-ratio entries must sum to 1: {e}")

    @classmethod
    def from_products(cls, pa: float, pb: float, pc: float) -> "CrossRatioTriple":
        total = pa + pb + pc
        if not math.isfinite(total) or total <= 0.0:
            raise ValidationError("degenerate quadruple: all cross-ratio products vanish")
        return cls(pa / total, pb / total, pc / total)

    @property
    def entries(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def region(self, eps: float = DEFAULT_EPS) -> str:
        """Classify against the triangle-inequality region of the simplex."""
        m = max(self.a, self.b, self.c)
        if m > 0.5 + eps:
            return "outside"
        if m >= 0.5 - eps:
            return "boundary"
        return "interior"

    def deviation(self, other: "CrossRatioTriple") -> float:
        return float(np.abs(self.entries - other.entries).max())


def check_admissible(quad) -> tuple[int, int, int, int]:
    """An admissible quadruple has no entry repeated three or four times."""
    q = tuple(int(i) for i in quad)
    if len(q) != 4:
        raise ValueError("a quadruple needs exactly four points")
    for i in set(q):
        if q.count(i) > 2:
            raise ValueError(f"inadmissible quadruple {q}: point {i} occurs more than twice")
    return q


def crt(space: ExtendedMetricSpace, quad) -> CrossRatioTriple:
    """Cross-ratio triple of a quadruple of point indices or labels.

    The remote point may occur at most twice.  When it occurs once, each
    product drops its infinite factor; when twice, the product pairing the
    two occurrences vanishes and the other two entries are equal.
    """
    q = check_admissible([space.index(x) for x in quad])
    M = _unit_remote(space.dist[np.ix_(q, q)])
    return CrossRatioTriple.from_products(M[0, 1] * M[2, 3], M[0, 2] * M[1, 3],
                                          M[0, 3] * M[1, 2])


def classify_simplex(triple: CrossRatioTriple, eps: float = DEFAULT_EPS) -> str:
    """Region of a normalized triple: "interior", "boundary", or "outside"."""
    return triple.region(eps)


# Cells per block of the quadruple kernel: a block holds as many minimum
# indices a as fit their (n - a - 1)^3 tail cubes into this many cells, and
# at least one, so a block never exceeds max(budget, (n - 1)^3) cells.
_BLOCK_ELEMENTS = 1 << 16


def _unit_remote(D: np.ndarray) -> np.ndarray:
    """``D`` scaled by a power of two, with its infinite entries set to 1.

    A product drops the remote point's infinite factor, which is the same
    as a factor of 1; the remote point's zero distance to itself stays.  The
    scale brings the largest finite entry into [1/2, 1), so products of a
    small-scale metric do not underflow; cross-ratios do not see it, and
    multiplying by a power of two is exact.
    """
    finite = np.isfinite(D)
    M = np.ldexp(D, -math.frexp(D[finite].max(initial=0.0))[1])
    M[~finite] = 1.0
    return M


def _quad_blocks(*mats: np.ndarray):
    """The cross-ratio products of every 4-subset a < b < c < d, by blocks of a.

    A block of minimum indices lo <= a < hi is the cube of cells (a, b, c, d)
    with b, c, d in the tail lo < b, c, d < n; ``valid`` marks the cells with
    a < b < c < d.  Yields ``lo``, ``valid`` and, per matrix, the products
    d(a,b)d(c,d), d(a,c)d(b,d), d(a,d)d(b,c) of the valid cells in C order,
    which is the lexicographic order of the subsets.
    """
    n = len(mats[0])
    lo = 0
    while lo < n - 3:
        t = n - lo - 1
        hi = min(n - 3, lo + max(1, _BLOCK_ELEMENTS // t ** 3))
        tail = np.arange(lo + 1, n)
        b, c, d = tail[:, None, None], tail[:, None], tail
        valid = (np.arange(lo, hi)[:, None, None, None] < b) & (b < c) & (c < d)
        products = []
        for M in mats:
            A = M[lo:hi, lo + 1:]
            T = M[lo + 1:, lo + 1:]
            products.append(((A[:, :, None, None] * T)[valid],
                             (A[:, None, :, None] * T[:, None, :])[valid],
                             (A[:, None, None, :] * T[:, :, None])[valid]))
        yield lo, valid, products
        lo = hi


def _subset(lo: int, valid: np.ndarray, k: int) -> tuple[int, ...]:
    """Point indices of the k-th valid cell of a :func:`_quad_blocks` block."""
    a, b, c, d = np.unravel_index(np.flatnonzero(valid)[k], valid.shape)
    return int(lo + a), int(lo + 1 + b), int(lo + 1 + c), int(lo + 1 + d)


def _normalized(p1, p2, p3):
    """Normalized triple and the mask of non-degenerate cells."""
    s = p1 + p2 + p3
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p1 / s, p2 / s, p3 / s), s > 0


def max_crt_deviation(D1, omega1, D2, omega2, perm) -> tuple[float, tuple[int, ...] | None]:
    """Componentwise max deviation of normalized triples over all 4-subsets.

    Subset {a, b, c, d} of the first matrix is compared with {perm[a],
    perm[b], perm[c], perm[d]} of the second.  Returns the worst deviation
    and the lexicographically first subset attaining it (None for fewer
    than four points).  Subsets degenerate on both sides count as
    deviation 0; subsets degenerate on one side only count as deviation 1.

    The remote points ``omega1`` and ``omega2`` are not read, since every
    infinite entry counts as a factor of 1; they keep ``perm`` the fifth
    positional argument, which the span probe of ``perfbench/tracing.py``
    counts.
    """
    perm = np.asarray(perm)
    A = _unit_remote(np.asarray(D1, dtype=float))
    B = _unit_remote(np.asarray(D2, dtype=float))[np.ix_(perm, perm)]
    worst, quad = -math.inf, None
    for lo, valid, (P, Q) in _quad_blocks(A, B):
        (N1, g1), (N2, g2) = _normalized(*P), _normalized(*Q)
        dev = np.maximum(np.maximum(np.abs(N1[0] - N2[0]), np.abs(N1[1] - N2[1])),
                         np.abs(N1[2] - N2[2]))
        dev = np.where(g1 & g2, dev, np.where(g1 | g2, 1.0, 0.0))
        k = int(np.argmax(dev))
        if dev[k] > worst:
            worst, quad = float(dev[k]), _subset(lo, valid, k)
    return (0.0, None) if quad is None else (worst, quad)


@dataclass
class PtolemyReport:
    """Outcome of a full quadruple scan.

    ``n_boundary`` counts the scanned subsets whose triple lies within
    ``eps`` of the boundary of the triangle-inequality region.
    """

    holds: bool
    worst_quad: tuple[str, ...] | None
    worst_margin: float
    n_checked: int
    n_boundary: int


def _ptolemy_scan(space: ExtendedMetricSpace) -> PtolemyReport:
    """One pass over all distinct 4-subsets for :func:`is_ptolemy` and the census.

    The margin of a subset is max(P) / sum(P) - 1/2 over its products P
    (-1/2 when they all vanish), positive exactly when the Ptolemy
    inequality fails.  Subsets of finite points come first and subsets with
    the remote point after them, each in lexicographic order; the first
    worst subset is the witness.
    """
    fin = space.finite_indices
    remote = space.omega is not None
    order = fin + [space.omega] if remote else fin
    M = _unit_remote(space.dist[np.ix_(order, order)])
    eps = space.eps
    worst = [(-math.inf, None), (-math.inf, None)]  # finite subsets, remote subsets
    boundary = 0
    for lo, valid, ((p1, p2, p3),) in _quad_blocks(M):
        s = p1 + p2 + p3
        pos = s > 0
        margin = np.maximum(np.maximum(p1, p2), p3)
        np.divide(margin, s, out=margin, where=pos)
        margin -= 0.5
        margin[~pos] = -0.5
        boundary += int(((margin <= eps) & (margin >= -eps)).sum())
        if remote:
            # the cells whose last point d is the remote point
            last = np.broadcast_to(np.arange(valid.shape[-1]) == valid.shape[-1] - 1,
                                   valid.shape)[valid]
            groups = (np.where(last, -math.inf, margin), np.where(last, margin, -math.inf))
        else:
            groups = (margin,)
        for g, part in enumerate(groups):
            k = int(np.argmax(part))
            if part[k] > worst[g][0]:
                worst[g] = (float(part[k]), _subset(lo, valid, k))
    checked = math.comb(len(fin), 4) + (math.comb(len(fin), 3) if remote else 0)
    if checked == 0:
        return PtolemyReport(True, None, -0.5, 0, 0)
    margin, quad = worst[1] if worst[1][0] > worst[0][0] else worst[0]
    return PtolemyReport(margin <= eps, tuple(space.labels[order[i]] for i in quad),
                         margin, checked, boundary)


def is_ptolemy(space: ExtendedMetricSpace) -> PtolemyReport:
    """Scan all distinct four-point subsets for the Ptolemy inequality.

    Quadruples with a repeated entry always satisfy the inequality, so only
    distinct subsets are scanned.  Subsets containing the remote point
    reduce to a triangle-inequality check of the remaining triple.
    """
    return _ptolemy_scan(space)


def is_circle_quadruple(space: ExtendedMetricSpace, quad) -> bool:
    """True when the quadruple's cross-ratio triple lies on the boundary region."""
    return crt(space, quad).region(space.eps) == "boundary"


def circle_quadruple_census(space: ExtendedMetricSpace) -> tuple[int, int]:
    """Count distinct 4-subsets on the boundary region; returns (boundary, total)."""
    report = _ptolemy_scan(space)
    return report.n_boundary, report.n_checked


def line_embed(space: ExtendedMetricSpace) -> np.ndarray | None:
    """Coordinates on the real line realizing all distances, if they exist.

    The first point is anchored at 0 and the farthest point from it fixes
    the positive direction; every other coordinate is chosen, up to sign,
    by consistency with the two anchors, then all pairs are verified.
    Returns None when some triple fails triangle equality.
    """
    if space.omega is not None:
        raise ValueError("line embedding requires a space without a remote point")
    D = space.dist
    n = space.n
    coords = np.zeros(n)
    if n == 1:
        return coords
    tol = space.tol
    anchor = int(np.argmax(D[0]))
    if D[0, anchor] <= tol:
        return coords if D.max() <= tol else None
    coords[anchor] = D[0, anchor]
    for i in range(1, n):
        if i == anchor:
            continue
        plus, minus = D[0, i], -D[0, i]
        err_plus = abs(abs(plus - coords[anchor]) - D[i, anchor])
        err_minus = abs(abs(minus - coords[anchor]) - D[i, anchor])
        coords[i] = plus if err_plus <= err_minus else minus
    gaps = np.abs(np.abs(coords[:, None] - coords[None, :]) - D)
    if gaps.max() > tol:
        return None
    return coords


def all_triples_collinear(space: ExtendedMetricSpace) -> bool:
    """True when every triple of finite points attains triangle equality."""
    fin = space.finite_indices
    D = space.dist[np.ix_(fin, fin)]
    for i, j, k in itertools.combinations(range(len(fin)), 3):
        a, b, c = sorted((D[i, j], D[i, k], D[j, k]))
        if abs(a + b - c) > space.tol:
            return False
    return True


def space_to_json_dict(space: ExtendedMetricSpace) -> dict:
    """Serializable dict with "inf" strings on the omega row and column."""
    matrix = [["inf" if math.isinf(v) else float(v) for v in row] for row in space.dist]
    return {"points": list(space.labels), "omega": space.omega_label(), "matrix": matrix}


def space_to_json_chunks(space: ExtendedMetricSpace):
    r"""The text of ``json.dumps(space_to_json_dict(space), indent=2,
    sort_keys=True) + "\n"``, yielded one matrix row at a time.

    JSON writes a float as its ``repr``; the only non-finite distances of a
    space are the remote point's infinities, whose ``repr`` is ``inf``.
    """
    yield '{\n  "matrix": [\n'
    sep = "    [\n      "
    for row in space.dist:
        text = ",\n      ".join(map(float.__repr__, row.tolist()))
        yield sep + (text if space.omega is None else text.replace("inf", '"inf"'))
        sep = "\n    ],\n    [\n      "
    points = ",\n    ".join(map(json.dumps, space.labels))
    yield (f'\n    ]\n  ],\n  "omega": {json.dumps(space.omega_label())},\n'
           f'  "points": [\n    {points}\n  ]\n}}\n')


_PLAIN_NUMBERS = frozenset({float, int})


def _parse_cell(v) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "infinity"):
            return math.inf
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            raise ValidationError(
                f"matrix cell is an integer of {v.bit_length()} bits, "
                "too large for a float") from None
    raise ValidationError(f"matrix cell {v!r} is not a number or 'inf'")


def _parse_row(row):
    """One matrix row as floats; a list of plain numbers is converted at once."""
    if type(row) is list and set(map(type, row)) <= _PLAIN_NUMBERS:
        try:
            return np.array(row, dtype=float)
        except OverflowError:
            pass  # _parse_cell names the cell
    return [_parse_cell(v) for v in row]


def space_from_json_dict(data: dict, eps: float = DEFAULT_EPS) -> ExtendedMetricSpace:
    """Inverse of :func:`space_to_json_dict`, with validation."""
    try:
        labels = [str(x) for x in data["points"]]
        omega_label = data.get("omega")
        rows = [_parse_row(row) for row in data["matrix"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed distance-matrix JSON: {exc}") from exc
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValidationError(
                f"matrix row {i} has {len(row)} cells, row 0 has {len(rows[0])}")
    D = np.array(rows, dtype=float)
    omega = None
    if omega_label is not None:
        try:
            omega = labels.index(str(omega_label))
        except ValueError:
            raise ValidationError(f"omega label {omega_label!r} is not a point") from None
    return ExtendedMetricSpace(tuple(labels), D, omega, eps=eps)
