"""Metric inversions, bounded metrics, and Moebius-equivalence testing.

Inverting a Ptolemy space at a point z rescales every distance by the
distances to z, making z the new remote point while preserving all
cross-ratio triples.  The bounded-metric construction does the same with
the factors d(., o) + 1, producing a metric of diameter at most one.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotPtolemyError, ValidationError
from .spaces import _U, DEFAULT_EPS, ExtendedMetricSpace, _unit_remote, max_crt_deviation


@functools.lru_cache(maxsize=64)
def _off_diagonal(n: int) -> np.ndarray:
    """The read-only mask of the cells of an n x n matrix off its diagonal."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _least_off_diagonal(D: np.ndarray) -> float:
    """The smallest entry of the square matrix ``D`` off its diagonal (inf if none)."""
    return float(D.min(where=_off_diagonal(len(D)), initial=math.inf))


def _rescaled(space: ExtendedMetricSpace, fac: np.ndarray, remote: int | None,
              failure: str, margin: float | None = None) -> ExtendedMetricSpace:
    """The space d(x,y) / (fac(x) fac(y)) on the finite points other than ``remote``.

    ``fac`` has one positive entry per point; those of the remote point and
    of ``remote`` are not read.  A former remote point becomes finite at
    distance 1 / fac(x) from each such x, and ``remote`` (if any) becomes the
    new remote point.  The output is checked for what the rescaling can
    break (NaN or inf where the factors overflow or underflow, and the
    triangle inequality); a failure means the input was not Ptolemy and
    raises :class:`NotPtolemyError` naming ``failure``, with the failing
    triangle, after ``remote`` if any, as its witness and the triangle's
    excess as its residual.

    ``margin``, the worst margin of a quadruple scan of ``space`` when
    ``fac`` is the row of ``remote``, proves the triangle pass.  Inverted at
    z, a triangle x, y, w has sides proportional to the products of the
    quadruple {z, x, y, w}, so it fails by d'_max - d'_a - d'_b =
    2 m T <= 6 m scale', with m the quadruple's margin and T its perimeter
    (a remote point's factor is 1, so quadruples with it agree too).  When
    every finite input distance is at least 2^-500 scale, the scan's
    products are normal and its margins are within 8u of exact (u = 2^-53);
    when every output distance is normal, it is within 2u (1 + u) of
    d / (f f).  A triangle then fails by at most
    6 max(margin + 8u, 0) scale' + 16u scale'.  Otherwise the pass runs.
    """
    omega = space.omega
    fac = np.array(fac, dtype=float)
    for i in (omega, remote):
        if i is not None:
            fac[i] = 1.0  # a finite stand-in; the rows are set below
    lo, hi = float(fac.min()), float(fac.max())
    if sys.float_info.min <= lo * lo and hi * hi < math.inf:
        out = space.dist / (fac[:, None] * fac)
    else:
        # Some product f(x) f(y) leaves the normal range.  The distances and
        # the factors split exactly into mantissas and powers of two; the
        # mantissas are divided and the powers applied, so each quotient is
        # rounded as at unit scale (and once more if it is subnormal).
        m, k = np.frexp(fac)
        md, kd = np.frexp(space.dist)
        out = np.ldexp(md / (m[:, None] * m), kd - k[:, None] - k)
    if omega is not None:
        out[omega] = out[:, omega] = 1.0 / fac
        out[omega, omega] = 0.0
    if remote is not None:
        out[remote, :] = np.inf
        out[:, remote] = np.inf
        out[remote, remote] = 0.0
    bound = None
    if (margin is not None
            and _least_off_diagonal(space.dist) >= math.ldexp(space.scale, -500)
            and _least_off_diagonal(out) >= sys.float_info.min):
        bound = 6.0 * max(margin + 8.0 * _U, 0.0) + 16.0 * _U
    try:
        # exactly symmetric, as dist is: f_i * f_j = f_j * f_i; the diagonal
        # is 0 / (f_i * f_i) = 0 (or NaN, which is refused)
        return ExtendedMetricSpace._derived(space.labels, out, remote, space.eps,
                                            space._positions, bound)
    except ValidationError as exc:
        witness = exc.witness
        if witness is not None and remote is not None:
            witness = (space.labels[remote],) + witness
        raise NotPtolemyError(
            f"{failure} violates the triangle inequality; "
            f"the input space is not Ptolemy ({exc})",
            witness=witness, residual=exc.residual,
        ) from exc


def invert_at(space: ExtendedMetricSpace, z) -> ExtendedMetricSpace:
    """Invert the metric at point z, which becomes the remote point.

    For finite x, y the new distance is d(x,y) / (d(z,x) d(z,y)); a former
    remote point becomes finite at distance 1 / d(z,x) from each x.  The
    output is validated; a triangle violation means the input was not
    Ptolemy and raises :class:`NotPtolemyError`, whose witness (z, x, y, w)
    is a quadruple that fails the Ptolemy inequality.  When the space's
    quadruple scan has already run (:func:`is_ptolemy`), its worst margin
    may prove the triangle pass instead; no scan is run for that.
    Inverting at the remote point returns the space itself.
    """
    zi = space.index(z)
    if zi == space.omega:
        return space
    dz = space.dist[zi]
    coincident = dz <= 0.0  # with d(z, z) = 0 itself; the remote point's inf is not
    if np.count_nonzero(coincident) > 1:
        coincident[zi] = False
        raise ValueError(f"cannot invert at {space.labels[zi]!r}: "
                         f"distance 0 to {space.labels[int(coincident.argmax())]!r}")
    report = space._ptolemy
    return _rescaled(space, dz, zi, f"inversion at {space.labels[zi]!r}",
                     None if report is None else report.worst_margin)


def bound_at(space: ExtendedMetricSpace, o) -> ExtendedMetricSpace:
    """Moebius-equivalent bounded metric d(x,y) / ((d(x,o)+1)(d(y,o)+1)).

    A remote point becomes finite at distance 1 / (d(x,o)+1) from each x;
    the output has no remote point and diameter at most one.
    """
    oi = space.index(o)
    if oi == space.omega:
        raise ValueError("cannot bound at the remote point")
    return _rescaled(space, space.dist[oi] + 1.0, None, f"bounded metric at {space.labels[oi]!r}")


@dataclass(eq=False)
class PointedCorrespondence:
    """A label bijection between two spaces of equal cardinality."""

    source: ExtendedMetricSpace
    target: ExtendedMetricSpace
    mapping: dict[str, str]

    def __post_init__(self):
        src = set(self.source.labels)
        tgt = set(self.target.labels)
        if set(self.mapping) != src:
            raise ValidationError("mapping must cover every source label")
        values = list(self.mapping.values())
        if len(set(values)) != len(values) or not set(values) <= tgt:
            raise ValidationError("mapping must be injective into the target labels")
        if len(src) != len(tgt):
            raise ValidationError("source and target cardinality differ")

    @classmethod
    def identity(cls, source: ExtendedMetricSpace,
                 target: ExtendedMetricSpace) -> "PointedCorrespondence":
        mapping = {lab: lab for lab in source.labels}
        if source.labels != target.labels:
            return cls(source, target, mapping)  # the checks word the failure
        # equal tuples of unique labels: the mapping is a bijection as built
        corr = cls.__new__(cls)
        corr.source, corr.target, corr.mapping = source, target, mapping
        return corr

    def is_identity(self) -> bool:
        """Whether the mapping sends each point to the point of its index."""
        return (self.source.labels == self.target.labels
                and all(map(operator.eq, self.mapping, self.mapping.values())))

    def target_indices(self) -> np.ndarray:
        return np.array([self.target.index(self.mapping[lab]) for lab in self.source.labels])


@dataclass
class EquivalenceReport:
    """``method`` is "factor" when a conformal factor certified the verdict
    (``max_deviation`` is then a bound, ``witness`` None) and "scan" when every
    4-subset was compared; ``factor_residual`` is None when no fit was made."""

    equivalent: bool
    max_deviation: float
    witness: tuple[str, ...] | None
    n_checked: int
    method: str
    factor_residual: float | None


def _log_factor(A: np.ndarray, B: np.ndarray):
    """f = log lambda for B(x,y) ~ lambda(x) lambda(y) A(x,y), fitted at three
    anchors; with the largest residual |log(B/A) - f(x) - f(y)| and the largest
    |log(B/A)| off the diagonal.  None when such an entry is 0 or subnormal.

    Off the diagonal, A and B hold entries of at most 1 (as from
    ``_unit_remote``); their diagonals are overwritten with ones, which
    neither minimum sees and whose log is 0.
    """
    n = len(A)
    A.flat[:: n + 1] = B.flat[:: n + 1] = 1.0
    if not (A.min() >= sys.float_info.min and B.min() >= sys.float_info.min):
        return None
    ell = np.log(B / A)
    ell01, ell02 = ell[0, 1:3].tolist()
    f = ell[0] - 0.5 * (ell01 + ell02 - float(ell[1, 2]))  # f(x) = ell(x, 0) - f(0)
    f[0] = ell01 - f[1]
    resid = np.abs(ell - f[:, None] - f)
    return (f, float(resid.max(where=_off_diagonal(n), initial=0.0)),  # a point is no pair
            float(np.abs(ell).max()))


def crt_equivalent(corr: PointedCorrespondence, eps: float = DEFAULT_EPS) -> EquivalenceReport:
    """Compare cross-ratio triples of all distinct 4-subsets under the mapping.

    The triples agree exactly when d'(x,y) = lambda(x) lambda(y) d(x,y).  If a
    factor fitted in O(n^2) leaves residuals |log(d'/d) - log lambda(x) lambda(y)|
    <= r, every normalized triple entry moves by a factor in [e^-4r, e^4r], so
    the deviation is at most e^4r - 1; that bound, plus a rounding allowance,
    is reported when it is within ``eps``.  Otherwise every 4-subset is
    scanned.  Either way the verdict is the scan's.  Quadruples with repeated
    entries have fixed triples on both sides and are skipped.
    """
    src, tgt = corr.source, corr.target
    if src.n < 4:
        raise ValueError("crt comparison needs at least four points")
    A = _unit_remote(src.dist, src.scale, src.omega)
    B = _unit_remote(tgt.dist, tgt.scale, tgt.omega)
    perm = None if corr.is_identity() else corr.target_indices()
    if perm is not None:  # B in the order of the source's points
        B = B.take(perm, 0).take(perm, 1)
    f, resid, log_max = _log_factor(A, B) or (None, None, None)
    if resid is not None:
        # With u = 2^-53: B/A, the log (within 4 ulp) and two subtractions move
        # a residual by less than u (2 + 12 max|log(B/A)| + 4 max|f|); expm1 and
        # the scan's rounding of its normalized triples add less than 24 u.
        slack = _U * (2.0 + 12.0 * log_max + 4.0 * float(np.abs(f).max()))
        # equal matrices have ell = 0, f = 0 and no residual
        bound = (0.0 if resid == 0.0 and (A == B).all()
                 else math.expm1(4.0 * (resid + slack)) + 24.0 * _U)
        if bound <= eps:
            return EquivalenceReport(True, bound, None, math.comb(src.n, 4), "factor", resid)
    if perm is None:
        perm = np.arange(src.n)
    dev, quad = max_crt_deviation(src.dist, src.omega, tgt.dist, tgt.omega, perm)
    witness = tuple(src.labels[i] for i in quad)
    return EquivalenceReport(dev <= eps, dev, witness, math.comb(src.n, 4), "scan", resid)

