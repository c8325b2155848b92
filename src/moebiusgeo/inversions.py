"""Metric inversions, bounded metrics, and Moebius-equivalence testing.

Inverting a Ptolemy space at a point z rescales every distance by the
distances to z, making z the new remote point while preserving all
cross-ratio triples.  The bounded-metric construction does the same with
the factors d(., o) + 1, producing a metric of diameter at most one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPtolemyError, ValidationError
from .spaces import DEFAULT_EPS, ExtendedMetricSpace, max_crt_deviation


def _rescaled(space: ExtendedMetricSpace, keep: list[int], fac: np.ndarray,
              remote: int | None, failure: str) -> ExtendedMetricSpace:
    """The space d(x,y) / (fac(x) fac(y)) on the finite points ``keep``.

    A former remote point becomes finite at distance 1 / fac(x) from each
    kept x, and ``remote`` (if any) becomes the new remote point.  The
    output is validated; a triangle violation means the input was not
    Ptolemy and raises :class:`NotPtolemyError` naming ``failure``.
    """
    D = space.dist
    n = space.n
    out = np.zeros((n, n))
    out[np.ix_(keep, keep)] = D[np.ix_(keep, keep)] / np.outer(fac, fac)
    if space.omega is not None:
        out[keep, space.omega] = out[space.omega, keep] = 1.0 / fac
    if remote is not None:
        out[remote, :] = np.inf
        out[:, remote] = np.inf
        out[remote, remote] = 0.0
    try:
        return ExtendedMetricSpace(space.labels, out, remote, eps=space.eps)
    except ValidationError as exc:
        raise NotPtolemyError(
            f"{failure} violates the triangle inequality; "
            f"the input space is not Ptolemy ({exc})"
        ) from exc


def invert_at(space: ExtendedMetricSpace, z) -> ExtendedMetricSpace:
    """Invert the metric at point z, which becomes the remote point.

    For finite x, y the new distance is d(x,y) / (d(z,x) d(z,y)); a former
    remote point becomes finite at distance 1 / d(z,x) from each x.  The
    output is validated; a triangle violation means the input was not
    Ptolemy and raises :class:`NotPtolemyError`.  Inverting at the remote
    point returns the space itself.
    """
    zi = space.index(z)
    if zi == space.omega:
        return space
    dz = space.dist[zi]
    others = [i for i in range(space.n) if i != zi and i != space.omega]
    coincident = [i for i in others if dz[i] <= 0.0]
    if coincident:
        raise ValueError(
            f"cannot invert at {space.labels[zi]!r}: distance 0 to {space.labels[coincident[0]]!r}"
        )
    return _rescaled(space, others, dz[others], zi, f"inversion at {space.labels[zi]!r}")


def bound_at(space: ExtendedMetricSpace, o) -> ExtendedMetricSpace:
    """Moebius-equivalent bounded metric d(x,y) / ((d(x,o)+1)(d(y,o)+1)).

    A remote point becomes finite at distance 1 / (d(x,o)+1) from each x;
    the output has no remote point and diameter at most one.
    """
    oi = space.index(o)
    if oi == space.omega:
        raise ValueError("cannot bound at the remote point")
    fin = space.finite_indices
    return _rescaled(space, fin, space.dist[oi, fin] + 1.0, None,
                     f"bounded metric at {space.labels[oi]!r}")


@dataclass
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
        return cls(source, target, {lab: lab for lab in source.labels})

    def target_indices(self) -> np.ndarray:
        return np.array([self.target.index(self.mapping[lab]) for lab in self.source.labels])


@dataclass
class EquivalenceReport:
    equivalent: bool
    max_deviation: float
    witness: tuple[str, ...] | None
    n_checked: int


def crt_equivalent(corr: PointedCorrespondence, eps: float = DEFAULT_EPS) -> EquivalenceReport:
    """Compare cross-ratio triples of all distinct 4-subsets under the mapping.

    Quadruples with repeated entries have combinatorially fixed triples on
    both sides and are skipped.
    """
    src = corr.source
    tgt = corr.target
    if src.n < 4:
        raise ValueError("crt comparison needs at least four points")
    dev, quad = max_crt_deviation(src.dist, src.omega, tgt.dist, tgt.omega,
                                  corr.target_indices())
    witness = tuple(src.labels[i] for i in quad)
    return EquivalenceReport(dev <= eps, dev, witness, math.comb(src.n, 4))


def homothety_factor(d1: ExtendedMetricSpace, d2: ExtendedMetricSpace,
                     eps: float = DEFAULT_EPS) -> float | None:
    """The factor lambda with d2 = lambda * d1, or None.

    Both spaces must share labels.  Returns None when the remote-point
    designations differ (re-invert first), when the spaces are not
    crt-equivalent, or when no single factor fits all finite pairs.
    """
    if d1.labels != d2.labels:
        raise ValueError("homothety comparison requires identical label sequences")
    fin = d1.finite_indices
    if len(fin) < 2:
        raise ValueError("homothety needs at least two finite points")
    if d1.omega_label() != d2.omega_label():
        return None
    if d1.n >= 4:
        report = crt_equivalent(PointedCorrespondence.identity(d1, d2), eps)
        if not report.equivalent:
            return None
    A = d1.dist[np.ix_(fin, fin)]
    B = d2.dist[np.ix_(fin, fin)]
    k = np.unravel_index(np.argmax(A), A.shape)
    if A[k] <= 0.0:
        return None
    lam = float(B[k] / A[k])
    if lam <= 0.0:
        return None
    resid = np.abs(B - lam * A).max()
    if resid > eps * lam * A[k]:
        return None
    return lam
