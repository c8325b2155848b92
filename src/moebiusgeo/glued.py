"""A hyperbolic halfplane glued to hyperbolic 3-space along a geodesic.

The bulk component is the hyperboloid model of curvature -1 hyperbolic
3-space; the seam geodesic is gamma(tau) = (sinh tau, 0, 0, cosh tau)
through the base point o = gamma(0).  The halfplane component carries
normal coordinates (rho, tau): distance rho >= 0 to the seam above the
foot gamma(tau).  The off-seam base point o' sits in the halfplane at
(ell, 0), so its projection onto the seam is o.

Distances within a component are closed-form, and so are distances across
the seam: the minimum of d(x, gamma(tau)) + d(gamma(tau), y) over tau is
one hyperbolic-plane distance once the bulk point is rotated about the
seam into the plane opposite the halfplane.  Gromov products of boundary
points are limits along rays truncated at t_max, extrapolated linearly in
exp(-2t); the boundary metric is exp(-product).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .inversions import PointedCorrespondence, crt_equivalent
from .spaces import ExtendedMetricSpace

# Largest x with cosh(x) finite in double precision, about 710.476.
_MAX_COSH_ARG = math.acosh(sys.float_info.max)

# Tolerance of the cross-ratio comparison between the two boundary metrics,
# and of the homothety test relative to the largest distance ratio.
_CRT_EPS = 1e-5
_HOMOTHETY_TOL = 1e-6


@dataclass(frozen=True)
class GluedSpaceConfig:
    """Parameters of the glued space and its boundary limits.

    ``ell`` is the distance from the seam base point o to the halfplane
    base point o'; ``t_max`` truncates boundary rays.  The limits evaluate
    cosh of distances up to max(2 t_max, ell + t_max) (two rays at t_max,
    or o' to a ray point), so that bound must not exceed acosh of the
    largest double.
    """

    ell: float
    t_max: float = 40.0

    def __post_init__(self):
        if not (self.ell > 0.0 and math.isfinite(self.ell)):
            raise ValidationError("ell must be positive and finite")
        if not (self.t_max >= 20.0 and math.isfinite(self.t_max)):
            raise ValidationError("t_max must be finite and at least 20")
        reach = max(2.0 * self.t_max, self.ell + self.t_max)
        if reach > _MAX_COSH_ARG:
            raise ValidationError(
                f"max(2*t_max, ell + t_max) = {reach!r} exceeds acosh(DBL_MAX) = "
                f"{_MAX_COSH_ARG!r}: cosh of the ray distances would overflow"
            )

    def base_point(self, which: str):
        if which == "o":
            return halfplane_point(0.0, 0.0)
        if which in ("o'", "oprime"):
            return halfplane_point(self.ell, 0.0)
        raise ValueError("base must be 'o' or 'oprime'")


def halfplane_point(rho: float, tau: float):
    """A point of the halfplane component in normal coordinates."""
    if rho < 0.0:
        raise ValidationError("rho must be nonnegative")
    return ("H2", (float(rho), float(tau)))


def gamma_point(tau: float):
    """A point on the seam geodesic."""
    return halfplane_point(0.0, tau)


def bulk_point(vec):
    """A point of the 3-space component as a hyperboloid 4-vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (4,):
        raise ValidationError("bulk points are hyperboloid 4-vectors")
    q = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 - v[3] ** 2
    if abs(q + 1.0) > 1e-9 * max(1.0, v[3] ** 2) or v[3] < 1.0 - 1e-12:
        raise ValidationError("vector does not lie on the upper hyperboloid sheet")
    return ("H3", v)


def _h2_dist(p, q) -> float:
    (r1, t1), (r2, t2) = p, q
    ch = math.cosh(r1) * math.cosh(r2) * math.cosh(t1 - t2) - math.sinh(r1) * math.sinh(r2)
    return math.acosh(max(1.0, ch))


def _h3_dist(x, y) -> float:
    ch = x[3] * y[3] - x[0] * y[0] - x[1] * y[1] - x[2] * y[2]
    return math.acosh(max(1.0, ch))


def _seam_cosh(tau: float, y):
    """cosh d(gamma(tau), y) for a bulk point y, and the terms it is made of.

    With r the distance from y to the seam and tau1 the foot of y on it,
    y3 + y0 = cosh r e^tau1 and y3 - y0 = cosh r e^-tau1, so
    cosh d(gamma(tau), y) = ((y3 + y0) e^-tau + (y3 - y0) e^tau) / 2.  The
    smaller of y3 +- y0 is read off their product cosh^2 r, as subtracting
    cancels far along the seam.  Returns the cosh, y3 + y0, y3 - y0,
    sinh r and e^tau.
    """
    sinh_r = math.hypot(y[1], y[2])
    big = y[3] + abs(y[0])
    small = (1.0 + sinh_r * sinh_r) / big
    up, down = (big, small) if y[0] >= 0.0 else (small, big)
    e = math.exp(tau)
    return 0.5 * (up / e + down * e), up, down, sinh_r, e


def _h3_gamma_dist(tau: float, y) -> float:
    return math.acosh(max(1.0, _seam_cosh(tau, y)[0]))


def seam_minimizer(cfg: GluedSpaceConfig, x, y):
    """Seam parameter and distance for a halfplane-to-bulk pair.

    Rotating the bulk point y about the seam into the plane opposite the
    halfplane unfolds the crossing into one hyperbolic-plane geodesic.
    With sinh r = hypot(y1, y2) the distance from y to the seam,
    cosh d = cosh rho cosh d(gamma(tau0), y) + sinh rho sinh r, and the
    geodesic meets the seam at
    tau* = log((A e^tau0 + sinh rho (y3 + y0)) / (A e^-tau0 + sinh rho (y3 - y0))) / 2
    with A = sinh r cosh rho.
    """
    (cx, px), (cy, py) = x, y
    if cx == "H3" and cy == "H2":
        return seam_minimizer(cfg, y, x)
    if not (cx == "H2" and cy == "H3"):
        raise ValueError("seam crossings join a halfplane point and a bulk point")
    rho, tau0 = px
    if rho == 0.0:
        return tau0, _h3_gamma_dist(tau0, py)
    ch, sh = math.cosh(rho), math.sinh(rho)
    cosh_gamma, up, down, sinh_r, e = _seam_cosh(tau0, py)
    d = math.acosh(max(1.0, ch * cosh_gamma + sh * sinh_r))
    a = sinh_r * ch
    tau_star = 0.5 * math.log((a * e + sh * up) / (a / e + sh * down))
    return tau_star, d


def glued_distance(cfg: GluedSpaceConfig, x, y) -> float:
    """Distance between two interior points of the glued space."""
    (cx, px), (cy, py) = x, y
    if cx == "H2" and cy == "H2":
        return _h2_dist(px, py)
    if cx == "H3" and cy == "H3":
        return _h3_dist(px, py)
    if cx == "H2" and px[0] == 0.0:
        return _h3_gamma_dist(px[1], py)
    if cy == "H2" and py[0] == 0.0:
        return _h3_gamma_dist(py[1], px)
    return seam_minimizer(cfg, x, y)[1]


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point reachable by a canonical ray from o.

    Kinds: "north" and "south" (seam endpoints), "equator" (bulk rays
    orthogonal to the seam at angle ``angle``), and "halfplane" (rays into
    the halfplane at angle ``angle`` in (0, pi) from the north seam
    direction).
    """

    kind: str
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("north", "south", "equator", "halfplane"):
            raise ValidationError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "equator":
            object.__setattr__(self, "angle", float(self.angle) % (2.0 * math.pi))
        elif self.kind == "halfplane":
            if not 0.0 < self.angle < math.pi:
                raise ValidationError(
                    "halfplane ray angle must lie strictly between 0 and pi; "
                    "the limits are the north and south points"
                )
        else:
            object.__setattr__(self, "angle", 0.0)

    @classmethod
    def north(cls):
        return cls("north")

    @classmethod
    def south(cls):
        return cls("south")

    @classmethod
    def equator(cls, angle: float):
        return cls("equator", angle)

    @classmethod
    def halfplane_ray(cls, angle: float):
        return cls("halfplane", angle)


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


def gromov_product(cfg: GluedSpaceConfig, base: str, xi1: BoundaryPoint,
                   xi2: BoundaryPoint) -> float:
    """(xi1 . xi2)_base as a truncated-ray limit with extrapolation.

    Evaluates (d(b, x_t) + d(b, y_t) - d(x_t, y_t)) / 2 at t_max/2 and
    t_max, then extrapolates linearly in exp(-2t).  Raises
    :class:`ConvergenceError` when the two values differ by more than 1e-7.
    """
    if xi1 == xi2:
        raise ValueError("the Gromov product needs two distinct boundary points")
    b = cfg.base_point(base)

    def g(t):
        x = ray_point(xi1, t)
        y = ray_point(xi2, t)
        return 0.5 * (glued_distance(cfg, b, x) + glued_distance(cfg, b, y)
                      - glued_distance(cfg, x, y))

    t2 = cfg.t_max
    t1 = cfg.t_max / 2.0
    g1, g2 = g(t1), g(t2)
    if abs(g2 - g1) > 1e-7:
        raise ConvergenceError(
            f"Gromov product not converged at t_max={cfg.t_max}: "
            f"values {g1!r} and {g2!r}; raise t_max"
        )
    e1, e2 = math.exp(-2.0 * t1), math.exp(-2.0 * t2)
    slope = (g1 - g2) / (e1 - e2)
    return g2 - slope * e2


def bourdon_metric(cfg: GluedSpaceConfig, base: str, xi1: BoundaryPoint,
                   xi2: BoundaryPoint) -> float:
    """exp(-(xi1 . xi2)_base); the boundary metric at curvature -1."""
    return math.exp(-gromov_product(cfg, base, xi1, xi2))


@dataclass
class ExoticReport:
    """Both boundary metrics on the seam endpoints and equator samples."""

    ell: float
    labels: tuple[str, ...]
    rho_o: np.ndarray
    rho_oprime: np.ndarray
    max_crt_deviation: float
    ns_ratio: float
    equator_ratio: float
    equator_ratio_spread: float
    ratio_gap: float
    homothetic: bool

    def to_json_dict(self) -> dict:
        return {
            "l": self.ell,
            "labels": list(self.labels),
            "rho_o": [[float(v) for v in row] for row in self.rho_o],
            "rho_oprime": [[float(v) for v in row] for row in self.rho_oprime],
            "max_crt_dev": float(self.max_crt_deviation),
            "homothety": {
                "NS_ratio": float(self.ns_ratio),
                "equator_ratio": float(self.equator_ratio),
                "equator_ratio_spread": float(self.equator_ratio_spread),
                "gap": float(self.ratio_gap),
                "homothetic": bool(self.homothetic),
            },
        }


DEFAULT_EQUATOR_ANGLES = tuple(k * math.pi / 3.0 for k in range(6))


def exotic_report(cfg: GluedSpaceConfig, equator_angles=None) -> ExoticReport:
    """Compare the boundary metrics based at o and at o'.

    Builds both metrics on the seam endpoints N, S together with equator
    samples, reports the worst cross-ratio deviation between them (they are
    Moebius equivalent, so it should vanish up to numerics), and the
    homothety ratios: distances between equator points scale by one factor
    while d(N, S) scales by another, so for ell > 0 the two metrics are not
    homothetic.  The ratios shrink like exp(-ell), so the homothety test
    compares their spread with the largest ratio.
    """
    angles = DEFAULT_EQUATOR_ANGLES if equator_angles is None else tuple(equator_angles)
    if len(angles) < 2:
        raise ValueError("need at least two equator angles")
    points = [BoundaryPoint.north(), BoundaryPoint.south()]
    points += [BoundaryPoint.equator(a) for a in angles]
    labels = ("N", "S") + tuple(f"a{k}" for k in range(len(angles)))
    m = len(points)
    rho_o = np.zeros((m, m))
    rho_op = np.zeros((m, m))
    for i, j in itertools.combinations(range(m), 2):
        rho_o[i, j] = rho_o[j, i] = bourdon_metric(cfg, "o", points[i], points[j])
        rho_op[i, j] = rho_op[j, i] = bourdon_metric(cfg, "oprime", points[i], points[j])
    space_o = ExtendedMetricSpace(labels, rho_o, None)
    space_op = ExtendedMetricSpace(labels, rho_op, None)
    report = crt_equivalent(PointedCorrespondence.identity(space_o, space_op), eps=_CRT_EPS)

    ns_ratio = rho_op[0, 1] / rho_o[0, 1]
    eq_pairs = list(itertools.combinations(range(2, m), 2))
    eq_ratios = np.array([rho_op[i, j] / rho_o[i, j] for i, j in eq_pairs])
    all_pairs = list(itertools.combinations(range(m), 2))
    all_ratios = np.array([rho_op[i, j] / rho_o[i, j] for i, j in all_pairs])
    gap = float(all_ratios.max() - all_ratios.min())
    return ExoticReport(
        ell=cfg.ell,
        labels=labels,
        rho_o=rho_o,
        rho_oprime=rho_op,
        max_crt_deviation=report.max_deviation,
        ns_ratio=float(ns_ratio),
        equator_ratio=float(eq_ratios.mean()),
        equator_ratio_spread=float(eq_ratios.max() - eq_ratios.min()),
        ratio_gap=gap,
        homothetic=gap <= _HOMOTHETY_TOL * float(all_ratios.max()),
    )
