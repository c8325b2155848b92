"""A hyperbolic halfplane glued to hyperbolic 3-space along a geodesic.

The bulk component is the hyperboloid model of curvature -1 hyperbolic
3-space; the seam geodesic is gamma(tau) = (sinh tau, 0, 0, cosh tau)
through the base point o = gamma(0).  The halfplane component carries
normal coordinates (rho, tau): distance rho >= 0 to the seam above the
foot gamma(tau).  The off-seam base point o' sits in the halfplane at
(ell, 0), so its projection onto the seam is o.

Gromov products of boundary points are closed-form: at o, -log sin(theta/2)
of the angle theta between the rays; at o', that plus half the Busemann
values of the two points (Bourdon 1995).  The boundary metric is
exp(-product).  Of the interior only the seam crossing of a halfplane point
and a bulk point is here (:func:`seam_minimizer`): the minimum of
d(x, gamma(tau)) + d(gamma(tau), y) over tau is one hyperbolic-plane
distance once the bulk point is rotated about the seam into the plane
opposite the halfplane.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ValidationError
from .inversions import PointedCorrespondence, crt_equivalent
from .spaces import _U, DEFAULT_EPS, ExtendedMetricSpace, _float_array, _FrozenValue, _Record

# Largest x with cosh(x) finite in double precision, about 710.476.
_MAX_COSH_ARG = math.acosh(sys.float_info.max)

# Tolerance of the cross-ratio comparison between the two boundary metrics,
# and of the homothety test relative to the largest ratio lambda(x) lambda(y).
_CRT_EPS = 1e-5
_HOMOTHETY_TOL = 1e-6

# How far, relative to its scale, a triangle of a computed boundary metric may
# fail (see exotic_report): 3 entries within 85 units of roundoff each.
_BOUNDARY_ROUNDING = 256 * _U


class GluedSpaceConfig(_FrozenValue):
    """The glued space whose base points o and o' lie ``ell`` apart.

    Distances from o' and its Busemann values take cosh and sinh of ``ell``,
    so ``ell`` must not exceed acosh of the largest double.
    """

    ell: float

    def __post_init__(self):
        if not 0.0 < self.ell <= _MAX_COSH_ARG:
            raise ValidationError(
                f"ell = {self.ell!r} must be positive and at most acosh(DBL_MAX) = "
                f"{_MAX_COSH_ARG!r}, where cosh ell overflows")


def halfplane_point(rho: float, tau: float):
    """A point of the halfplane component in normal coordinates."""
    if rho < 0.0:
        raise ValidationError("rho must be nonnegative")
    return ("H2", (float(rho), float(tau)))


def bulk_point(vec):
    """A point of the 3-space component as a hyperboloid 4-vector."""
    v = _float_array(vec, "bulk point")
    if v.shape != (4,):
        raise ValidationError("bulk points are hyperboloid 4-vectors")
    q = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 - v[3] ** 2
    if abs(q + 1.0) > 1e-9 * max(1.0, v[3] ** 2) or v[3] < 1.0 - 1e-12:
        raise ValidationError("vector does not lie on the upper hyperboloid sheet")
    return ("H3", v)


def _seam_cosh(tau, y):
    """cosh d(gamma(tau), y) for bulk points y, and the terms it is made of.

    With r the distance from y to the seam and tau1 the foot of y on it,
    y3 + y0 = cosh r e^tau1 and y3 - y0 = cosh r e^-tau1, so
    cosh d(gamma(tau), y) = ((y3 + y0) e^-tau + (y3 - y0) e^tau) / 2.  The
    smaller of y3 +- y0 is read off their product cosh^2 r, as subtracting
    cancels far along the seam.  Returns the cosh, y3 + y0, y3 - y0,
    sinh r and e^tau.
    """
    sinh_r = np.hypot(y[..., 1], y[..., 2])
    big = y[..., 3] + np.abs(y[..., 0])
    small = (1.0 + sinh_r * sinh_r) / big
    ahead = y[..., 0] >= 0.0
    up, down = np.where(ahead, big, small), np.where(ahead, small, big)
    e = np.exp(tau)
    return 0.5 * (up / e + down * e), up, down, sinh_r, e


def seam_minimizer(cfg: GluedSpaceConfig, x, y):
    """Seam parameter and distance for a halfplane-to-bulk pair.

    Rotating the bulk point y about the seam into the plane opposite the
    halfplane unfolds the crossing into one hyperbolic-plane geodesic: with
    sinh r the distance from y to the seam, the halfplane point (rho, tau0)
    has cosh d = cosh rho cosh d(gamma(tau0), y) + sinh rho sinh r, and the
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
    cosh_gamma, up, down, sinh_r, e = _seam_cosh(tau0, py)
    with np.errstate(over="ignore", invalid="ignore"):
        d = float(np.arccosh(np.maximum(1.0, np.cosh(rho) * cosh_gamma + np.sinh(rho) * sinh_r)))
    if rho == 0.0:
        return tau0, d
    a, sh = sinh_r * math.cosh(rho), math.sinh(rho)
    return 0.5 * math.log((a * e + sh * up) / (a / e + sh * down)), d


class BoundaryPoint(_FrozenValue):
    """A boundary point reachable by a canonical ray from o.

    Kinds: "north" and "south" (seam endpoints), "equator" (bulk rays
    orthogonal to the seam at angle ``angle``), and "halfplane" (rays into
    the halfplane at angle ``angle`` in (0, pi) from the north seam
    direction).
    """

    kind: str
    angle: float = 0.0

    def __post_init__(self):
        kind, angle = self.kind, self.angle
        if kind not in ("north", "south", "equator", "halfplane"):
            raise ValidationError(f"unknown boundary kind {kind!r}")
        if kind == "equator":
            # a tiny negative angle leaves a remainder of exactly 2 pi
            angle = float(angle) % (2.0 * math.pi)
            if math.isnan(angle):  # from a non-finite angle
                raise ValidationError("equator angle must be finite")
            angle = 0.0 if angle == 2.0 * math.pi else angle
        elif kind == "halfplane":
            if not 0.0 < angle < math.pi:
                raise ValidationError(
                    "halfplane ray angle must lie strictly between 0 and pi; "
                    "the limits are the north and south points"
                )
        else:
            angle = 0.0
        vars(self)["angle"] = angle

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


def _boundary_metrics(cfg: GluedSpaceConfig, points):
    """The metrics exp(-(xi_i . xi_j)_o) and exp(-(xi_i . xi_j)_o'), and
    lambda = exp(-B/2) for the Busemann values B(xi) = lim d(o', x_t) - d(o, x_t).

    The bulk and the plane of the halfplane with any bulk halfplane are convex,
    so at o the product is -log sin(theta/2) of the angle theta between the rays.
    With psi the angle from the north end of the seam, sin(theta/2) is
    |sin((alpha1 - alpha2)/2)| for equator points at azimuths alpha,
    sin((psi1 + psi2)/2) for a ray and an equator point, and
    |sin((psi1 - psi2)/2)| otherwise.  At o' the product gains (B1 + B2)/2, so
    rho_o' = lambda1 lambda2 rho_o: B is ell on the equator (its geodesics from
    o' pass through o), and otherwise log(cosh ell - sinh ell sin psi), the
    Busemann function of that plane.
    """
    if len(set(points)) < len(points):
        raise ValueError("the Gromov product needs two distinct boundary points")
    kind = np.array([xi.kind for xi in points])
    alpha = np.array([xi.angle for xi in points])
    eq, ray = kind == "equator", kind == "halfplane"
    psi = np.select([ray, eq, kind == "south"], [alpha, math.pi / 2.0, math.pi], 0.0)
    # sin of |a - b| / 2 in [0, pi]: exactly symmetric, with +0 on the diagonal
    rho = np.where(eq[:, None] & eq, np.sin(np.abs(alpha[:, None] - alpha) / 2.0),
                   np.where(eq[:, None] & ray | ray[:, None] & eq,
                            np.sin((psi[:, None] + psi) / 2.0),
                            np.sin(np.abs(psi[:, None] - psi) / 2.0)))
    # cosh ell - sinh ell sin psi, without cancellation
    ell = cfg.ell
    lam = np.where(eq, math.exp(-ell / 2.0), 1.0 / np.sqrt(
        math.exp(-ell) + math.sinh(ell) * (2.0 * np.sin((math.pi / 2.0 - psi) / 2.0) ** 2)))
    return rho, rho * (lam[:, None] * lam), lam


def _off_seam(base: str) -> bool:
    """Whether ``base`` names o' ("o'" or "oprime") rather than o."""
    if base not in ("o", "o'", "oprime"):
        raise ValueError("base must be 'o' or 'oprime'")
    return base != "o"


def gromov_product(cfg: GluedSpaceConfig, base: str, xi1: BoundaryPoint,
                   xi2: BoundaryPoint) -> float:
    """(xi1 . xi2)_base in closed form: -log sin(theta/2) of the angle theta
    at o, plus half the Busemann values of xi1 and xi2 at o'."""
    rho_o, _, lam = _boundary_metrics(cfg, [xi1, xi2])
    return -math.log(rho_o[0, 1]) - (math.log(lam[0] * lam[1]) if _off_seam(base) else 0.0)


def bourdon_metric(cfg: GluedSpaceConfig, base: str, xi1: BoundaryPoint,
                   xi2: BoundaryPoint) -> float:
    """exp(-(xi1 . xi2)_base); the boundary metric at curvature -1."""
    rho_o, rho_op, _ = _boundary_metrics(cfg, [xi1, xi2])
    return float((rho_op if _off_seam(base) else rho_o)[0, 1])


class ExoticReport(_Record):
    """Both boundary metrics on the seam endpoints and equator samples.

    ``conformal_factor`` maps each label x to lambda(x) = exp(-B(x)/2), B
    the Busemann value, so rho_oprime(x, y) = lambda(x) lambda(y) rho_o(x, y);
    the metrics are homothetic exactly when lambda is constant.
    """

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
    conformal_factor: dict[str, float]

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
    homothety ratios rho_o'/rho_o = lambda(x) lambda(y): lambda(N) lambda(S) =
    1/cosh ell, the largest, and lambda(a0)^2 = exp(-ell) on the equator, where
    lambda is one float (spread 0), so for ell > 0 the metrics are not homothetic.
    Both shrink like exp(-ell), so the test compares the gap with the largest.

    Both metrics are metrics exactly: rho_o is the chordal metric of the
    unit tangents of the rays at o, and rho_o' the visual metric of a
    CAT(-1) boundary (Bourdon 1995).  Their computed entries are exactly
    symmetric, with a zero diagonal, and within 85 u scale of the exact
    values (u = 2^-53): rho_o within 8 u (angle differences and sin), and
    lambda(x) lambda(y) <= rho_o'(N, S) = scale' with lambda within 12 u,
    so a triangle fails by at most ``_BOUNDARY_ROUNDING`` * scale, which
    proves the triangle pass of both spaces.
    """
    angles = DEFAULT_EQUATOR_ANGLES if equator_angles is None else tuple(equator_angles)
    if len(angles) < 2:
        raise ValueError("need at least two equator angles")
    points = [BoundaryPoint.north(), BoundaryPoint.south()]
    points += [BoundaryPoint.equator(a) for a in angles]
    labels = ("N", "S") + tuple(f"a{k}" for k in range(len(angles)))
    rho_o, rho_op, lam = _boundary_metrics(cfg, points)
    src, dst = (ExtendedMetricSpace._derived(labels, rho.copy(), None, DEFAULT_EPS,
                                             bound=_BOUNDARY_ROUNDING) for rho in (rho_o, rho_op))
    report = crt_equivalent(PointedCorrespondence.identity(src, dst), eps=_CRT_EPS)

    ns, eq = float(lam[0] * lam[1]), float(lam[2] * lam[2])
    return ExoticReport(
        ell=cfg.ell,
        labels=labels,
        rho_o=rho_o,
        rho_oprime=rho_op,
        max_crt_deviation=report.max_deviation,
        ns_ratio=ns,
        equator_ratio=eq,
        equator_ratio_spread=0.0,
        ratio_gap=ns - eq,
        homothetic=ns - eq <= _HOMOTHETY_TOL * ns,
        conformal_factor=dict(zip(labels, lam.tolist())),
    )
