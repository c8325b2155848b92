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

import contextlib
import contextvars
import functools
import io
import itertools
import json
import math
from dataclasses import MISSING, FrozenInstanceError, dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_EPS = 1e-9

# Cells per pass of the triangle check: blocks of rows take at least one row,
# so a pass never exceeds max(budget, m^2) cells, and a space of up to 51
# points is checked in a single pass.
_TRIANGLE_CELLS = 1 << 17

# Unit roundoff of a double
_U = 2.0 ** -53

# The smallest positive double: a nonnegative sum raised to it changes only if it is 0
_TINIEST = math.ulp(0.0)

# What rounding to a subnormal can move the three entries of a triangle by,
# with room to spare: each such rounding is at most 2^-1075
_SUBNORMAL_SLACK = 2.0 ** -1060

# The spaces built inside _triangle_deferred(), whose triangle pass is pending
_deferred: contextvars.ContextVar[list | None] = contextvars.ContextVar("_deferred", default=None)


# A record is declared by subclassing one of these bases, whose __init_subclass__ collects its
# fields with dataclass(init=False, repr=False, eq=False), compiling no method; the bases give
# the methods as dataclass would, checks go in __post_init__, and writing __init__ is refused.
class _Record:
    """The constructor and ``repr`` over the fields."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            raise TypeError(f"{cls.__qualname__} writes __init__; its checks go in __post_init__")
        dataclass(cls, init=False, repr=False, eq=False)

    def __init__(self, *args, **kwargs):
        fields = self.__dataclass_fields__
        if kwargs or len(args) != len(fields):
            called = type(self).__qualname__
            if len(args) > len(fields):
                raise TypeError(
                    f"{called}() takes {len(fields)} arguments but {len(args)} were given")
            values = dict(zip(fields, args))
            for name, value in kwargs.items():
                if name not in fields:
                    raise TypeError(f"{called}() got an unexpected keyword argument {name!r}")
                if name in values:
                    raise TypeError(f"{called}() got multiple values for argument {name!r}")
                values[name] = value
            for name, field in fields.items():
                if name not in values:
                    if field.default is MISSING:
                        raise TypeError(f"{called}() missing required argument {name!r}")
                    values[name] = field.default
            args = [values[name] for name in fields]
        vars(self).update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        """A record that checks its fields does so here."""

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__dataclass_fields__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose attributes are written once, through ``vars(self)``."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Value(_Record):
    """Equality field by field with a record of the same class; unhashable."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class _FrozenValue(_Frozen, _Value):
    """A frozen record of values, hashed by its fields."""

    def __hash__(self):
        return hash(self._values())


class ExtendedMetricSpace(_Frozen):
    """A finite labeled point set with a symmetric extended distance matrix.

    ``dist[i, j]`` is infinite exactly when one of ``i, j`` is the remote
    point ``omega`` and the other is not.  Every space is built by one path.
    The constructor (behind ``dataclasses.replace`` and
    :func:`space_from_json_dict` too) runs the input checks: a finite,
    nonnegative ``eps``, unique labels, the shape, no NaN, nonnegativity,
    symmetry, a zero diagonal and the infinity pattern of ``omega``, each
    within ``eps * max(s, 1)`` for ``s`` the largest finite input entry.  An
    exactly symmetric matrix is stored as given, any other as ``D / 2 +
    D.T / 2``, with negatives (within the tolerance) raised to 0 and the
    diagonal zeroed.  The constructor ends in the finishing step ``_finish``
    that every space takes: no inf between finite points, then the exact
    triangle inequality on the finite part, within the stored ``tol``.  The
    spaces the library derives (:func:`space_from_points`, ``invert_at``,
    ``bound_at``, ``segment_from_curve``, ``circle_from_curve``) pass the
    input checks by their arithmetic, so ``_derived`` takes the finishing
    step alone; those whose arithmetic also proves the triangle inequality
    skip the pass.  The space is immutable (``dataclasses.replace`` builds a
    copy with another ``eps``), its ``dist`` is read-only, and spaces compare
    and hash by identity.  ``scale`` is the largest finite stored entry, and
    ``tol = eps * max(scale, 1)`` is the absolute tolerance of every distance
    comparison on the space; predicates on cross-ratio triples compare
    against ``eps`` itself.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    omega: int | None = None
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        labels, positions, D = _checked_input(self.labels, self.dist, self.eps)
        n = len(labels)
        # Whole-matrix passes only; np.argwhere locates a fault once one is found
        finite = np.isfinite(D)
        bounded = np.count_nonzero(finite) == n * n
        if not bounded and np.isnan(D).any():
            raise ValidationError("distance matrix contains NaN")
        scale = float(D.max(initial=0.0) if bounded else D[finite].max(initial=0.0))
        tol = self.eps * max(scale, 1.0)

        if D.min() < -tol:
            i, j = np.argwhere(D < -tol)[0]
            raise ValidationError(f"negative distance at ({labels[i]}, {labels[j]})")
        with np.errstate(invalid="ignore", over="ignore"):
            # inf - inf is NaN, which fmax skips; a finite entry facing an
            # infinite one differs from it by inf, as do two finite entries
            # whose difference overflows
            asym = np.fmax.reduce(np.abs(D - D.T), axis=None)
            if asym == math.inf and (finite != finite.T).any():
                raise ValidationError("infinity pattern is not symmetric")
            if asym > tol:
                raise ValidationError("distance matrix is not symmetric")
        # the halves' sum cannot overflow, and inf, now in a symmetric pattern, stays inf
        S = D.copy() if asym == 0.0 else 0.5 * D + 0.5 * D.T
        np.maximum(S, 0.0, out=S)

        if S.diagonal().max() > tol:
            raise ValidationError("diagonal entries must vanish")
        S.flat[:: n + 1] = 0.0

        omega = self.omega
        if omega is not None:
            omega = int(omega)
            if not 0 <= omega < n:
                raise ValidationError(f"omega index {omega} out of range")
            if np.count_nonzero(np.isinf(S[omega])) != n - 1:  # d(omega, omega) is 0
                raise ValidationError("omega must be at infinite distance from every other point")
        self._finish(labels, S, omega, positions)

    @classmethod
    def _derived(cls, labels: tuple[str, ...], dist: np.ndarray, omega: int | None,
                 eps: float, positions: dict | None = None,
                 bound: float | None = None) -> "ExtendedMetricSpace":
        """A space of a matrix the library built, with only the checks it can fail.

        The caller guarantees what the input checks establish: unique string
        ``labels``, a valid ``eps``, and a new float (n, n) ``dist`` that is
        exactly symmetric, with a zero diagonal, no negative entry (nor -0.0),
        and inf on the row and column of ``omega`` off the diagonal.  Only the
        finishing step :meth:`_finish` runs; the constructor stores such a
        matrix as given and ends in the same step, so ``dist``, ``scale``,
        ``tol`` and the verdict are the constructor's at every scale.

        A builder whose arithmetic proves the matrix a metric passes that
        proof as ``bound`` (see :meth:`_proves`): :func:`space_from_points`,
        ``invert_at`` of a scanned space, the glued boundary metrics and the
        curve spaces do.  When it proves the exact triangle pass would hold,
        the pass does not run; otherwise it runs as for any other space.
        """
        space = cls.__new__(cls)
        vars(space)["eps"] = eps
        space._finish(labels, dist, omega, positions or dict(zip(labels, range(len(labels)))),
                      bound)
        return space

    def _finish(self, labels, dist, omega, positions, bound=None) -> None:
        """Refuse NaN, then inf, in the finite block of ``dist``, store the
        fields, and settle the block's triangle pass against the stored
        ``tol``: clear it when ``bound`` proves it (:meth:`_proves`), else
        leave it pending inside :func:`_triangle_deferred` or run it.  The
        block of a remote point first or last is a view, which the pass
        copies (it is slower on a view); any other is taken as a copy."""
        dist.flags.writeable = False  # before the views of the block are taken
        sub = dist
        if omega is not None:
            n = len(labels)
            if omega == n - 1:
                sub = dist[:-1, :-1]
            elif omega == 0:
                sub = dist[1:, 1:]
            else:
                keep = np.arange(n - 1)
                keep[omega:] += 1
                sub = dist.take(keep, 0).take(keep, 1)
        # no entry is negative, so the largest is finite unless one is NaN or inf
        scale = float(sub.max(initial=0.0))
        if not scale < math.inf:
            if np.isnan(sub).any():
                raise ValidationError("distance matrix contains NaN")
            i, j = np.argwhere(~np.isfinite(sub))[0]
            finite_labels = _finite_labels(labels, omega)
            raise ValidationError(
                "infinite distance between finite points "
                f"({finite_labels[i]}, {finite_labels[j]})"
            )
        vars(self).update(labels=labels, dist=dist, omega=omega, scale=scale,
                          tol=self.eps * max(scale, 1.0), _positions=positions,
                          _ptolemy=None,  # the report of the quadruple scan, once run
                          _triangle=None)  # the triangle pass still to run, if any
        if self._proves(bound):
            return
        vars(self)["_triangle"] = (sub, _finite_labels(labels, omega))
        built = _deferred.get()
        if built is None:
            self._settle_triangle()
        else:
            built.append(self)

    def _proves(self, bound: float | None) -> bool:
        """Whether ``bound`` proves that the triangle pass holds: in exact
        arithmetic on the stored entries, no triangle of the finite block
        fails by more than ``bound * scale``, d(i,j) - d(i,k) - d(k,j) <=
        bound * scale, beside the rounding of subnormal entries.  None, NaN
        and inf prove nothing."""
        # The pass compares d(i,j) with fl(fl(d(i,k) + d(k,j)) + tol), whose two
        # roundings move it by less than u (4 scale + 2 tol): a proof that fits
        # with room clears the pass, and with eps = 0 (tol = 0) none does
        return (bound is not None
                and (bound + 6 * _U) * self.scale + 2 * _U * self.tol + _SUBNORMAL_SLACK < self.tol)

    def _settle_triangle(self, bound: float | None = None) -> None:
        """Run the pending triangle pass, unless ``bound`` proves that it holds."""
        pending, vars(self)["_triangle"] = self._triangle, None
        if pending is not None and not self._proves(bound):
            sub, labels = pending
            _check_triangle(np.ascontiguousarray(sub), labels, self.tol)

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


def _finite_labels(labels, omega: int | None) -> list[str]:
    """The labels of the points other than the remote point, as a list."""
    finite = list(labels)
    if omega is not None:
        del finite[omega]
    return finite


def _check_eps(eps: float) -> None:
    """The tolerance of a space or curve must be finite and nonnegative."""
    if not 0.0 <= eps < math.inf:  # false for NaN too
        raise ValidationError(f"eps must be finite and nonnegative, not {eps}")


# What numpy's dtype kind of an array, or of a cell, shows in place of numbers
_NOT_NUMBERS = {"b": "booleans", "U": "strings", "S": "strings", "c": "complex numbers",
                "N": "None"}


def _float_array(values, name: str) -> np.ndarray:
    """``values``, an array or nested lists of numbers given to the library,
    as a float array: a float64 ndarray as it is, with no copy or pass over
    its cells, else converted.  Rows of different lengths, strings or bytes,
    None, an array of booleans, complex numbers, and integers too large for a
    float raise a ValidationError naming the argument ``name``.  Python ints
    of any size that fits a float are numbers; numpy reads a list that mixes
    booleans with numbers as numbers, True as 1 (the file readers check each
    cell)."""
    if type(values) is np.ndarray and values.dtype == np.float64:
        return values
    try:
        A = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValidationError(f"{name} must be rows of one length") from None
    kind = A.dtype.kind
    if kind == "O":  # ints beyond 64 bits, None, or cells of no common type
        kinds = {"N" if v is None else np.asarray(v).dtype.kind for v in A.flat}
        kind = min(kinds & _NOT_NUMBERS.keys(), default=kind)
    if kind in _NOT_NUMBERS:
        raise ValidationError(f"{name} must hold numbers, not {_NOT_NUMBERS[kind]}")
    try:
        return A.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must hold numbers that fit a float: {exc}") from None


def _checked_input(labels, dist, eps: float) -> tuple[tuple[str, ...], dict[str, int], np.ndarray]:
    """The first checks of a construction: ``eps``, the labels as unique
    strings, and the shape of ``dist``; returns the labels, the index of
    each, and ``dist`` as a float array (not copied when it is one)."""
    _check_eps(eps)
    labels = tuple(map(str, labels))
    n = len(labels)
    if n == 0:
        raise ValidationError("a space needs at least one point")
    positions = dict(zip(labels, range(n)))
    if len(positions) != n:
        raise ValidationError("point labels must be unique")
    D = _float_array(dist, "distance matrix")
    if D.shape != (n, n):
        raise ValidationError(f"distance matrix shape {D.shape} does not match {n} labels")
    return labels, positions, D


@contextlib.contextmanager
def _triangle_deferred():
    """Build the spaces of the block with their triangle pass pending.

    Inside, a proof that a space's matrix is a metric, found after the space
    was built, may clear its pass (``_settle_triangle(bound)``, as curve
    recovery does for its input).  On leaving the block, by return or
    by exception, every pass still pending runs, in construction order, so
    no pending space outlives the block.  The first triangle failure takes
    the place of any later error, as if the pass had run on construction;
    the passes after it still run.
    """
    built = []
    token = _deferred.set(built)
    try:
        yield
    finally:
        _deferred.reset(token)
        failure = None
        for space in built:
            try:
                space._settle_triangle()
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure


def _check_triangle(sub: np.ndarray, labels: list[str], tol: float) -> None:
    """The exact triangle inequality on a finite, exactly symmetric matrix.

    Raises on the first violation d(i, j) > d(i, k) + d(k, j) + tol in the
    order (i, j, k); by symmetry its j exceeds i.  Blocks of rows i go
    against the columns j > first row of the block: d(i, k) + d(k, j) is
    reduced to its minimum over k (rounding is monotone, so the minimum fails
    exactly when some k does), and k is looked up for the first failing pair
    only.  The error's ``witness`` is the labels (i, j, k) and its
    ``residual`` d(i, j) - (d(i, k) + d(k, j)).
    """
    m = len(labels)
    lo = 0
    with np.errstate(over="ignore"):  # a detour summed to inf breaks no triangle
        while lo < m - 1:
            width = m - 1 - lo
            hi = min(m - 1, lo + max(1, _TRIANGLE_CELLS // (m * width)))
            best = (sub[lo:hi, None, :] + sub[lo + 1:]).min(axis=2)  # d(k, j) = d(j, k)
            best += tol
            bad = sub[lo:hi, lo + 1:] > best
            if bad.any():  # its first failing cell has j > i, by symmetry
                i, j = np.argwhere(bad)[0] + (lo, lo + 1)
                k = np.argmax(sub[i, j] > sub[i] + sub[j] + tol)
                break
            lo = hi
        else:
            return
    raise ValidationError(
        "triangle inequality fails: "
        f"d({labels[i]},{labels[j]}) > d({labels[i]},{labels[k]}) + d({labels[k]},{labels[j]})",
        witness=(labels[i], labels[j], labels[k]),
        residual=float(sub[i, j] - (sub[i, k] + sub[k, j])),
    )


@functools.lru_cache(maxsize=64)
def _default_labels(count: int, add_omega: bool) -> tuple[tuple[str, ...], dict[str, int]]:
    """The labels p0, p1, ... of ``count`` points, then omega with ``add_omega``,
    and the index of each; unique strings, so they need no check.  The dict
    is shared by the spaces built with these labels and is never written."""
    labels = tuple(f"p{i}" for i in range(count)) + ("omega",) * add_omega
    return labels, dict(zip(labels, range(len(labels))))


def space_from_points(points, labels=None, *, p: float = 2.0, add_omega: bool = False,
                      eps: float = DEFAULT_EPS) -> ExtendedMetricSpace:
    """Build a space from coordinate rows under an l^p metric (p=2 or p=1).

    ``points`` is an (n, dim) array of n rows, or a single row; ``[]`` holds
    no row, and an array of more dimensions is refused.  Coordinates are
    numbers (:func:`_float_array`); a NaN or inf one is refused as the NaN
    it puts in the matrix, and a distance beyond the largest float as
    infinite, with no numpy warning.  With ``add_omega`` a remote point
    labeled ``omega`` is appended.  Euclidean distances keep their precision
    at every scale: when the largest coordinate difference lies outside
    [2^-480, 2^480], where a square would overflow or an underflow could
    cost more than a unit of roundoff of the largest distance, the
    differences are scaled by a power of two into [1/2, 1) before squaring,
    and back after the root.

    The matrix is a metric up to rounding, which proves its triangle pass
    (``ExtendedMetricSpace._derived``).  With u = 2^-53 and ``dim`` the
    number of coordinates, each difference, square, sum and root (or
    absolute difference and sum) leaves a computed distance within
    (dim + 3) u scale of the exact distance of the float coordinates; the
    power-of-two scaling is exact, and an underflow in the window costs
    less than u scale.  The exact distances satisfy the triangle
    inequality, so a computed triangle fails by at most 3 (dim + 3) u
    scale, which the bound 2 (2 (dim + 3) + 3) u scale covers with room.
    """
    P = _float_array(points, "points")
    if P.ndim > 2:
        raise ValidationError(f"points must be coordinate rows, not an array of shape {P.shape}")
    P = P.reshape(0, 0) if P.shape == (0,) else np.atleast_2d(P)
    count = P.shape[0]
    # A difference or distance beyond the largest float is inf, and a NaN or inf
    # coordinate gives NaN (inf - inf on the diagonal): _finish refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        diff = P[:, None, :] - P[None, :, :]
        if p == 2.0:
            m = float(diff.max(initial=0.0))  # max |a - b|: fl(b - a) = -fl(a - b)
            if 2.0 ** -480 <= m <= 2.0 ** 480 or not 0.0 < m < math.inf:
                D = np.sqrt((diff ** 2).sum(axis=-1))
            else:
                e = math.frexp(m)[1]
                D = np.ldexp(np.sqrt((np.ldexp(diff, -e) ** 2).sum(axis=-1)), e)
        elif p == 1.0:
            D = np.abs(diff).sum(axis=-1)
        else:
            raise ValueError("only p=1 and p=2 are supported")
    omega = None
    if add_omega:
        full = np.full((count + 1, count + 1), np.inf)
        full[:count, :count] = D
        full[count, count] = 0.0
        D = full
        omega = count
    if labels is None and count:
        _check_eps(eps)
        labels, positions = _default_labels(count, add_omega)
    else:
        labels = [] if labels is None else list(labels)  # no points: refused below
        if add_omega:
            labels.append("omega")
        labels, positions, D = _checked_input(labels, D, eps)
    # D is exactly symmetric with a zero diagonal and no -0.0:
    # fl(a - b)^2 = fl(b - a)^2 and |fl(a - b)| = |fl(b - a)|, summed over
    # the coordinates in the same order, and a - a = +0
    bound = 2 * (2 * (P.shape[1] + 3) + 3) * _U
    return ExtendedMetricSpace._derived(labels, D, omega, eps, positions, bound)


class CrossRatioTriple(_FrozenValue):
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
    M = _unit_remote(space.dist.take(q, 0).take(q, 1))
    return CrossRatioTriple.from_products(M[0, 1] * M[2, 3], M[0, 2] * M[1, 3],
                                          M[0, 3] * M[1, 2])


# Cells per pass of the quadruple kernel: a middle index b takes as many rows
# a < b as fit this many cells, and at least one, so a pass never exceeds
# max(budget, n^2 / 2) cells.  A small space, up to 18 points at this budget,
# is gathered in one pass through the cached _one_pass_layout, with no mask.
_BLOCK_ELEMENTS = 1 << 15


def _unit_remote(D: np.ndarray, scale: float | None = None,
                 remote: int | None = None) -> np.ndarray:
    """``D`` scaled by a power of two, with its infinite entries set to 1.

    A product drops the remote point's infinite factor, which is the same
    as a factor of 1; the remote point's zero distance to itself stays.  The
    scale brings the largest finite entry into [1/2, 1), so products of a
    small-scale metric do not underflow; cross-ratios do not see it, and
    multiplying by a power of two is exact.  The matrix of a space (perhaps
    reordered) needs no search: its ``scale`` is the largest finite entry,
    and its infinite entries are those off the diagonal in the row and
    column ``remote`` of its remote point (None for none).
    """
    if scale is None:
        finite = np.isfinite(D)
        if np.count_nonzero(finite) == D.size:
            return np.ldexp(D, -math.frexp(D.max(initial=0.0))[1])
        M = np.ldexp(D, -math.frexp(D[finite].max(initial=0.0))[1])
        M[~finite] = 1.0
        return M
    M = np.ldexp(D, -math.frexp(scale)[1])
    if remote is not None:
        M[remote] = M[:, remote] = 1.0
        M[remote, remote] = 0.0
    return M


def _one_pass(n: int) -> bool:
    """Whether the 4-subsets of ``n`` points fit one pass of the kernel:
    (n - 3)^3 (n - 2) / 2 cells of ``_BLOCK_ELEMENTS``, up to 18 points at
    the default budget."""
    return n >= 4 and (n - 3) ** 3 * (n - 2) // 2 <= _BLOCK_ELEMENTS


@functools.lru_cache(maxsize=32)
def _one_pass_layout(n: int):
    """The layout of the single pass over all 4-subsets of ``n`` points.

    The layout is the 6 x C(n, 4) array of the indices into a flattened
    n x n matrix of the pairs ab, ac, ad, cd, bd, bc of the subsets
    a < b < c < d, in lexicographic order.  It depends on ``n`` alone, and
    :func:`_quad_passes` asks for it only when :func:`_one_pass` holds, so
    the cache holds one layout of each size from 4 to 18 points, 48 C(n, 4)
    bytes each, about 0.56 MB in all.
    """
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    a, b, c, d = quads.T
    flat = np.stack([a * n + b, a * n + c, a * n + d, c * n + d, b * n + d, b * n + c])
    flat.flags.writeable = False
    return flat


def _quad_passes(*mats: np.ndarray):
    """The cross-ratio products of every 4-subset a < b < c < d, by middle index b.

    A space small enough for one pass (:func:`_one_pass`) gathers the
    products of all subsets at once through the cached
    :func:`_one_pass_layout`.  Otherwise a pass takes rows lo <= a < hi and
    one middle index b against the suffix of the lexicographic list of pairs
    c < d from the first pair with c > b; its cells (a, pair) in C order are
    in lexicographic order of the subsets.  Yields ``cells`` and, per matrix,
    the products d(a,b)d(c,d), d(a,c)d(b,d), d(a,d)d(b,c) of the pass's
    subsets; ``cells(k)`` gives the indices a, b, c, d of the subset at
    position ``k`` (Python ints for an int), or their arrays for an array
    of positions.
    """
    n = len(mats[0])
    if _one_pass(n):
        flat = _one_pass_layout(n)
        def cells(k):  # from the pairs ab and cd
            ab, cd = (int(flat[0, k]), int(flat[3, k])) if type(k) is int else flat[::3, k]
            (a, b), (c, d) = divmod(ab, n), divmod(cd, n)
            return a, b, c, d

        products = []
        for M in mats:
            pairs = M.take(flat)
            products.append(np.multiply(pairs[:3], pairs[3:], out=pairs[:3]))
        yield cells, products
        return
    C, D = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    pairs = [M[C, D] for M in mats]
    for b in range(1, n - 2):
        s = (b + 1) * (2 * n - 2 - b) // 2  # the pairs with c <= b
        Cs, Ds = C[s:], D[s:]
        step = max(1, _BLOCK_ELEMENTS // len(Cs))
        for lo in range(0, b, step):
            hi = min(lo + step, b)

            def cells(k):  # read before the generator moves on
                i, p = divmod(k, len(Cs))
                return lo + i, np.full_like(i, b), Cs[p], Ds[p]

            products = []
            for M, S in zip(mats, pairs):
                rows, mid = M[lo:hi], M[b]  # take keeps the gathers C-contiguous
                products.append([(M[lo:hi, b, None] * S[s:]).ravel(),
                                 (rows.take(Cs, axis=1) * mid.take(Ds)).ravel(),
                                 (rows.take(Ds, axis=1) * mid.take(Cs)).ravel()])
            yield cells, products


def _fold_worst(worst, values, cells, remote=-1):
    """``worst`` = (value, key) folded with one pass of values.

    The larger value wins, and ties go to the smaller key (d == remote, a,
    b, c, d): subsets without the index ``remote`` first, each group in
    lexicographic order.  The pass is in lexicographic order.
    """
    k = int(values.argmax())
    v = float(values[k])
    if v < worst[0]:
        return worst
    quad = tuple(map(int, cells(k)))
    if quad[3] == remote:  # a subset without it may tie later in the pass
        ties = cells(np.flatnonzero(values == v))
        i = int(np.argmax(ties[3] != remote))
        quad = tuple(int(x[i]) for x in ties)
    key = (quad[3] == remote,) + quad
    return (v, key) if v > worst[0] or key < worst[1] else worst


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
    B = _unit_remote(np.asarray(D2, dtype=float)).take(perm, 0).take(perm, 1)
    worst = (-math.inf, None)
    with np.errstate(invalid="ignore"):  # 0 / 0 where all products vanish
        for cells, (P, Q) in _quad_passes(A, B):
            s1, s2 = P[0] + P[1] + P[2], Q[0] + Q[1] + Q[2]
            for p, q in zip(P, Q):  # |p / s1 - q / s2|, in place
                p /= s1
                np.abs(np.subtract(p, np.divide(q, s2, out=q), out=p), out=p)
            dev = np.maximum(np.maximum(P[0], P[1], out=P[0]), P[2], out=P[0])
            g1, g2 = s1 > 0, s2 > 0
            np.copyto(dev, g1 ^ g2, where=~(g1 & g2))  # 1 if one side is degenerate
            worst = _fold_worst(worst, dev, cells)
    return (0.0, None) if worst[1] is None else (worst[0], worst[1][1:])


class PtolemyReport(_FrozenValue):
    """Outcome of a full quadruple scan.

    ``n_boundary`` counts the scanned subsets whose triple lies within
    ``eps`` of the boundary of the triangle-inequality region.
    """

    holds: bool
    worst_quad: tuple[str, ...] | None
    worst_margin: float
    n_checked: int
    n_boundary: int


def is_ptolemy(space: ExtendedMetricSpace) -> PtolemyReport:
    """Scan all distinct four-point subsets for the Ptolemy inequality.

    Quadruples with a repeated entry always satisfy the inequality, so only
    distinct subsets are scanned.  Subsets containing the remote point
    reduce to a triangle-inequality check of the remaining triple.  The
    margin of a subset is max(P) / sum(P) - 1/2 over its products P (-1/2
    when they all vanish), positive exactly when the Ptolemy inequality
    fails.  Subsets of finite points come first and subsets with the remote
    point after them, each in lexicographic order; the first worst subset is
    the witness.  The report is kept on the space, whose ``dist`` is
    read-only, so a second call (the census's too) returns it without a scan.
    """
    if space._ptolemy is not None:
        return space._ptolemy
    n, omega = space.n, space.omega
    if omega is None or omega == n - 1:
        order, D = range(n), space.dist
    else:
        order = space.finite_indices + [omega]
        D = space.dist.take(order, 0).take(order, 1)
    remote = None if omega is None else n - 1  # the remote point's index in D
    M = _unit_remote(D, space.scale, remote)
    eps = space.eps
    worst = (-math.inf, None)
    boundary = 0
    for cells, ((margin, p2, p3),) in _quad_passes(M):
        s = margin + p2
        s += p3
        np.maximum(np.maximum(margin, p2, out=margin), p3, out=margin)
        margin /= np.maximum(s, _TINIEST, out=s)  # 0 / 0 reads 0 / _TINIEST = 0
        margin -= 0.5
        boundary += int(np.count_nonzero(np.abs(margin, out=s) <= eps))
        worst = _fold_worst(worst, margin, cells, remote)
    m = n - (omega is not None)
    checked = math.comb(m, 4) + (math.comb(m, 3) if omega is not None else 0)
    if checked == 0:
        report = PtolemyReport(True, None, -0.5, 0, 0)
    else:
        margin, key = worst
        witness = tuple(space.labels[order[i]] for i in key[1:])
        report = PtolemyReport(margin <= eps, witness, margin, checked, boundary)
    vars(space)["_ptolemy"] = report  # the space is frozen; the report is a cache
    return report


def is_circle_quadruple(space: ExtendedMetricSpace, quad) -> bool:
    """True when the quadruple's cross-ratio triple lies on the boundary region."""
    return crt(space, quad).region(space.eps) == "boundary"


def circle_quadruple_census(space: ExtendedMetricSpace) -> tuple[int, int]:
    """Count distinct 4-subsets on the boundary region; returns (boundary, total)."""
    report = is_ptolemy(space)
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
    if space.n == 1:
        return np.zeros(1)
    tol = space.tol
    anchor = int(np.argmax(D[0]))
    if D[0, anchor] <= tol and D.max() <= tol:
        return np.zeros(space.n)
    c, to_anchor = D[0, anchor], D[:, anchor]
    with np.errstate(over="ignore"):  # a gap that overflows to inf embeds nothing
        coords = np.where(np.abs(np.abs(D[0] - c) - to_anchor)
                          <= np.abs(np.abs(-D[0] - c) - to_anchor), D[0], -D[0])
        coords[anchor] = c
        gaps = np.abs(np.abs(coords[:, None] - coords[None, :]) - D)
    if gaps.max() > tol:
        return None
    return coords


def space_to_json_dict(space: ExtendedMetricSpace) -> dict:
    """Serializable dict with "inf" strings on the omega row and column."""
    matrix = [["inf" if math.isinf(v) else float(v) for v in row] for row in space.dist]
    return {"points": list(space.labels), "omega": space.omega_label(), "matrix": matrix}


# At 0 and inside [1e-4, 1e16), orjson writes a float in the characters of its
# repr; outside, the two notations differ (1e-05 and 0.00001, 1e+16 and 1e16).
_ORJSON_REPR_RANGE = (1e-4, 1e16)


def space_to_json_chunks(space: ExtendedMetricSpace):
    r"""The bytes of ``json.dumps(space_to_json_dict(space), indent=2,
    sort_keys=True) + "\n"``, yielded in chunks.

    JSON writes a float as its ``repr``; the only non-finite distances of a
    space are the remote point's infinities, whose ``repr`` is ``inf``.
    When every finite distance is 0 or inside ``_ORJSON_REPR_RANGE``, orjson
    writes the matrix in the same layout with one call, and its ``null``
    (for inf) is quoted as ``"inf"``.  Otherwise the matrix is written one
    row at a time with ``float.__repr__``: ``dist`` is exactly symmetric, so
    each distance is formatted once, in its row on or above the diagonal,
    and waits in its column's list until that column's row is written.
    Every chunk is ASCII, as ``json.dumps`` escapes every other character.
    """
    D = space.dist
    lo, hi = _ORJSON_REPR_RANGE
    if space.scale < hi and D.min(where=D > 0.0, initial=hi) >= lo:
        import orjson  # not at the top: its import costs the commands that write no matrix

        text = orjson.dumps({"matrix": np.ascontiguousarray(D)},
                            option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
        text = text[:-2]  # without the closing "\n}"
        yield text if space.omega is None else text.replace(b"null", b'"inf"')
    else:
        yield b'{\n  "matrix": [\n'
        sep = "    [\n      "
        below = [[] for _ in space.labels]  # below[j]: the texts of d(i, j), i <= j, so far
        for i, row in enumerate(D):
            texts = list(map(float.__repr__, row[i:].tolist()))  # d(i, j), j >= i
            for column, text in zip(below[i:], texts):
                column.append(text)
            cells, below[i] = below[i], None  # d(i, j), j <= i
            cells.extend(itertools.islice(texts, 1, None))
            text = ",\n      ".join(cells)
            yield (sep + (text if space.omega is None else text.replace("inf", '"inf"'))).encode()
            sep = "\n    ],\n    [\n      "
        yield b"\n    ]\n  ]"
    points = ",\n    ".join(map(json.dumps, space.labels))
    yield (f',\n  "omega": {json.dumps(space.omega_label())},\n'
           f'  "points": [\n    {points}\n  ]\n}}\n').encode()


def _write_csv(path: str, header: list[str], columns) -> None:
    """A sample table for external plotting: the header, then one line per
    row of the columns, each value written with ``.17g``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


_PLAIN_NUMBERS = frozenset({float, int})
_CELL_TYPES = frozenset({float, int, str})


def _parse_cell(v) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "infinity"):
            return math.inf
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            raise ValidationError(f"matrix cell is an integer of {v.bit_length()} bits, "
                                  "too large for a float") from None
    raise ValidationError(f"matrix cell {v!r} is not a number or 'inf'")


def _cells_array(rows):
    """The decoded matrix ``rows`` as one float array, each cell as
    :func:`_parse_cell` reads it, or None where the rows are not lists of one
    length or a cell is not a number or a string that it reads.  So an array
    vouches for every row as ``_decoded_alike`` does.  A first row that holds
    a string, as a remote point's does, has every cell's type read, which
    finds the strings to parse.  Any other matrix converts with one
    ``np.array``, which reads a boolean as 0 or 1: so the types are read of
    the diagonal cells and of the rows that hold an off-diagonal 0 or 1."""
    if type(rows) is not list or not rows or type(rows[0]) is not list:
        return None
    with contextlib.suppress(ValueError, OverflowError):  # a ValidationError is a ValueError
        if str in set(map(type, rows[0])):
            cells = []
            for row in rows:
                kinds = set(map(type, row)) if type(row) is list else None
                if kinds is None or not kinds <= _CELL_TYPES:
                    return None
                cells.append([_parse_cell(v) if type(v) is str else v for v in row]
                             if str in kinds else row)
            return np.array(cells, dtype=float)
        D = np.array(rows)
        if D.ndim != 2 or D.dtype.kind not in "fiu":
            return None
        unit = (D == 0) | (D == 1)
        np.fill_diagonal(unit, False)
        cells = itertools.chain([row[i] for i, row in zip(range(D.shape[1]), rows)],
                                *[rows[i] for i in np.flatnonzero(unit.any(axis=1))])
        if not set(map(type, cells)) <= _PLAIN_NUMBERS:
            return None
        return D.astype(float, copy=False)
    return None


def _matrix_cells(rows):
    """The decoded matrix ``rows`` as floats: one array where
    :func:`_cells_array` converts them, else cell by cell, which names the
    first cell that :func:`_parse_cell` refuses.  An object or a string is
    neither a matrix nor a row, nor read as the keys or characters in it."""
    cells = _cells_array(rows)
    if cells is None:
        if type(rows) in (dict, str):
            raise TypeError(f"matrix must be a list, not {type(rows).__name__}")
        cells = []
        for i, row in enumerate(rows):
            if type(row) in (dict, str):
                raise TypeError(f"matrix row {i} must be a list, not {type(row).__name__}")
            cells.append(list(map(_parse_cell, row)))
    return cells


# orjson reads an integer literal outside [-2**63, 2**64) as a float, and the
# stdlib as an int; the two are equal as numbers, but not in type or repr
_WIDENED = 2.0 ** 63
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _scalar_alike(v) -> bool:
    return type(v) in _SCALARS and not (type(v) is float and abs(v) >= _WIDENED)


def _decoded_alike(data) -> bool:
    """Whether ``json.loads`` reads the text that orjson read as ``data`` to
    objects that the readers of matrix and curve files treat alike.

    On a text both accept, the two decoders differ only on a widened integer
    (``_WIDENED``) and in depth: the stdlib's recursion limit refuses about
    1000 levels of nesting, orjson has no limit.  So ``data`` must be a dict
    with string point and omega labels whose values are scalars, lists of
    scalars, or lists of rows of scalars, and a float of 2**63 or more may
    stand only in a row, which a reader takes as numbers (a matrix or the
    samples of a curve).
    """
    if type(data) is not dict or type(data.get("omega")) not in (str, type(None)):
        return False
    points = data.get("points")
    if type(points) is list and not all(type(x) is str for x in points):
        return False
    for value in data.values():
        if type(value) is not list:
            if not _scalar_alike(value):
                return False
        elif value and all(type(row) is list for row in value):
            if not all(set(map(type, row)) <= _SCALARS for row in value):
                return False
        elif not all(map(_scalar_alike, value)):
            return False
    return True


def _read_json(path: str, alike=_decoded_alike):
    """The JSON document in the file ``path``, as ``json.load`` reads it.

    The file's bytes are read once, so a pipe reads as a file does.  orjson
    decodes them, about four times faster, to equal values on every text both
    accept (bit for bit on floats): ASCII bytes as they are, which text mode
    reads to the same characters in every locale, newlines aside, which JSON
    takes as whitespace; other bytes as that text.  The stdlib decodes the
    text where orjson refuses it (``NaN``, ``Infinity``, ``1e999``, integers
    beyond the double range, a lone surrogate, a BOM, or a syntax error,
    which the stdlib words as always) or where ``alike(data)`` does not vouch
    for orjson's objects ``data``."""
    import orjson  # not at the top: its import costs the commands that read no JSON

    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw))  # the file in text mode
    with contextlib.suppress(orjson.JSONDecodeError):
        data = orjson.loads(raw if raw.isascii() else text.read())
        if alike(data):
            return data
    text.seek(0)
    return json.load(text)


def _space_alike(data) -> bool:
    """``_decoded_alike(data)``, with a matrix that :func:`_cells_array`
    converts vouched for by that conversion and replaced by its array."""
    cells = _cells_array(data.get("matrix")) if type(data) is dict else None
    if cells is None:
        return _decoded_alike(data)
    data["matrix"] = cells  # data is dropped where the rest is not vouched for
    return _decoded_alike({key: value for key, value in data.items() if key != "matrix"})


def _read_space(path: str, eps: float) -> ExtendedMetricSpace:
    """The space of the distance-matrix file ``path``, as
    ``space_from_json_dict(_read_json(path), eps)`` reads it, with its matrix
    converted while it is vouched for (:func:`_space_alike`)."""
    return space_from_json_dict(_read_json(path, _space_alike), eps)


def space_from_json_dict(data: dict, eps: float = DEFAULT_EPS) -> ExtendedMetricSpace:
    """Inverse of :func:`space_to_json_dict`, with validation.  The points
    are a list of labels; the matrix is a list of rows of cells
    (:func:`_matrix_cells`), or a float array, as :func:`_read_space` hands
    over a matrix it converted."""
    try:
        labels = [str(x) for x in data["points"]]
        if type(data["points"]) is not list:  # a string or an object iterates too
            raise TypeError(f"points must be a list, not {type(data['points']).__name__}")
        omega_label = data.get("omega")
        rows = data["matrix"]
        if type(rows) is not np.ndarray:
            rows = _matrix_cells(rows)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed distance-matrix JSON: {exc}") from exc
    if type(rows) is list:  # an array is rectangular
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValidationError(
                    f"matrix row {i} has {len(row)} cells, row 0 has {len(rows[0])}")
    omega = None
    if omega_label is not None:
        try:
            omega = labels.index(str(omega_label))
        except ValueError:
            raise ValidationError(f"omega label {omega_label!r} is not a point") from None
    return ExtendedMetricSpace(tuple(labels), rows, omega, eps=eps)
