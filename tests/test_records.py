"""The package's records: what ``dataclasses`` sees of them, how they are
built, printed, compared and hashed, and which of them are frozen.

Every record is declared with ``dataclass()`` and keeps the behaviour of a
generated dataclass: field names, order and defaults, ``__match_args__``,
positional and keyword construction, ``repr``, value equality for the seven
records that hold plain values, identity for those that hold arrays or
spaces, and ``FrozenInstanceError`` on the frozen ones.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

import moebiusgeo as mg
from moebiusgeo.circles import SectorLocation
from moebiusgeo.errors import ValidationError
from moebiusgeo.segments import WedgeLocation, _PlanarCurve

MISSING = dataclasses.MISSING
QUARTER = [(1.0, 0.0), (0.6, 0.6), (0.0, 1.0)]
HALF = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]


def _space():
    return mg.ExtendedMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _four_points():
    return mg.space_from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


# name: (class, its fields with their defaults (MISSING for none), a function
# that returns the arguments of one instance, in field order)
RECORDS = {
    "ExtendedMetricSpace": (mg.ExtendedMetricSpace,
                            {"labels": MISSING, "dist": MISSING, "omega": None, "eps": 1e-9},
                            lambda: (("a", "b"), [[0.0, 1.0], [1.0, 0.0]], None, 0.5)),
    "CrossRatioTriple": (mg.CrossRatioTriple, {"a": MISSING, "b": MISSING, "c": MISSING},
                         lambda: (0.25, 0.25, 0.5)),
    "PtolemyReport": (mg.PtolemyReport,
                      {"holds": MISSING, "worst_quad": MISSING, "worst_margin": MISSING,
                       "n_checked": MISSING, "n_boundary": MISSING},
                      lambda: (False, ("a", "b", "c", "d"), 0.25, 1, 0)),
    "PointedCorrespondence": (mg.PointedCorrespondence,
                              {"source": MISSING, "target": MISSING, "mapping": MISSING},
                              lambda: (_four_points(), _four_points(),
                                       {"p0": "p1", "p1": "p0", "p2": "p2", "p3": "p3"})),
    "EquivalenceReport": (mg.EquivalenceReport,
                          {"equivalent": MISSING, "max_deviation": MISSING, "witness": MISSING,
                           "n_checked": MISSING, "method": MISSING, "factor_residual": MISSING},
                          lambda: (True, 0.0, None, 1, "factor", 0.0)),
    "WedgeRegion": (mg.WedgeRegion, {"u": MISSING, "w": MISSING},
                    lambda: ([1.0, 0.0], [0.0, 1.0])),
    "WedgeLocation": (WedgeLocation, {"region": MISSING, "lam": MISSING, "mu": MISSING},
                      lambda: ("inside", 0.5, 0.75)),
    "_PlanarCurve": (_PlanarCurve, {"R": MISSING, "samples": MISSING, "eps": 1e-9},
                     lambda: (1.0, np.array(QUARTER), 1e-6)),
    "QuadrantCurve": (mg.QuadrantCurve, {"R": MISSING, "samples": MISSING, "eps": 1e-9},
                      lambda: (1.0, QUARTER, 1e-6)),
    "SegmentMap": (mg.SegmentMap,
                   {"src_labels": MISSING, "src_params": MISSING, "dst_params": MISSING,
                    "dst_points": MISSING, "max_crt_deviation": None, "witness": None},
                   lambda: (("a", "b"), np.zeros(2), np.ones(2), np.zeros((2, 2)), 0.0, ("a",))),
    "SectorRegion": (mg.SectorRegion, {"R": MISSING, "x": MISSING}, lambda: (2.0, [0.0, 3.0])),
    "SectorLocation": (SectorLocation, {"region": MISSING, "s": MISSING, "t": MISSING},
                       lambda: ("boundary", 1.0, 0.5)),
    "HalfplaneCurve": (mg.HalfplaneCurve, {"R": MISSING, "samples": MISSING, "eps": 1e-9},
                       lambda: (1.0, HALF, 1e-6)),
    "CircleMap": (mg.CircleMap,
                  {"src_labels": MISSING, "dst_positions": MISSING, "dst_params": MISSING,
                   "dst_points": MISSING, "max_crt_deviation": None, "witness": None},
                  lambda: (("a", "b"), np.zeros(2), np.ones(2), np.zeros((2, 2)), 0.0, ("a",))),
    "GluedSpaceConfig": (mg.GluedSpaceConfig, {"ell": MISSING}, lambda: (1.5,)),
    "BoundaryPoint": (mg.BoundaryPoint, {"kind": MISSING, "angle": 0.0},
                      lambda: ("equator", 1.0)),
    "ExoticReport": (mg.ExoticReport,
                     {"ell": MISSING, "labels": MISSING, "rho_o": MISSING,
                      "rho_oprime": MISSING, "max_crt_deviation": MISSING, "ns_ratio": MISSING,
                      "equator_ratio": MISSING, "equator_ratio_spread": MISSING,
                      "ratio_gap": MISSING, "homothetic": MISSING,
                      "conformal_factor": MISSING},
                     lambda: (1.0, ("N", "S"), np.eye(2), np.eye(2), 0.0, 1.0, 1.0, 0.0, 0.0,
                              True, {"N": 1.0, "S": 1.0})),
    "SampledCircle": (mg.SampledCircle,
                      {"center": MISSING, "radius": MISSING, "basis": MISSING,
                       "points": MISSING},
                      lambda: (np.zeros(2), 1.0, np.eye(2), np.eye(2))),
}

VALUE_RECORDS = ["CrossRatioTriple", "PtolemyReport", "EquivalenceReport", "WedgeLocation",
                 "SectorLocation", "GluedSpaceConfig", "BoundaryPoint"]
HASHABLE_VALUE_RECORDS = ["CrossRatioTriple", "PtolemyReport", "GluedSpaceConfig",
                          "BoundaryPoint"]
IDENTITY_RECORDS = [name for name in RECORDS if name not in VALUE_RECORDS]
# the regions and the correspondence are frozen too (TestValidatedRecordsAreFrozen)
FROZEN_RECORDS = ["ExtendedMetricSpace", "CrossRatioTriple", "PtolemyReport", "_PlanarCurve",
                  "QuadrantCurve", "HalfplaneCurve", "GluedSpaceConfig", "BoundaryPoint"]
MUTABLE_RECORDS = ["EquivalenceReport", "WedgeLocation", "SegmentMap", "SectorLocation",
                   "CircleMap", "ExoticReport", "SampledCircle"]

RECORD_IDS = list(RECORDS)


def _fields_of(record) -> list:
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _same(first, second) -> bool:
    """Whether two field values are alike: arrays by their contents, spaces
    by their labels and matrices, anything else by ==."""
    if isinstance(first, mg.ExtendedMetricSpace):
        return (first.labels == second.labels and np.array_equal(first.dist, second.dist)
                and (first.omega, first.eps) == (second.omega, second.eps))
    if isinstance(first, np.ndarray):
        return type(second) is np.ndarray and np.array_equal(first, second)
    return first == second


def _built(name):
    cls, _, args = RECORDS[name]
    return cls(*args())


class TestDataclassView:
    @pytest.mark.parametrize("name", RECORD_IDS, ids=RECORD_IDS)
    def test_fields_defaults_and_match_args(self, name):
        cls, fields, _ = RECORDS[name]
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(_built(name))
        declared = dataclasses.fields(cls)
        assert [f.name for f in declared] == list(fields)
        assert {f.name: f.default for f in declared} == fields
        assert all(f.default_factory is MISSING and f.init for f in declared)
        assert cls.__match_args__ == tuple(fields)

    def test_match_statement_reads_the_fields(self):
        match mg.PtolemyReport(True, None, -0.5, 0, 0):
            case mg.PtolemyReport(holds, None, margin):
                assert (holds, margin) == (True, -0.5)
            case _:
                pytest.fail("the report did not match its own pattern")


class TestConstruction:
    @pytest.mark.parametrize("name", RECORD_IDS, ids=RECORD_IDS)
    def test_positional_and_keyword(self, name):
        cls, fields, args = RECORDS[name]
        positional = cls(*args())
        keyword = cls(**dict(zip(fields, args())))
        assert type(positional) is type(keyword) is cls
        assert all(map(_same, _fields_of(positional), _fields_of(keyword)))

    @pytest.mark.parametrize("name", RECORD_IDS, ids=RECORD_IDS)
    def test_defaults_fill_the_missing_fields(self, name):
        cls, fields, args = RECORDS[name]
        required = [v for v, default in zip(args(), fields.values()) if default is MISSING]
        record = cls(*required)
        for field, default in fields.items():
            if default is not MISSING:
                assert getattr(record, field) == default

    @pytest.mark.parametrize("name", RECORD_IDS, ids=RECORD_IDS)
    def test_unknown_keyword_and_missing_argument(self, name):
        cls, _, args = RECORDS[name]
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*args(), bogus=1)
        with pytest.raises(TypeError):
            cls()

    @pytest.mark.parametrize("name", RECORD_IDS, ids=RECORD_IDS)
    def test_too_many_arguments_and_a_field_given_twice(self, name):
        # the messages name the record: "PtolemyReport() takes 5 arguments ..."
        cls, fields, args = RECORDS[name]
        n, first = len(fields), next(iter(fields))
        with pytest.raises(TypeError) as exc:
            cls(*args(), None)
        assert str(exc.value) == f"{name}() takes {n} arguments but {n + 1} were given"
        with pytest.raises(TypeError) as exc:
            cls(*args(), **{first: args()[0]})
        assert str(exc.value) == f"{name}() got multiple values for argument {first!r}"
        with pytest.raises(TypeError) as exc:
            cls()
        assert str(exc.value) == f"{name}() missing required argument {first!r}"


class TestRepr:
    @pytest.mark.parametrize("record, text", [
        pytest.param(mg.PtolemyReport(True, None, -0.5, 0, 0),
                     "PtolemyReport(holds=True, worst_quad=None, worst_margin=-0.5, "
                     "n_checked=0, n_boundary=0)", id="PtolemyReport"),
        pytest.param(mg.CrossRatioTriple(0.25, 0.25, 0.5),
                     "CrossRatioTriple(a=0.25, b=0.25, c=0.5)", id="CrossRatioTriple"),
        pytest.param(mg.EquivalenceReport(False, 0.125, ("a", "b", "c", "d"), 1, "scan", None),
                     "EquivalenceReport(equivalent=False, max_deviation=0.125, "
                     "witness=('a', 'b', 'c', 'd'), n_checked=1, method='scan', "
                     "factor_residual=None)", id="EquivalenceReport"),
        pytest.param(WedgeLocation("inside", 0.5, 0.75),
                     "WedgeLocation(region='inside', lam=0.5, mu=0.75)", id="WedgeLocation"),
        pytest.param(SectorLocation("outside", 2.0, -1.0),
                     "SectorLocation(region='outside', s=2.0, t=-1.0)", id="SectorLocation"),
        pytest.param(mg.GluedSpaceConfig(1.0), "GluedSpaceConfig(ell=1.0)",
                     id="GluedSpaceConfig"),
        pytest.param(mg.BoundaryPoint("equator", -0.0), "BoundaryPoint(kind='equator', angle=0.0)",
                     id="BoundaryPoint"),
        pytest.param(mg.WedgeRegion([1, 0], [0, 1]),
                     "WedgeRegion(u=array([1., 0.]), w=array([0., 1.]))", id="WedgeRegion"),
        pytest.param(_space(),
                     "ExtendedMetricSpace(labels=('a', 'b'), dist=array([[0., 1.],\n"
                     "       [1., 0.]]), omega=None, eps=1e-09)", id="ExtendedMetricSpace"),
        pytest.param(mg.QuadrantCurve(2.0, [(2, 0), (0, 2)], 0.0),
                     "QuadrantCurve(R=2.0, samples=array([[2., 0.],\n"
                     "       [0., 2.]]), eps=0.0)", id="QuadrantCurve"),
    ])
    def test_text(self, record, text):
        assert repr(record) == text
        assert str(record) == text


class TestEquality:
    @pytest.mark.parametrize("name", VALUE_RECORDS, ids=VALUE_RECORDS)
    def test_value_records_compare_field_by_field(self, name):
        first, second = _built(name), _built(name)
        assert first == second and not first != second
        assert first != tuple(_fields_of(first))  # another class is never equal
        changed = copy.copy(first)
        vars(changed)[dataclasses.fields(first)[-1].name] = 0.0625
        assert changed != first and not changed == first

    @pytest.mark.parametrize("name", HASHABLE_VALUE_RECORDS, ids=HASHABLE_VALUE_RECORDS)
    def test_frozen_value_records_hash_their_fields(self, name):
        first, second = _built(name), _built(name)
        assert hash(first) == hash(second) == hash(tuple(_fields_of(first)))
        assert len({first, second}) == 1

    @pytest.mark.parametrize("name", ["EquivalenceReport", "WedgeLocation", "SectorLocation"])
    def test_mutable_value_records_are_unhashable(self, name):
        assert type(_built(name)).__hash__ is None
        with pytest.raises(TypeError, match="unhashable type"):
            hash(_built(name))

    @pytest.mark.parametrize("name", IDENTITY_RECORDS, ids=IDENTITY_RECORDS)
    def test_records_holding_arrays_or_spaces_compare_by_identity(self, name):
        first, second = _built(name), _built(name)
        assert first == first and first != second and not first == second
        assert hash(first) == object.__hash__(first)
        assert len({first, second, first}) == 2


class TestFrozen:
    @pytest.mark.parametrize("name", FROZEN_RECORDS, ids=FROZEN_RECORDS)
    def test_assignment_and_deletion_are_refused(self, name):
        record = _built(name)
        before = [repr(v) for v in _fields_of(record)]
        for field in [f.name for f in dataclasses.fields(record)] + ["other"]:
            with pytest.raises(dataclasses.FrozenInstanceError) as exc:
                setattr(record, field, 1.0)
            assert str(exc.value) == f"cannot assign to field {field!r}"
            with pytest.raises(dataclasses.FrozenInstanceError) as exc:
                delattr(record, field)
            assert str(exc.value) == f"cannot delete field {field!r}"
        assert [repr(v) for v in _fields_of(record)] == before

    @pytest.mark.parametrize("name", MUTABLE_RECORDS, ids=MUTABLE_RECORDS)
    def test_result_records_stay_mutable(self, name):
        record = _built(name)
        field = dataclasses.fields(record)[0].name
        setattr(record, field, "changed")
        assert getattr(record, field) == "changed"
        delattr(record, field)
        assert not hasattr(record, field)


class TestReplace:
    def test_space_is_rebuilt_with_its_checks(self):
        space = _space()
        loose = dataclasses.replace(space, eps=0.25)
        assert type(loose) is mg.ExtendedMetricSpace and loose is not space
        assert (loose.labels, loose.omega, loose.eps, loose.tol) == (("a", "b"), None, 0.25, 0.25)
        assert np.array_equal(loose.dist, space.dist) and not loose.dist.flags.writeable
        with pytest.raises(ValidationError, match="eps must be finite and nonnegative"):
            dataclasses.replace(space, eps=math.nan)
        with pytest.raises(ValidationError, match="does not match 3 labels"):
            dataclasses.replace(space, labels=("a", "b", "c"))

    @pytest.mark.parametrize("cls, samples", [(mg.QuadrantCurve, QUARTER),
                                              (mg.HalfplaneCurve, HALF)],
                             ids=["QuadrantCurve", "HalfplaneCurve"])
    def test_curve_is_rebuilt_with_its_checks(self, cls, samples):
        curve = cls(1.0, samples)
        copy = dataclasses.replace(curve, eps=1e-6)
        assert type(copy) is cls and (copy.R, copy.eps) == (1.0, 1e-6)
        assert np.array_equal(copy.samples, curve.samples) and not copy.samples.flags.writeable
        scaled = dataclasses.replace(curve, R=2.0, samples=2.0 * curve.samples)
        assert np.array_equal(scaled.samples, 2.0 * curve.samples)
        if cls is mg.HalfplaneCurve:
            assert np.array_equal(scaled.sector_witness, curve.sector_witness)
        with pytest.raises(ValidationError, match="first sample must be"):
            dataclasses.replace(curve, R=2.0)


    def test_checking_records_rerun_their_checks(self):
        with pytest.raises(ValidationError, match="must be positive"):
            dataclasses.replace(mg.GluedSpaceConfig(1.0), ell=-1.0)
        point = dataclasses.replace(mg.BoundaryPoint("equator", 1.0), angle=2.0 * math.pi)
        assert point == mg.BoundaryPoint("equator", 0.0) and point.angle == 0.0


class TestValidatedRecordsAreFrozen:
    """Regions and correspondences are checked once, on construction, so a
    field written afterwards would skip the checks: a sector of radius -1
    answered 'inside', a wedge with collinear directions divided by zero, and
    a non-injective mapping got an equivalence verdict."""

    @pytest.mark.parametrize("name, field, value", [
        pytest.param("SectorRegion", "R", -1.0, id="SectorRegion-R"),
        pytest.param("SectorRegion", "x", np.array([1.0, 0.0]), id="SectorRegion-x"),
        pytest.param("WedgeRegion", "w", np.array([2.0, 0.0]), id="WedgeRegion-w"),
        pytest.param("WedgeRegion", "u", np.array([0.0, 2.0]), id="WedgeRegion-u"),
        pytest.param("PointedCorrespondence", "mapping", {}, id="PointedCorrespondence-mapping"),
        pytest.param("PointedCorrespondence", "target",
                     mg.space_from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                     id="PointedCorrespondence-target"),
    ])
    def test_fields_cannot_skip_the_checks(self, name, field, value):
        record = _built(name)
        for edit in (lambda: setattr(record, field, value), lambda: delattr(record, field)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                edit()
        with pytest.raises(ValidationError):
            dataclasses.replace(record, **{field: value})

    def test_sector_still_answers_as_built(self):
        sector = mg.SectorRegion(1.0, [0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'R'"):
            sector.R = -1.0
        assert mg.sector_contains(sector, [0.5, 0.5]).region == "inside"
        assert mg.sector_contains(sector, [1.5, 0.5]).region == "outside"
        assert np.array_equal(sector.x, [0.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            sector.x[0] = 1.0

    def test_wedge_keeps_read_only_copies_of_its_directions(self):
        u = np.array([1.0, 0.0])
        wedge = mg.WedgeRegion(u, [0, 1])
        u[:] = [0.0, 2.0]  # collinear with w, had the wedge kept the caller's array
        for direction in (wedge.u, wedge.w):
            with pytest.raises(ValueError, match="read-only"):
                direction[0] = 2.0
        assert mg.wedge_contains(wedge, [0.75, 0.75]).region == "inside"

    def test_wedge_still_answers_as_built(self):
        wedge = mg.WedgeRegion([1, 0], [0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'w'"):
            wedge.w = [2, 0]
        located = mg.wedge_contains(wedge, [0.75, 0.75])
        assert (located.region, located.lam, located.mu) == ("inside", 0.75, 0.75)

    def test_correspondence_keeps_its_bijection(self):
        space = _four_points()
        for corr in (mg.PointedCorrespondence(space, space, {f"p{i}": f"p{i}" for i in range(4)}),
                     mg.PointedCorrespondence.identity(space, space)):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match="cannot assign to field 'mapping'"):
                corr.mapping = dict.fromkeys(["p0", "p1", "p2", "p3"], "p0")
            assert corr.is_identity() and mg.crt_equivalent(corr).equivalent
        with pytest.raises(ValidationError, match="injective"):
            mg.PointedCorrespondence(space, space, dict.fromkeys(["p0", "p1", "p2", "p3"], "p0"))
