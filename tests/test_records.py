"""The contract of the library's immutable result records.

Each record is built by keyword from a field table written here, so the
field names, their order, the repr text, equality, hashing and
immutability are pinned independently of how the records are defined.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from monopole_corners import clusters as C
from monopole_corners import faces as F
from monopole_corners import gibbons_manton as GM
from monopole_corners import manybody as MB
from monopole_corners import partitions as P
from monopole_corners import ratmaps as R
from monopole_corners._record import Record
from monopole_corners.partitions import ChainFlag, IntegerPartition, SetPartition

LAM = SetPartition(3, [[1, 2], [3]])
NU = P.one_block(3)
ROUND = C.ClusterRound(t=0, d=Fraction(15), radius=Fraction(17), gamma=Fraction(87, 2),
                       centers=((Fraction(0), Fraction(0), Fraction(0)),), merged_groups=None)
FACTOR = MB.FaceFactor(kind="B", description="V/1", dim=2)

#: (record class, fields in declaration order, whether instances hash)
RECORDS = [
    (P.SymmetryOrders,
     [("order_sigma_lambda", 2), ("order_stab", 2), ("order_sym_lambda", 1)], True),
    (P.FlagSymmetryOrders, [("order_sym0", 1), ("order_sym", 1)], True),
    (F.FaceDescriptor,
     [("k", 3), ("chain", ChainFlag(3, [LAM])), ("nu", NU), ("codim", 1),
      ("total_dim", 8), ("fiber_dim", 6), ("base_dims", (2,)),
      ("integer_types", (IntegerPartition([1, 2]),))], True),
    (F.IbfReport,
     [("k", 3), ("edges", ((IntegerPartition([1, 2]), IntegerPartition([1, 1, 1])),)),
      ("hypersurface_dims", {"(1,2)": (5, 2)}), ("violations", ("v",))], False),
    (GM.SplitWitness, [("splits", True), ("parts", {1: ({}, {3: 2})})], False),
    (GM.TorusGroupStructure, [("torus_rank", 1), ("finite_order", 2)], True),
    (MB.FaceFactor, [("kind", "M"), ("description", "V/12"), ("dim", 3)], True),
    (MB.ManyBodyFace, [("chain", ("12", "1")), ("factors", (FACTOR,))], True),
    (C.StrongFieldComponent,
     [("center", (0.0, 1.5, -2.0)), ("diameter", 1.0), ("charge", 2)], True),
    (C.ClusterRound,
     [("t", 1), ("d", Fraction(15)), ("radius", Fraction(33, 2)), ("gamma", Fraction(87, 2)),
      ("centers", ((Fraction(1, 2), Fraction(0), Fraction(0)),)),
      ("merged_groups", ((0, 1),))], True),
    (C.ClusterDecomposition,
     [("omega", P.one_block(2)), ("centers", ((1.0, 0.0, 0.0),)), ("radius", 17.0),
      ("gamma", 43.5), ("diameter", 15.0), ("rounds", 1),
      ("cluster_type", IntegerPartition([2])), ("cluster_charges", (2,)),
      ("epsilon", 0.0), ("history", (ROUND,))], True),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]

#: One instance of each value class, the classes that check their input.
VALUES = [
    SetPartition(4, [[1, 3], [2], [4]]),
    IntegerPartition([2, 1, 2]),
    ChainFlag(3, [P.singletons(3), LAM]),
    R.GaussianRational(Fraction(1, 2), -3),
    R.Phase(Fraction(4, 3)),
    R.RationalMapPair([1, (0, 1)], [Fraction(1, 3), 0], phi_phase=Fraction(1, 3)),
    C.Configuration([[0, 0, 0], [1, 2.5, -3]], charges=[1, 2]),
    C.StrongFieldInput([{"center": [0, 0, 0], "diameter": 1, "charge": 2},
                        C.StrongFieldComponent((40, 0, 0), 0.5, 1)], r_prime=2.0),
    GM.weight_system(P.singletons(3), NU),
]


def _build(cls, fields):
    return cls(**dict(fields))


#: One instance of every record class.
EVERY = [_build(cls, fields) for cls, fields, _ in RECORDS] + VALUES


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_repr_lists_fields_in_order(cls, fields, hashable):
    text = ", ".join(f"{name}={value!r}" for name, value in fields)
    assert repr(_build(cls, fields)) == f"{cls.__name__}({text})"


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_positional_order_matches_keywords(cls, fields, hashable):
    by_position = cls(*(value for _, value in fields))
    assert by_position == _build(cls, fields)
    for name, value in fields:
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_equality_is_fieldwise_within_the_type(cls, fields, hashable):
    a, b = _build(cls, fields), _build(cls, fields)
    assert a == b and not a != b
    assert a != tuple(value for _, value in fields)
    assert a != object()
    name, value = fields[-1]
    other = dict(fields)
    other[name] = 7 if not isinstance(value, int) or isinstance(value, bool) else value + 1
    assert a != cls(**other)


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_hash_follows_fields(cls, fields, hashable):
    a, b = _build(cls, fields), _build(cls, fields)
    if hashable:
        assert hash(a) == hash(b) == hash(tuple(value for _, value in fields))
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, hashable):
    rec = _build(cls, fields)
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) == value
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, hashable):
    rec = _build(cls, fields)
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls, fields, hashable", RECORDS, ids=IDS)
def test_construction_needs_every_field(cls, fields, hashable):
    with pytest.raises(TypeError):
        cls(**dict(fields[1:]))
    with pytest.raises(TypeError):
        cls(**dict(fields), extra=1)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_classes_copy_pickle_and_refuse_changes(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    fields = [(name, getattr(value, name)) for name in type(value).__slots__]
    for name, field in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert [(name, getattr(value, name)) for name, _ in fields] == fields


def test_values_are_the_slot_values_of_every_record():
    assert {type(rec) for rec in EVERY} == set(Record.__subclasses__())
    single = [rec for rec in EVERY if len(type(rec).__slots__) == 1]
    assert {type(rec) for rec in single} == {IntegerPartition, R.Phase}
    for rec in EVERY:
        values = rec._values()
        assert type(values) is tuple, type(rec)
        assert values == tuple(getattr(rec, name) for name in type(rec).__slots__), type(rec)


@pytest.mark.parametrize("rec", EVERY, ids=lambda r: type(r).__name__)
def test_canonical_rebuilds_and_copies_are_the_value(rec):
    values = rec._values()
    assert type(rec)._canonical(*values) == rec
    assert copy.copy(rec) is rec
    # As for a tuple, a deep copy is new only when some field copies to a new object.
    twin = copy.deepcopy(rec)
    dicts = [i for i, v in enumerate(values) if isinstance(v, dict)]
    assert (twin is rec) == (not dicts)
    assert type(twin) is type(rec) and twin == rec
    for i in dicts:
        assert twin._values()[i] == values[i] and twin._values()[i] is not values[i]


def test_phase_tagged_map_keeps_its_phase_and_resultant():
    m = R.RationalMapPair([1, (0, 1)], [Fraction(1, 3), 0], phi_phase=Fraction(3, 8))
    assert m.phi_phase == Fraction(1, 8)
    assert R.resultant(m) == R.GaussianRational(0, Fraction(-2, 3))
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and (twin.phi, twin.psi, twin.phi_phase) == (m.phi, m.psi, m.phi_phase)
        assert R.resultant(twin) == R.resultant(m)


def test_configurations_compare_by_field():
    a = C.Configuration([[0, 0, 0], [1, 2, 3]], charges=[1, 2])
    assert a == C.Configuration([(0.0, 0.0, 0.0), (1, 2, 3)], [1, 2])
    assert a != C.Configuration([[0, 0, 0], [1, 2, 3]])
    assert repr(a) == "Configuration(points=((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)), charges=(1, 2))"
    b = C.StrongFieldInput([{"center": [0, 0, 0], "diameter": 1, "charge": 2}])
    assert b == C.StrongFieldInput([C.StrongFieldComponent([0, 0, 0], 1, 2)], 1.0)
    assert len({a, b, copy.copy(a), copy.copy(b)}) == 2


def test_many_body_structure_refuses_assignment_and_deletion():
    ws = MB.ManyBodyStructure(3, {"0": 0, "L": 1, "V": 3}, [("0", "L", "0")])
    for name in ("ambient_dim", "dims", "_meet"):
        with pytest.raises(AttributeError):
            setattr(ws, name, None)
        with pytest.raises(AttributeError):
            delattr(ws, name)
    assert ws.dims == {"0": 0, "L": 1, "V": 3} and ws.meet("0", "L") == "0"


def test_many_body_structure_copies_as_itself():
    # Equality is identity, so the only copy equal to a structure is itself;
    # its meet is a local function, so pickle still refuses it.
    for ws in (MB.ManyBodyStructure(3, {"0": 0, "V": 3}, []), MB.diagonal_structure(3, 1)):
        assert copy.copy(ws) is ws and copy.deepcopy([ws])[0] is ws
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(ws)
        with pytest.raises(AttributeError):
            ws.dims = {}
        with pytest.raises(AttributeError):
            del ws.dims
        assert ws.dims[ws.zero_label()] == 0


def test_ibf_report_ok_iff_no_violations():
    report = F.IbfReport(k=2, edges=(), hypersurface_dims={}, violations=())
    assert report.ok
    assert repr(report) == "IbfReport(k=2, edges=(), hypersurface_dims={}, violations=())"
    assert not F.IbfReport(2, (), {}, ("v",)).ok


def test_literal_reprs():
    assert repr(GM.torus_group_structure(IntegerPartition([2, 4]))) == (
        "TorusGroupStructure(torus_rank=1, finite_order=2)")
    assert repr(P.flag_symmetry_orders(LAM, NU)) == "FlagSymmetryOrders(order_sym0=1, order_sym=1)"
    assert repr(F.corner_atlas(3, 1)[0]) == (
        "FaceDescriptor(k=3, chain=ChainFlag(3, [{{1},{2},{3}}]), "
        "nu=SetPartition(3, {{1,2,3}}), codim=1, total_dim=8, fiber_dim=3, base_dims=(5,), "
        "integer_types=(IntegerPartition(1, 1, 1),))")
    assert repr(C.StrongFieldComponent([1, 2, 3], 0, 1)) == (
        "StrongFieldComponent(center=(1.0, 2.0, 3.0), diameter=0.0, charge=1)")


def test_strong_field_component_still_validates():
    comp = C.StrongFieldComponent(center=[1, 2, 3], diameter=2.5, charge=2.0)
    assert comp.center == (1.0, 2.0, 3.0) and type(comp.charge) is int
    for bad in ({"center": [1, 2], "diameter": 1, "charge": 1},
                {"center": [0, 0, 0], "diameter": -1, "charge": 1},
                {"center": [0, 0, 0], "diameter": 1, "charge": 1.7},
                {"center": [0, 0, 0], "diameter": True, "charge": 1}):
        with pytest.raises(ValueError):
            C.StrongFieldComponent(**bad)
    with pytest.raises(TypeError, match=r"StrongFieldComponent.__init__\(\) got an unexpected "
                                        r"keyword argument 'spin'"):
        C.StrongFieldComponent(center=[0, 0, 0], diameter=1, charge=1, spin=0)
    with pytest.raises(TypeError, match=r"StrongFieldComponent.__init__\(\) missing 1 required "
                                        r"positional argument: 'charge'"):
        C.StrongFieldComponent(center=[0, 0, 0], diameter=1)
