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

#: The records that hold no partition object (partitions do not pickle).
PLAIN = [r for r in RECORDS if r[0] not in (F.FaceDescriptor, F.IbfReport, C.ClusterDecomposition)]


def _build(cls, fields):
    return cls(**dict(fields))


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


@pytest.mark.parametrize("cls, fields, hashable", PLAIN, ids=[r[0].__name__ for r in PLAIN])
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


def test_ibf_report_violations_default_to_empty():
    report = F.IbfReport(k=2, edges=(), hypersurface_dims={})
    assert report.violations == () and report.ok
    assert repr(report) == "IbfReport(k=2, edges=(), hypersurface_dims={}, violations=())"


def test_literal_reprs():
    assert repr(GM.torus_group_structure(IntegerPartition([2, 4]))) == (
        "TorusGroupStructure(torus_rank=1, finite_order=2)")
    assert repr(P.flag_symmetry_orders(LAM, NU)) == "FlagSymmetryOrders(order_sym0=1, order_sym=1)"
    assert repr(F.corner_atlas(3, 1)[0]) == (
        "FaceDescriptor(k=3, chain=ChainFlag(3, [{{1},{2},{3}}]), "
        "nu=SetPartition(3, {{1,2,3}}), codim=1, total_dim=8, fiber_dim=3, base_dims=(5,), "
        "integer_types=(IntegerPartition(1, 1, 1),))")
    assert repr(C.StrongFieldComponent([1, 2, 3], 0, 1)) == (
        "StrongFieldComponent(center=(1.0, 2.0, 3.0), diameter=0, charge=1)")


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
