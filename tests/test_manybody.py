import json
import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

import monopole_corners
from monopole_corners import manybody as MB
from monopole_corners import partitions as P
from monopole_corners.errors import ChainError
from monopole_corners.partitions import SetPartition

SRC = str(Path(monopole_corners.__file__).resolve().parents[1])


def test_diagonal_structure_k2():
    ws = MB.diagonal_structure(2, 3)
    assert ws.ambient_dim == 3
    assert sorted(ws.dims.values()) == [0, 3]


def test_diagonal_structure_k3():
    ws = MB.diagonal_structure(3, 3)
    assert ws.ambient_dim == 6
    assert sorted(ws.dims.values()) == [0, 3, 3, 3, 6]
    assert ws.zero_label() == P.one_block(3).to_rgs()
    assert ws.top_label() == P.singletons(3).to_rgs()


def test_top_dimension():
    assert MB.diagonal_structure(4, 3).ambient_dim == 9


def test_diagonal_validates_clean():
    for k in range(2, 7):
        for m in (1, 2, 3):
            assert MB.validate(MB.diagonal_structure(k, m)) == []


def test_validate_missing_zero():
    bad = MB.ManyBodyStructure(3, {"L": 1, "V": 3}, [("L", "V", "L")])
    violations = MB.validate(bad)
    assert len(violations) == 1
    assert "zero" in violations[0]


def test_validate_missing_intersection():
    # two planes in general position without their intersection line
    bad = MB.ManyBodyStructure(
        3,
        {"0": 0, "P1": 2, "P2": 2, "V": 3},
        [("0", "P1", "0"), ("0", "P2", "0"), ("0", "V", "0"),
         ("P1", "V", "P1"), ("P2", "V", "P2")],
    )
    violations = MB.validate(bad)
    assert any("closure" in v for v in violations)


def test_validate_dimension_monotonicity():
    bad = MB.ManyBodyStructure(
        3,
        {"0": 0, "A": 2, "B": 2, "V": 3},
        [("0", "A", "0"), ("0", "B", "0"), ("0", "V", "0"),
         ("A", "B", "A"), ("A", "V", "A"), ("B", "V", "B")],
    )
    violations = MB.validate(bad)
    assert any("monotone" in v for v in violations)


def test_validate_reports_a_pair_failing_from_both_rows_once():
    # meet(a, b) = c lies below neither a nor b.
    dims = {"0": 0, "a": 1, "b": 1, "c": 1, "V": 3}
    meets = [("0", x, "0") for x in "abcV"] + [(x, "V", x) for x in "abc"]
    meets += [("a", "b", "c"), ("a", "c", "0"), ("b", "c", "0")]
    bad = MB.ManyBodyStructure(3, dims, meets)
    assert MB.validate(bad) == ["meet('a','b')='c' is not a common lower bound"]


def test_hypersurfaces_counts():
    ws = MB.diagonal_structure(3, 3)
    hs = MB.hypersurfaces(ws)
    assert len(hs) == 4
    assert ws.top_label() in hs
    assert ws.zero_label() not in hs
    # boundary hypersurfaces of the free boundary: nonzero elements below top
    assert len(hs) - 1 == len(ws.dims) - 2


def test_comparable():
    ws = MB.diagonal_structure(3, 3)
    a = SetPartition(3, [[1, 2], [3]]).to_rgs()
    b = SetPartition(3, [[1, 3], [2]]).to_rgs()
    assert MB.comparable(ws, a, a)
    assert not MB.comparable(ws, a, b)
    assert MB.comparable(ws, a, ws.top_label())
    with pytest.raises(ValueError):
        MB.comparable(ws, a, "nope")


def _rgs_labels(k):
    """Every restricted-growth string of length k."""
    return [
        "".join(map(str, w))
        for w in product(range(k), repeat=k)
        if all(x <= max(w[:i], default=-1) + 1 for i, x in enumerate(w))
    ]


def _closure_join(a, b):
    """Finest common coarsening of two RGS labels: the transitive closure
    of "same block in a or in b" (Warshall), relabelled by first use."""
    k = len(a)
    rel = [[a[i] == a[j] or b[i] == b[j] for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            if rel[i][m]:
                rel[i] = [x or y for x, y in zip(rel[i], rel[m])]
    first = {}
    return "".join(str(first.setdefault(rel[i].index(True), len(first))) for i in range(k))


def test_json_pinned_to_closure_oracle_table():
    labels = sorted(_rgs_labels(4), key=lambda l: (len(set(l)), l))
    want = {
        "ambient_dim": 6,
        "elements": [{"label": l, "dim": 2 * (len(set(l)) - 1)} for l in labels],
        "meets": sorted(sorted((a, b)) + [_closure_join(a, b)] for a, b in combinations(labels, 2)),
    }
    assert MB.diagonal_structure(4, 2).to_json_dict() == want


def test_validate_flags_a_bad_computed_meet():
    ws = MB.diagonal_structure(3, 1)

    def with_pair(value):
        def meet(a, b):
            return value if {a, b} == {"001", "010"} else ws.meet(a, b)
        return MB.ManyBodyStructure(ws.ambient_dim, ws.dims, meet)

    assert MB.validate(with_pair("000")) == []
    assert MB.validate(with_pair("011")) == ["meet('001','010')='011' is not a common lower bound"]
    outside = with_pair("nope")
    assert MB.validate(outside) == ["closure violation: no meet for '001', '010'"]
    with pytest.raises(ValueError, match="no meet recorded"):
        outside.meet("001", "010")
    assert ["001", "010", "nope"] not in outside.to_json_dict()["meets"]


def test_diagonal_meets_are_computed_on_demand(monkeypatch):
    calls = []
    kernel = P.merge_block

    def counting(key, mask):
        calls.append(mask)
        return kernel(key, mask)

    monkeypatch.setattr(P, "merge_block", counting)
    ws = MB.diagonal_structure(7, 3)
    assert calls == []
    # b = {1,2,5,6}{3,4,7}: at most one merge per non-singleton block of b
    assert ws.meet("0101010", "0011001") == "0000000"
    assert 1 <= len(calls) <= 2 and set(calls) <= {0b0110011, 0b1001100}
    first = list(calls)
    assert ws.meet("0101010", "0011001") == "0000000"
    assert calls == first


def test_diagonal_meet_equals_closure_oracle():
    for k in range(2, 7):
        ws = MB.diagonal_structure(k, 1)
        assert sorted(ws.labels) == _rgs_labels(k)
        for a, b in product(ws.labels, repeat=2):
            assert ws.meet(a, b) == _closure_join(a, b), (a, b)
    ws = MB.diagonal_structure(7, 3)
    rng = Random(1307)
    labels = ws.labels
    for _ in range(5000):
        a, b = rng.choice(labels), rng.choice(labels)
        want = _closure_join(a, b)
        assert ws.meet(a, b) == want and ws.meet(b, a) == want, (a, b)


def test_diagonal_validate_peak_memory():
    # The memo of block merges stays near Bell(7) * 2^7 slots; a Bell(k)^2
    # meet table would take tens of MB.
    probe = ("import tracemalloc\n"
             "from monopole_corners import manybody as MB\n"
             "tracemalloc.start()\n"
             "assert MB.validate(MB.diagonal_structure(7, 3)) == []\n"
             "print(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8_000_000


def test_diagonal_memo_rows_are_made_on_first_use():
    # A memo of Bell(8) * 2^8 slots made up front would alone take 8.5 MB.
    probe = ("import tracemalloc\n"
             "from monopole_corners import manybody as MB\n"
             "tracemalloc.start()\n"
             "ws = MB.diagonal_structure(8, 1)\n"
             "labels = ws.labels\n"
             "assert ws.meet(labels[1], labels[-2]) == labels[0]\n"
             "print(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5_000_000


def test_containment_matches_refinement_exhaustively():
    for k in range(2, 6):
        ws = MB.diagonal_structure(k, 3)
        parts = P.all_partitions(k)
        for a, b in combinations(parts, 2):
            la, lb = a.to_rgs(), b.to_rgs()
            # D_a is contained in D_b iff b refines a
            assert ws.leq(la, lb) == P.refines(b, a)
            assert ws.meet(la, lb) == _closure_join(la, lb)


def test_face_of_chain_free_boundary():
    ws = MB.diagonal_structure(3, 3)
    face = MB.face_of_chain(ws, [ws.top_label()])
    assert [f.kind for f in face.factors] == ["B"]
    assert face.total_dim == ws.ambient_dim - 1


def test_face_of_chain_one_diagonal():
    ws = MB.diagonal_structure(3, 3)
    lam = SetPartition(3, [[1, 2], [3]])
    face = MB.face_of_chain(ws, [lam.to_rgs()])
    assert [(f.kind, f.dim) for f in face.factors] == [("M", 3), ("B", 2)]
    assert face.total_dim == 5


def test_face_of_chain_length_two():
    ws = MB.diagonal_structure(3, 3)
    lam = SetPartition(3, [[1, 2], [3]])
    face = MB.face_of_chain(ws, [lam.to_rgs(), ws.top_label()])
    assert face.total_dim == 4
    assert face.codim == 2
    # order-insensitive input
    same = MB.face_of_chain(ws, [ws.top_label(), lam.to_rgs()])
    assert same == face


def test_face_dims_telescope_for_all_chains():
    for k in (3, 4):
        ws = MB.diagonal_structure(k, 3)
        parts = [p for p in P.all_partitions(k) if not p.is_one_block()]
        labels = [p.to_rgs() for p in parts]
        for d in (1, 2, 3):
            for chain in combinations(labels, d):
                try:
                    face = MB.face_of_chain(ws, list(chain))
                except ChainError:
                    continue
                assert face.total_dim == ws.ambient_dim - d


def test_face_of_chain_errors():
    ws = MB.diagonal_structure(3, 3)
    a = SetPartition(3, [[1, 2], [3]]).to_rgs()
    b = SetPartition(3, [[1, 3], [2]]).to_rgs()
    with pytest.raises(ChainError):
        MB.face_of_chain(ws, [a, b])
    with pytest.raises(ChainError):
        MB.face_of_chain(ws, [a, a])
    with pytest.raises(ChainError):
        MB.face_of_chain(ws, [ws.zero_label()])
    with pytest.raises(ChainError):
        MB.face_of_chain(ws, [])


def test_constructor_validation():
    with pytest.raises(ValueError):
        MB.diagonal_structure(1, 3)
    with pytest.raises(ValueError):
        MB.diagonal_structure(3, 0)
    with pytest.raises(ValueError):
        MB.ManyBodyStructure(2, {"a": 5}, [])
    with pytest.raises(ValueError):
        MB.ManyBodyStructure(2, {"a": 1}, [("a", "b", "a")])


@pytest.mark.parametrize("bad", [1.7, True, "1", None, float("nan"), float("inf"), -1])
def test_dimensions_must_be_integers(bad):
    with pytest.raises(ValueError, match="dimension"):
        MB.ManyBodyStructure(2, {"0": 0, "a": bad}, [])
    with pytest.raises(ValueError, match="ambient dimension"):
        MB.ManyBodyStructure(bad, {}, [])
    good = MB.diagonal_structure(2, 1).to_json_dict()
    for field in ("ambient_dim", "dim"):
        data = json.loads(json.dumps(good))
        if field == "dim":
            data["elements"][1]["dim"] = bad
        else:
            data["ambient_dim"] = bad
        with pytest.raises(ValueError, match="dimension"):
            MB.ManyBodyStructure.from_json_dict(data)


def test_integral_float_dimensions_are_accepted():
    ws = MB.ManyBodyStructure(2.0, {"0": 0.0, "V": 2}, [("0", "V", "0")])
    assert ws.ambient_dim == 2 and ws.dims == {"0": 0, "V": 2}
    assert all(type(d) is int for d in [ws.ambient_dim, *ws.dims.values()])
    assert MB.validate(ws) == []


_GOOD = {
    "ambient_dim": 2,
    "elements": [{"label": "0", "dim": 0}, {"label": "V", "dim": 2}],
    "meets": [["0", "V", "0"]],
}


@pytest.mark.parametrize(
    "data,needle",
    [
        ([], "JSON object"),
        ({"ambient_dim": 2, "elements": 5, "meets": []}, "'elements'"),
        ({"ambient_dim": 2, "meets": []}, "'elements'"),
        (dict(_GOOD, elements=[5]), "elements[0]"),
        (dict(_GOOD, elements=[{"dim": 0}]), "elements[0]"),
        (dict(_GOOD, elements=[{"label": ["0"], "dim": 0}]), "elements[0]"),
        (dict(_GOOD, elements=[{"label": "0"}]), "dimension of '0'"),
        (dict(_GOOD, elements=[{"label": "0", "dim": True}]), "dimension of '0'"),
        (dict(_GOOD, elements=[{"label": "0", "dim": "0"}]), "dimension of '0'"),
        ({"elements": [], "meets": []}, "ambient dimension"),
        (dict(_GOOD, ambient_dim="2"), "ambient dimension"),
        (dict(_GOOD, meets=5), "'meets'"),
        ({"ambient_dim": 2, "elements": []}, "'meets'"),
        (dict(_GOOD, meets=[["0", "V"]]), "'meets'"),
        (dict(_GOOD, meets=[5]), "'meets'"),
        (dict(_GOOD, meets=[["0", ["V"], "0"]]), "'meets'"),
        (dict(_GOOD, meets=[["0", "W", "0"]]), "unknown labels"),
    ],
)
def test_from_json_dict_rejects_malformed_documents(data, needle):
    with pytest.raises(ValueError) as exc:
        MB.ManyBodyStructure.from_json_dict(data)
    assert needle in str(exc.value)


def test_from_json_dict_reads_a_hand_built_document():
    ws = MB.ManyBodyStructure.from_json_dict(_GOOD)
    assert ws.ambient_dim == 2 and ws.dims == {"0": 0, "V": 2}
    assert MB.validate(ws) == []


def test_json_round_trip():
    ws = MB.diagonal_structure(4, 2)
    rt = MB.ManyBodyStructure.from_json_dict(json.loads(json.dumps(ws.to_json_dict())))
    assert rt.ambient_dim == ws.ambient_dim
    assert rt.dims == ws.dims
    assert MB.validate(rt) == []
    for a, b in combinations(ws.labels, 2):
        assert rt.meet(a, b) == ws.meet(a, b)


def test_validate_asks_each_unordered_pair_once_in_label_order():
    ws = MB.diagonal_structure(5, 2)
    asked = []

    def counting(a, b):
        asked.append((a, b))
        return ws.meet(a, b)

    wrapped = MB.ManyBodyStructure(ws.ambient_dim, ws.dims, counting)
    assert MB.validate(wrapped) == []
    n = len(ws.labels)
    assert n == 52 and len(asked) == n * (n - 1) // 2 == 1326
    assert asked == list(combinations(ws.labels, 2))


def _validate_all_calls(ws, meet_fn):
    """Reference: the axiom checks asking the meet afresh at every use."""
    dims = ws.dims

    def meet(a, b):
        if a == b:
            return a
        c = meet_fn(a, b)
        return c if c in dims else None

    violations = []
    labels = ws.labels
    zeros = [l for l in labels if dims[l] == 0]
    if len(zeros) != 1:
        violations.append(f"expected exactly one zero element, found {zeros}")
    tops = [l for l in labels if dims[l] == ws.ambient_dim]
    if len(tops) != 1:
        violations.append(f"expected exactly one top element, found {tops}")
    pair_violations = []
    for a, b in combinations(labels, 2):
        c = meet(a, b)
        if c is None:
            violations.append(f"closure violation: no meet for {a!r}, {b!r}")
            continue
        if c != a and c != b and (meet(c, a) != c or meet(c, b) != c):
            pair_violations.append(f"meet({a!r},{b!r})={c!r} is not a common lower bound")
        if c == a and dims[a] >= dims[b]:
            pair_violations.append(f"dimension not monotone: {a!r} < {b!r} but dims {dims[a]} >= {dims[b]}")
        if c == b and dims[b] >= dims[a]:
            pair_violations.append(f"dimension not monotone: {b!r} < {a!r} but dims {dims[b]} >= {dims[a]}")
    if len(zeros) == 1:
        z = zeros[0]
        for l in labels:
            if meet(z, l) not in (z, None):
                violations.append(f"zero element {z!r} is not below {l!r}")
    if len(tops) == 1:
        t = tops[0]
        for l in labels:
            if meet(t, l) not in (l, None):
                violations.append(f"top element {t!r} is not above {l!r}")
    return violations + pair_violations


def _planted_structure(rng):
    """A diagonal family with renamed labels and random planted faults."""
    base = MB.diagonal_structure(rng.choice((2, 3, 3, 4)), rng.choice((1, 2)))
    names = {l: rng.choice("abcxyz") + l for l in base.labels}
    table = {frozenset((names[a], names[b])): names[base.meet(a, b)]
             for a, b in combinations(base.labels, 2)}
    dims = {names[l]: d for l, d in base.dims.items()}
    labels = sorted(dims)
    pairs = list(combinations(labels, 2))
    for _ in range(rng.randrange(4)):
        fault = rng.randrange(6)
        pair = frozenset(rng.choice(pairs))
        if fault == 0:
            table.pop(pair, None)
        elif fault == 1:
            table[pair] = "outside"
        elif fault == 2:
            table[pair] = rng.choice(labels)
        elif fault == 3:
            l = rng.choice(labels)
            dims[l] = rng.randrange(base.ambient_dim + 1)
        elif fault == 4:
            dims.pop(rng.choice(labels), None)
        else:
            table[pair] = rng.choice(sorted(pair))

    def meet(a, b):
        return table.get(frozenset((a, b)))

    return MB.ManyBodyStructure(base.ambient_dim, dims, meet), meet


def test_validate_matches_all_calls_reference_on_planted_faults():
    rng = Random(20261018)
    prefixes = ("expected", "closure", "zero", "top", "meet(", "dimension")
    seen = set()
    for _ in range(500):
        ws, meet = _planted_structure(rng)
        got = MB.validate(ws)
        assert got == _validate_all_calls(ws, meet)
        seen.update(p for p in prefixes for v in got if v.startswith(p))
    assert seen == set(prefixes)
