import random
from itertools import permutations
from math import gcd

import pytest

from monopole_corners import gibbons_manton as GM
from monopole_corners import partitions as P
from monopole_corners.errors import ChainError
from monopole_corners.partitions import IntegerPartition as IP
from monopole_corners.partitions import SetPartition


def strict_flags(k):
    """All strict flags lam < nu over {1..k}."""
    return [(lam, nu) for lam, nu in permutations(P.all_partitions(k), 2) if P.refines(lam, nu)]


def test_weight_system_singletons_to_one_block():
    lam, nu = P.singletons(3), P.one_block(3)
    w = GM.weight_system(lam, nu)
    assert w.weights[1] == {2: 2, 3: 2}
    assert w.total_weight(1) == 4
    assert w.rank == 3


def test_weight_system_pair_block():
    lam = SetPartition(3, [[1, 2], [3]])
    w = GM.weight_system(lam, P.one_block(3))
    assert w.weights[1] == {3: 2}
    assert w.weights[3] == {1: 4}


def test_weight_system_rejects_non_strict_flags():
    nu = P.one_block(3)
    with pytest.raises(ValueError):
        GM.weight_system(nu, nu)
    with pytest.raises(ValueError):
        GM.weight_system(nu, P.singletons(3))
    with pytest.raises(ValueError):
        GM.weight_system(P.singletons(3), P.one_block(4))


# Each caller of the one strict-flag check, given a flag (a, b) to refuse.
STRICT_FLAG_CALLERS = {
    "weight_system": GM.weight_system,
    "flag_symmetry_orders": P.flag_symmetry_orders,
    "restriction_splits fine": lambda a, b: GM.restriction_splits(a, b, P.one_block(b.k)),
    "restriction_splits coarse": lambda a, b: GM.restriction_splits(P.singletons(a.k), a, b),
    "ChainFlag": lambda a, b: P.ChainFlag(a.k, [a, b]),
}


@pytest.mark.parametrize("call", STRICT_FLAG_CALLERS.values(), ids=STRICT_FLAG_CALLERS)
def test_strict_flag_callers_share_one_refusal(call):
    lam = SetPartition(3, [[1, 2], [3]])
    for nu in (lam, SetPartition(3, [[1, 3], [2]])):
        with pytest.raises(ChainError) as exc:
            call(lam, nu)
        assert str(exc.value) == f"{lam} does not strictly refine {nu}"


@pytest.mark.parametrize("name", [n for n in STRICT_FLAG_CALLERS if n != "ChainFlag"])
def test_strict_flag_callers_refuse_different_ground_sets(name):
    lam, nu = SetPartition(3, [[1, 2], [3]]), SetPartition(4, [[1, 2, 3], [4]])
    with pytest.raises(ValueError) as exc:
        STRICT_FLAG_CALLERS[name](lam, nu)
    assert str(exc.value) == "partitions have different ground sets"
    assert not isinstance(exc.value, ChainError)


def test_weights_only_within_common_coarse_block():
    lam = P.singletons(4)
    nu = SetPartition(4, [[1, 2], [3, 4]])
    w = GM.weight_system(lam, nu)
    assert w.weights[1] == {2: 2}
    assert w.weights[3] == {4: 2}


def test_total_weight_formula():
    for k in range(2, 7):
        for lam, nu in strict_flags(k):
            w = GM.weight_system(lam, nu)
            for b in lam.blocks:
                expected = 2 * (len(nu.block_of(b[0])) - len(b))
                assert w.total_weight(b[0]) == expected


def test_block_invariance():
    # recomputing a row from any member of a block gives the block-level map
    for k in (4, 5):
        for lam, nu in strict_flags(k):
            w = GM.weight_system(lam, nu)
            owner = {i: n for n, b in enumerate(nu.blocks) for i in b}
            for b in lam.blocks:
                for member in b:
                    row = {
                        b2[0]: 2 * len(b2)
                        for b2 in lam.blocks
                        if b2 != b and owner[b2[0]] == owner[member]
                    }
                    assert row == w.weights[b[0]]


def test_splitting_exhaustive_k5():
    # The witness's halves are the (lam, mu) weights and the pushed (mu, nu)
    # weights, disjoint, and together the (lam, nu) weights of every block.
    checked = 0
    for k in range(3, 6):
        parts = P.all_partitions(k)
        for lam, mu in strict_flags(k):
            w_lm = GM.weight_system(lam, mu).weights
            for nu in parts:
                if mu != nu and P.refines(mu, nu):
                    res = GM.restriction_splits(lam, mu, nu)
                    assert res.splits, (lam, mu, nu)
                    w_ln = GM.weight_system(lam, nu).weights
                    assert res.parts.keys() == w_ln.keys(), (lam, mu, nu)
                    for rep, (fine, pushed) in res.parts.items():
                        assert fine == w_lm[rep], (lam, mu, nu, rep)
                        assert not fine.keys() & pushed.keys(), (lam, mu, nu, rep)
                        assert {**fine, **pushed} == w_ln[rep], (lam, mu, nu, rep)
                    checked += 1
    assert checked > 500


def test_splitting_total_additivity():
    for k in (4, 5):
        parts = P.all_partitions(k)
        for lam, mu in strict_flags(k):
            for nu in parts:
                if mu == nu or not P.refines(mu, nu):
                    continue
                w_ln = GM.weight_system(lam, nu)
                w_lm = GM.weight_system(lam, mu)
                w_mn = GM.weight_system(mu, nu)
                for b in lam.blocks:
                    rep = b[0]
                    mu_rep = mu.block_of(rep)[0]
                    assert w_ln.total_weight(rep) == w_lm.total_weight(rep) + w_mn.total_weight(mu_rep)


def test_splitting_witness_parts_merge():
    lam = P.singletons(4)
    mu = SetPartition(4, [[1, 2], [3], [4]])
    nu = SetPartition(4, [[1, 2, 3], [4]])
    res = GM.restriction_splits(lam, mu, nu)
    assert res.splits
    fine, pushed = res.parts[1]
    merged = dict(fine)
    merged.update(pushed)
    assert merged == GM.weight_system(lam, nu).weights[1]
    assert not set(fine) & set(pushed)


def test_splitting_checks_two_flags_per_triple(monkeypatch):
    calls = []
    kernel = P.refines

    def counting(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(P, "refines", counting)
    triples = 0
    for k in range(3, 6):
        for lam, mu in strict_flags(k):
            for nu in P.all_partitions(k):
                if mu != nu and kernel(mu, nu):
                    calls.clear()
                    res = GM.restriction_splits(lam, mu, nu)
                    assert calls == [(lam, mu), (mu, nu)]
                    assert res.splits
                    for rep, (fine, pushed) in res.parts.items():
                        assert fine == GM.weight_system(lam, mu).weights[rep]
                        assert {**fine, **pushed} == GM.weight_system(lam, nu).weights[rep]
                    triples += 1
    assert triples > 500


def test_splitting_rejects_degenerate_chains():
    lam = P.singletons(3)
    nu = P.one_block(3)
    with pytest.raises(ValueError):
        GM.restriction_splits(lam, lam, nu)
    with pytest.raises(ValueError):
        GM.restriction_splits(lam, nu, nu)


def test_sym_action_identity_and_swap():
    lam = SetPartition(4, [[1, 2], [3, 4]])
    nu = P.one_block(4)
    w = GM.weight_system(lam, nu)
    identity = tuple(range(1, 5))
    assert GM.sym_action(identity, w) == w
    swap = (3, 4, 1, 2)
    assert GM.sym_action(swap, w) == w  # canonical representation is stable


def test_sym_action_rejects_non_preserving():
    lam = SetPartition(4, [[1, 2], [3, 4]])
    w = GM.weight_system(lam, P.one_block(4))
    with pytest.raises(ValueError):
        GM.sym_action((2, 3, 1, 4), w)


def test_sym_action_is_group_action():
    rng = random.Random(9)
    for k in (4, 5, 6):
        flags = strict_flags(k)
        for lam, nu in rng.sample(flags, min(6, len(flags))):
            w = GM.weight_system(lam, nu)
            preserving = []
            for sigma in permutations(range(1, k + 1)):
                if (
                    P.apply_permutation(sigma, lam) == lam
                    and P.apply_permutation(sigma, nu) == nu
                ):
                    preserving.append(sigma)
                    if len(preserving) >= 8:
                        break
            for s1 in preserving:
                for s2 in preserving:
                    composed = tuple(s1[s2[i - 1] - 1] for i in range(1, k + 1))
                    assert GM.sym_action(composed, w) == GM.sym_action(
                        s1, GM.sym_action(s2, w)
                    )


def test_json_shape():
    lam = SetPartition(3, [[1, 2], [3]])
    d = GM.weight_system(lam, P.one_block(3)).to_json_dict()
    assert d == {
        "lambda": "001",
        "nu": "000",
        "weights": {"1": {"[3]": 2}, "3": {"[1,2]": 4}},
    }


# ---------------------------------------------------------------------------
# The torus group structure.
# ---------------------------------------------------------------------------


def test_torus_group_examples():
    assert GM.torus_group_structure(IP([1] * 6)) == GM.TorusGroupStructure(5, 1)
    assert GM.torus_group_structure(IP([2, 2])) == GM.TorusGroupStructure(1, 2)
    assert GM.torus_group_structure(IP([2, 3])) == GM.TorusGroupStructure(1, 1)


def test_torus_group_random_types():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        parts = [rng.randint(1, 12) for _ in range(n)]
        s = GM.torus_group_structure(IP(parts))
        assert s.torus_rank == n - 1
        assert s.finite_order == gcd(*parts)
        assert all(p % s.finite_order == 0 for p in parts)
        assert (s.finite_order == 1) == (gcd(*parts) == 1)
