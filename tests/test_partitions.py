import copy
import functools
import os
import pickle
import random
import subprocess
import sys
import time
from itertools import accumulate, combinations, permutations, zip_longest
from math import comb, prod
from pathlib import Path

import pytest

from monopole_corners import faces as F
from monopole_corners import partitions as P
from monopole_corners.errors import ChainError, RangeLimitError
from monopole_corners.partitions import IntegerPartition, SetPartition

SRC = str(Path(P.__file__).resolve().parents[1])


def bell_triangle(n):
    """Independent Bell-number oracle via the Bell triangle recurrence."""
    row = [1]
    values = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        values.append(row[-1])
    return values  # values[i] = number of partitions of i+1 elements


def partition_count(n):
    """Independent integer-partition counting recurrence p(0..n)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p


def test_enumeration_matches_bell_triangle():
    bells = bell_triangle(10)
    for k in range(1, 8):
        assert len(P.all_partitions(k)) == bells[k - 1]
    # spot-check the larger sizes without materializing objects twice
    assert sum(1 for _ in P.iter_partitions(9)) == bells[8]
    assert sum(1 for _ in P.iter_partitions(10)) == bells[9]


def test_enumeration_is_duplicate_free():
    for k in range(1, 7):
        parts = P.all_partitions(k)
        assert len(set(parts)) == len(parts)


def test_enumeration_range_errors():
    with pytest.raises(RangeLimitError):
        P.all_partitions(0)
    with pytest.raises(RangeLimitError):
        P.all_partitions(13)


def test_k1_single_partition():
    assert P.all_partitions(1) == [SetPartition(1, [[1]])]


def _rgs_words(k):
    """The restricted-growth words of length k, in lexicographic order."""
    word = [0]

    def grow(top):
        if len(word) == k:
            yield tuple(word)
            return
        for n in range(top + 2):
            word.append(n)
            yield from grow(max(top, n))
            word.pop()

    yield from grow(0)


def test_iter_partitions_matches_list_of_lists_reference():
    for k in range(1, 11):
        for got, word in zip_longest(P.iter_partitions(k), _rgs_words(k)):
            assert got is not None and word is not None, k
            blocks = [[] for _ in range(max(word) + 1)]
            for i, n in enumerate(word, start=1):
                blocks[n].append(i)
            assert (got.blocks, got.index) == (tuple(map(tuple, blocks)), word)


def _traced(body):
    """What `body` prints, run after `tracemalloc.start()` in a fresh
    interpreter that has imported the partitions module as P."""
    probe = ("import tracemalloc\n"
             "from monopole_corners import partitions as P\n"
             "tracemalloc.start()\n" + body)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_all_partitions_bytes_per_partition():
    # Consecutive partitions share their unchanged block tuples: about 317 B
    # per partition of {1..9}, against 493 B with fresh tuples for every block.
    held = _traced("parts = P.all_partitions(9)\n"
                   "print(tracemalloc.get_traced_memory()[0] // len(parts))\n")
    assert held < 340


def test_iter_partitions_leaves_no_cycles():
    # A self-calling closure left its cells, open blocks and word in a
    # cycle per call: 10 objects for all_partitions(5).
    cyclic = _traced("import gc\n"
                     "gc.collect()\n"
                     "gc.disable()\n"
                     "for k in range(1, 8):\n"
                     "    P.all_partitions(k)\n"
                     "    next(P.iter_partitions(k))\n"
                     "print(gc.collect())\n")
    assert cyclic == 0


def test_canonical_representation_is_unique():
    a = SetPartition(4, [[3], [1, 2, 4]])
    b = SetPartition(4, [[4, 2, 1], [3]])
    assert a == b
    assert a.blocks == ((1, 2, 4), (3,))
    assert a.to_rgs() == "0010"
    assert SetPartition.from_rgs("0010") == a


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [3], []])
    with pytest.raises(ValueError):
        SetPartition.from_rgs("021")


@pytest.mark.parametrize("k, blocks, message", [
    (0, [], "ground-set size must be positive, got 0"),
    (3, [[1, 2], [3], []], "empty block"),
    (3, [[1, 4]], "element 4 outside 1..3"),
    (3, [[1, 2], [2, 3]], "element 2 appears in two blocks"),
    (3, [[1, 2]], "blocks do not cover {1..3}"),
    # blocks are read in order of their minimum, elements in ascending order
    (3, [[5], [1], [1]], "element 1 appears in two blocks"),
    (4, [[2, 9], [1, 1]], "element 1 appears in two blocks"),
    (5, [[1, 1]], "element 1 appears in two blocks"),
    (2, [[1.5], [2]], "blocks do not cover {1..2}"),
    # a huge k is refused without allocating anything of size k
    (10 ** 300, [[1]], "blocks do not cover {1..%d}" % 10 ** 300),
])
def test_checked_constructor_error_messages(k, blocks, message):
    with pytest.raises(ValueError) as exc:
        SetPartition(k, blocks)
    assert str(exc.value) == message


def test_block_index_keeps_its_range_check():
    p = SetPartition(4, [[1, 3], [2], [4]])
    assert [p.block_index(i) for i in range(1, 5)] == [0, 1, 0, 2]
    assert p.block_of(3) == (1, 3)
    for i in (0, -1, 5):
        with pytest.raises(ValueError, match=f"element {i} outside 1..4"):
            p.block_index(i)
        with pytest.raises(ValueError, match=f"element {i} outside 1..4"):
            p.block_of(i)


def test_json_round_trip():
    p = SetPartition(5, [[1, 4], [2], [3, 5]])
    assert SetPartition.from_json_dict(p.to_json_dict()) == p


@pytest.mark.parametrize(
    "data,needle",
    [
        ({"k": True, "blocks": [[1]]}, "k must be"),
        ({"k": "2", "blocks": [[1], [2]]}, "k must be"),
        ({"k": 1.5, "blocks": [[1]]}, "k must be"),
        ({"k": 0, "blocks": []}, "k must be"),
        ({"blocks": [[1]]}, "k must be"),
        ({"k": 1, "blocks": 5}, "'blocks'"),
        ({"k": 1}, "'blocks'"),
        ([1, [[1]]], "JSON object"),
        ({"k": 1, "blocks": [[True]]}, "blocks[0] must be an integer"),
        ({"k": 1, "blocks": [5]}, "blocks[0] must be a list"),
        ({"k": 2, "blocks": [[1], ["2"]]}, "blocks[1] must be an integer"),
    ],
)
def test_set_partition_json_is_read_strictly(data, needle):
    with pytest.raises(ValueError) as exc:
        SetPartition.from_json_dict(data)
    assert needle in str(exc.value)


def test_set_partition_json_accepts_integral_float_k():
    assert SetPartition.from_json_dict({"k": 2.0, "blocks": [[1, 2]]}) == P.one_block(2)


@pytest.mark.parametrize("parts", [[1.7, True], [True], [2.0], ["1"], [0], [1, -1], []])
def test_integer_partition_parts_are_positive_ints(parts):
    with pytest.raises(ValueError):
        IntegerPartition(parts)


def test_refines_examples():
    fine = P.singletons(3)
    lam = SetPartition(3, [[1, 2], [3]])
    mu = SetPartition(3, [[1, 3], [2]])
    for q in P.all_partitions(3):
        assert P.refines(fine, q)
    assert P.refines(lam, P.one_block(3))
    assert not P.refines(lam, mu)
    assert not P.refines(mu, lam)
    with pytest.raises(ValueError):
        P.refines(lam, P.one_block(4))


def test_refines_is_partial_order():
    for k in range(1, 6):
        parts = P.all_partitions(k)
        for a in parts:
            assert P.refines(a, a)
        for a, b in combinations(parts, 2):
            if P.refines(a, b) and P.refines(b, a):
                assert a == b
        for a in parts:
            for b in parts:
                if not P.refines(a, b):
                    continue
                for c in parts:
                    if P.refines(b, c):
                        assert P.refines(a, c)


def test_join_meet_examples():
    lam = SetPartition(3, [[1, 2], [3]])
    mu = SetPartition(3, [[2, 3], [1]])
    assert P.join(lam, lam) == lam
    assert P.join(lam, mu) == P.one_block(3)
    assert P.meet(lam, mu) == P.singletons(3)


def test_lattice_laws_exhaustive():
    for k in range(1, 5):
        parts = P.all_partitions(k)
        for a in parts:
            for b in parts:
                j = P.join(a, b)
                m = P.meet(a, b)
                assert P.refines(a, j) and P.refines(b, j)
                assert P.refines(m, a) and P.refines(m, b)
                # absorption
                assert P.join(a, P.meet(a, b)) == a
                assert P.meet(a, P.join(a, b)) == a


def _pairs(p):
    """Oracle: the set of pairs i < j that share a block of p."""
    return {(i, j) for b in p.blocks for i in b for j in b if i < j}


def _closure(k, pairs):
    """Oracle: the pairs of the finest partition whose blocks contain every
    given pair, merging the components of each pair's two elements."""
    comp = {i: {i} for i in range(1, k + 1)}
    for i, j in pairs:
        if comp[i] is not comp[j]:
            merged = comp[i] | comp[j]
            for x in merged:
                comp[x] = merged
    return {(i, j) for i in comp for j in comp[i] if i < j}


@pytest.mark.parametrize("k", range(1, 7))
def test_lattice_operations_match_pair_oracle(k):
    parts = P.all_partitions(k)
    pairs = {p: _pairs(p) for p in parts}
    for a in parts:
        for b in parts:
            assert P.refines(a, b) == (pairs[a] <= pairs[b])
            m, j = P.meet(a, b), P.join(a, b)
            assert _pairs(m) == pairs[a] & pairs[b]
            assert _pairs(j) == _closure(k, pairs[a] | pairs[b])
            _assert_canonical(m)
            _assert_canonical(j)


def test_type_of():
    assert P.type_of(P.singletons(3)) == IntegerPartition([1, 1, 1])
    assert P.type_of(SetPartition(3, [[1, 2], [3]])) == IntegerPartition([1, 2])
    assert P.type_of(SetPartition(5, [[1, 2], [3, 4, 5]])) == IntegerPartition([2, 3])


def test_orbit_canonical_invariance():
    rng = random.Random(11)
    for k in range(2, 7):
        parts = P.all_partitions(k)
        for p in random.Random(k).sample(parts, min(5, len(parts))):
            canon = P.orbit_canonical(p)
            _assert_canonical(canon)
            assert P.orbit_canonical(canon) == canon
            assert P.type_of(canon) == P.type_of(p)
            for _ in range(5):
                sigma = list(range(1, k + 1))
                rng.shuffle(sigma)
                assert P.orbit_canonical(P.apply_permutation(sigma, p)) == canon


def test_orbit_canonical_is_lex_least_rgs():
    for k in range(2, 6):
        by_type = {}
        for p in P.all_partitions(k):
            by_type.setdefault(P.type_of(p), []).append(p.to_rgs())
        for t, strings in by_type.items():
            rep = P.orbit_canonical(SetPartition.from_rgs(min(strings)))
            assert rep.to_rgs() == min(strings)


def test_single_partition_orbits_match_integer_partition_count():
    pcounts = partition_count(10)
    for k in range(1, 11):
        orbits = {P.orbit_canonical(p) for p in P.iter_partitions(k)}
        assert len(orbits) == pcounts[k]
        assert len(P.integer_partitions(k)) == pcounts[k]


def brute_force_chain_orbits(k, d):
    proper = [p for p in P.all_partitions(k) if not p.is_one_block()]
    chains = []

    def rec(acc):
        if len(acc) == d:
            chains.append(tuple(acc))
            return
        for p in proper:
            if not acc or (acc[-1] != p and P.refines(acc[-1], p)):
                acc.append(p)
                rec(acc)
                acc.pop()

    rec([])
    return {brute_canonical(k, ch) for ch in chains}


def brute_canonical(k, chain):
    """Least tuple of RGS strings over all k! relabellings of a chain."""
    return min(
        tuple(P.apply_permutation(sigma, p).to_rgs() for p in chain)
        for sigma in permutations(range(1, k + 1))
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_chain_orbits_match_brute_force(k):
    for d in range(1, k):
        fast = P.chains_mod_symmetric_group(k, d)
        got = [brute_canonical(k, f) for f in fast]
        assert len(set(got)) == len(got)
        assert set(got) == brute_force_chain_orbits(k, d)


def test_chain_orbit_paper_counts():
    assert len(P.chains_mod_symmetric_group(3, 1)) == 2
    assert len(P.chains_mod_symmetric_group(4, 2)) == 5
    assert len(P.chains_mod_symmetric_group(4, 3)) == 2


def _multiset_series(counts, n):
    """Coefficients 0..n of prod_m (1 - x^m)^(-counts[m]): multisets of
    objects of which counts[m] distinct kinds have size m."""
    series = [1] + [0] * n
    for m in range(1, n + 1):
        series = [
            sum(comb(counts[m] + j - 1, j) * series[i - m * j] for j in range(i // m + 1))
            for i in range(n + 1)
        ]
    return series


def _weak_tower_counts(depth, n):
    """t_depth(0..n): relabelling orbits of weak chains lam_1 <= ... <=
    lam_depth of partitions of an m-set; a depth-d tower is a multiset of
    depth-(d-1) towers and a depth-0 tower is a block size."""
    counts = [0] + [1] * n
    for _ in range(depth):
        counts = [0] + _multiset_series(counts, n)[1:]
    return counts


def chain_orbit_oracle(block_sizes, d):
    """Orbits of strict chains lam_1 < ... < lam_d < nu under the permutations
    fixing each nu-block, by binomial inversion of the weak-chain counts:
    W(d) = sum_j C(d-1, j-1) (S(j) + S(j-1)) with S(0) = 1, where a weak
    chain below nu counts prod over nu-blocks of t_d(|B|)."""
    n = max(block_sizes)
    strict = [1]
    for e in range(1, d + 1):
        weak = 1
        for size in block_sizes:
            weak *= _weak_tower_counts(e, n)[size]
        lower = sum(comb(e - 1, j - 1) * (strict[j] + strict[j - 1]) for j in range(1, e))
        strict.append(weak - lower - strict[e - 1])
    return strict[d]


def test_chain_orbit_oracle_hand_values():
    p = partition_count(8)
    zigzag = [1, 1, 2, 5, 16, 61, 272]
    for k in range(2, 9):
        assert chain_orbit_oracle((k,), 1) == p[k] - 1
        assert chain_orbit_oracle((k,), k - 1) == zigzag[k - 2]
        assert chain_orbit_oracle((k,), k) == 0
    assert [chain_orbit_oracle((8,), d) for d in range(1, 8)] == [
        21, 180, 740, 1602, 1877, 1127, 272,
    ]


@pytest.mark.parametrize("k", range(2, 9))
def test_chain_orbit_counts_match_oracle(k):
    for d in range(1, k):
        assert len(P.chains_mod_symmetric_group(k, d)) == chain_orbit_oracle((k,), d)


@pytest.mark.parametrize("nu", ["01011010", "01201201", "01232103"])
def test_relative_atlas_counts_match_oracle(nu):
    nu = SetPartition.from_rgs(nu)
    sizes = tuple(len(b) for b in nu.blocks)
    for d in range(1, 9 - nu.rank):
        faces = F.corner_atlas(8, d, nu)
        assert len(faces) == chain_orbit_oracle(sizes, d) > 0
        assert len({tuple(f.chain) for f in faces}) == len(faces)
    assert chain_orbit_oracle(sizes, 9 - nu.rank) == 0
    assert F.corner_atlas(8, 9 - nu.rank, nu) == []


def relative_count_rule(sizes, d):
    """R(nu, d) = sum_j (-1)^j C(d, j) prod_b W(|B_b|, d - j) from absolute
    counts alone.  Restricted to nu's blocks, a chain below nu is one weak
    chain per block, and inclusion-exclusion over its d steps keeps those
    strict in some block.  A weak chain of length L below an n-block is a
    strict one of m levels, placed in C(L, m) ways: W(n, L) = sum_m C(L, m)
    A(n, m), with A(n, 0) = 1 and A(n, m) the absolute oracle's count."""
    def weak(n, length):
        return 1 + sum(comb(length, m) * chain_orbit_oracle((n,), m)
                       for m in range(1, min(length, n - 1) + 1))
    return sum((-1) ** j * comb(d, j) * prod(weak(n, d - j) for n in sizes)
               for j in range(d + 1))


@pytest.mark.parametrize("k", range(2, 9))
def test_relative_atlas_counts_match_the_product_rule(k):
    """Every relative shape of k, as the canonical nu whose blocks are runs
    of descending sizes, at every d up to one past its longest chain."""
    assert relative_count_rule((3, 3, 2), 3) == 129
    for shape in P.integer_partitions(k):
        sizes = shape.parts[::-1]
        if len(sizes) < 2:
            continue
        nu = SetPartition.from_rgs("".join(str(b) * n for b, n in enumerate(sizes)))
        for d in range(1, k - len(sizes) + 2):
            assert len(F.corner_atlas(k, d, nu)) == relative_count_rule(sizes, d), (nu, d)


def _consecutive_blocks(sizes):
    """Blocks of the given sizes, of consecutive elements from 1 on."""
    return tuple(tuple(range(e - n + 1, e + 1)) for n, e in zip(sizes, accumulate(sizes)))


K9_ORBIT_COUNTS = {
    (9,): [29, 365, 2174, 6833, 12068, 12060, 6373, 1385],
    (5, 4): [34, 309, 1220, 2479, 2720, 1535, 350],
}


@pytest.mark.parametrize("sizes", list(K9_ORBIT_COUNTS), ids=str)
def test_k9_chain_orbits_match_oracle(sizes):
    """Every forest is refined from exactly one parent, so the depth-first
    enumeration meets each orbit once: counts and distinct flags at k = 9,
    past the atlas limit, for every d."""
    counts = K9_ORBIT_COUNTS[sizes]
    for d, want in enumerate(counts, start=1):
        flags = [f for _, group in P._chain_orbits_relative(9, d, _consecutive_blocks(sizes))
                 for f in group]
        assert len(flags) == chain_orbit_oracle(sizes, d) == want
        assert len({tuple(p.index for p in f.chain) for f in flags}) == want
    assert chain_orbit_oracle(sizes, len(counts) + 1) == 0


@pytest.mark.parametrize("sizes", list(K9_ORBIT_COUNTS), ids=str)
def test_k9_atlas_order_follows_the_documented_key(sizes):
    """Past the atlas limit there are no digests, so the order of the packed
    keys is checked against the rule they encode: finest ranks descending,
    then types, then the levels' restricted-growth words.  Each group's
    types are its flags' block sizes, and no two groups share them."""
    def types_of(flag):
        return tuple(tuple(sorted(map(len, p.blocks))) for p in flag.chain)

    def rule(flag):
        types = types_of(flag)
        return [-len(t) for t in types], types, [p.index for p in flag.chain]

    for d in range(1, len(K9_ORBIT_COUNTS[sizes]) + 1):
        groups = list(P._chain_orbits_relative(9, d, _consecutive_blocks(sizes)))
        flags = [f for _, group in groups for f in group]
        assert sorted(flags, key=rule) == flags
        assert all(types_of(f) == types for types, group in groups for f in group)
        assert len({types for types, _ in groups}) == len(groups)


@functools.cache
def _drain_peak():
    """The traced peak of draining the k = 9, d = 5 chain orbits, measured
    once in a fresh interpreter for the tests that bound it."""
    return _traced("for _ in P._chain_orbits_relative(9, 5, (tuple(range(1, 10)),)):\n"
                   "    pass\n"
                   "print(tracemalloc.get_traced_memory()[1])\n")


def test_chain_orbit_drain_peak_memory():
    # Forests are refined depth first, the whole tower of a one-block forest
    # is not memoized, and the drain holds one packed int per face: about
    # 2.0 MB, against 3.8 MB when it held chains of shared level partitions
    # grouped by types, 4.3 MB when the groups held the forests and 6.6 MB
    # when each level's forests were held in a dict.
    assert _drain_peak() < 4_800_000


def test_packed_chain_orbit_drain_peak_memory():
    # The packed keys' own figure: about 2.0 MB, 3.8 MB with grouped chains.
    assert _drain_peak() < 2_600_000


def test_chain_orbit_range_errors():
    with pytest.raises(RangeLimitError):
        P.chains_mod_symmetric_group(4, 0)
    with pytest.raises(RangeLimitError):
        P.chains_mod_symmetric_group(4, 4)
    with pytest.raises(RangeLimitError):
        P.chains_mod_symmetric_group(9, 2)


def test_chainflag_validation():
    lam = SetPartition(3, [[1, 2], [3]])
    with pytest.raises(ChainError):
        P.ChainFlag(3, [P.one_block(3)])
    with pytest.raises(ChainError):
        P.ChainFlag(3, [lam, lam])
    with pytest.raises(ChainError):
        P.ChainFlag(3, [lam, SetPartition(3, [[1, 3], [2]])])
    assert len(P.ChainFlag(3, [])) == 0


def test_symmetry_orders_examples():
    k = 5
    assert P.symmetry_orders(P.singletons(k)).order_sym_lambda == 120
    assert P.symmetry_orders(P.one_block(k)).order_sym_lambda == 1
    so = P.symmetry_orders(SetPartition(4, [[1, 2], [3, 4]]))
    assert so.order_sym_lambda == 2
    assert so.order_stab == 4
    assert so.order_sigma_lambda == 8


def brute_symmetry_orders(p):
    k = p.k
    n_sigma = n_stab = 0
    for sigma in permutations(range(1, k + 1)):
        if P.apply_permutation(sigma, p) == p:
            n_sigma += 1
            if all(p.block_index(sigma[i - 1]) == p.block_index(i) for i in range(1, k + 1)):
                n_stab += 1
    return n_sigma, n_stab


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_symmetry_orders_match_brute_force(k):
    for p in P.all_partitions(k):
        so = P.symmetry_orders(p)
        n_sigma, n_stab = brute_symmetry_orders(p)
        assert so.order_sigma_lambda == n_sigma
        assert so.order_stab == n_stab
        assert so.order_sigma_lambda == so.order_stab * so.order_sym_lambda


def test_flag_symmetry_orders_examples():
    assert P.flag_symmetry_orders(P.singletons(3), P.one_block(3)).order_sym0 == 6
    assert (
        P.flag_symmetry_orders(P.singletons(4), SetPartition(4, [[1, 2], [3, 4]])).order_sym0
        == 4
    )
    # distinct block sizes within the coarse block: stabilizers coincide
    assert (
        P.flag_symmetry_orders(SetPartition(3, [[1], [2, 3]]), P.one_block(3)).order_sym0
        == 1
    )


def test_flag_symmetry_orders_exhaustive_small():
    for k in (3, 4, 5):
        parts = P.all_partitions(k)
        for lam in parts:
            for nu in parts:
                if lam != nu and P.refines(lam, nu):
                    fo = P.flag_symmetry_orders(lam, nu)
                    assert fo.order_sym0 >= 1
                    assert fo.order_sym % fo.order_sym0 == 0


def test_flag_symmetry_orders_rejects_non_flags():
    with pytest.raises(ValueError):
        P.flag_symmetry_orders(P.one_block(3), P.one_block(3))
    with pytest.raises(ValueError):
        P.flag_symmetry_orders(P.one_block(3), P.singletons(3))


def brute_flag_orders(lam, nu):
    """(|Sym0|, |Sym|) of lam < nu by running over all k! permutations.

    Counts the permutations preserving both levels, those among them that
    fix every nu-block, and those that fix every lam-block; both group
    orders are taken modulo the last (shuffles inside lam-blocks).
    """
    k = lam.k

    def preserves(sigma, p):
        blocks = set(p.blocks)
        return all(tuple(sorted(sigma[i - 1] for i in b)) in blocks for b in p.blocks)

    def fixes_blockwise(sigma, p):
        return all(p.block_index(sigma[i - 1]) == p.block_index(i) for i in range(1, k + 1))

    n_flag = n_stab_nu = n_stab_lam = 0
    for sigma in permutations(range(1, k + 1)):
        if preserves(sigma, lam) and preserves(sigma, nu):
            n_flag += 1
            n_stab_nu += fixes_blockwise(sigma, nu)
            n_stab_lam += fixes_blockwise(sigma, lam)
    assert n_flag % n_stab_lam == 0 and n_stab_nu % n_stab_lam == 0
    return n_stab_nu // n_stab_lam, n_flag // n_stab_lam


def test_flag_symmetry_orders_match_permutation_count():
    n_flags = 0
    for k in range(1, 6):
        parts = P.all_partitions(k)
        for lam in parts:
            for nu in parts:
                if lam != nu and P.refines(lam, nu):
                    fo = P.flag_symmetry_orders(lam, nu)
                    assert (fo.order_sym0, fo.order_sym) == brute_flag_orders(lam, nu), (lam, nu)
                    n_flags += 1
    assert n_flags == 359


def test_flag_symmetry_orders_past_chain_limit():
    # A closed product formula with nothing to enumerate, so no k ceiling.
    fo = P.flag_symmetry_orders
    assert P.CHAIN_LIMIT < 9
    assert fo(P.singletons(9), P.one_block(9)) == P.FlagSymmetryOrders(362880, 362880)
    # (2,2) in one nu-block, five singletons in the other: 2! * 5!, no swap.
    lam = SetPartition(9, [[1, 2], [3, 4], [5], [6], [7], [8], [9]])
    assert fo(lam, SetPartition(9, [[1, 2, 3, 4], [5, 6, 7, 8, 9]])) == P.FlagSymmetryOrders(240, 240)
    halves = SetPartition(10, [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
    assert fo(P.singletons(10), halves) == P.FlagSymmetryOrders(120 * 120, 120 * 120 * 2)
    # (1,2), (1,2), (2,2): only the last nu-block has equal lam-blocks, and
    # the first two nu-blocks hold the same sizes, so they swap.
    lam = SetPartition(10, [[1], [2, 3], [4], [5, 6], [7, 8], [9, 10]])
    nu = SetPartition(10, [[1, 2, 3], [4, 5, 6], [7, 8, 9, 10]])
    assert fo(lam, nu) == P.FlagSymmetryOrders(2, 4)


def test_refines_integer_partition():
    IP = IntegerPartition
    assert P.refines_integer_partition(IP([1, 1, 2]), IP([1, 3]))
    assert P.refines_integer_partition(IP([1, 1, 2]), IP([2, 2]))
    assert not P.refines_integer_partition(IP([1, 3]), IP([2, 2]))
    assert P.refines_integer_partition(IP([2, 3]), IP([2, 3]))
    assert P.refines_integer_partition(IP([1] * 6), IP([6]))
    with pytest.raises(ValueError):
        P.refines_integer_partition(IP([1, 2]), IP([4]))


def ascending_parts(n, least=1):
    """The integer partitions of n as ascending tuples."""
    if n == 0:
        yield ()
    for first in range(least, n + 1):
        for rest in ascending_parts(n - first, first):
            yield (first, *rest)


def block_sums(values):
    """The sorted block sums of every set partition of `values`' positions:
    each value opens a new block or joins one already open."""
    if not values:
        return {()}
    out = set()
    for sums in block_sums(values[1:]):
        out.add(tuple(sorted((values[0], *sums))))
        for i in range(len(sums)):
            out.add(tuple(sorted((*sums[:i], sums[i] + values[0], *sums[i + 1:]))))
    return out


def test_type_refinement_matches_block_sums_of_set_partitions():
    # a refines b iff b's parts are the block sums of a set partition of a's
    # parts; the oracle shares no code with the library.
    pairs = 0
    for k in range(1, 11):
        types = list(ascending_parts(k))
        for a in types:
            grouped = block_sums(a)
            for b in types:
                got = P.refines_integer_partition(IntegerPartition(a), IntegerPartition(b))
                assert got == (b in grouped), (a, b)
                pairs += 1
    assert pairs == 3582


def test_type_refinement_of_deep_and_wide_types():
    """Types of thousands of parts raise no RecursionError, and random pairs
    of total 60-200 that group by construction each take milliseconds."""
    IP = IntegerPartition
    start = time.perf_counter()
    for a, b in [([1] * 3000, [1500, 1500]),
                 ([5] * 10 + [1] * 2000, [1025, 1025]),
                 ([2] * 1000 + [1] * 1000, [1000, 1000, 1000]),
                 ([2] * 1200 + [1, 1], [1201, 1201])]:
        assert P.refines_integer_partition(IP(a), IP(b))
    assert not P.refines_integer_partition(IP([3] * 7), IP([2, 19]))
    rng = random.Random(29)
    for _ in range(100):
        rest, a = rng.randint(60, 200), []
        while rest:
            a.append(rng.randint(1, min(rest, rng.choice([3, 7, 13, 25]))))
            rest -= a[-1]
        rng.shuffle(a)
        groups = [0] * rng.randint(2, max(2, len(a) // 3))
        for x in a:  # a random grouping of a, so a refines b
            groups[rng.randrange(len(groups))] += x
        b = [g for g in groups if g]
        assert P.refines_integer_partition(IP(a), IP(b)), (a, b)
    assert time.perf_counter() - start < 10


def test_type_refinement_matches_set_partition_refinement():
    # a <= b as types iff some set-partition flag realizes it
    for k in (4, 5):
        parts = P.all_partitions(k)
        types = {P.type_of(p) for p in parts}
        realized = set()
        for lam in parts:
            for nu in parts:
                if lam != nu and P.refines(lam, nu):
                    realized.add((P.type_of(lam), P.type_of(nu)))
        for a in types:
            for b in types:
                if a == b:
                    continue
                assert ((a, b) in realized) == P.refines_integer_partition(a, b)


# ---------------------------------------------------------------------------
# Trusted construction: what the enumerators build without checking equals
# what the checked public constructors build.
# ---------------------------------------------------------------------------


def _assert_canonical(p):
    assert type(p.blocks) is tuple and all(type(b) is tuple for b in p.blocks)
    assert all(list(b) == sorted(b) for b in p.blocks)
    assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)
    index = [None] * p.k
    for n, b in enumerate(p.blocks):
        for i in b:
            index[i - 1] = n
    assert type(p.index) is tuple and p.index == tuple(index)
    rebuilt = SetPartition(p.k, p.blocks)
    assert rebuilt == p and rebuilt.blocks == p.blocks and hash(rebuilt) == hash(p)
    assert rebuilt.index == p.index


@pytest.mark.parametrize("k", range(1, 9))
def test_enumerated_partitions_equal_checked_rebuild(k):
    seen = []
    for p in P.iter_partitions(k):
        assert p.k == k
        _assert_canonical(p)
        seen.append(p.to_rgs())
    assert seen == sorted(seen)


def _all_rgs(k):
    """Every restricted-growth word of length k, by brute force."""
    words = [()]
    for _ in range(k):
        words = [w + (n,) for w in words for n in range(max(w, default=-1) + 2)]
    return words


def _checked_from_word(word):
    blocks = {}
    for i, n in enumerate(word, start=1):
        blocks.setdefault(n, []).append(i)
    return SetPartition(len(word), blocks.values())


@pytest.mark.parametrize("k", range(1, 8))
def test_from_rgs_equals_checked_construction(k):
    for word in _all_rgs(k):
        want = _checked_from_word(word)
        # The digit string takes the whole-string path, the piped one is
        # read token by token.
        for text in ("".join(map(str, word)), "|".join(map(str, word))):
            got = SetPartition.from_rgs(text)
            assert got == want and got.blocks == want.blocks and got.index == word
            _assert_canonical(got)
    wide = tuple(range(12))
    assert SetPartition.from_rgs("|".join(map(str, wide))) == _checked_from_word(wide)


@pytest.mark.parametrize("text, what, message", [
    ("", None, "restricted-growth string is empty"),
    ("", "--nu", "--nu is empty"),
    ("1", None, "restricted-growth string: not a restricted-growth string: '1'"),
    ("021", None, "restricted-growth string: not a restricted-growth string: '021'"),
    ("021", "--lambda", "--lambda: not a restricted-growth string: '021'"),
    ("01|2", None, "restricted-growth string: not a restricted-growth string: '01|2'"),
    ("0|2", "--nu", "--nu: not a restricted-growth string: '0|2'"),
    ("0|1|3", None, "restricted-growth string: not a restricted-growth string: '0|1|3'"),
    ("0١", "--lambda", "--lambda must be an integer >= 0, got '١'"),
    ("٠", None, "restricted-growth string must be an integer >= 0, got '٠'"),
    ("0_", "--nu", "--nu must be an integer >= 0, got '_'"),
    ("0|1|", "--nu", "--nu must be an integer >= 0, got ''"),
    ("|", None, "restricted-growth string must be an integer >= 0, got ''"),
    ("0x", None, "restricted-growth string must be an integer >= 0, got 'x'"),
    ("-1", None, "restricted-growth string must be an integer >= 0, got '-'"),
    ("0 1", None, "restricted-growth string must be an integer >= 0, got ' '"),
    # every token is read before the growth check
    ("2x", "--chain", "--chain must be an integer >= 0, got 'x'"),
])
def test_from_rgs_error_messages(text, what, message):
    with pytest.raises(ValueError) as exc:
        SetPartition.from_rgs(text) if what is None else SetPartition.from_rgs(text, what)
    assert str(exc.value) == message


def _assert_flag_rebuilds(flag):
    for p in flag:
        _assert_canonical(p)
    rebuilt = P.ChainFlag(flag.k, [SetPartition(flag.k, p.blocks) for p in flag])
    assert rebuilt == flag and hash(rebuilt) == hash(flag)
    assert type(flag.chain) is tuple


@pytest.mark.parametrize("k", range(2, 9))
def test_atlas_flags_equal_checked_rebuild(k):
    for d in range(1, k):
        for face in F.corner_atlas(k, d):
            assert len(face.chain) == d
            _assert_flag_rebuilds(face.chain)


# shapes 4+4, 3+3+2 and 2+2+2+2, with interleaved coarse blocks
@pytest.mark.parametrize("nu", ["01011010", "01201201", "01232103"])
def test_relative_atlas_flags_equal_checked_rebuild(nu):
    coarse = SetPartition.from_rgs(nu)
    for d in range(1, 8 - coarse.rank + 1):
        faces = F.corner_atlas(8, d, nu=coarse)
        assert faces
        for face in faces:
            _assert_flag_rebuilds(face.chain)
            assert P.refines(face.chain[-1], coarse) and face.chain[-1] != coarse


def test_chainflag_error_messages():
    lam = SetPartition(3, [[1, 2], [3]])
    cases = [
        ((3, [P.one_block(3)]), "chain entries must be proper partitions"),
        ((3, [lam, lam]), "{{1,2},{3}} does not strictly refine {{1,2},{3}}"),
        ((3, [lam, SetPartition(3, [[1, 3], [2]])]),
         "{{1,2},{3}} does not strictly refine {{1,3},{2}}"),
        ((4, [lam]), "chain entry SetPartition(3, {{1,2},{3}}) is not a partition of {1..4}"),
        ((3, ["012"]), "chain entry '012' is not a partition of {1..3}"),
    ]
    for args, message in cases:
        with pytest.raises(ChainError) as exc:
            P.ChainFlag(*args)
        assert str(exc.value) == message


def test_partitions_copy_and_pickle_through_the_constructor():
    lam = SetPartition(4, [[1, 3], [2], [4]])
    values = [lam, IntegerPartition([3, 1, 2]),
              P.ChainFlag(4, [lam, SetPartition(4, [[1, 3, 4], [2]])]), P.ChainFlag(2, [])]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            with pytest.raises(AttributeError):
                y.k = 5
    # copies are the value itself, and unpickling rebuilds through the
    # checked constructor
    cls, args = lam.__reduce__()
    assert (cls, args) == (SetPartition, (4, lam.blocks))
    with pytest.raises(ValueError, match="element 4 outside 1..3"):
        cls(3, args[1])
