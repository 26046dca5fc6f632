import copy
import pickle
import random
from itertools import combinations, permutations
from math import comb

import pytest

from monopole_corners import faces as F
from monopole_corners import partitions as P
from monopole_corners.errors import ChainError, RangeLimitError
from monopole_corners.partitions import IntegerPartition, SetPartition


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


def test_flag_symmetry_orders_range_limit():
    assert P.flag_symmetry_orders(P.singletons(8), P.one_block(8)).order_sym0 == 40320
    with pytest.raises(RangeLimitError):
        P.flag_symmetry_orders(P.singletons(9), P.one_block(9))


def test_refines_integer_partition():
    IP = IntegerPartition
    assert P.refines_integer_partition(IP([1, 1, 2]), IP([1, 3]))
    assert P.refines_integer_partition(IP([1, 1, 2]), IP([2, 2]))
    assert not P.refines_integer_partition(IP([1, 3]), IP([2, 2]))
    assert P.refines_integer_partition(IP([2, 3]), IP([2, 3]))
    assert P.refines_integer_partition(IP([1] * 6), IP([6]))
    with pytest.raises(ValueError):
        P.refines_integer_partition(IP([1, 2]), IP([4]))


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
    # copies and unpickling rebuild through the checked constructor
    cls, args = lam.__reduce__()
    assert (cls, args) == (SetPartition, (4, lam.blocks))
    with pytest.raises(ValueError, match="element 4 outside 1..3"):
        cls(3, args[1])
