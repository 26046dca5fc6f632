import functools
import os
import random
import subprocess
import sys
from itertools import combinations, combinations_with_replacement, permutations, product
from pathlib import Path

import pytest

from monopole_corners import faces as F
from monopole_corners import manybody as MB
from monopole_corners import partitions as P
from monopole_corners.errors import RangeLimitError
from monopole_corners.partitions import IntegerPartition as IP
from monopole_corners.partitions import SetPartition


def test_k2_hypersurface():
    atlas = F.hypersurface_atlas(2)
    assert len(atlas) == 1
    h = atlas[0]
    assert h.base_dims == (2,)
    assert h.fiber_dim == 2
    assert h.total_dim == 4
    assert h.integer_types == (IP([1, 1]),)


def test_k3_atlas():
    assert len(F.hypersurface_atlas(3)) == 2
    assert len(F.corner_atlas(3, 2)) == 1


def test_k4_atlas():
    assert len(F.hypersurface_atlas(4)) == 4
    assert len(F.corner_atlas(4, 2)) == 5
    assert len(F.corner_atlas(4, 3)) == 2
    assert F.corner_atlas(4, 4) == []
    assert F.corner_atlas(4, 6) == []


def test_range_errors():
    with pytest.raises(RangeLimitError):
        F.hypersurface_atlas(1)
    with pytest.raises(RangeLimitError):
        F.hypersurface_atlas(9)
    with pytest.raises(RangeLimitError):
        F.corner_atlas(4, 0)


def test_dimension_identities_all_faces():
    # Every absolute atlas with k <= 8, and the relative atlases below four
    # coarse partitions of {1..8}.
    cases = [(k, None) for k in range(2, 9)]
    nus = ("00001111", "00011122", "00112233", "01230123")
    cases += [(8, SetPartition.from_rgs(s)) for s in nus]
    for k, nu in cases:
        coarse = 1 if nu is None else nu.rank
        for d in range(1, k - coarse + 1):
            atlas = F.corner_atlas(k, d, nu)
            assert atlas
            shared = {}
            for desc in atlas:
                chain = desc.chain
                assert desc.codim == d
                assert desc.total_dim == 4 * k - 3 * coarse - d
                assert desc.total_dim == desc.fiber_dim + sum(desc.base_dims)
                assert desc.fiber_dim == 4 * k - 3 * chain[0].rank
                ranks = [p.rank for p in chain] + [coarse]
                assert desc.base_dims == tuple(3 * (r - s) - 1 for r, s in zip(ranks, ranks[1:]))
                assert desc.integer_types == tuple(P.type_of(p) for p in chain)
                # Equal types, and equal level partitions, are one shared
                # object within an atlas.
                for x in (*desc.integer_types, *chain):
                    assert shared.setdefault(x, x) is x


def test_hypersurface_dimension_identity():
    for k in range(2, 9):
        for h in F.hypersurface_atlas(k):
            r = h.chain[0].rank
            assert 4 * k - 3 * r + 3 * (r - 1) - 1 == 4 * k - 4
            assert h.total_dim == 4 * k - 4


def partition_count(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


def test_hypersurface_count_is_partition_count_minus_one():
    for k in range(2, 9):
        assert len(F.hypersurface_atlas(k)) == partition_count(k) - 1


def brute_canonical(k, chain):
    """Least tuple of RGS strings over all k! relabellings of a chain."""
    return min(
        tuple(P.apply_permutation(sigma, p).to_rgs() for p in chain)
        for sigma in permutations(range(1, k + 1))
    )


def test_corner_counts_are_relabelling_invariant():
    # the atlas is enumerated over orbit representatives: keyed by the
    # brute-force canonical form, faces lie in distinct orbits, and random
    # relabellings of a face land in an orbit of the atlas
    rng = random.Random(2)
    for k in (4, 5):
        for d in (1, 2):
            atlas = F.corner_atlas(k, d)
            keys = {brute_canonical(k, c.chain) for c in atlas}
            assert len(keys) == len(atlas)
            for desc in atlas:
                sigma = list(range(1, k + 1))
                rng.shuffle(sigma)
                moved = [P.apply_permutation(sigma, p) for p in desc.chain]
                assert brute_canonical(k, moved) in keys


@pytest.mark.parametrize("k", range(2, 9))
def test_chain_orbits_come_in_atlas_order(k):
    for d in range(1, k):
        flags = P.chains_mod_symmetric_group(k, d)
        assert flags == [f.chain for f in F.corner_atlas(k, d)]
        keys = [
            (
                [-p.rank for p in f],
                [P.type_of(p).parts for p in f],
                [p.to_rgs() for p in f],
            )
            for f in flags
        ]
        assert keys == sorted(keys)


def test_intersection_components_examples():
    assert F.intersection_components(4, IP([1, 3]), IP([2, 2])) == 0
    assert F.intersection_components(4, IP([1, 1, 2]), IP([1, 3])) == 1
    assert F.intersection_components(5, IP([1, 1, 1, 2]), IP([2, 3])) >= 2
    # symmetric in the two labels
    assert F.intersection_components(5, IP([2, 3]), IP([1, 1, 1, 2])) == \
        F.intersection_components(5, IP([1, 1, 1, 2]), IP([2, 3]))


def brute_pair_orbit_count(k, a, b):
    """Relabelling orbits of pairs lam < nu of types a and b.  Every such
    pair is a relabelling of one with nu fixed, and two of those are
    relabellings of each other exactly when a permutation fixing nu takes
    one lam to the other."""
    parts = P.all_partitions(k)
    nu = next(p for p in parts if P.type_of(p) == b)
    fixing = [s for s in permutations(range(1, k + 1)) if P.apply_permutation(s, nu) == nu]
    orbits = set()
    for lam in parts:
        if P.type_of(lam) == a and lam != nu and P.refines(lam, nu):
            orbits.add(min(P.apply_permutation(s, lam).to_rgs() for s in fixing))
    return len(orbits)


def test_intersection_components_match_brute_force():
    for k in (4, 5, 6):
        types = [t for t in P.integer_partitions(k) if len(t) >= 2]
        for a, b in combinations(types, 2):
            if P.refines_integer_partition(b, a):
                a, b = b, a
            expected = brute_pair_orbit_count(k, a, b)
            assert F.intersection_components(k, a, b) == expected, (k, a, b)


def product_intersection_count(k, a, b):
    """intersection_components by assigning to each part of the coarser
    type a multiset of integer partitions, one per part of equal value, and
    counting the assignments whose parts sort to the finer type."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    by_value = {}
    for v in b:
        by_value[v] = by_value.get(v, 0) + 1
    choices = [
        list(combinations_with_replacement([p.parts for p in P.integer_partitions(v)], mult))
        for v, mult in sorted(by_value.items())
    ]
    count = 0
    for combo in product(*choices):
        merged = [x for group in combo for p in group for x in p]
        count += tuple(sorted(merged)) == a.parts
    return count


def test_intersection_components_match_product_enumerator():
    pairs = 0
    for k in range(2, 9):
        types = [t for t in P.integer_partitions(k) if len(t) >= 2]
        for a, b in product(types, repeat=2):
            assert F.intersection_components(k, a, b) == product_intersection_count(k, a, b)
            pairs += 1
    assert pairs == 794


def test_intersection_components_frozen_k5_value():
    # frozen regression value, fixed by the brute-force chain-orbit oracle
    assert F.intersection_components(5, IP([1, 1, 1, 2]), IP([2, 3])) == 2


def test_intersection_positive_iff_comparable():
    for k in (4, 5, 6):
        types = [t for t in P.integer_partitions(k) if len(t) >= 2]
        for a, b in combinations(types, 2):
            comparable = P.refines_integer_partition(a, b) or P.refines_integer_partition(b, a)
            assert (F.intersection_components(k, a, b) > 0) == comparable


def test_intersection_component_sum_is_codim2_count():
    for k in range(2, 8):
        types = [t for t in P.integer_partitions(k) if len(t) >= 2]
        total = sum(
            F.intersection_components(k, a, b) for a, b in combinations(types, 2)
        )
        assert total == len(F.corner_atlas(k, 2))


def test_intersection_components_argument_errors():
    with pytest.raises(ValueError):
        F.intersection_components(4, IP([4]), IP([2, 2]))
    with pytest.raises(ValueError):
        F.intersection_components(4, IP([1, 2]), IP([2, 2]))


def test_validate_ibf_clean():
    for k in range(2, 8):
        report = F.validate_ibf(k)
        assert report.ok, report.violations
        # edges ordered fine-to-coarse with strictly increasing fiber dims
        for a, b in report.edges:
            assert P.refines_integer_partition(a, b)
            assert report.hypersurface_dims[a][1] < report.hypersurface_dims[b][1]
            assert report.hypersurface_dims[a][0] > report.hypersurface_dims[b][0]


def test_validate_ibf_tests_each_type_pair_once(monkeypatch):
    kernel, calls = P.refines_integer_partition, []
    monkeypatch.setattr(F, "refines_integer_partition",
                        lambda a, b: calls.append((a, b)) or kernel(a, b))
    F.validate_ibf(8)
    # Only pairs of types with different part counts are tested, finer first.
    assert len(calls) == 180 and len(set(calls)) == 180
    assert all(len(a) > len(b) for a, b in calls)


def test_validate_ibf_detects_mutation(monkeypatch):
    atlas = F.hypersurface_atlas(4)
    broken = list(atlas)
    h = broken[1]
    mutated = F.FaceDescriptor(
        k=h.k,
        chain=h.chain,
        nu=h.nu,
        codim=h.codim,
        total_dim=h.total_dim,
        fiber_dim=h.fiber_dim,
        base_dims=(h.base_dims[0] + 3,),
        integer_types=h.integer_types,
    )
    broken[1] = mutated
    monkeypatch.setattr(F, "hypersurface_atlas", lambda k: broken)
    report = F.validate_ibf(4)
    assert not report.ok
    assert len(report.violations) >= 1


def test_validate_ibf_matches_corners_to_their_pair(monkeypatch):
    k = 6
    full = F.validate_ibf(k)
    assert full.ok
    corners = F.corner_atlas(k, 2)
    counts = {}
    for c in corners:
        counts[c.integer_types] = counts.get(c.integer_types, 0) + 1
    missing = full.edges[len(full.edges) // 2]
    shifted = next(e for e in full.edges if counts[e] >= 2 and e != missing)
    broken = []
    for c in corners:
        if c.integer_types == missing:
            continue
        if c.integer_types == shifted:
            c = F.FaceDescriptor(c.k, c.chain, c.nu, c.codim, c.total_dim, c.fiber_dim + 1,
                                 c.base_dims, c.integer_types)
        broken.append(c)
    # hypersurface_atlas is corner_atlas at codim 1, so only codim 2 is planted.
    atlas = F.corner_atlas
    monkeypatch.setattr(F, "corner_atlas", lambda k, d, nu=None: broken if d == 2 else atlas(k, d, nu))
    report = F.validate_ibf(k)
    assert report.edges == full.edges
    fiber = full.hypersurface_dims[shifted[0]][1]
    expected = []
    for a, b in full.edges:
        if (a, b) == missing:
            expected.append(f"no codim-2 corner for comparable pair {a} < {b}")
        elif (a, b) == shifted:
            expected += [f"corner {a}<{b}: fiber dim {fiber + 1} != {fiber}",
                         f"corner {a}<{b}: factor dims do not sum to total"] * counts[shifted]
    assert report.violations == tuple(expected)


RELATIVE_SHAPES = ("0011", "0012", "00012", "000111", "001122", "0001122", "00001111",
                   "00011122")


def test_manybody_lattice_gives_the_atlas_dimensions():
    """The diagonal lattice of E^k/E, E = R^3, factors each chain's corner
    with its own merge code: its B factors are the atlas's base dims and its
    M factor, absent when the finest level is the singletons, plus k is the
    fibre.  A relative chain ends at nu, whose B factor is 3(rank(nu) - 1) - 1."""
    shapes = {}
    for nu in RELATIVE_SHAPES:
        shapes.setdefault(len(nu), []).append(SetPartition.from_rgs(nu))
    counted = [0, 0]
    for k in range(2, 9):
        ws = MB.diagonal_structure(k, 3)
        for nu in [None, *shapes.get(k, ())]:
            for d in range(1, k):
                for face in F.corner_atlas(k, d, nu):
                    chain = [p.to_rgs() for p in face.chain]
                    if nu is not None:
                        chain.append(nu.to_rgs())
                    m = MB.face_of_chain(ws, chain)
                    fiber = sum(f.dim for f in m.factors if f.kind == "M") + k
                    bases = tuple(f.dim for f in m.factors if f.kind == "B")
                    if nu is not None:
                        assert bases[-1] == 3 * (nu.rank - 1) - 1, chain
                        bases = bases[:-1]
                    assert (bases, fiber) == (face.base_dims, face.fiber_dim), chain
                    counted[nu is not None] += 1
    assert counted == [6987, 1982]


def test_cover_schedule_k3():
    sched = F.cover_schedule(3)
    assert [t.parts for t, _ in sched] == [(1, 1, 1), (1, 2)]
    assert [d for _, d in sched] == [0, 1]


def test_cover_schedule_k2():
    assert len(F.cover_schedule(2)) == 1


def test_cover_schedule_k4():
    sched = F.cover_schedule(4)
    assert sched[0] == (IP([1, 1, 1, 1]), 0)
    assert sched[1] == (IP([1, 1, 2]), 1)
    assert {t for t, d in sched if d == 2} == {IP([1, 3]), IP([2, 2])}


def longest_chain_below(types):
    """Each type's depth: the most steps in a chain of strict refinements
    among `types` that ends at it."""
    depth = {}

    def depth_of(t):
        if t not in depth:
            below = [s for s in types if s != t and P.refines_integer_partition(s, t)]
            depth[t] = 1 + max((depth_of(s) for s in below), default=-1)
        return depth[t]

    return {t: depth_of(t) for t in types}


@pytest.mark.parametrize("k", range(2, 9))
def test_cover_schedule_depths_are_longest_chains(k):
    sched = F.cover_schedule(k)
    assert dict(sched) == longest_chain_below([t for t, _ in sched])
    assert sorted(t.parts for t, _ in sched) == [
        t.parts for t in P.integer_partitions(k) if len(t) >= 2]


def test_cover_schedule_stages_are_antichains():
    for k in range(2, 9):
        sched = F.cover_schedule(k)
        assert [d for _, d in sched] == sorted(d for _, d in sched)
        by_depth = {}
        for t, d in sched:
            by_depth.setdefault(d, []).append(t)
        for group in by_depth.values():
            for a, b in combinations(group, 2):
                assert not P.refines_integer_partition(a, b)
                assert not P.refines_integer_partition(b, a)


def test_relative_atlas_counts_and_dims():
    nu = SetPartition(4, [[1, 2], [3, 4]])
    rel = F.hypersurface_atlas(4, nu=nu)
    # independent count: per-block types multiply, minus the trivial one
    assert len(rel) == 2 * 2 - 1
    for desc in rel:
        assert desc.total_dim == 4 * 4 - 3 * nu.rank - 1
        assert desc.total_dim == desc.fiber_dim + sum(desc.base_dims)
        assert P.refines(desc.chain[0], nu)
        assert desc.chain[0] != nu

    nu5 = SetPartition(5, [[1, 2, 3], [4, 5]])
    rel5 = F.hypersurface_atlas(5, nu=nu5)
    assert len(rel5) == 3 * 2 - 1
    for d in (1, 2, 3):
        for desc in F.corner_atlas(5, d, nu=nu5):
            assert desc.total_dim == 4 * 5 - 3 * nu5.rank - d


def test_relative_atlas_reduces_to_absolute():
    for k in (3, 4, 5):
        nu = P.one_block(k)
        assert len(F.hypersurface_atlas(k, nu=nu)) == len(F.hypersurface_atlas(k))
        assert len(F.corner_atlas(k, 2, nu=nu)) == len(F.corner_atlas(k, 2))


def brute_relative_orbits(k, d, nu):
    """Relabelling orbits (under the stabilizer of each nu-block) of strict
    chains below nu, by explicit enumeration."""
    from itertools import permutations as perms

    parts = [p for p in P.all_partitions(k) if p != nu and P.refines(p, nu)]
    chains = []

    def rec(acc):
        if len(acc) == d:
            chains.append(tuple(acc))
            return
        last = acc[-1] if acc else None
        for p in parts:
            if last is None or (last != p and P.refines(last, p)):
                acc.append(p)
                rec(acc)
                acc.pop()

    rec([])
    stab = [
        s
        for s in perms(range(1, k + 1))
        if all(nu.block_index(s[i - 1]) == nu.block_index(i) for i in range(1, k + 1))
    ]
    return {
        min(
            tuple(P.apply_permutation(s, p).to_rgs() for p in ch)
            for s in stab
        )
        for ch in chains
    }


def test_relative_orbits_match_brute_force():
    for k, blocks in ((4, [[1, 2], [3, 4]]), (5, [[1, 2, 3], [4, 5]]), (5, [[1, 2, 3, 4], [5]])):
        nu = SetPartition(k, blocks)
        for d in range(1, k - nu.rank + 1):
            got = len(F.corner_atlas(k, d, nu=nu))
            expected = len(brute_relative_orbits(k, d, nu))
            assert got == expected, (k, blocks, d, got, expected)


@pytest.mark.parametrize("rgs", ["000111", "001122", "00001111"])
def test_relative_atlas_beyond_the_longest_chain_is_empty(rgs):
    nu = SetPartition.from_rgs(rgs)
    for d in [*range(nu.k - nu.rank + 1, nu.k + 3), 10**15]:
        assert list(F.iter_corner_atlas(nu.k, d, nu)) == []


def test_descriptor_json_shape():
    desc = F.corner_atlas(4, 2)[0]
    d = desc.to_json_dict()
    assert set(d) == {"chain", "codim", "total_dim", "fiber_dim", "base_dims", "types"}
    assert all(isinstance(s, str) for s in d["chain"])
    nu = SetPartition(4, [[1, 2], [3, 4]])
    rel = F.hypersurface_atlas(4, nu=nu)[0].to_json_dict()
    assert rel["nu"] == nu.to_rgs()


@pytest.mark.parametrize("k", range(2, 9))
def test_iter_corner_atlas_yields_the_atlas(k):
    shapes = [None] + [SetPartition.from_rgs(s) for s in ("01010101", "01201201", "01230123")
                       if len(s) == k]
    for nu in shapes:
        for d in range(1, k + 1):
            assert list(F.iter_corner_atlas(k, d, nu)) == F.corner_atlas(k, d, nu)


@pytest.mark.parametrize(
    "args,error",
    [
        ((1, 1), RangeLimitError),
        ((9, 1), RangeLimitError),
        ((4, 0), RangeLimitError),
        ((4, 1, SetPartition(3, [[1, 2], [3]])), ValueError),
    ],
)
def test_iter_corner_atlas_checks_its_arguments_when_called(args, error):
    with pytest.raises(error):
        F.iter_corner_atlas(*args)


def _probe(source, *args):
    """What `source` prints, as ints, run with `args` in a fresh interpreter
    that imports the package from this source tree."""
    src = str(Path(F.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", source, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [int(word) for word in proc.stdout.split()]


MEMORY_PROBE = """
import sys, tracemalloc
from monopole_corners import cli, faces
tracemalloc.start()
if sys.argv[1] == "list":
    atlas = faces.corner_atlas(8, 5)
else:
    for chunk in cli._json_faces(faces.iter_corner_atlas(8, 5)):
        pass
print(tracemalloc.get_traced_memory()[1])
"""


@functools.cache
def _atlas_peak(mode):
    """MEMORY_PROBE's traced peak in one mode, measured once in a fresh
    interpreter for the tests that bound it."""
    (peak,) = _probe(MEMORY_PROBE, mode)
    return peak


def test_streamed_and_listed_atlas_peak_memory():
    """Draining the k = 8, codim-5 atlas and formatting each face as JSON
    holds one packed int per face until its group is yielded, and one
    group's faces at a time, with each level's JSON string kept once per
    atlas: about 0.75 MB (0.69 MB when each face was formatted whole,
    1.06 MB when the chains were held as tuples grouped by types).  Its
    1877 descriptors share their level partitions, so even the whole list
    takes about 1.15 MB, where a fresh partition per level took 5.26 MB.
    Each side runs in a fresh interpreter, after the imports, so neither
    inherits the other's caches."""
    listed, streamed = _atlas_peak("list"), _atlas_peak("stream")
    assert streamed < 1_200_000 and listed < 2_000_000, (listed, streamed)


def test_packed_streamed_atlas_peak_memory():
    """The packed keys' own figure for the streamed k = 8, codim-5 JSON."""
    assert _atlas_peak("stream") < 900_000


LEAK_PROBE = """
import gc, tracemalloc
from monopole_corners import faces
for face in faces.iter_corner_atlas(8, 5):
    pass
del face
gc.collect()
gc.disable()
tracemalloc.start()
for face in faces.iter_corner_atlas(8, 5):
    pass
del face
cyclic = gc.collect()  # also empties the free lists before the reading
print(tracemalloc.get_traced_memory()[0])
atlas = faces.iter_corner_atlas(8, 5)
next(atlas)
atlas.close()
cyclic += gc.collect()
print(tracemalloc.get_traced_memory()[0])
print(cyclic)
"""


def test_atlas_state_dies_with_its_generator():
    """The per-atlas level partitions, packed keys and tower memo are freed
    when the generator is drained or closed, with no reference cycle left
    for the collector.  After a warm-up drain, and with the collector run
    before each reading so that CPython's free lists are empty, a second
    drain leaves 0 B traced, and a generator closed after its first face
    432 B; paused there it holds about 160 KB.  A self-calling closure that
    keeps the tower memo alive leaves about 9,000 objects in cycles
    (without the collector, 328 KB and 642 KB traced)."""
    drained, closed, cyclic = _probe(LEAK_PROBE)
    assert drained < 256_000 and closed < 256_000, (drained, closed)
    assert cyclic == 0, cyclic


STATELESS_PROBE = """
import gc, random, sys, tracemalloc
from monopole_corners import clusters, faces, gibbons_manton, manybody, partitions, ratmaps
from monopole_corners.partitions import IntegerPartition

def parts(rng, total):
    out = []
    while total:
        out.append(rng.randint(1, min(total, rng.choice((2, 4, 8, 16)))))
        total -= out[-1]
    return out

def pair(rng):
    a = parts(rng, 40)
    if rng.random() < 0.5:
        return a, parts(rng, 40)
    rng.shuffle(a)  # b groups runs of a, so a refines b
    cuts = sorted(rng.sample(range(1, len(a)), min(len(a) - 1, rng.randint(1, 6))))
    return a, [sum(a[i:j]) for i, j in zip([0] + cuts, cuts + [len(a)])]

faces.corner_atlas(8, 5)
faces.validate_ibf(8)
faces.cover_schedule(8)
types = [t for t in partitions.integer_partitions(8) if len(t) >= 2]
type_pairs = [(a, b) for a in types for b in types]

def intersections():
    for a, b in type_pairs:
        faces.intersection_components(8, a, b)

intersections()
rng = random.Random(40)
pairs = {}
while len(pairs) < 6000:
    a, b = map(IntegerPartition, pair(rng))
    pairs.setdefault((a, b), None)
pairs = list(pairs)

def batch(pairs):
    for a, b in pairs:
        partitions.refines_integer_partition(a, b)
    intersections()
    gc.collect()

batch(pairs[:2000])
cached = [f"{name}.{attr}" for name, module in list(sys.modules.items())
          if name.startswith("monopole_corners") for attr, value in vars(module).items()
          if hasattr(value, "cache_info")]
print(len(cached))
tracemalloc.start()
batch(pairs[2000:4000])
print(tracemalloc.get_traced_memory()[0])
gc.disable()
for a, b in pairs[4000:]:
    partitions.refines_integer_partition(a, b)
intersections()
print(gc.collect())  # what reference cycles held until now
"""


def test_library_keeps_nothing_between_calls():
    """No module holds an lru_cache, and after a warm-up of the atlas,
    validate-ibf, cover-schedule, intersection_components on every pair of
    proper types of 8 and 2,000 integer-type refinement tests of total 40,
    2,000 new refinement tests and the same intersections leave nothing
    traced behind, and 2,000 more tests and the intersections again, with
    the cycle collector off, leave it no garbage to collect: each call's
    memo, the refinement memo or the tower's leaf memo, is freed when it
    returns.  A process-wide cache of the refinement answers grew by about
    6.4 MB per batch."""
    cached, grown, cyclic = _probe(STATELESS_PROBE)
    assert cached == 0
    assert grown < 64_000, grown
    assert cyclic == 0, cyclic
