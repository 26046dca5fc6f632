import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from monopole_corners import faces as F
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
    for k in range(2, 8):
        for d in range(1, k):
            for desc in F.corner_atlas(k, d):
                assert desc.codim == d
                assert desc.total_dim == 4 * k - 3 - d
                assert desc.total_dim == desc.fiber_dim + sum(desc.base_dims)
                assert desc.fiber_dim == 4 * k - 3 * desc.chain[0].rank


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
    parts = P.all_partitions(k)
    pairs = set()
    from itertools import permutations as perms

    for lam in parts:
        if P.type_of(lam) != a:
            continue
        for nu in parts:
            if P.type_of(nu) != b or lam == nu or not P.refines(lam, nu):
                continue
            key = min(
                (P.apply_permutation(s, lam).to_rgs(), P.apply_permutation(s, nu).to_rgs())
                for s in perms(range(1, k + 1))
            )
            pairs.add(key)
    return len(pairs)


def test_intersection_components_match_brute_force():
    for k in (4, 5):
        types = [t for t in P.integer_partitions(k) if len(t) >= 2]
        for a, b in combinations(types, 2):
            if P.refines_integer_partition(b, a):
                a, b = b, a
            expected = brute_pair_orbit_count(k, a, b)
            assert F.intersection_components(k, a, b) == expected, (k, a, b)


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


def test_validate_ibf_detects_mutation():
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
    report = F.validate_ibf(4, hypersurfaces=broken)
    assert not report.ok
    assert len(report.violations) >= 1


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


MEMORY_PROBE = """
import sys, tracemalloc
from monopole_corners import cli, faces
tracemalloc.start()
if sys.argv[1] == "list":
    atlas = faces.corner_atlas(8, 5)
else:
    rows = (d.to_json_dict() for d in faces.iter_corner_atlas(8, 5))
    for chunk in cli._json_array(rows):
        pass
print(tracemalloc.get_traced_memory()[1])
"""


def test_streamed_atlas_peaks_at_most_half_the_list():
    """Draining the k = 8, codim-5 atlas and formatting each face as JSON
    holds one (ranks, types) group at a time, so it peaks at most half as
    high as building the list of its 1877 descriptors.  Each side runs in a
    fresh interpreter, after the imports, so neither inherits the other's
    caches."""
    src = str(Path(F.__file__).resolve().parents[1])
    peaks = {}
    for mode in ("list", "stream"):
        proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE, mode], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks[mode] = int(proc.stdout)
    assert peaks["stream"] <= peaks["list"] / 2, peaks
