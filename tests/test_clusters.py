import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from monopole_corners import clusters as C
from monopole_corners.errors import DegenerateInputError
from monopole_corners.partitions import ChainFlag, IntegerPartition as IP, SetPartition, find_root


def dist2(p, q):
    """Squared Euclidean distance, exact on Fraction coordinates."""
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def test_separation_two_points():
    assert C.separation(C.Configuration([(0, 0, 0), (2, 0, 0)])) == 0.5


def test_separation_equilateral_triangle():
    tri = C.Configuration([(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0)])
    assert C.separation(tri) == pytest.approx(3.0, rel=1e-12)


def test_separation_scaling_homogeneity():
    rng = random.Random(1)
    pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(5)]
    base = C.separation(C.Configuration(pts))
    for t in (0.5, 2.0, 10.0):
        scaled = C.separation(C.Configuration([(t * x, t * y, t * z) for x, y, z in pts]))
        assert scaled == pytest.approx(base / t, rel=1e-12)


def test_separation_coincident_points():
    with pytest.raises(DegenerateInputError):
        C.separation(C.Configuration([(1, 2, 3), (1, 2, 3)]))


def test_configuration_validation():
    with pytest.raises(ValueError):
        C.Configuration([])
    with pytest.raises(ValueError):
        C.Configuration([(0, 0)])
    with pytest.raises(ValueError):
        C.Configuration([(0, 0, math.inf)])
    with pytest.raises(ValueError):
        C.Configuration([(0, 0, 0)], charges=[1, 2])
    with pytest.raises(ValueError):
        C.Configuration([(0, 0, 0)], charges=[0])


def test_strong_field_input_validation():
    with pytest.raises(ValueError):
        C.StrongFieldInput([])
    with pytest.raises(ValueError):
        C.StrongFieldInput([{"center": [0, 0, 0], "diameter": -1, "charge": 1}])
    with pytest.raises(ValueError):
        C.StrongFieldInput([{"center": [0, 0, 0], "diameter": 1, "charge": 0}])
    with pytest.raises(ValueError):
        C.StrongFieldInput([{"center": [0, 0, 0], "diameter": 1, "charge": 1}], r_prime=0)


def test_single_component_halts_immediately():
    inp = C.StrongFieldInput(
        [{"center": [0, 0, 0], "diameter": 1.0, "charge": 5}], r_prime=1.0
    )
    dec = C.taubes_cluster(inp)
    assert dec.rounds == 0
    assert dec.cluster_type == IP([5])
    # d0 = max{1, 15} = 15, R0 = d0 + R' + 1, gamma0 = 3 R0 - d0/2
    assert dec.exact.d == 15
    assert dec.exact.radius == Fraction(17)
    assert dec.exact.gamma == Fraction(87, 2)


def test_two_far_components_stay_separate():
    # gamma0 = 43.5, so centres at distance 100 never merge
    inp = C.StrongFieldInput(
        [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [100, 0, 0], "diameter": 1.0, "charge": 2},
        ],
        r_prime=1.0,
    )
    dec = C.taubes_cluster(inp)
    assert dec.rounds == 0
    assert dec.cluster_type == IP([1, 2])
    assert dec.omega == SetPartition(2, [[1], [2]])
    assert dec.epsilon == pytest.approx(0.01, rel=1e-12)


def test_two_near_components_merge_once():
    inp = C.StrongFieldInput(
        [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [40, 0, 0], "diameter": 1.0, "charge": 2},
        ],
        r_prime=1.0,
    )
    dec = C.taubes_cluster(inp)
    assert dec.rounds == 1
    assert dec.cluster_type == IP([3])
    assert dec.omega == SetPartition(2, [[1, 2]])
    # one iteration of the growth formulas from (d0, R0, gamma0) = (15, 17, 43.5)
    assert dec.exact.d == Fraction(155, 2)  # gamma0 + 2 R0
    assert dec.exact.radius == Fraction(157, 2)
    assert dec.exact.gamma == 3 * Fraction(157, 2) - Fraction(155, 4)
    assert dec.centers == ((20.0, 0.0, 0.0),)


def test_tie_distance_counts_as_edge():
    # centres exactly gamma0 apart must merge
    inp = C.StrongFieldInput(
        [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [43.5, 0, 0], "diameter": 1.0, "charge": 1},
        ],
        r_prime=1.0,
    )
    assert C.taubes_cluster(inp).rounds == 1


def merge_oracle(inp):
    """(gamma, centres, merged groups) per round of the threshold merge,
    recomputed with an all-pairs scan in Fraction arithmetic."""
    centres = [tuple(Fraction(x) for x in c.center) for c in inp.components]
    d = max(max(Fraction(c.diameter) for c in inp.components), Fraction(15))
    radius = d + Fraction(inp.r_prime) + 1
    gamma = 3 * radius - d / 2
    rounds = []
    while True:
        label = list(range(len(centres)))
        for i, j in combinations(range(len(centres)), 2):
            if dist2(centres[i], centres[j]) <= gamma * gamma and label[i] != label[j]:
                old = label[j]
                label = [label[i] if x == old else x for x in label]
        groups = sorted(
            {tuple(i for i in range(len(centres)) if label[i] == x) for x in label}
        )
        if len(groups) == len(centres):
            rounds.append((gamma, tuple(centres), None))
            return rounds
        rounds.append((gamma, tuple(centres), tuple(groups)))
        d = (max(len(g) for g in groups) - 1) * gamma + 2 * radius
        radius = d + 1
        gamma = 3 * radius - d / 2
        centres = [tuple(sum(centres[i][c] for i in g) / len(g) for c in range(3)) for g in groups]


def history(dec):
    return [(r.gamma, r.centers, r.merged_groups) for r in dec.history]


def lattice_input(rng, pitch, n, offsets=((0, 0, 0),)):
    """Components at up to n lattice points of the given pitch around the
    origin, each shifted by a random nonempty subset of the offsets;
    diameter 15 and R' = 1 make the first threshold exactly 43.5."""
    sites = sorted({tuple(pitch * rng.randint(-4, 3) for _ in range(3)) for _ in range(n)})
    points = {
        tuple(a + b for a, b in zip(site, offset))
        for site in sites
        for offset in rng.sample(offsets, rng.randint(1, len(offsets)))
    }
    comps = [{"center": list(p), "diameter": 15.0, "charge": 1} for p in sorted(points)]
    rng.shuffle(comps)
    return C.StrongFieldInput(comps, r_prime=1.0)


def test_threshold_merge_ties_on_cell_boundaries():
    # Points 43.5 = gamma apart on a lattice lie on the boundaries of the
    # grid cells (side gamma), many at negative coordinates; the offsets
    # add ties across a cell corner: (18, 24, 31.5) has length exactly 43.5,
    # and -0.25 vs 43.25 straddles the cell boundary at 0.
    rng = random.Random(71)
    tie = (18.0, 24.0, 31.5)
    assert dist2(tie, (0, 0, 0)) == Fraction(87, 2) ** 2
    cases = [
        lattice_input(rng, 43.5, rng.randint(2, 60)) for _ in range(15)
    ] + [
        lattice_input(rng, 87.0, rng.randint(2, 25), ((0, 0, 0), tie, (-18.0, -24.0, -31.5)))
        for _ in range(15)
    ] + [
        lattice_input(rng, 87.0, rng.randint(2, 25), ((0, 0, 0), (-0.25, 0, 0), (43.25, 0, 0)))
        for _ in range(15)
    ]
    merged = 0
    for inp in cases:
        dec = C.taubes_cluster(inp)
        assert history(dec) == merge_oracle(inp)
        merged += dec.rounds > 0
    assert merged >= 40
    # just beyond gamma is not an edge; exactly gamma is
    for x, rounds in ((43.5, 1), (43.5 + 2.0**-40, 0), (-43.5, 1)):
        far = C.StrongFieldInput(
            [{"center": [0.0, 0.0, 0.0], "diameter": 15.0, "charge": 1},
             {"center": [x, 0.0, 0.0], "diameter": 15.0, "charge": 1}],
            r_prime=1.0,
        )
        assert C.taubes_cluster(far).rounds == rounds


def test_threshold_merge_matches_all_pairs_oracle_on_random_inputs():
    rng = random.Random(72)
    for _ in range(150):
        inp = random_input(rng)
        assert history(C.taubes_cluster(inp)) == merge_oracle(inp)


def planted_clusters(rng, n_top):
    """Clusters of clusters with fan-out 4 at every level: cubes of side 24
    hold 4 components each and join at gamma = 43.5; 4 cubes 200 apart
    join at gamma = 414.25; 4 such groups 2000 apart join at 3937.375;
    groups of those 10^5 apart stay apart at 37407.0625.  Labels are
    shuffled; the expected omega groups the labels of each top group."""
    comps, tops = [], []
    for t in range(n_top):
        top = []
        for g, c in product(range(4), repeat=2):
            anchor = (100000.0 * t, 200.0 * c + rng.randint(-64, 64) / 8,
                      2000.0 * g + rng.randint(-400, 400) / 8)
            for _ in range(4):
                centre = [a + rng.randint(0, 24 * 16) / 16 for a in anchor]
                top.append(len(comps))
                comps.append({"center": centre, "diameter": rng.randint(0, 240) / 16, "charge": 1})
        tops.append(top)
    order = list(range(len(comps)))
    rng.shuffle(order)
    label = {old: new for new, old in enumerate(order, start=1)}
    shuffled = [comps[old] for old in order]
    omega = SetPartition(len(comps), [[label[i] for i in top] for top in tops])
    return C.StrongFieldInput(shuffled, r_prime=1.0), omega


@pytest.mark.parametrize("n_top", [1, 2, 5, 156])
def test_planted_clusters_of_clusters(n_top):
    rng = random.Random(n_top)
    inp, omega = planted_clusters(rng, n_top)
    n = len(inp.components)
    assert n == 64 * n_top <= 10**4
    dec = C.taubes_cluster(inp)
    assert dec.omega == omega
    assert dec.rounds == 3
    assert [r.n_clusters for r in dec.history] == [n, n // 4, n // 16, n // 64]
    assert [r.gamma for r in dec.history] == [
        Fraction(87, 2), Fraction(1657, 4), Fraction(31499, 8), Fraction(598513, 16)
    ]
    assert dec.cluster_type == IP([64] * n_top)
    if n <= 128:
        assert history(dec) == merge_oracle(inp)


def random_input(rng):
    n = rng.randint(1, 10)
    comps = [
        {
            "center": [rng.uniform(-800, 800) for _ in range(3)],
            "diameter": rng.uniform(0, 25),
            "charge": rng.randint(1, 5),
        }
        for _ in range(n)
    ]
    return C.StrongFieldInput(comps, r_prime=rng.uniform(0.5, 5.0))


def test_randomized_invariants():
    rng = random.Random(42)
    for _ in range(400):
        inp = random_input(rng)
        n = len(inp.components)
        dec = C.taubes_cluster(inp)
        fin = dec.exact

        # termination within n-1 merge rounds
        assert dec.rounds <= max(n - 1, 0)

        # cluster charges account for the whole input
        assert sum(dec.cluster_charges) == sum(c.charge for c in inp.components)
        assert dec.cluster_type == IP(dec.cluster_charges)

        # final centres pairwise beyond gamma (exact, squared distances)
        g2 = fin.gamma * fin.gamma
        for p, q in combinations(fin.centers, 2):
            assert dist2(p, q) > g2

        # ball disjointness margin gamma - 2R = R - d/2 >= d/2 + 1 > 0
        assert fin.gamma - 2 * fin.radius == fin.radius - fin.d / 2
        assert fin.radius - fin.d / 2 >= fin.d / 2 + 1

        # monotone thresholds and exact nesting of successive balls
        for r0, r1 in zip(dec.history, dec.history[1:]):
            assert r1.gamma >= r0.gamma
            assert r1.radius >= r0.radius
            gap = r1.radius - r0.radius
            for gi, group in enumerate(r0.merged_groups):
                centre = r1.centers[gi]
                for member in group:
                    assert dist2(r0.centers[member], centre) <= gap * gap

        # separation bound from the proof: eps < n_final^2 / gamma
        m = len(fin.centers)
        if m > 1:
            assert dec.epsilon < (m * m) / float(fin.gamma) * (1 + 1e-9)


def test_float_views_match_exact_values():
    rng = random.Random(8)
    for _ in range(50):
        dec = C.taubes_cluster(random_input(rng))
        assert dec.radius == pytest.approx(float(dec.exact.radius), rel=1e-9)
        assert dec.gamma == pytest.approx(float(dec.exact.gamma), rel=1e-9)
        assert dec.diameter == pytest.approx(float(dec.exact.d), rel=1e-9)


def test_centers_align_with_omega_blocks():
    # components 1 and 3 merge; the final centre list must follow the
    # canonical block order of omega
    inp = C.StrongFieldInput(
        [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [100000, 0, 0], "diameter": 1.0, "charge": 2},
            {"center": [30, 0, 0], "diameter": 1.0, "charge": 4},
        ],
        r_prime=1.0,
    )
    dec = C.taubes_cluster(inp)
    assert dec.omega == SetPartition(3, [[1, 3], [2]])
    assert dec.cluster_charges == (5, 2)
    assert dec.centers[0] == (15.0, 0.0, 0.0)
    assert dec.centers[1] == (100000.0, 0.0, 0.0)


def test_is_decomposable():
    inp = C.StrongFieldInput(
        [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [100, 0, 0], "diameter": 1.0, "charge": 2},
        ],
        r_prime=1.0,
    )
    dec = C.taubes_cluster(inp)
    assert C.is_decomposable(dec, IP([1, 2]), radius=100.0, eps=1.0)
    assert not C.is_decomposable(dec, IP([3]), radius=100.0, eps=1.0)
    assert not C.is_decomposable(dec, IP([1, 2]), radius=100.0, eps=0.005)
    assert not C.is_decomposable(dec, IP([1, 2]), radius=10.0, eps=1.0)


def test_types_comparable():
    assert C.types_comparable(IP([1, 1, 2]), IP([1, 3]))
    assert not C.types_comparable(IP([1, 3]), IP([2, 2]))
    assert C.types_comparable(IP([2, 3]), IP([2, 3]))
    with pytest.raises(ValueError):
        C.types_comparable(IP([1, 2]), IP([2, 2]))


def test_two_runs_at_different_seeds_give_comparable_types():
    rng = random.Random(99)
    for _ in range(200):
        inp = random_input(rng)
        small = C.taubes_cluster(inp)
        big = C.taubes_cluster(
            C.StrongFieldInput(inp.components, r_prime=inp.r_prime + rng.uniform(10, 60))
        )
        assert big.radius >= small.radius
        assert C.types_comparable(small.cluster_type, big.cluster_type), (
            small.cluster_type,
            big.cluster_type,
        )


def test_convergence_dichotomy_family():
    # bounded type, growing inter-cluster distance: separation must vanish
    last = math.inf
    for s in (1e3, 1e5, 1e7, 1e9):
        inp = C.StrongFieldInput(
            [
                {"center": [0, 0, 0], "diameter": 1.0, "charge": 2},
                {"center": [s, 0, 0], "diameter": 1.0, "charge": 3},
            ],
            r_prime=1.0,
        )
        dec = C.taubes_cluster(inp)
        assert dec.cluster_type == IP([2, 3])
        assert dec.epsilon < last
        last = dec.epsilon
    assert last < 1e-8


def test_scale_chain_two_scales():
    cfg = C.Configuration([(0, 0, 0), (2, 0, 0), (100, 0, 0)])
    flag = C.scale_chain(cfg, base_scale=10, ratio_threshold=4)
    assert [p.to_rgs() for p in flag] == ["001"]


def test_scale_chain_free_boundary():
    s = 1000.0
    cfg = C.Configuration([(0, 0, 0), (s, 0, 0), (s / 2, s * math.sqrt(3) / 2, 0)])
    flag = C.scale_chain(cfg, base_scale=10, ratio_threshold=4)
    assert [p.to_rgs() for p in flag] == ["012"]


def test_scale_chain_interior():
    cfg = C.Configuration([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    assert len(C.scale_chain(cfg, base_scale=10, ratio_threshold=4)) == 0


def test_scale_chain_three_levels():
    cfg = C.Configuration([(0, 0, 0), (2, 0, 0), (500, 0, 0), (100000, 0, 0)])
    flag = C.scale_chain(cfg, base_scale=10, ratio_threshold=4)
    assert [p.to_rgs() for p in flag] == ["0012", "0001"]


def test_scale_chain_parameter_validation():
    cfg = C.Configuration([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        C.scale_chain(cfg, base_scale=0, ratio_threshold=4)
    with pytest.raises(ValueError):
        C.scale_chain(cfg, base_scale=1, ratio_threshold=1)


def test_boundary_coords_example():
    cfg = C.Configuration([(0, 0, 0), (2, 0, 0), (10, 0, 0)])
    flag = ChainFlag(3, [SetPartition(3, [[1, 2], [3]])])
    assert C.boundary_coords(cfg, flag) == [0.5, 0.25]


def test_boundary_coords_k2():
    cfg = C.Configuration([(0, 0, 0), (5, 0, 0)])
    assert C.boundary_coords(cfg, ChainFlag(2, [])) == [0.2]


def test_boundary_coords_free_boundary_chain():
    cfg = C.Configuration([(0, 0, 0), (1000, 0, 0), (0, 900, 0)])
    flag = ChainFlag(3, [SetPartition(3, [[1], [2], [3]])])
    # a leading all-singletons level carries no scale; reduces to 1/min dist
    assert C.boundary_coords(cfg, flag) == [1.0 / 900.0]


def test_boundary_coords_mismatch():
    cfg = C.Configuration([(0, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError):
        C.boundary_coords(cfg, ChainFlag(3, [SetPartition(3, [[1, 2], [3]])]))


def test_boundary_coords_regime():
    # first coordinate -> 0 with the second fixed: all separations diverge
    # with bounded ratios
    rho2 = 0.25
    for t in (1e3, 1e6, 1e9):
        pts = [(0, 0, 0), (t, 0, 0), (t / rho2, 0, 0)]
        cfg = C.Configuration(pts)
        flag = ChainFlag(3, [SetPartition(3, [[1, 2], [3]])])
        rho = C.boundary_coords(cfg, flag)
        assert rho[0] == pytest.approx(1.0 / t, rel=1e-12)
        assert rho[1] == pytest.approx(rho2 / (1 - rho2), rel=1e-9)


def test_rounds_csv_shape():
    inp = C.StrongFieldInput(
        [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [40, 0, 0], "diameter": 1.0, "charge": 2},
        ],
        r_prime=1.0,
    )
    csv = C.taubes_cluster(inp).rounds_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,d,R,gamma,r_omega"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[1].endswith(",2")
    assert lines[2].startswith("1,") and lines[2].endswith(",1")


def kruskal(points):
    """Single linkage by brute force: sort all pairs and run Kruskal.
    Returns the merge distances and the partition before each merge."""
    k = len(points)
    parent = list(range(k + 1))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = sorted((math.dist(points[i - 1], points[j - 1]), i, j)
                   for i, j in combinations(range(1, k + 1), 2))
    dists, levels = [], []
    for d, i, j in pairs:
        if root(i) != root(j):
            groups = {}
            for x in range(1, k + 1):
                groups.setdefault(root(x), []).append(x)
            levels.append(SetPartition(k, groups.values()))
            parent[root(i)] = root(j)
            dists.append(d)
    return dists, levels


def kruskal_chain(points, base_scale, ratio_threshold):
    """scale_chain's cut rule applied to the brute-force merges."""
    dists, levels = kruskal(points)
    dists = [1.0] + dists
    return [levels[m] for m in range(len(points) - 1)
            if dists[m + 1] > base_scale and dists[m + 1] > ratio_threshold * max(dists[m], 1.0)]


def lattice(rng, n, scales):
    """n distinct integer-lattice points on a few scales: many exact ties."""
    pts = set()
    while len(pts) < n:
        s = rng.choice(scales)
        pts.add(tuple(rng.randint(-2, 2) * s + rng.randint(0, 1) for _ in range(3)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return pts


def test_scale_chain_matches_sorted_pairs_kruskal_on_lattices():
    rng = random.Random(7)
    configs = [[(x, y, z) for x in range(n) for y in range(n) for z in range(n)] for n in (2, 3, 4)]
    configs.append([(100 * x, y, 10000 * z) for x in range(3) for y in range(3) for z in range(3)])
    configs += [lattice(rng, rng.randint(2, 40), (1, 10, 1000, 10**5)) for _ in range(60)]
    cuts = [(435.0, 10.0), (1.5, 1.5), (0.5, 1.01), (5.0, 2.0)]
    for pts in configs:
        cfg = C.Configuration(pts)
        merges = C._single_linkage_merges(cfg.points)
        assert [d for d, _, _ in merges] == kruskal(cfg.points)[0]
        assert merges == sorted(merges)
        parent = list(range(len(pts) + 1))
        for d, i, j in merges:  # a spanning tree of edges of the stated lengths
            assert i < j and d == math.dist(cfg.points[i - 1], cfg.points[j - 1])
            assert find_root(parent, i) != find_root(parent, j)
            parent[find_root(parent, i)] = find_root(parent, j)
        for base, ratio in cuts:
            assert list(C.scale_chain(cfg, base, ratio)) == kruskal_chain(cfg.points, base, ratio)


def coords_by_pair_scan(points, flag):
    """boundary_coords by testing every pair at every level."""
    k = len(points)
    levels = [p for p in flag if not p.is_singletons()] + [SetPartition(k, [range(1, k + 1)])]
    prev, sigma_prev, out = SetPartition(k, [[i] for i in range(1, k + 1)]), None, []
    for lam in levels:
        sigma = min(math.dist(points[i - 1], points[j - 1])
                    for i, j in combinations(range(1, k + 1), 2)
                    if lam.block_index(i) == lam.block_index(j)
                    and prev.block_index(i) != prev.block_index(j))
        out.append(1.0 / sigma if sigma_prev is None else sigma_prev / sigma)
        prev, sigma_prev = lam, sigma
    return out


def test_boundary_coords_match_pair_scan_on_planted_configurations():
    rng = random.Random(11)
    configs = [
        [(0, 0, 0), (2, 0, 0), (10, 0, 0)],
        [(0, 0, 0), (2, 0, 0), (500, 0, 0), (100000, 0, 0)],
        [(0, 0, 0), (1000, 0, 0), (500, 500 * math.sqrt(3), 0)],
    ]
    for n_top, n_mid, n_leaf in ((1, 3, 4), (2, 3, 3), (3, 2, 5)):
        configs.append([(1e6 * g + rng.uniform(-9, 9), 1000.0 * c + rng.uniform(-9, 9),
                         rng.uniform(-1, 1))
                        for g in range(n_top) for c in range(n_mid) for _ in range(n_leaf)])
    configs += [lattice(rng, rng.randint(2, 25), (1, 10, 1000)) for _ in range(30)]
    for pts in configs:
        cfg = C.Configuration(pts)
        for base, ratio in ((435.0, 10.0), (1.5, 1.5), (0.5, 1.01)):
            flag = C.scale_chain(cfg, base, ratio)
            assert C.boundary_coords(cfg, flag) == coords_by_pair_scan(cfg.points, flag)
            for m in range(len(flag)):
                part = ChainFlag(len(pts), flag.chain[m:])
                assert C.boundary_coords(cfg, part) == coords_by_pair_scan(cfg.points, part)
