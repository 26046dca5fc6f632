"""Acceptance suite: one test per criterion, at the stated tolerance and
time budget, printing one pass/fail line each (run with `pytest -s` to see
the lines as they happen)."""

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from time import perf_counter

from monopole_corners import clusters as C
from monopole_corners import faces as F
from monopole_corners import gibbons_manton as GM
from monopole_corners import manybody as MB
from monopole_corners import partitions as P
from monopole_corners import ratmaps as R
from monopole_corners.partitions import IntegerPartition as IP
from monopole_corners.partitions import ChainFlag, SetPartition
from monopole_corners.ratmaps import GaussianRational as G
from monopole_corners.ratmaps import RationalMapPair as M


def dist2(p, q):
    """Squared Euclidean distance, exact on Fraction coordinates."""
    return sum((a - b) * (a - b) for a, b in zip(p, q))


@contextmanager
def criterion(cid, budget_seconds, description):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {cid:2d}: FAIL  {description}")
        raise
    elapsed = perf_counter() - start
    print(
        f"[acceptance] criterion {cid:2d}: PASS  {description} "
        f"({elapsed * 1000:.2f} ms, budget {budget_seconds * 1000:.0f} ms)"
    )
    assert elapsed < budget_seconds, (
        f"criterion {cid} exceeded its time budget: {elapsed:.4f}s"
    )


def test_criterion_01_k2_atlas():
    with criterion(1, 0.001, "k=2 atlas: one hypersurface, base 2, fiber 2"):
        atlas = F.hypersurface_atlas(2)
        assert len(atlas) == 1
        assert atlas[0].base_dims == (2,)
        assert atlas[0].fiber_dim == 2
        assert atlas[0].total_dim == 4


def test_criterion_02_k3_atlas():
    with criterion(2, 0.001, "k=3 atlas: 2 hypersurfaces, 1 codim-2 corner"):
        assert len(F.hypersurface_atlas(3)) == 2
        assert len(F.corner_atlas(3, 2)) == 1


def test_criterion_03_k4_atlas():
    with criterion(3, 0.010, "k=4 atlas: 4 / 5 / 2 / none deeper"):
        assert len(F.hypersurface_atlas(4)) == 4
        assert len(F.corner_atlas(4, 2)) == 5
        assert len(F.corner_atlas(4, 3)) == 2
        assert F.corner_atlas(4, 4) == []
        assert F.corner_atlas(4, 5) == []


def _brute_pair_orbits_k5():
    parts = P.all_partitions(5)
    a, b = IP([1, 1, 1, 2]), IP([2, 3])
    perms = list(itertools.permutations(range(1, 6)))
    keys = set()
    for lam in parts:
        if P.type_of(lam) != a:
            continue
        for nu in parts:
            if P.type_of(nu) != b or not P.refines(lam, nu):
                continue
            keys.add(
                min(
                    (P.apply_permutation(s, lam).to_rgs(), P.apply_permutation(s, nu).to_rgs())
                    for s in perms
                )
            )
    return len(keys)


def test_criterion_04_k5_disconnected_intersection():
    with criterion(4, 1.0, "k=5: intersection of (1,1,1,2) and (2,3) is disconnected"):
        got = F.intersection_components(5, IP([1, 1, 1, 2]), IP([2, 3]))
        assert got >= 2
        assert got == 2  # frozen regression value
        assert got == _brute_pair_orbits_k5()  # chain-orbit brute-force oracle


def test_criterion_05_dimension_identities():
    with criterion(5, 5.0, "dimension identities for every face, k <= 7"):
        for k in range(2, 8):
            for d in range(1, k):
                for face in F.corner_atlas(k, d):
                    assert face.total_dim == 4 * k - 3 - d
                    assert face.total_dim == face.fiber_dim + sum(face.base_dims)
            for h in F.hypersurface_atlas(k):
                r = h.chain[0].rank
                assert 4 * k - 3 * r + 3 * (r - 1) - 1 == 4 * k - 4
                assert h.total_dim == 4 * k - 4


def _partition_counts(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p


def test_criterion_06_hypersurface_counts():
    with criterion(6, 1.0, "hypersurface count is p(k) - 1 for k <= 8"):
        counts = _partition_counts(8)
        for k in range(2, 9):
            assert len(F.hypersurface_atlas(k)) == counts[k] - 1


def test_criterion_07_gibbons_manton_splitting():
    with criterion(7, 30.0, "weight-system splitting along every chain, k <= 6"):
        checked = 0
        expected_chains = 0
        for k in range(3, 7):
            parts = P.all_partitions(k)
            coarsenings = {
                lam: [nu for nu in parts if nu != lam and P.refines(lam, nu)]
                for lam in parts
            }
            finer = {nu: 0 for nu in parts}
            for lam in parts:
                for nu in coarsenings[lam]:
                    finer[nu] += 1
            expected_chains += sum(
                finer[mu] * len(coarsenings[mu]) for mu in parts
            )
            for lam in parts:
                for mu in coarsenings[lam]:
                    w_lm = GM.weight_system(lam, mu).weights
                    for nu in coarsenings[mu]:
                        result = GM.restriction_splits(lam, mu, nu)
                        assert result.splits, (lam, mu, nu)
                        w_ln = GM.weight_system(lam, nu).weights
                        assert result.parts.keys() == w_ln.keys(), (lam, mu, nu)
                        for rep, (fine, pushed) in result.parts.items():
                            assert fine == w_lm[rep], (lam, mu, nu, rep)
                            assert not fine.keys() & pushed.keys(), (lam, mu, nu, rep)
                            assert {**fine, **pushed} == w_ln[rep], (lam, mu, nu, rep)
                        checked += 1
        assert checked == expected_chains == 8868


def test_criterion_08_cluster_algorithm_properties():
    with criterion(8, 10.0, "cluster algorithm invariants on 1000 random inputs"):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 10)
            inp = C.StrongFieldInput(
                [
                    {
                        "center": [rng.uniform(-900, 900) for _ in range(3)],
                        "diameter": rng.uniform(0, 30),
                        "charge": rng.randint(1, 5),
                    }
                    for _ in range(n)
                ],
                r_prime=rng.uniform(0.5, 6.0),
            )
            dec = C.taubes_cluster(inp)
            fin = dec.exact

            # termination within N - 1 rounds
            assert dec.rounds <= max(n - 1, 0)

            # final separations beyond gamma (exact squared distances)
            g2 = fin.gamma * fin.gamma
            for p, q in itertools.combinations(fin.centers, 2):
                assert dist2(p, q) > g2

            # disjointness margin: gamma - 2R = R - d/2 >= d/2 + 1 > 0,
            # with equality whenever a merge round ran (then R = d + 1)
            assert fin.gamma - 2 * fin.radius == fin.radius - fin.d / 2
            assert fin.radius - fin.d / 2 >= fin.d / 2 + 1 > 0
            if dec.rounds >= 1:
                assert fin.gamma - 2 * fin.radius == fin.d / 2 + 1

            # nesting of successive balls, exact
            for r0, r1 in zip(dec.history, dec.history[1:]):
                gap = r1.radius - r0.radius
                assert gap >= 0
                for gi, group in enumerate(r0.merged_groups):
                    centre = r1.centers[gi]
                    for member in group:
                        assert dist2(r0.centers[member], centre) <= gap * gap

            # epsilon bound, floating at relative tolerance 1e-9
            m = len(fin.centers)
            if m > 1:
                assert dec.epsilon < (m * m) / float(fin.gamma) * (1 + 1e-9)

            # float views track the exact recursion at relative tolerance 1e-9
            assert abs(dec.radius - float(fin.radius)) <= 1e-9 * float(fin.radius)
            assert abs(dec.gamma - float(fin.gamma)) <= 1e-9 * float(fin.gamma)


def _random_gaussian(rng):
    return G(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    )


def _poly_gcd_degree(a, b):
    def degree(c):
        for i in range(len(c) - 1, -1, -1):
            if not c[i].is_zero():
                return i
        return -1

    a, b = list(a), list(b)
    while degree(b) >= 0:
        dn = degree(b)
        for i in range(degree(a), dn - 1, -1):
            q = a[i] / b[dn]
            for j in range(dn + 1):
                a[i - dn + j] = a[i - dn + j] - q * b[j]
        a, b = b, a[:dn]
    return degree(a)


def test_criterion_09_resultant_homogeneity_and_vanishing():
    with criterion(9, 10.0, "resultant homogeneity and vanishing <=> common factor"):
        rng = random.Random(7)
        for k in range(1, 6):
            for _ in range(100):
                phi = [_random_gaussian(rng) for _ in range(k)]
                psi = [_random_gaussian(rng) for _ in range(k)]
                lam = _random_gaussian(rng)
                if lam.is_zero():
                    lam = G(1, 2)
                assert R.resultant(M([c * lam for c in phi], psi)) == (
                    R.resultant(M(phi, psi)) * lam ** k
                )
        values = [G(-1), G(0), G(1)]
        for k in (1, 2, 3):
            for phi in itertools.product(values, repeat=k):
                for psi in itertools.product(values, repeat=k):
                    vanishes = R.resultant(M(phi, psi)) == G(0)
                    if all(c.is_zero() for c in phi):
                        nontrivial = True
                    else:
                        nontrivial = _poly_gcd_degree(list(psi) + [G(1)], list(phi)) > 0
                    assert vanishes == nontrivial


def test_criterion_10_deck_action():
    with criterion(10, 1.0, "deck orbits preserve strong centring, size divides k"):
        rng = random.Random(13)
        for k in range(1, 6):
            m = M([G(1)], [G(0)] * k)
            assert R.is_strongly_centred(m)
            orbit = R.deck_orbit(m)
            assert all(R.is_strongly_centred(x) for x in orbit)
            assert all(R.resultant(x) == G(1) for x in orbit)
            assert k % len(orbit) == 0
        # strongly centred maps with generic numerators
        for k, phi, psi in (
            (2, [G(0), G(1)], [G(-1), G(0)]),      # z / (z^2 - 1): R = phi(1)phi(-1) = -1
            (3, [G(1)], [G(0), G(0), G(0)]),
        ):
            base = M(phi, psi)
            if R.is_strongly_centred(base):
                for x in R.deck_orbit(base):
                    assert R.is_strongly_centred(x)
        # the action is Z_k: k-fold application is the identity
        for k in (2, 3, 4, 5):
            m = M([_random_gaussian(rng) for _ in range(k)],
                  [_random_gaussian(rng) for _ in range(k)])
            out = m
            for _ in range(k):
                out = R.deck_transform(out, 1)
            assert out == m


def test_criterion_11_torus_group_structure():
    with criterion(11, 1.0, "torus group: finite order is the gcd of the parts"):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            parts = [rng.randint(1, 15) for _ in range(n)]
            s = GM.torus_group_structure(IP(parts))
            assert s.torus_rank == n - 1
            assert s.finite_order == gcd(*parts)
        for k in range(1, 9):
            s = GM.torus_group_structure(IP([1] * k))
            assert s.finite_order == 1 and s.torus_rank == k - 1


def test_criterion_12_boundary_coordinate_regime():
    with criterion(12, 1.0, "k=3 boundary coordinates: rho1 -> 0 with rho2 fixed"):
        tol = 1e-6
        rho2 = 0.25
        flag = ChainFlag(3, [SetPartition(3, [[1, 2], [3]])])
        previous_rho1 = math.inf
        reference_rho2 = None
        for t in (1e3, 1e5, 1e7, 1e9):
            pts = [(0.0, 0.0, 0.0), (t, 0.0, 0.0), (t / rho2, 0.0, 0.0)]
            rho = C.boundary_coords(C.Configuration(pts), flag)
            # rho1 strictly decreasing to 0
            assert rho[0] < previous_rho1
            previous_rho1 = rho[0]
            # rho2 stays fixed along the family
            if reference_rho2 is None:
                reference_rho2 = rho[1]
            assert abs(rho[1] - reference_rho2) <= tol * reference_rho2
            # all three separations diverge with bounded ratios
            seps = [
                math.dist(p, q) for p, q in itertools.combinations(pts, 2)
            ]
            assert min(seps) >= t
            assert max(seps) / min(seps) <= 1.0 / rho2 + tol
        assert previous_rho1 <= 1e-9 + tol


def test_criterion_13_full_k8_atlas():
    with criterion(13, 5.0, "full k=8 atlas: 5819 faces over codims 1..7"):
        counts = [len(F.corner_atlas(8, d)) for d in range(1, 8)]
        assert counts == [21, 180, 740, 1602, 1877, 1127, 272]
        assert sum(counts) == 5819


def test_criterion_14_k7_many_body_structure():
    with criterion(14, 5.0, "k=7 many-body diagonals in R^3: 877 elements, every pair valid"):
        ws = MB.diagonal_structure(7, 3)
        assert len(ws.labels) == 877
        assert MB.validate(ws) == []
