"""Seeded input generators.

Every generator takes a `random.Random` built from the workload seed, so
the same seed gives the same inputs.  The seed moves coordinates, labels,
coefficients and order, never the shape of the work: cluster round
structure, point counts, map degrees and enumeration sizes are fixed by
construction, so work sizes repeat exactly from seed to seed.  Each
generated input carries the value the benchmark expects back, computed
from the construction or by the oracles, never by the program.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles as O

# Threshold recursion with diameters <= 15 and R' = 1 starts at gamma = 43.5.
# Offsets inside a cube of side 24 stay within 24*sqrt(3) < 41.6 < 43.5, so a
# cube's components join in the first round; the spacings below keep
# different cubes (and later, different groups) apart until their round.


def _q(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform float in [lo, hi] on a 1/16 grid, so it is exact in binary."""
    return rng.randint(int(lo * 16), int(hi * 16)) / 16


def _component(rng, centre) -> dict:
    return {"center": list(centre), "diameter": _q(rng, 0, 15), "charge": rng.randint(1, 3)}


def _cube(rng, anchor, side=24.0):
    return [a + _q(rng, 0, side) for a in anchor]


def sparse_clusters(rng: random.Random, n: int) -> dict:
    """n components on a jittered grid of pitch 100: no two ever merge."""
    side = round(n ** (1 / 3)) + 1
    cells = [(x, y, z) for x in range(side) for y in range(side) for z in range(side)]
    rng.shuffle(cells)
    comps = [_component(rng, [100 * c + _q(rng, -20, 20) for c in cell]) for cell in cells[:n]]
    return {"components": comps, "r_prime": 1.0}


def dense_clusters(rng: random.Random, n: int) -> dict:
    """n components in one cube of side 24: all merge in the first round."""
    return {"components": [_component(rng, _cube(rng, (0, 0, 0))) for _ in range(n)], "r_prime": 1.0}


# Clusters of clusters with fan-out 4: cubes of 4 components, 4 cubes 200
# apart along y, 4 such groups 2000 apart along z, and the top groups
# 100000 apart along x.  Rounds merge the cubes (gamma 43.5), then the
# groups (gamma 414.25), then the supergroups (gamma 3937.375); at gamma
# 37407.0625 the top groups stay apart.
_LEVELS = ((1, 200.0, 8.0), (2, 2000.0, 50.0))


def multiscale_clusters(rng: random.Random, n_top: int, fanout: int = 4) -> dict:
    anchors = [(100000.0 * t + _q(rng, -1000, 1000), 0.0, 0.0) for t in range(n_top)]
    for axis, spacing, jitter in reversed(_LEVELS):
        nxt = []
        for a in anchors:
            for i in range(fanout):
                p = list(a)
                p[axis] += spacing * i
                nxt.append(tuple(c + _q(rng, -jitter, jitter) for c in p))
        anchors = nxt
    comps = [_component(rng, _cube(rng, a)) for a in anchors for _ in range(fanout)]
    return {"components": comps, "r_prime": 1.0}


def paired_clusters(rng: random.Random, n: int) -> dict:
    """Pairs of components 120 apart along x: the pairs merge, then all do."""
    comps = [_component(rng, _cube(rng, (120.0 * (i // 2), 0, 0))) for i in range(n)]
    return {"components": comps, "r_prime": 1.0}


def small_cluster_inputs(rng: random.Random, count: int) -> list[dict]:
    """`count` inputs of 1..10 components, cycling sizes and kinds."""
    kinds = (sparse_clusters, dense_clusters, paired_clusters)
    return [kinds[(i // 10) % 3](rng, 1 + i % 10) for i in range(count)]


def with_expected(inp: dict) -> dict:
    """Attach the oracle decomposition."""
    return {"input": inp, "expected": O.threshold_merge(inp["components"], inp["r_prime"])}


# ---------------------------------------------------------------------------
# Point configurations with a planted multi-scale chain.
# ---------------------------------------------------------------------------


def planted_configuration(rng: random.Random, n_top: int, n_mid: int, n_leaf: int) -> dict:
    """Points in cubes of side 2, cubes 1000 apart, groups 10^6 apart.

    Single-linkage merges inside a cube stay below 3.5, between cubes near
    1000 and between groups near 10^6, so with the default cut (base scale
    435, ratio 10) the chain is [cube partition, group partition].
    """
    pts, cube_of, group_of = [], [], []
    seen = set()
    for g in range(n_top):
        for c in range(n_mid):
            anchor = (1e6 * g + _q(rng, -10, 10), 1000.0 * c + _q(rng, -10, 10), _q(rng, -10, 10))
            for _ in range(n_leaf):
                while True:
                    p = tuple(_cube(rng, anchor, side=2.0))
                    if p not in seen:
                        break
                seen.add(p)
                pts.append(p)
                cube_of.append(g * n_mid + c)
                group_of.append(g)
    order = list(range(len(pts)))
    rng.shuffle(order)
    pts = [list(pts[i]) for i in order]
    levels = [[cube_of[i] for i in order], [group_of[i] for i in order]]
    if n_top == 1:
        levels.pop()
    n = len(pts)
    chain = [O.to_rgs(n, O.blocks_of(tuple(lab))) for lab in levels]
    return {"points": pts, "expected_chain": chain}


# ---------------------------------------------------------------------------
# Rational maps with a known resultant.
# ---------------------------------------------------------------------------

MAP_KINDS = ("generic", "one", "unit", "shared")


def _gauss(rng, span=5, den=3):
    c = rng.randint(1, den)
    return (Fraction(rng.randint(-span, span), c), Fraction(rng.randint(-span, span), c))


def _nonzero(rng):
    while True:
        g = _gauss(rng)
        if g != O.G0:
            return g


def _distinct_roots(rng, k, traceless):
    while True:
        roots = [_gauss(rng) for _ in range(k - 1 if traceless else k)]
        if traceless:
            s = O.G0
            for r in roots:
                s = O.gadd(s, r)
            roots.append((-s[0], -s[1]))
        if len(set(roots)) == k:
            return roots


def rational_map(rng: random.Random, k: int, kind: str) -> dict:
    """A degree-k map phi/psi with psi = prod (z - r_i) over chosen roots.

    generic: random phi.  one / unit: phi interpolates values whose product
    is 1 / a Gaussian unit other than 1, with traceless psi, so the map is
    strongly centred / centred only.  shared: phi vanishes at a root of psi.
    """
    traceless = kind in ("one", "unit")
    roots = _distinct_roots(rng, k, traceless)
    if kind == "generic":
        phi = [_gauss(rng) for _ in range(k)]
        target = None
    elif kind == "shared":
        q = [_gauss(rng) for _ in range(k - 1)] or [O.G0]
        phi = O.poly_mul(q, [(-roots[0][0], -roots[0][1]), O.G1])[:k] if k > 1 else [O.G0]
        target = O.G0
    else:
        target = O.G1 if kind == "one" else rng.choice([(0, 1), (-1, 0), (0, -1)])
        target = (Fraction(target[0]), Fraction(target[1]))
        values = [_nonzero(rng) for _ in range(k - 1)]
        prod = O.G1
        for v in values:
            prod = O.gmul(prod, v)
        values.append(O.gdiv(target, prod))
        phi = O.interpolate(roots, values)
    psi = O.poly_from_roots(roots)
    if psi[-1] != O.G1:
        raise AssertionError("denominator is not monic")
    value = O.resultant_from_roots(phi, roots)
    if target is not None and value != target:
        raise AssertionError(f"planted resultant {target} came out as {value}")
    return {
        "map": {
            "phi": [[str(c[0]), str(c[1])] for c in phi],
            "psi": [[str(c[0]), str(c[1])] for c in psi[:-1]],
        },
        "expected": {
            "resultant": [str(value[0]), str(value[1])],
            **O.map_verdicts(value, traceless=psi[-2] == O.G0),
        },
    }


def rational_maps(rng: random.Random, degrees, per_degree: int) -> list[dict]:
    return [
        rational_map(rng, k, MAP_KINDS[i % len(MAP_KINDS)])
        for k in degrees
        for i in range(per_degree)
    ]


# ---------------------------------------------------------------------------
# Partitions, flags and chains.
# ---------------------------------------------------------------------------


def relabelled(rng: random.Random, sizes: tuple[int, ...]) -> str:
    """A set partition of {1..sum(sizes)} with the given block sizes, as RGS."""
    elems = list(range(1, sum(sizes) + 1))
    rng.shuffle(elems)
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(elems[pos : pos + s])
        pos += s
    return O.to_rgs(len(elems), blocks)


def strict_pairs(k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    parts = O.all_rgs(k)
    return [(a, b) for a in parts for b in parts if a != b and O.label_refines(a, b)]


def strict_triples(k: int) -> list[tuple[tuple[int, ...], ...]]:
    above: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a, b in strict_pairs(k):
        above.setdefault(a, []).append(b)
    return [(a, b, c) for a in above for b in above[a] for c in above.get(b, [])]


def rgs(labels: tuple[int, ...]) -> str:
    return "".join(map(str, labels))
