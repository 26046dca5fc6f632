"""Independent reference computations for the benchmark's output checks.

Nothing here imports the library: every count, identity and exact value
the checks compare against is computed by separate code, from closed
forms where they exist (Bell triangle, Euler transform of tower counts,
gcd) and from plain re-implementations otherwise (threshold merging in
Fraction arithmetic, Gaussian-rational polynomial evaluation).

Set partitions are handled as tuples of blocks (each a tuple of 1-based
elements) or as restricted-growth strings, as the program prints them.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

# ---------------------------------------------------------------------------
# Partition counts.
# ---------------------------------------------------------------------------


def bell_numbers(n: int) -> list[int]:
    """Bell(0..n) from the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out


def integer_partitions(k: int) -> list[tuple[int, ...]]:
    """Integer partitions of k as ascending tuples, in ascending-lex order."""
    out: list[tuple[int, ...]] = []

    def rec(rem: int, lo: int, acc: tuple[int, ...]) -> None:
        if rem == 0:
            out.append(acc)
            return
        for part in range(lo, rem + 1):
            rec(rem - part, part, acc + (part,))

    rec(k, 1, ())
    return out


def proper_types(k: int) -> list[tuple[int, ...]]:
    """Block-size types of proper partitions of {1..k} (at least two parts)."""
    return [t for t in integer_partitions(k) if len(t) >= 2]


@lru_cache(maxsize=None)
def type_refines(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff the parts of a can be grouped into the parts of b."""
    if sum(a) != sum(b):
        return False
    if not b:
        return not a
    # Place the largest part of a into some part of b with room for it.
    big, rest = a[-1], a[:-1]
    tried = set()
    for i, cap in enumerate(b):
        if cap < big or cap in tried:
            continue
        tried.add(cap)
        left = cap - big
        rem_b = b[:i] + b[i + 1 :]
        if left == 0:
            if type_refines(rest, rem_b):
                return True
        elif _fill(rest, left, rem_b):
            return True
    return False


def _fill(a: tuple[int, ...], need: int, b: tuple[int, ...]) -> bool:
    """Choose a sub-multiset of a summing to `need`, then refine the rest into b."""

    def rec(idx: int, need: int, taken: tuple[int, ...]) -> bool:
        if need == 0:
            rest = list(a)
            for i in taken:
                rest[i] = 0
            return type_refines(tuple(x for x in rest if x), b)
        prev = None
        for i in range(idx, -1, -1):
            if a[i] > need or a[i] == prev:
                continue
            prev = a[i]
            if rec(i - 1, need - a[i], taken + (i,)):
                return True
        return False

    return rec(len(a) - 1, need, ())


def comparable_type_pairs(k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (finer, coarser) of distinct comparable proper types."""
    types = proper_types(k)
    out = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            if type_refines(a, b):
                out.append((a, b))
            elif type_refines(b, a):
                out.append((b, a))
    return out


def type_depths(k: int) -> dict[tuple[int, ...], int]:
    """Length of the longest strictly finer chain of proper types below each type."""
    types = proper_types(k)
    depth: dict[tuple[int, ...], int] = {}
    for t in sorted(types, key=len, reverse=True):  # finer types have more parts
        below = [depth[s] for s in depth if s != t and type_refines(s, t)]
        depth[t] = 1 + max(below, default=-1)
    return depth


# ---------------------------------------------------------------------------
# Chain-orbit counts: Euler transform of tower counts, then binomial inversion.
# ---------------------------------------------------------------------------


def euler_transform(a: list[int]) -> list[int]:
    """b with sum_n b_n x^n = prod_{j>=1} (1 - x^j)^(-a_j); a[0] is ignored."""
    n = len(a) - 1
    c = [0] * (n + 1)
    for j in range(1, n + 1):
        for m in range(j, n + 1, j):
            c[m] += j * a[j]
    b = [1] + [0] * n
    for m in range(1, n + 1):
        b[m] = (c[m] + sum(c[i] * b[m - i] for i in range(1, m))) // m
    return b


@lru_cache(maxsize=None)
def weak_tower_counts(depth: int, n: int) -> tuple[int, ...]:
    """t_depth(0..n): relabelling orbits of weak chains of `depth` partitions
    of an m-set (nested multisets of block sizes), for m = 0..n."""
    if depth == 0:
        return (0,) + (1,) * n
    below = list(weak_tower_counts(depth - 1, n))
    b = euler_transform(below)
    return (0,) + tuple(b[1:])


def chain_orbit_counts(block_sizes: tuple[int, ...]) -> dict[int, int]:
    """Orbit counts of strict chains lam_1 < ... < lam_d < nu, by d.

    nu has blocks of the given sizes; orbits are taken under the
    permutations fixing every nu-block (nu = one block gives the absolute
    atlas).  Weak chains below nu number W(d) = prod_B t_d(|B|), and
    W(d) = sum_j C(d-1, j-1) * (S(j) + S(j-1)) with S(0) = 1, solved for S.
    """
    k = sum(block_sizes)
    max_d = k - len(block_sizes)
    s = {0: 1}
    for d in range(1, max_d + 2):
        w = 1
        for size in block_sizes:
            w *= weak_tower_counts(d, size)[size]
        rest = sum(comb(d - 1, j - 1) * (s[j] + s[j - 1]) for j in range(1, d))
        s[d] = w - rest - s[d - 1]
    if s[max_d + 1] != 0:
        raise AssertionError("chain-orbit inversion left a nonzero count past the top")
    return {d: s[d] for d in range(1, max_d + 1)}


# ---------------------------------------------------------------------------
# Set partitions as restricted-growth strings.
# ---------------------------------------------------------------------------


def rgs_labels(s: str) -> tuple[int, ...]:
    return tuple(int(t) for t in (s.split("|") if "|" in s else s))


def is_rgs(labels: tuple[int, ...]) -> bool:
    top = -1
    for n in labels:
        if n < 0 or n > top + 1:
            return False
        top = max(top, n)
    return bool(labels)


def blocks_of(labels: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(labels, start=1):
        groups.setdefault(n, []).append(i)
    return tuple(tuple(g) for g in groups.values())


def to_rgs(k: int, blocks) -> str:
    idx = [0] * k
    ordered = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
    for n, b in enumerate(ordered):
        for i in b:
            idx[i - 1] = n
    sep = "" if len(ordered) <= 10 else "|"
    return sep.join(map(str, idx))


def label_refines(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    """True iff every block of `fine` lies inside a block of `coarse`."""
    image: dict[int, int] = {}
    for f, c in zip(fine, coarse):
        if image.setdefault(f, c) != c:
            return False
    return True


def all_rgs(k: int) -> list[tuple[int, ...]]:
    """Every set partition of {1..k} as a label tuple."""
    out = []

    def rec(acc: list[int], top: int) -> None:
        if len(acc) == k:
            out.append(tuple(acc))
            return
        for n in range(top + 2):
            acc.append(n)
            rec(acc, max(top, n))
            acc.pop()

    rec([0], 0)
    return out


def tower(elements: tuple[int, ...], levels: list[tuple[int, ...]]):
    """Nested block-size multiset of a chain restricted to `elements`.

    `levels` are label tuples, finest first; the result is a complete
    relabelling invariant of the restricted chain.
    """
    if not levels:
        return len(elements)
    top = levels[-1]
    groups: dict[int, list[int]] = {}
    for e in elements:
        groups.setdefault(top[e - 1], []).append(e)
    children = [tower(tuple(g), levels[:-1]) for g in groups.values()]
    return tuple(sorted(children, key=repr))


# ---------------------------------------------------------------------------
# Face dimensions and group orders.
# ---------------------------------------------------------------------------


def face_dims(k: int, ranks: list[int], nu_rank: int) -> tuple[int, int, list[int]]:
    """(total, fibre, bases) of the face of a chain with the given ranks."""
    rs = list(ranks) + [nu_rank]
    fibre = 4 * k - 3 * rs[0]
    bases = [3 * (rs[i] - rs[i + 1]) - 1 for i in range(len(ranks))]
    return 4 * k - 3 * nu_rank - len(ranks), fibre, bases


def flag_orders(lam: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, int]:
    """(|Sym0|, |Sym|) of the flag lam < nu, modulo internal block shuffles.

    Sym0 permutes equal-size lam-blocks inside each nu-block; Sym also
    permutes nu-blocks carrying the same multiset of lam-block sizes.
    """
    lam_sizes = Counter(lam)
    per_nu: dict[int, list[int]] = {}
    for block, size in lam_sizes.items():
        owner = nu[lam.index(block)]
        per_nu.setdefault(owner, []).append(size)
    sym0 = 1
    for sizes in per_nu.values():
        for mult in Counter(sizes).values():
            sym0 *= math.factorial(mult)
    sym = sym0
    for mult in Counter(tuple(sorted(s)) for s in per_nu.values()).values():
        sym *= math.factorial(mult)
    return sym0, sym


def weight_totals(lam, mu, nu) -> tuple[int, int]:
    """(fine, pushed) weight sums of the splitting witness along lam < mu < nu.

    A lam-block B inside a nu-block C carries weight 2|B'| towards every
    other lam-block B' of C, so C contributes 2|C|(n_C - 1) with n_C the
    number of lam-blocks in it; the fine part is the same sum over mu.
    """

    def total(coarse) -> int:
        size = Counter(coarse)
        inside: dict[int, set[int]] = {}
        for f, c in zip(lam, coarse):
            inside.setdefault(c, set()).add(f)
        return sum(2 * size[c] * (len(bs) - 1) for c, bs in inside.items())

    fine = total(mu)
    return fine, total(nu) - fine


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions.
# ---------------------------------------------------------------------------

G0 = (Fraction(0), Fraction(0))
G1 = (Fraction(1), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def poly_mul(p, q):
    out = [G0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = gadd(out[i + j], gmul(a, b))
    return out


def poly_eval(p, z):
    acc = G0
    for c in reversed(p):
        acc = gadd(gmul(acc, z), c)
    return acc


def poly_from_roots(roots):
    """Ascending coefficients of prod (z - r)."""
    p = [G1]
    for r in roots:
        p = poly_mul(p, [(-r[0], -r[1]), G1])
    return p


def interpolate(xs, ys):
    """Ascending coefficients of the degree < n polynomial through (xs, ys)."""
    n = len(xs)
    out = [G0] * n
    for i in range(n):
        basis = [G1]
        denom = G1
        for j in range(n):
            if j != i:
                basis = poly_mul(basis, [(-xs[j][0], -xs[j][1]), G1])
                denom = gmul(denom, gsub(xs[i], xs[j]))
        scale = gdiv(ys[i], denom)
        for m, c in enumerate(basis):
            out[m] = gadd(out[m], gmul(c, scale))
    return out


def resultant_from_roots(phi, roots):
    """prod phi(r) over the roots of the monic denominator."""
    acc = G1
    for r in roots:
        acc = gmul(acc, poly_eval(phi, r))
    return acc


def map_verdicts(value, traceless: bool) -> dict[str, bool]:
    based = value != G0
    unit = value[0] * value[0] + value[1] * value[1] == 1
    return {
        "based": based,
        "centred": based and traceless and unit,
        "strongly_centred": based and traceless and value == G1,
    }


# ---------------------------------------------------------------------------
# Threshold-merge cluster decomposition in Fraction arithmetic.
# ---------------------------------------------------------------------------


def threshold_merge(components: list[dict], r_prime: float) -> dict:
    """Plain re-implementation of the threshold-merge recursion.

    Centres closer than gamma (ties included) are joined; joined groups
    are replaced by their centroids and the ball data grow by
    d' = (m - 1) gamma + 2R, R' = d' + 1, gamma' = 3R' - d'/2, where m is
    the largest number of clusters merged into one.
    """
    centres = [tuple(Fraction(x) for x in c["center"]) for c in components]
    members = [[i] for i in range(1, len(centres) + 1)]
    d = max(max(Fraction(c["diameter"]) for c in components), Fraction(15))
    radius = d + Fraction(r_prime) + 1
    gamma = 3 * radius - d / 2
    sizes = []
    while True:
        sizes.append(len(centres))
        groups = _linked_groups(centres, gamma)
        if len(groups) == len(centres):
            break
        m = max(len(g) for g in groups)
        d_next = (m - 1) * gamma + 2 * radius
        radius = d_next + 1
        d, gamma = d_next, 3 * radius - d_next / 2
        centres = [tuple(sum(centres[i][c] for i in g) / len(g) for c in range(3)) for g in groups]
        members = [sorted(x for i in g for x in members[i]) for g in groups]
    order = sorted(range(len(members)), key=lambda i: members[i][0])
    members = [members[i] for i in order]
    centres = [centres[i] for i in order]
    charges = [sum(components[i - 1]["charge"] for i in b) for b in members]
    return {
        "blocks": members,
        "centres": centres,
        "radius": radius,
        "gamma": gamma,
        "diameter": d,
        "rounds": len(sizes) - 1,
        "sizes": sizes,
        "charges": charges,
    }


def _linked_groups(centres, gamma) -> list[list[int]]:
    """Connected components of the graph joining centres within gamma."""
    g2 = gamma * gamma
    order = sorted(range(len(centres)), key=lambda i: centres[i][0])
    xs = [centres[i][0] for i in order]
    seen = [False] * len(centres)
    groups = []
    for start in order:
        if seen[start]:
            continue
        seen[start] = True
        stack, group = [start], []
        while stack:
            i = stack.pop()
            group.append(i)
            p = centres[i]
            lo = bisect.bisect_left(xs, p[0] - gamma)
            hi = bisect.bisect_right(xs, p[0] + gamma)
            for j in order[lo:hi]:
                if seen[j]:
                    continue
                q = centres[j]
                if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2 <= g2:
                    seen[j] = True
                    stack.append(j)
        groups.append(sorted(group))
    return groups


def pair_tests(sizes: list[int]) -> int:
    """Sum of C(n_t, 2) over the rounds of a decomposition."""
    return sum(comb(n, 2) for n in sizes)


def boundary_coords(points, levels: list[tuple[int, ...]]) -> list[float]:
    """1/sigma_1 then sigma_{j-1}/sigma_j, sigma_j the least distance first
    joined at level j; `levels` are label tuples ending with one block."""
    k = len(points)
    prev = tuple(range(k))
    out: list[float] = []
    sigma_prev = None
    for lab in levels:
        sigma = min(
            math.dist(points[i], points[j])
            for i in range(k)
            for j in range(i + 1, k)
            if lab[i] == lab[j] and prev[i] != prev[j]
        )
        out.append(1.0 / sigma if sigma_prev is None else sigma_prev / sigma)
        prev, sigma_prev = lab, sigma
    return out
