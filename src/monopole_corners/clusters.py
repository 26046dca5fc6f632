"""Cluster decomposition of point configurations and boundary coordinates.

The decomposition algorithm groups the connected components of a
strong-field region into widely separated balls by iterating a threshold
merge: starting from the component centres, points closer than the current
threshold gamma are merged into centroids, and the ball data grows by

    d' = (max block size - 1) * gamma + 2 * R,   R' = d' + 1,
    gamma' = 3 * R' - d' / 2,

until all surviving centres are pairwise further apart than gamma.  The
whole recursion is rational in the inputs, so it is run in exact rational
arithmetic (floats enter exactly); each round's distance comparisons are
integer comparisons of squared norms on one common denominator.
Only the separation functional needs square roots and is reported in
floating point.

Taubes-type constants are not derivable at this level: the ball-growth
seed R' is a configuration parameter and charges are supplied as input
data.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record
from .errors import DegenerateInputError
from .inputs import as_int, as_list, as_object, as_real
from .partitions import (
    ChainFlag,
    IntegerPartition,
    SetPartition,
    find_root,
    group_by_root,
    one_block,
    refines_integer_partition,
)

#: Defaults for the heuristic multi-scale chain cut; the base scale is ten
#: times the zero-diameter threshold gamma^0 = 3*(15+1+1) - 15/2 = 43.5.
DEFAULT_BASE_SCALE = 435.0
DEFAULT_RATIO_THRESHOLD = 10.0

Point = tuple[float, float, float]


def _point(p, what: str) -> Point:
    """Three finite real coordinates; `what` names the point in errors."""
    try:
        x, y, z = p
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a point of R^3, got {p!r}") from None
    what = f"{what} coordinate"
    return as_real(x, what), as_real(y, what), as_real(z, what)


class Configuration:
    """Labelled points in R^3, optionally carrying positive integer charges."""

    __slots__ = ("points", "charges")

    def __init__(self, points: Iterable[Sequence[float]], charges: Iterable[int] | None = None):
        pts = tuple(_point(p, f"points[{i}]") for i, p in enumerate(points))
        if not pts:
            raise ValueError("configuration needs at least one point")
        ch = None
        if charges is not None:
            ch = tuple(as_int(c, "charge", 1) for c in charges)
            if len(ch) != len(pts):
                raise ValueError("one charge per point required")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "charges", ch)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @classmethod
    def from_json_dict(cls, d: dict) -> "Configuration":
        """Parse the JSON form, naming the offending field on bad input."""
        d = as_object(d, "configuration")
        points = as_list(d, "points", "a list of points in R^3")
        if d.get("charges") is None:
            return cls(points)
        return cls(points, as_list(d, "charges", "a list of positive integers"))

    def __len__(self) -> int:
        return len(self.points)


def _require_distinct(points: Sequence[Point]) -> None:
    for (i, p), (j, q) in itertools.combinations(enumerate(points), 2):
        if p == q:
            raise DegenerateInputError(f"points {i + 1} and {j + 1} coincide")


def separation(c: Configuration) -> float:
    """Sum of reciprocal pairwise distances; 0 for a single point.

    Homogeneous of degree -1 under scaling; serves as the boundary defining
    function of the ideal configuration boundary.
    """
    _require_distinct(c.points)
    return sum(
        1.0 / math.dist(p, q) for p, q in itertools.combinations(c.points, 2)
    )


class StrongFieldComponent(Record):
    __slots__ = ("center", "diameter", "charge")

    def __init__(self, center: Point, diameter: float, charge: int):
        object.__setattr__(self, "center", _point(center, "center"))
        if as_real(diameter, "diameter") < 0:
            raise ValueError(f"diameter must be nonnegative, got {diameter!r}")
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "charge", as_int(charge, "charge", 1))


class StrongFieldInput:
    """Connected components of a strong-field region plus the ball seed R'."""

    __slots__ = ("components", "r_prime")

    def __init__(self, components: Iterable[StrongFieldComponent | dict], r_prime: float = 1.0):
        comps = tuple(
            c if isinstance(c, StrongFieldComponent) else StrongFieldComponent(**c)
            for c in components
        )
        if not comps:
            raise ValueError("need at least one strong-field component")
        r_prime = as_real(r_prime, "r_prime")
        if r_prime <= 0:
            raise ValueError(f"r_prime must be positive, got {r_prime!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "r_prime", r_prime)

    def __setattr__(self, name, value):
        raise AttributeError("StrongFieldInput is immutable")

    @classmethod
    def from_json_dict(cls, d: dict) -> "StrongFieldInput":
        """Parse the JSON form, naming the offending field on bad input."""
        d = as_object(d, "strong-field input")
        comps = []
        for i, c in enumerate(as_list(d, "components", "a list of component objects")):
            try:
                comps.append(StrongFieldComponent(**as_object(c, "a component")))
            except (TypeError, ValueError) as exc:  # TypeError: a missing or unknown field
                raise ValueError(f"components[{i}]: {exc}") from None
        return cls(comps, r_prime=d.get("r_prime", 1.0))

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"center": list(c.center), "diameter": c.diameter, "charge": c.charge}
                for c in self.components
            ],
            "r_prime": self.r_prime,
        }


FracPoint = tuple[Fraction, Fraction, Fraction]


class ClusterRound(Record):
    """Exact state of one round: thresholds, centres, and the merge taken
    (`merged_groups` is None on the final round)."""

    __slots__ = ("t", "d", "radius", "gamma", "centers", "merged_groups")

    def __init__(self, t: int, d: Fraction, radius: Fraction, gamma: Fraction,
                 centers: tuple[FracPoint, ...],
                 merged_groups: tuple[tuple[int, ...], ...] | None):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "merged_groups", merged_groups)

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


class ClusterDecomposition(Record):
    """Result of the threshold-merge algorithm.

    `omega` partitions the input component indices, `cluster_type` is the
    sorted multiset of cluster charges, `cluster_charges` is aligned with
    `omega.blocks`, and `epsilon` is the separation of the final centres.
    """

    __slots__ = ("omega", "centers", "radius", "gamma", "diameter", "rounds", "cluster_type",
                 "cluster_charges", "epsilon", "history")

    def __init__(self, omega: SetPartition, centers: tuple[Point, ...], radius: float,
                 gamma: float, diameter: float, rounds: int, cluster_type: IntegerPartition,
                 cluster_charges: tuple[int, ...], epsilon: float,
                 history: tuple[ClusterRound, ...]):
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "cluster_type", cluster_type)
        object.__setattr__(self, "cluster_charges", cluster_charges)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "history", history)

    @property
    def exact(self) -> ClusterRound:
        return self.history[-1]

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega.to_json_dict(),
            "centers": [list(p) for p in self.centers],
            "radius": self.radius,
            "gamma": self.gamma,
            "diameter": self.diameter,
            "rounds": self.rounds,
            "type": list(self.cluster_type.parts),
            "cluster_charges": list(self.cluster_charges),
            "epsilon": self.epsilon,
        }

    def rounds_csv(self) -> str:
        lines = ["t,d,R,gamma,r_omega"]
        for r in self.history:
            lines.append(
                f"{r.t},{float(r.d)!r},{float(r.radius)!r},{float(r.gamma)!r},{r.n_clusters}"
            )
        return "\n".join(lines) + "\n"


#: The 13 grid cells after a cell in lexicographic order; with their mirror
#: images and the cell itself they are the 27 cells a neighbour can lie in.
_FORWARD_CELLS = tuple(o for o in itertools.product((-1, 0, 1), repeat=3) if o > (0, 0, 0))


def _threshold_groups(centers: Sequence[FracPoint], gamma: Fraction) -> list[tuple[int, ...]]:
    """Connected components of the graph joining centres at distance <= gamma.

    This is the finest partition in which every gamma-neighbourhood lies in
    a single block.  Ties count as edges.  The centres and gamma are put on
    one common denominator, so each test is an integer comparison, and
    bucketed into cubes of side gamma: centres within gamma of each other
    lie in the same or adjacent cubes, so only those pairs are tested.
    """
    scale = math.lcm(gamma.denominator, *(x.denominator for p in centers for x in p))
    g = gamma.numerator * (scale // gamma.denominator)
    g2 = g * g
    pts = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in centers]
    cells: dict[tuple[int, int, int], list[int]] = {}
    for i, (x, y, z) in enumerate(pts):
        cells.setdefault((x // g, y // g, z // g), []).append(i)
    n = len(centers)
    parent = list(range(n))
    for (cx, cy, cz), here in cells.items():
        pairs = itertools.chain(
            itertools.combinations(here, 2),
            *(
                itertools.product(here, cells.get((cx + dx, cy + dy, cz + dz), ()))
                for dx, dy, dz in _FORWARD_CELLS
            ),
        )
        for i, j in pairs:
            (xi, yi, zi), (xj, yj, zj) = pts[i], pts[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 + (zi - zj) ** 2 <= g2:
                parent[find_root(parent, i)] = find_root(parent, j)
    return [tuple(group) for group in group_by_root(parent, range(n))]


def _centroid(points: Sequence[FracPoint]) -> FracPoint:
    n = len(points)
    return tuple(sum(p[c] for p in points) / n for c in range(3))


def _reported(x: Fraction, what: str) -> float:
    """x as a float for the decomposition; a final value beyond the float
    range is refused as input out of range (the balls only grow, so every
    earlier round fits when the last one does)."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} exceeds the floating-point range") from None


def taubes_cluster(inp: StrongFieldInput) -> ClusterDecomposition:
    """Run the threshold-merge clustering on a strong-field input.

    Terminates in at most N-1 rounds since every non-final round strictly
    decreases the number of clusters; on output the surviving centres are
    pairwise further apart than the final gamma.
    """
    comps = inp.components
    n = len(comps)
    centers: list[FracPoint] = [tuple(Fraction(x) for x in c.center) for c in comps]
    d_t = max(max(Fraction(c.diameter) for c in comps), Fraction(15))
    r_t = d_t + Fraction(inp.r_prime) + 1
    g_t = 3 * r_t - d_t / 2
    blocks: list[tuple[int, ...]] = [(i,) for i in range(1, n + 1)]
    history: list[ClusterRound] = []
    t = 0
    while True:
        groups = _threshold_groups(centers, g_t)
        if all(len(g) == 1 for g in groups):
            history.append(ClusterRound(t, d_t, r_t, g_t, tuple(centers), None))
            break
        history.append(ClusterRound(t, d_t, r_t, g_t, tuple(centers), tuple(groups)))
        max_block = max(len(g) for g in groups)
        d_next = (max_block - 1) * g_t + 2 * r_t
        r_next = d_next + 1
        g_next = 3 * r_next - d_next / 2
        centers = [_centroid([centers[i] for i in g]) for g in groups]
        blocks = [
            tuple(sorted(itertools.chain.from_iterable(blocks[i] for i in g)))
            for g in groups
        ]
        d_t, r_t, g_t = d_next, r_next, g_next
        t += 1
        if t > n:
            raise AssertionError("merge loop failed to terminate")

    omega = SetPartition(n, blocks)
    charges = tuple(sum(comps[i - 1].charge for i in b) for b in omega.blocks)
    final_centers = tuple(tuple(float(x) for x in p) for p in centers)
    eps = 0.0
    if len(centers) > 1:
        eps = sum(
            1.0 / math.dist(p, q)
            for p, q in itertools.combinations(final_centers, 2)
        )
    return ClusterDecomposition(
        omega=omega,
        centers=final_centers,
        radius=_reported(r_t, "ball radius"),
        gamma=_reported(g_t, "threshold gamma"),
        diameter=_reported(d_t, "ball diameter"),
        rounds=t,
        cluster_type=IntegerPartition(charges),
        cluster_charges=charges,
        epsilon=eps,
        history=tuple(history),
    )


def is_decomposable(
    dec: ClusterDecomposition, a: IntegerPartition, radius: float, eps: float
) -> bool:
    """Whether a decomposition certifies type a at ball size `radius` and
    separation bound `eps`."""
    return dec.cluster_type == a and dec.radius <= radius and dec.epsilon < eps


def types_comparable(a: IntegerPartition, b: IntegerPartition) -> bool:
    """Whether one integer type refines the other (grouping parts)."""
    if a.total != b.total:
        raise ValueError(f"types of different total charge: {a} vs {b}")
    return refines_integer_partition(a, b) or refines_integer_partition(b, a)


def _single_linkage_merges(points: Sequence[Point]) -> list[tuple[float, int, int]]:
    """Merge events (distance, i, j), i < j, of the single-linkage tree, in
    order: each joins the clusters of points i and j, and the last joins all.

    The events are the edges of a minimum spanning tree, grown by Prim's
    O(n^2) pass and then sorted.  With tied distances the tree may differ
    from the one a sorted pass over all pairs picks, but every minimum
    spanning tree has the same sorted distances and the same partition
    after all merges up to any distance.
    """
    tree = [points[0]]
    labels = [1]
    rest = list(range(2, len(points) + 1))
    best = [math.dist(points[0], points[j - 1]) for j in rest]
    events = []
    while rest:
        m = best.index(min(best))
        dist, j = best[m], rest[m]
        p = points[j - 1]
        i = labels[list(map(math.dist, tree, itertools.repeat(p))).index(dist)]
        events.append((dist, min(i, j), max(i, j)))
        tree.append(p)
        labels.append(j)
        rest[m], best[m] = rest[-1], best[-1]
        rest.pop()
        best.pop()
        near = map(math.dist, itertools.repeat(p), (points[u - 1] for u in rest))
        best = list(map(min, best, near))
    events.sort()
    return events


def scale_chain(
    c: Configuration,
    base_scale: float = DEFAULT_BASE_SCALE,
    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD,
) -> ChainFlag:
    """Multi-scale chain of a configuration (heuristic cut rule).

    Builds the single-linkage merge tree and keeps the partition before
    every sufficiently sharp scale jump: the next merge distance must
    exceed base_scale and exceed ratio_threshold times the previous merge
    distance (clamped below at 1).  All points within base_scale yield the
    empty chain; equal large mutual distances yield the all-singletons
    chain (the free-boundary regime).
    """
    if not (base_scale > 0 and ratio_threshold > 1):
        raise ValueError("need base_scale > 0 and ratio_threshold > 1")
    _require_distinct(c.points)
    k = len(c.points)
    if k == 1:
        return ChainFlag(1, [])
    events = _single_linkage_merges(c.points)
    dists = [1.0] + [d for d, _, _ in events]
    # Level m is the partition after the first m merges; it has k - m >= 2
    # blocks for every m < k - 1, so no kept level is the one-block partition.
    kept = [
        m for m in range(k - 1)
        if dists[m + 1] > base_scale and dists[m + 1] > ratio_threshold * max(dists[m], 1.0)
    ]
    parent = list(range(k + 1))
    chain = []
    merged = 0
    for m in kept:
        for _, i, j in events[merged:m]:
            parent[find_root(parent, i)] = find_root(parent, j)
        merged = m
        chain.append(SetPartition(k, group_by_root(parent, range(1, k + 1))))
    return ChainFlag(k, chain)


def boundary_coords(c: Configuration, chain: ChainFlag) -> list[float]:
    """Boundary defining coordinates of a configuration along a chain.

    With sigma_j the smallest distance among pairs first identified at
    level j (level d+1 being the one-block partition), the coordinates are
    1/sigma_1 followed by the successive scale ratios sigma_{j-1}/sigma_j.
    A leading all-singletons entry carries no scale information and is
    skipped.
    """
    k = len(c.points)
    if chain.k != k:
        raise ValueError(f"chain over {{1..{chain.k}}} does not match {k} points")
    _require_distinct(c.points)
    if k == 1:
        return []
    levels = [p for p in chain.chain if not p.is_singletons()]
    levels.append(one_block(k))
    coords: list[float] = []
    prev: Sequence[int] = range(k)  # element i - 1 -> its block at the previous level
    sigma_prev = None
    for lam in levels:
        sigma = min(
            math.dist(c.points[i - 1], c.points[j - 1])
            for b in lam.blocks
            for i, j in itertools.combinations(b, 2)
            if prev[i - 1] != prev[j - 1]
        )
        coords.append(1.0 / sigma if sigma_prev is None else sigma_prev / sigma)
        prev = lam.index
        sigma_prev = sigma
    return coords
