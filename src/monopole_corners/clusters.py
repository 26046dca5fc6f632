"""Cluster decomposition of point configurations and boundary coordinates.

The decomposition algorithm groups the connected components of a
strong-field region into widely separated balls by iterating a threshold
merge: starting from the component centres, points closer than the current
threshold gamma are merged into centroids, and the ball data grows by

    d' = (max block size - 1) * gamma + 2 * R,   R' = d' + 1,
    gamma' = 3 * R' - d' / 2,

until all surviving centres are pairwise further apart than gamma.  The
whole recursion is rational in the inputs, so it is run in exact rational
arithmetic (floats enter exactly); distance comparisons use squared norms.
Only the separation functional needs square roots and is reported in
floating point.

Taubes-type constants are not derivable at this level: the ball-growth
seed R' is a configuration parameter and charges are supplied as input
data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from numbers import Real
from typing import Iterable, Sequence

from .errors import DegenerateInputError
from .partitions import (
    ChainFlag,
    IntegerPartition,
    SetPartition,
    find_root,
    group_by_root,
    one_block,
    refines_integer_partition,
    singletons,
)

#: Defaults for the heuristic multi-scale chain cut; the base scale is ten
#: times the zero-diameter threshold gamma^0 = 3*(15+1+1) - 15/2 = 43.5.
DEFAULT_BASE_SCALE = 435.0
DEFAULT_RATIO_THRESHOLD = 10.0

Point = tuple[float, float, float]


def _as_point(p: Sequence[float]) -> Point:
    try:
        q = tuple(float(x) for x in p)
    except TypeError:
        raise ValueError(f"points live in R^3, got {p!r}") from None
    if len(q) != 3:
        raise ValueError(f"points live in R^3, got {p!r}")
    if not all(math.isfinite(x) for x in q):
        raise ValueError(f"non-finite coordinate in {p!r}")
    return q


class Configuration:
    """Labelled points in R^3, optionally carrying positive integer charges."""

    __slots__ = ("points", "charges")

    def __init__(self, points: Iterable[Sequence[float]], charges: Iterable[int] | None = None):
        pts = tuple(_as_point(p) for p in points)
        if not pts:
            raise ValueError("configuration needs at least one point")
        ch = None
        if charges is not None:
            ch = tuple(_as_charge(c) for c in charges)
            if len(ch) != len(pts):
                raise ValueError("one charge per point required")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "charges", ch)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @classmethod
    def from_json_dict(cls, d: dict) -> "Configuration":
        """Parse the JSON form, naming the offending field on bad input."""
        if not isinstance(d, dict):
            raise ValueError(f"configuration must be a JSON object, got {type(d).__name__}")
        if not isinstance(d.get("points"), list):
            raise ValueError("'points' must be a list of points in R^3")
        charges = d.get("charges")
        if not (charges is None or isinstance(charges, list)):
            raise ValueError("'charges' must be a list of positive integers")
        return cls(d["points"], charges)

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


@dataclass(frozen=True)
class StrongFieldComponent:
    center: Point
    diameter: float
    charge: int

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not (_is_real(self.diameter) and math.isfinite(self.diameter) and self.diameter >= 0):
            raise ValueError(f"diameter must be a nonnegative number, got {self.diameter!r}")
        object.__setattr__(self, "charge", _as_charge(self.charge))


_COMPONENT_FIELDS = frozenset(f.name for f in fields(StrongFieldComponent))


def _is_real(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)


def _as_charge(c) -> int:
    """A positive integer charge; integral floats such as 2.0 are accepted."""
    if not (_is_real(c) and math.isfinite(c) and c == int(c) >= 1):
        raise ValueError(f"charge must be a positive integer, got {c!r}")
    return int(c)


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
        if not (_is_real(r_prime) and math.isfinite(r_prime) and r_prime > 0):
            raise ValueError(f"r_prime must be a positive number, got {r_prime!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "r_prime", float(r_prime))

    def __setattr__(self, name, value):
        raise AttributeError("StrongFieldInput is immutable")

    @classmethod
    def from_json_dict(cls, d: dict) -> "StrongFieldInput":
        """Parse the JSON form, naming the offending field on bad input."""
        if not isinstance(d, dict):
            raise ValueError(f"strong-field input must be a JSON object, got {type(d).__name__}")
        if not isinstance(d.get("components"), list):
            raise ValueError("'components' must be a list of component objects")
        comps = []
        for i, c in enumerate(d["components"]):
            if not isinstance(c, dict):
                raise ValueError(f"components[{i}] must be an object, got {type(c).__name__}")
            if set(c) != _COMPONENT_FIELDS:
                raise ValueError(
                    f"components[{i}] needs exactly the fields {sorted(_COMPONENT_FIELDS)},"
                    f" got {sorted(c)}"
                )
            try:
                comps.append(StrongFieldComponent(**c))
            except ValueError as exc:
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


@dataclass(frozen=True)
class ClusterRound:
    """Exact state of one round: thresholds, centres, and the merge taken."""

    t: int
    d: Fraction
    radius: Fraction
    gamma: Fraction
    centers: tuple[FracPoint, ...]
    merged_groups: tuple[tuple[int, ...], ...] | None  # None on the final round

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class ClusterDecomposition:
    """Result of the threshold-merge algorithm."""

    omega: SetPartition                 # partition of the input component indices
    centers: tuple[Point, ...]
    radius: float
    gamma: float
    diameter: float
    rounds: int
    cluster_type: IntegerPartition      # sorted multiset of cluster charges
    cluster_charges: tuple[int, ...]    # aligned with omega.blocks
    epsilon: float                      # separation of the final centres
    history: tuple[ClusterRound, ...]

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


def _dist2(p: FracPoint, q: FracPoint) -> Fraction:
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def _threshold_groups(centers: Sequence[FracPoint], gamma: Fraction) -> list[tuple[int, ...]]:
    """Connected components of the graph joining centres at distance <= gamma.

    This is the finest partition in which every gamma-neighbourhood lies in
    a single block.  Ties count as edges.
    """
    n = len(centers)
    parent = list(range(n))
    g2 = gamma * gamma
    for i, j in itertools.combinations(range(n), 2):
        if _dist2(centers[i], centers[j]) <= g2:
            parent[find_root(parent, i)] = find_root(parent, j)
    return [tuple(g) for g in group_by_root(parent, range(n))]


def _centroid(points: Sequence[FracPoint]) -> FracPoint:
    n = len(points)
    return tuple(sum(p[c] for p in points) / n for c in range(3))


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
        radius=float(r_t),
        gamma=float(g_t),
        diameter=float(d_t),
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


def _single_linkage_merges(points: Sequence[Point]) -> list[tuple[float, SetPartition]]:
    """Merge events (distance, partition after the merge), coarsest last."""
    n = len(points)
    parent = list(range(n + 1))
    pairs = sorted(
        (math.dist(points[i - 1], points[j - 1]), i, j)
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )
    events = []
    for dist, i, j in pairs:
        ri, rj = find_root(parent, i), find_root(parent, j)
        if ri == rj:
            continue
        parent[ri] = rj
        events.append((dist, SetPartition(n, group_by_root(parent, range(1, n + 1)))))
        if len(events) == n - 1:
            break
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
    levels = [singletons(k)] + [p for _, p in events]
    dists = [1.0] + [d for d, _ in events]
    chain = []
    for i in range(len(events)):
        nxt = dists[i + 1]
        if nxt > base_scale and nxt > ratio_threshold * max(dists[i], 1.0):
            if not levels[i].is_one_block():
                chain.append(levels[i])
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
    prev = singletons(k)
    sigma_prev = None
    for lam in levels:
        new_pairs = [
            (i, j)
            for i, j in itertools.combinations(range(1, k + 1), 2)
            if lam.block_index(i) == lam.block_index(j)
            and prev.block_index(i) != prev.block_index(j)
        ]
        sigma = min(math.dist(c.points[i - 1], c.points[j - 1]) for i, j in new_pairs)
        coords.append(1.0 / sigma if sigma_prev is None else sigma_prev / sigma)
        prev, sigma_prev = lam, sigma
    return coords
