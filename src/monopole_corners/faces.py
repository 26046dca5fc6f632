"""Boundary-face atlases of the compactified monopole moduli spaces.

The charge-k moduli space compactifies to a manifold with corners whose
codimension-d faces are labelled by relabelling orbits of strict refinement
chains of proper partitions of {1..k}.  Each descriptor records the chain,
the dimension of the monopole-product fibre, and the dimensions of the
free-boundary base factors; for a hypersurface indexed by a partition with
r blocks these are 4k - 3r and 3(r-1) - 1, summing to 4k - 4.

The relative atlas (faces of the compactified product attached to a fixed
coarse partition nu) is exposed through the same operations with an extra
``nu`` argument; face labels are then orbits under the group fixing each
nu-block.  The absolute atlas is the case nu = one block.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ._record import Record
from .errors import RangeLimitError
from .partitions import (
    CHAIN_LIMIT,
    IntegerPartition,
    SetPartition,
    _chain_orbits_relative,
    _leaf_memo,
    _tower_refinements,
    integer_partitions,
    one_block,
    refines_integer_partition,
)

ATLAS_K_MIN = 2


class FaceDescriptor(Record):
    """One boundary face: a chain orbit with its dimension bookkeeping."""

    __slots__ = ("k", "chain", "nu", "codim", "total_dim", "fiber_dim", "base_dims",
                 "integer_types")

    def to_json_dict(self) -> dict:
        out = {
            "chain": [p.to_rgs() for p in self.chain],
            "codim": self.codim,
            "total_dim": self.total_dim,
            "fiber_dim": self.fiber_dim,
            "base_dims": list(self.base_dims),
            "types": [list(t.parts) for t in self.integer_types],
        }
        if not self.nu.is_one_block():
            out["nu"] = self.nu.to_rgs()
        return out


class IbfReport(Record):
    """Result of the combinatorial iterated-boundary-fibration checks."""

    __slots__ = ("k", "edges", "hypersurface_dims", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_k(k: int) -> None:
    if not ATLAS_K_MIN <= k <= CHAIN_LIMIT:
        raise RangeLimitError(f"k must be in {ATLAS_K_MIN}..{CHAIN_LIMIT}, got {k}")


def iter_corner_atlas(
    k: int, d: int, nu: SetPartition | None = None
) -> Iterator[FaceDescriptor]:
    """The descriptors of :func:`corner_atlas`, in the same order, yielded
    one (ranks, types) group at a time.  Until its group comes, every face
    is held as one packed int; each level partition is built once per atlas
    and shared by every chain that has it, and only the current group's
    flags and descriptors are built.
    The arguments are checked when this is called, before the first
    descriptor is asked for."""
    _check_k(k)
    if d < 1:
        raise RangeLimitError(f"codimension must be positive, got {d}")
    if nu is None:
        nu = one_block(k)
    elif nu.k != k:
        raise ValueError("nu is not a partition of {1..%d}" % k)
    return _atlas_descriptors(k, d, nu)


def _atlas_descriptors(k: int, d: int, nu: SetPartition) -> Iterator[FaceDescriptor]:
    # A face's dimensions and types depend only on its group's types, whose
    # lengths are the ranks of the chain levels; each level's type is an
    # integer partition of k, one shared object per type.
    by_parts = {t.parts: t for t in integer_partitions(k)}
    for types, flags in _chain_orbits_relative(k, d, nu.blocks):
        ranks = [*map(len, types), nu.rank]
        fiber = 4 * k - 3 * ranks[0]
        bases = tuple(3 * (ranks[i] - ranks[i + 1]) - 1 for i in range(d))
        total = fiber + sum(bases)
        integer_types = tuple(by_parts[t] for t in types)
        for flag in flags:
            yield FaceDescriptor(k, flag, nu, d, total, fiber, bases, integer_types)


def corner_atlas(k: int, d: int, nu: SetPartition | None = None) -> list[FaceDescriptor]:
    """One descriptor per codimension-d corner of the charge-k atlas.

    With ``nu`` given, enumerates the corners of the relative atlas instead.
    Faces come in the order of `partitions.chains_mod_symmetric_group`.
    Returns the empty list when d exceeds the longest possible chain.
    """
    return list(iter_corner_atlas(k, d, nu))


def hypersurface_atlas(k: int, nu: SetPartition | None = None) -> list[FaceDescriptor]:
    """One descriptor per boundary hypersurface of the charge-k atlas."""
    return corner_atlas(k, 1, nu=nu)


def intersection_components(k: int, a: IntegerPartition, b: IntegerPartition) -> int:
    """Number of connected components of the intersection of the two
    hypersurfaces of types a and b: the codim-2 chain orbits refining one
    type into the other, zero when the types are not comparable.  It counts
    the one-level refinements of the coarser type's tower (each part n
    becomes an integer partition of n, equal parts interchangeable) whose
    leaves sort to the finer type.
    """
    _check_k(k)
    for t in (a, b):
        if t.total != k:
            raise ValueError(f"{t} is not a partition of {k}")
        if len(t) < 2:
            raise ValueError(f"{t} is not a proper type of {k}")
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    # a, the finer type, has more parts.
    refined = _tower_refinements(b.parts[::-1], _leaf_memo(set(b.parts)))
    return sum(1 for tower, n in refined
               if n == len(a) and tuple(sorted(itertools.chain(*tower))) == a.parts)


def validate_ibf(k: int) -> IbfReport:
    """Combinatorial consistency of the boundary-fibration bookkeeping.

    For every pair of intersecting hypersurfaces the base dimensions must
    differ and the fibre-dimension order must agree with refinement of the
    indexing types; every comparable pair must appear among the codim-2
    corners, whose factor dimensions must decompose the finer hypersurface's
    base.  Violations are returned as data, never raised.
    """
    _check_k(k)
    hypersurfaces = hypersurface_atlas(k)
    violations: list[str] = []
    by_type = {h.integer_types[0]: h for h in hypersurfaces}
    corners_by_types: dict[tuple, list[FaceDescriptor]] = {}
    for c in corner_atlas(k, 2):
        corners_by_types.setdefault(c.integer_types, []).append(c)
    edges = []
    for a, b in itertools.combinations(sorted(by_type, key=lambda t: t.parts), 2):
        # Only a type with more parts can refine another.
        if len(a) < len(b):
            a, b = b, a
        if len(a) == len(b) or not refines_integer_partition(a, b):
            continue
        ha, hb = by_type[a], by_type[b]
        edges.append((a, b))
        if ha.base_dims[0] == hb.base_dims[0]:
            violations.append(f"intersecting {a} and {b} have equal base dims")
        if not ha.fiber_dim < hb.fiber_dim:
            violations.append(f"fiber-dim order disagrees with refinement for {a} < {b}")
        if not ha.base_dims[0] > hb.base_dims[0]:
            violations.append(f"base-dim order disagrees with refinement for {a} < {b}")
        pair_corners = corners_by_types.get((a, b), [])
        if not pair_corners:
            violations.append(f"no codim-2 corner for comparable pair {a} < {b}")
        for c in pair_corners:
            if c.fiber_dim != ha.fiber_dim:
                violations.append(f"corner {a}<{b}: fiber dim {c.fiber_dim} != {ha.fiber_dim}")
            if c.base_dims[-1] != hb.base_dims[0]:
                violations.append(
                    f"corner {a}<{b}: composed fibration target dim {c.base_dims[-1]}"
                    f" != base dim {hb.base_dims[0]} of the coarse hypersurface"
                )
            if c.fiber_dim + sum(c.base_dims) != c.total_dim:
                violations.append(f"corner {a}<{b}: factor dims do not sum to total")
    for h in hypersurfaces:
        t = h.integer_types[0]
        if h.total_dim != 4 * k - 4:
            violations.append(f"hypersurface {t}: total dim {h.total_dim} != {4 * k - 4}")
        if h.fiber_dim + sum(h.base_dims) != h.total_dim:
            violations.append(f"hypersurface {t}: fiber+base != total")
    dims = {h.integer_types[0]: (h.base_dims[0], h.fiber_dim) for h in hypersurfaces}
    return IbfReport(k=k, edges=tuple(edges), hypersurface_dims=dims, violations=tuple(violations))


def cover_schedule(k: int) -> list[tuple[IntegerPartition, int]]:
    """Hypersurface labels in a collar-construction order.

    Labels are graded by depth in the refinement order of proper types,
    finest type first.  (1^k) is the one finest type and each cover step
    merges two parts, so the depth of a type t is k - len(t).  Labels
    sharing a depth stage have equally many parts, so they are pairwise
    incomparable, and their collars may be pushed out simultaneously.
    """
    _check_k(k)
    return sorted(((t, k - len(t)) for t in integer_partitions(k) if len(t) >= 2),
                  key=lambda e: (e[1], e[0].parts))
