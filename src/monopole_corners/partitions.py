"""Set partitions of {1..k}, the refinement lattice, and their symmetry groups.

A set partition is stored canonically (blocks sorted by their minimum
element), so equal partitions always have identical representations and can
be hashed and compared directly.  Relabelling orbits under the symmetric
group, and orbits of refinement chains, are enumerated without ever touching
explicit permutations: a chain of partitions up to relabelling is the same
thing as a nested multiset of block sizes (a "tower"), and towers are
enumerated top down, one chain entry per level.

Everything here is immutable after construction.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import ChainError, RangeLimitError
from .inputs import as_digits, as_int, as_list, as_object

#: Full enumeration of set partitions is capped here (Bell(12) ~ 4.2e6).
ENUMERATION_LIMIT = 12

#: Chain-orbit enumeration and flag symmetry orders are capped here.
CHAIN_LIMIT = 8


class SetPartition:
    """A partition of {1..k} into disjoint nonempty blocks.

    `index` is the restricted-growth word: `index[i - 1]` is the number of
    the block that holds i, blocks numbered by their minimum.  It is the
    one element-to-block map every reader of a partition uses.
    """

    __slots__ = ("blocks", "index")

    def __init__(self, k: int, blocks: Iterable[Iterable[int]]):
        if k < 1:
            raise ValueError(f"ground-set size must be positive, got {k}")
        raw = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in raw):
            raise ValueError("empty block")
        blks = tuple(sorted(raw, key=lambda b: b[0]))
        where: dict[int, int] = {}
        for n, b in enumerate(blks):
            for i in b:
                if not 1 <= i <= k:
                    raise ValueError(f"element {i} outside 1..{k}")
                if i in where:
                    raise ValueError(f"element {i} appears in two blocks")
                where[i] = n
        # k distinct elements in range cover {1..k} unless one is not an integer.
        index = tuple(map(where.get, range(1, k + 1))) if len(where) == k else None
        if index is None or None in index:
            raise ValueError("blocks do not cover {1..%d}" % k)
        object.__setattr__(self, "blocks", blks)
        object.__setattr__(self, "index", index)

    @classmethod
    def _canonical(
        cls, blocks: tuple[tuple[int, ...], ...], index: tuple[int, ...]
    ) -> "SetPartition":
        """Wrap blocks that are already canonical, and their restricted-growth
        word, without checking them: ascending tuples, sorted by minimum,
        covering {1..len(index)} disjointly.  Only for callers whose blocks
        are valid by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "index", index)
        return self

    @classmethod
    def _from_word(cls, word: tuple[int, ...]) -> "SetPartition":
        """The partition of a restricted-growth word, without checking it.
        Restricted growth opens block n at its first element, after blocks
        0..n-1, so first-appearance order is order by minimum."""
        blocks: list[list[int]] = []
        for i, n in enumerate(word, start=1):
            if n == len(blocks):
                blocks.append([i])
            else:
                blocks[n].append(i)
        return cls._canonical(tuple(map(tuple, blocks)), word)

    @classmethod
    def _from_blocks(cls, k: int, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """Wrap canonical blocks of {1..k} without checking them, numbering
        each element by its block."""
        index = [0] * k
        for n, b in enumerate(blocks):
            for i in b:
                index[i - 1] = n
        return cls._canonical(blocks, tuple(index))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __reduce__(self):
        return type(self), (self.k, self.blocks)

    @property
    def k(self) -> int:
        """Size of the ground set {1..k}."""
        return len(self.index)

    @property
    def rank(self) -> int:
        """Number of blocks, r(partition)."""
        return len(self.blocks)

    def block_index(self, i: int) -> int:
        if not 1 <= i <= len(self.index):
            raise ValueError(f"element {i} outside 1..{self.k}")
        return self.index[i - 1]

    def block_of(self, i: int) -> tuple[int, ...]:
        return self.blocks[self.block_index(i)]

    def is_singletons(self) -> bool:
        return len(self.blocks) == len(self.index)

    def is_one_block(self) -> bool:
        return len(self.blocks) == 1

    def to_rgs(self) -> str:
        """Restricted-growth string, e.g. "0010" for {{1,2,4},{3}}.

        Uses one character per element when all block indices are single
        digits, and a pipe-separated form otherwise.
        """
        return ("" if len(self.blocks) <= 10 else "|").join(map(str, self.index))

    @classmethod
    def from_rgs(cls, s: str, what: str = "restricted-growth string") -> "SetPartition":
        """Inverse of :meth:`to_rgs`; `what` names the field in errors."""
        if s.isascii() and s.isdigit():
            idx = tuple(map(int, s))
        else:
            tokens = s.split("|") if "|" in s else list(s)
            if not tokens:
                raise ValueError(f"{what} is empty")
            idx = tuple(as_digits(t, what, 0) for t in tokens)
        top = -1
        for n in idx:
            if n > top:
                if n > top + 1:
                    raise ValueError(f"{what}: not a restricted-growth string: {s!r}")
                top = n
        return cls._from_word(idx)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SetPartition":
        d = as_object(d, "set partition")
        blocks = []
        for i, b in enumerate(as_list(d, "blocks", "a list of blocks")):
            if not isinstance(b, list):
                raise ValueError(f"blocks[{i}] must be a list of elements, got {b!r}")
            blocks.append([as_int(x, f"blocks[{i}]", 1) for x in b])
        return cls(as_int(d.get("k"), "k", 1), blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPartition) and self.index == other.index

    def __hash__(self) -> int:
        return hash(self.index)

    def __str__(self) -> str:
        return "{" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"

    def __repr__(self) -> str:
        return f"SetPartition({self.k}, {self})"


class IntegerPartition:
    """A multiset of positive integers, stored sorted ascending."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        p = tuple(parts)
        if not p:
            raise ValueError("integer partition needs at least one part")
        for x in p:
            if type(x) is not int or x < 1:
                raise ValueError(f"parts must be integers >= 1, got {x!r}")
        object.__setattr__(self, "parts", tuple(sorted(p)))

    def __setattr__(self, name, value):
        raise AttributeError("IntegerPartition is immutable")

    def __reduce__(self):
        return type(self), (self.parts,)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerPartition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"

    def __repr__(self) -> str:
        return f"IntegerPartition{self.parts}"


class ChainFlag:
    """A strictly increasing refinement chain of partitions of {1..k}.

    Entries are ordered finest first and may not include the one-block
    partition.  The empty chain is allowed (it labels the interior).
    """

    __slots__ = ("k", "chain")

    def __init__(self, k: int, chain: Iterable[SetPartition]):
        entries = tuple(chain)
        for p in entries:
            if not isinstance(p, SetPartition) or p.k != k:
                raise ChainError(f"chain entry {p!r} is not a partition of {{1..{k}}}")
            if p.is_one_block() and k > 1:
                raise ChainError("chain entries must be proper partitions")
        for a, b in zip(entries, entries[1:]):
            if a == b or not refines(a, b):
                raise ChainError(f"{a} does not strictly refine {b}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "chain", entries)

    @classmethod
    def _canonical(cls, k: int, chain: tuple[SetPartition, ...]) -> "ChainFlag":
        """Wrap a tuple of proper partitions of {1..k}, each strictly
        refining the next, without checking it.  Only for callers whose
        chains are valid by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "chain", chain)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ChainFlag is immutable")

    def __reduce__(self):
        return type(self), (self.k, self.chain)

    def __len__(self) -> int:
        return len(self.chain)

    def __iter__(self) -> Iterator[SetPartition]:
        return iter(self.chain)

    def __getitem__(self, i):
        return self.chain[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ChainFlag) and self.k == other.k and self.chain == other.chain

    def __hash__(self) -> int:
        return hash((self.k, self.chain))

    def __repr__(self) -> str:
        return f"ChainFlag({self.k}, [{', '.join(str(p) for p in self.chain)}])"


def singletons(k: int) -> SetPartition:
    return SetPartition(k, ([i] for i in range(1, k + 1)))


def one_block(k: int) -> SetPartition:
    return SetPartition(k, [range(1, k + 1)])


def all_partitions(k: int) -> list[SetPartition]:
    """Every set partition of {1..k}, in lexicographic order of their
    restricted-growth strings."""
    if not 1 <= k <= ENUMERATION_LIMIT:
        raise RangeLimitError(f"k must be in 1..{ENUMERATION_LIMIT}, got {k}")
    return list(iter_partitions(k))


def iter_partitions(k: int) -> Iterator[SetPartition]:
    if not 1 <= k <= ENUMERATION_LIMIT:
        raise RangeLimitError(f"k must be in 1..{ENUMERATION_LIMIT}, got {k}")
    new = SetPartition._canonical
    # Element i joins each open block in turn, then opens a new one: the
    # restricted-growth words in lexicographic order, kept in `word` next to
    # the blocks.  Blocks stay ascending and in order of their minimum, so
    # no output is re-checked.
    blocks: list[list[int]] = [[1]]
    word = [0] * k

    def place(i: int) -> Iterator[SetPartition]:
        if i > k:
            yield new(tuple(map(tuple, blocks)), tuple(word))
            return
        for n, b in enumerate(blocks):
            b.append(i)
            word[i - 1] = n
            yield from place(i + 1)
            b.pop()
        word[i - 1] = len(blocks)
        blocks.append([i])
        yield from place(i + 1)
        blocks.pop()

    yield from place(2)


def refines(lam: SetPartition, mu: SetPartition) -> bool:
    """True iff every block of mu is a union of blocks of lam (lam is finer):
    each lam-block meets exactly one mu-block."""
    if lam.k != mu.k:
        raise ValueError("partitions have different ground sets")
    return len(set(zip(lam.index, mu.index))) == len(lam.blocks)


def blocks_within(lam: SetPartition, nu: SetPartition) -> list[list[tuple[int, ...]]]:
    """The blocks of lam grouped by the block of a coarser nu that holds
    them: entry n lists, in order, the lam-blocks inside nu-block n."""
    groups: list[list[tuple[int, ...]]] = [[] for _ in nu.blocks]
    for b in lam.blocks:
        groups[nu.index[b[0] - 1]].append(b)
    return groups


def find_root(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def group_by_root(parent: list[int], elements: Iterable[int]) -> list[list[int]]:
    """Elements grouped by union-find root, groups in order of first
    appearance (for ascending elements: by smallest member)."""
    groups: dict[int, list[int]] = {}
    for x in elements:
        groups.setdefault(find_root(parent, x), []).append(x)
    return list(groups.values())


def block_masks(lam: SetPartition) -> tuple[int, ...]:
    """The blocks of lam as bitmasks, bit i - 1 standing for element i."""
    return tuple(sum(1 << (i - 1) for i in b) for b in lam.blocks)


def join_masks(a: Sequence[int], b: Iterable[int]) -> frozenset[int]:
    """Blocks of the finest common coarsening of two partitions of one
    ground set, both given as block bitmasks (see :func:`block_masks`).

    Each block of b merges the blocks it meets; a singleton block meets
    exactly one and is skipped.
    """
    blocks = a
    for mb in b:
        if mb & (mb - 1):
            merged = mb
            rest = []
            for x in blocks:
                if x & mb:
                    merged |= x
                else:
                    rest.append(x)
            rest.append(merged)
            blocks = rest
    return frozenset(blocks)


def join(lam: SetPartition, mu: SetPartition) -> SetPartition:
    """Finest common coarsening (the lattice join under refinement order)."""
    if lam.k != mu.k:
        raise ValueError("partitions have different ground sets")
    blocks = join_masks(block_masks(lam), block_masks(mu))
    return SetPartition(lam.k, ([i + 1 for i in range(lam.k) if m >> i & 1] for m in blocks))


def meet(lam: SetPartition, mu: SetPartition) -> SetPartition:
    """Coarsest common refinement (pairwise block intersections)."""
    if lam.k != mu.k:
        raise ValueError("partitions have different ground sets")
    # Number each (lam-block, mu-block) pair at its first element.
    seen: dict[tuple[int, int], int] = {}
    return SetPartition._from_word(
        tuple(seen.setdefault(pair, len(seen)) for pair in zip(lam.index, mu.index))
    )


def type_of(lam: SetPartition) -> IntegerPartition:
    """The integer partition of block sizes, [lam]."""
    return IntegerPartition(len(b) for b in lam.blocks)


def apply_permutation(sigma: Sequence[int], lam: SetPartition) -> SetPartition:
    """Relabel a partition through sigma, given as a 1-based image tuple."""
    if len(sigma) != lam.k:
        raise ValueError("permutation length does not match ground set")
    return SetPartition(lam.k, ([sigma[i - 1] for i in b] for b in lam.blocks))


def orbit_canonical(lam: SetPartition) -> SetPartition:
    """Deterministic representative of the relabelling orbit of lam.

    This is the partition whose restricted-growth string is
    lexicographically least: blocks in decreasing size, filled with
    consecutive integers.
    """
    sizes = sorted((len(b) for b in lam.blocks), reverse=True)
    return SetPartition._from_word(tuple(n for n, s in enumerate(sizes) for _ in range(s)))


def integer_partitions(k: int) -> list[IntegerPartition]:
    """All integer partitions of k, ascending-lexicographic."""
    if k < 1:
        raise RangeLimitError(f"k must be positive, got {k}")
    out: list[IntegerPartition] = []

    def rec(remaining: int, minimum: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(IntegerPartition(acc))
            return
        for part in range(minimum, remaining + 1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(k, 1, [])
    return out


@lru_cache(maxsize=None)
def _refines_integer(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if sum(a) != sum(b):
        return False
    if len(a) < len(b):
        return False
    if len(b) == 1:
        return True
    target = b[-1]
    rest_b = b[:-1]
    n = len(a)

    def choose(idx: int, remaining: int, chosen: list[int]) -> bool:
        if remaining == 0:
            left = tuple(a[i] for i in range(n) if i not in set(chosen))
            return _refines_integer(left, rest_b)
        prev = None
        for i in range(idx, n):
            if a[i] > remaining or a[i] == prev:
                continue
            prev = a[i]
            chosen.append(i)
            if choose(i + 1, remaining - a[i], chosen):
                chosen.pop()
                return True
            chosen.pop()
        return False

    return choose(0, target, [])


def refines_integer_partition(a: IntegerPartition, b: IntegerPartition) -> bool:
    """True iff b is obtained from a by grouping (bracketing) parts of a.

    Reflexive: every partition refines itself.
    """
    if a.total != b.total:
        raise ValueError("integer partitions of different totals")
    return _refines_integer(a.parts, b.parts)


# ---------------------------------------------------------------------------
# Chain orbits via nested block-size towers.
#
# A chain lam_1 <= ... <= lam_d on {1..k}, taken up to relabelling, carries
# exactly the information of a depth-d tower: lam_d splits the ground set
# into blocks, and each block carries the restricted depth-(d-1) tower.  A
# depth-0 tower is just a block size.  Towers are nested tuples sorted in
# decreasing (size, structure) order, which makes them canonical.
#
# Towers are enumerated top down.  Below a coarse partition nu the depth-0
# forest holds one block size per nu-block.  Each level replaces every leaf
# n by an integer partition of n and re-sorts each node's children; this
# adds the next finer chain entry.  A refined forest is kept only when some
# leaf really splits, which keeps the chain strict, and when its leaf count
# leaves room for one more split at each level still to come, so every
# forest kept extends to a full chain.  Each level's forests are keyed in a
# dict, so each orbit appears once and the work follows the number of
# orbits, not of weak towers.
# ---------------------------------------------------------------------------


def _tower_size(t) -> int:
    return t if isinstance(t, int) else sum(_tower_size(c) for c in t)


@lru_cache(maxsize=None)
def _leaf_refinements(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(parts descending, part count) for each integer partition of n."""
    return tuple((tuple(reversed(p.parts)), len(p)) for p in integer_partitions(n))


def _tower_refinements(tower, memo: dict) -> Sequence[tuple]:
    """(refined tower, leaf count) for every way of replacing each leaf n of
    `tower` by an integer partition of n, with children re-sorted
    canonically.  `memo` must already hold the answer for every leaf."""
    got = memo.get(tower)
    if got is None:
        # Refining keeps each child's size, so sort on the old sizes.
        sizes = [_tower_size(c) for c in tower]
        seen: dict[tuple, int] = {}
        for kids in itertools.product(*(_tower_refinements(c, memo) for c in tower)):
            keyed = sorted(zip(sizes, (t for t, _ in kids)), reverse=True)
            seen[tuple(t for _, t in keyed)] = sum(n for _, n in kids)
        got = memo[tower] = list(seen.items())
    return got


def _chain_orbits_relative(
    k: int, d: int, blocks: tuple[tuple[int, ...], ...], coarse_rank: int
) -> Iterator[ChainFlag]:
    """Orbit representatives of strict chains lam_1 < ... < lam_d finer than
    the partition with the given blocks, under permutations fixing each
    block, in atlas order.  The absolute case is a single block with
    coarse_rank 1.

    Atlas order is finest ranks descending, then block-size types, then
    restricted-growth words (the order of the RGS strings up to 10 blocks).
    A forest fixes the ranks and types of its chain, so the flags are
    realized and yielded one (ranks, types) group at a time.
    """
    groups: dict[tuple, list[tuple]] = {}
    for forest in _level_forests(k, d, blocks, coarse_rank):
        groups.setdefault(_forest_shape(forest, d), []).append(forest)
    # Each realized block is an ascending run of one coarse block, and each
    # level strictly refines the next, so the flags are valid as built.
    new_partition, new_flag = SetPartition._from_blocks, ChainFlag._canonical
    for shape in sorted(groups):
        flags = []
        for forest in groups.pop(shape):
            level_blocks: list[list[tuple[int, ...]]] = [[] for _ in range(d)]
            for tower, members in zip(forest, blocks):
                _realize_tower(tower, members, level_blocks)
            chain = tuple(new_partition(k, tuple(sorted(lb))) for lb in level_blocks)
            flags.append(new_flag(k, chain))
        flags.sort(key=lambda f: [p.index for p in f.chain])
        yield from flags


def _level_forests(
    k: int, d: int, blocks: tuple[tuple[int, ...], ...], coarse_rank: int
) -> dict[tuple, int]:
    """The level-d forests below the given coarse blocks: one tower per
    block, each orbit once, mapped to the rank of their finest level."""
    memo: dict = {n: _leaf_refinements(n) for n in range(1, max(len(b) for b in blocks) + 1)}
    # Each forest maps to the rank of its finest level so far.
    forests = {tuple(len(b) for b in blocks): coarse_rank}
    for level in range(1, d + 1):
        cap = k - (d - level)
        refined: dict[tuple, int] = {}
        for forest, rank in forests.items():
            for combo in itertools.product(*(_tower_refinements(t, memo) for t in forest)):
                n = sum(c for _, c in combo)
                if rank < n <= cap:
                    refined[tuple(t for t, _ in combo)] = n
        forests = refined
    return forests


def _forest_shape(forest: tuple, d: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The atlas-order key of a forest's chain, read off its node sizes:
    the negated rank of each level, finest first, then each level's block
    sizes in ascending order."""
    sizes: list[list[int]] = [[] for _ in range(d)]
    for tower in forest:
        _tower_sizes(tower, d, sizes)
    return tuple(-len(s) for s in sizes), tuple(tuple(sorted(s)) for s in sizes)


def _tower_sizes(tower, height: int, per_level: list[list[int]]) -> int:
    """Append to per_level[j] the sizes of the tower's height-j nodes (the
    blocks of lam_{j+1} inside it), and return the tower's size."""
    if height == 0:
        return tower
    total = 0
    for child in tower:
        n = _tower_sizes(child, height - 1, per_level)
        per_level[height - 1].append(n)
        total += n
    return total


def _realize_tower(tower, elements: Sequence[int], per_level: list[list[tuple[int, ...]]]) -> None:
    """Assign `elements` to the leaves of a tower of depth len(per_level).

    Appends to per_level[j] the blocks of lam_{j+1} inside this tower (the
    element sets of the tower's height-j nodes).
    """
    pos = 0

    def walk(t, height: int) -> tuple[int, ...]:
        nonlocal pos
        if height == 0:
            got = tuple(elements[pos : pos + t])
            pos += t
            return got
        acc: list[int] = []
        for child in t:
            sub = walk(child, height - 1)
            per_level[height - 1].append(sub)
            acc.extend(sub)
        return tuple(acc)

    walk(tower, len(per_level))


def chains_mod_symmetric_group(k: int, d: int) -> list[ChainFlag]:
    """One representative per relabelling orbit of strict chains
    lam_1 < ... < lam_d of proper partitions of {1..k}, in the order of
    `faces.corner_atlas(k, d)`: finest ranks descending, then block-size
    types, then restricted-growth words."""
    if not 1 <= k <= CHAIN_LIMIT:
        raise RangeLimitError(f"k must be in 1..{CHAIN_LIMIT}, got {k}")
    if not 1 <= d <= k - 1:
        raise RangeLimitError(f"d must be in 1..{k - 1}, got {d}")
    return list(_chain_orbits_relative(k, d, (tuple(range(1, k + 1)),), 1))


# ---------------------------------------------------------------------------
# Symmetry groups of partitions and flags.
# ---------------------------------------------------------------------------


class SymmetryOrders(Record):
    __slots__ = ("order_sigma_lambda", "order_stab", "order_sym_lambda")

    def __init__(self, order_sigma_lambda: int, order_stab: int, order_sym_lambda: int):
        object.__setattr__(self, "order_sigma_lambda", order_sigma_lambda)
        object.__setattr__(self, "order_stab", order_stab)
        object.__setattr__(self, "order_sym_lambda", order_sym_lambda)


class FlagSymmetryOrders(Record):
    __slots__ = ("order_sym0", "order_sym")

    def __init__(self, order_sym0: int, order_sym: int):
        object.__setattr__(self, "order_sym0", order_sym0)
        object.__setattr__(self, "order_sym", order_sym)


def symmetry_orders(lam: SetPartition) -> SymmetryOrders:
    """Orders of the block-preserving groups attached to a partition.

    Stab fixes every block pointwise up to internal shuffles, Sym permutes
    equal-size blocks, and the full symmetry group is their extension.
    """
    stab = prod(factorial(len(b)) for b in lam.blocks)
    sym = _multiplicity_factorials(len(b) for b in lam.blocks)
    return SymmetryOrders(stab * sym, stab, sym)


def _multiplicity_factorials(items: Iterable) -> int:
    """The product of m! over the multiplicities m of the items."""
    counts: dict = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    return prod(map(factorial, counts.values()))


def flag_symmetry_orders(lam: SetPartition, nu: SetPartition) -> FlagSymmetryOrders:
    """Orders of the symmetry groups of the strict flag lam < nu.

    Sym0 consists of flag symmetries acting trivially on the coarse level:
    within each nu-block it permutes lam-blocks of equal size.  Sym is the
    full flag-symmetry group; it also permutes nu-blocks whose multisets of
    lam-block sizes agree.  Both groups permute blocks, not points (shuffles
    inside a lam-block are factored out), so their orders are products of
    factorials of these multiplicities.
    """
    if lam.k != nu.k:
        raise ValueError("partitions have different ground sets")
    if lam == nu or not refines(lam, nu):
        raise ValueError("need a strict flag: lam strictly finer than nu")
    if lam.k > CHAIN_LIMIT:
        raise RangeLimitError(f"flag symmetry orders capped at k <= {CHAIN_LIMIT}")
    groups = blocks_within(lam, nu)
    sym0 = _multiplicity_factorials((n, len(b)) for n, g in enumerate(groups) for b in g)
    sym = sym0 * _multiplicity_factorials(tuple(sorted(map(len, g))) for g in groups)
    return FlagSymmetryOrders(sym0, sym)
