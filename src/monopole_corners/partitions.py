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
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import ChainError, RangeLimitError
from .inputs import as_digits, as_int, as_list, as_object

#: Full enumeration of set partitions is capped here (Bell(12) ~ 4.2e6).
ENUMERATION_LIMIT = 12

#: Chain-orbit enumeration and face atlases are capped here.
CHAIN_LIMIT = 8


class SetPartition(Record):
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
        Record.__init__(self, blks, index)

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


class IntegerPartition(Record):
    """A multiset of positive integers, stored sorted ascending."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        p = tuple(parts)
        if not p:
            raise ValueError("integer partition needs at least one part")
        for x in p:
            if type(x) is not int or x < 1:
                raise ValueError(f"parts must be integers >= 1, got {x!r}")
        Record.__init__(self, tuple(sorted(p)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"

    def __repr__(self) -> str:
        return f"IntegerPartition{self.parts}"


class ChainFlag(Record):
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
            _check_strict(a, b)
        Record.__init__(self, k, entries)

    def __len__(self) -> int:
        return len(self.chain)

    def __iter__(self) -> Iterator[SetPartition]:
        return iter(self.chain)

    def __getitem__(self, i):
        return self.chain[i]

    def __repr__(self) -> str:
        return f"ChainFlag({self.k}, [{', '.join(str(p) for p in self.chain)}])"


def singletons(k: int) -> SetPartition:
    return SetPartition(k, ([i] for i in range(1, k + 1)))


def one_block(k: int) -> SetPartition:
    return SetPartition(k, [range(1, k + 1)])


def all_partitions(k: int) -> list[SetPartition]:
    """Every set partition of {1..k}, in lexicographic order of their
    restricted-growth strings."""
    return list(iter_partitions(k))


def iter_partitions(k: int) -> Iterator[SetPartition]:
    """Every set partition of {1..k}, in lexicographic order of their
    restricted-growth words.  Element i joins each open block in turn, then
    opens a new one; each open block is a tuple that a step replaces and
    backtracking restores, so consecutive partitions share every unchanged
    block tuple.  Blocks stay canonical, so no output is re-checked.  The
    range is checked when this is called, before the first partition is
    asked for."""
    if not 1 <= k <= ENUMERATION_LIMIT:
        raise RangeLimitError(f"k must be in 1..{ENUMERATION_LIMIT}, got {k}")
    return _placements(2, k, [(1,)], [0] * k)


def _placements(i: int, k: int, blocks: list[tuple[int, ...]], word: list[int]
                ) -> Iterator[SetPartition]:
    """The partitions that extend the open blocks and restricted-growth word
    of elements 1..i-1 by placing i..k.  Not a self-calling closure, a
    reference cycle that each call would leave to the collector."""
    if i > k:
        yield SetPartition._canonical(tuple(blocks), tuple(word))
        return
    for n, b in enumerate(blocks):
        blocks[n] = b + (i,)
        word[i - 1] = n
        yield from _placements(i + 1, k, blocks, word)
        blocks[n] = b
    word[i - 1] = len(blocks)
    blocks.append((i,))
    yield from _placements(i + 1, k, blocks, word)
    blocks.pop()


def refines(lam: SetPartition, mu: SetPartition) -> bool:
    """True iff every block of mu is a union of blocks of lam (lam is finer):
    each lam-block meets exactly one mu-block."""
    if lam.k != mu.k:
        raise ValueError("partitions have different ground sets")
    return len(set(zip(lam.index, mu.index))) == len(lam.blocks)


def _check_strict(lam: SetPartition, nu: SetPartition) -> None:
    """Raise ChainError unless lam strictly refines nu."""
    if lam == nu or not refines(lam, nu):
        raise ChainError(f"{lam} does not strictly refine {nu}")


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


def merge_block(key: Sequence[int], mb: int) -> tuple[int, ...]:
    """Block bitmasks (see :func:`block_masks`) after merging those that meet
    the bitmask mb into one, sorted: the merged partition's canonical key."""
    rest = []
    for x in key:
        if x & mb:
            mb |= x
        else:
            rest.append(x)
    rest.append(mb)
    rest.sort()
    return tuple(rest)


def join(lam: SetPartition, mu: SetPartition) -> SetPartition:
    """Finest common coarsening (the lattice join under refinement order)."""
    if lam.k != mu.k:
        raise ValueError("partitions have different ground sets")
    k = lam.k
    key = block_masks(lam)
    for mb in block_masks(mu):
        if mb & (mb - 1):
            key = merge_block(key, mb)
    blocks = (tuple(i + 1 for i in range(k) if m >> i & 1) for m in key)
    return SetPartition._from_blocks(k, tuple(sorted(blocks)))


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
    return [IntegerPartition(p) for p in _ascending_parts(k, 1)]


def _ascending_parts(remaining: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """The ascending tuples of parts >= minimum that sum to `remaining`, in
    lexicographic order.  Not a self-calling closure, a reference cycle that
    each call would leave to the collector."""
    if remaining == 0:
        yield ()
    for part in range(minimum, remaining + 1):
        for rest in _ascending_parts(remaining - part, part):
            yield (part, *rest)


def refines_integer_partition(a: IntegerPartition, b: IntegerPartition) -> bool:
    """True iff b is obtained from a by grouping (bracketing) parts of a;
    every partition refines itself.

    A dealing search: a's parts, largest first, go one at a time into bins
    sized by b's parts.  A state is the count of parts dealt and the bins'
    free room, sorted; of bins with equal room only the first is tried, and
    a part that fills a bin exactly goes only there (whatever else would
    fill that bin can swap places with it).  Once every part is dealt every
    bin is full, as the totals agree.  Each state is expanded once, from an
    explicit stack.
    """
    if a.total != b.total:
        raise ValueError("integer partitions of different totals")
    deal = a.parts[::-1]
    stack = [(0, b.parts)]
    seen = set(stack)
    while stack:
        n, room = stack.pop()
        if n == len(deal):
            return True
        x = deal[n]
        exact = x in room
        for i, r in enumerate(room):
            if r >= x and (i == 0 or r != room[i - 1]) and (r == x or not exact):
                state = (n + 1, tuple(sorted((*room[:i], r - x, *room[i + 1:]))))
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return False


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
# forest kept extends to a full chain.  A refined forest's coarsening is
# the forest it was refined from, so each orbit is reached from exactly one
# parent: forests are refined depth first, one held per level, with no
# de-duplication, and the work follows the number of orbits, not of weak
# towers.  Subtrees recur across forests, so their refinements are
# memoized; the whole tower of a one-block forest occurs once and is not.
# ---------------------------------------------------------------------------


def _tower_size(t) -> int:
    return t if isinstance(t, int) else sum(_tower_size(c) for c in t)


def _tower_refinements(tower, memo: dict, keep: bool = True) -> Sequence[tuple]:
    """(refined tower, leaf count) for every way of replacing each leaf n of
    `tower` by an integer partition of n, with children re-sorted
    canonically.  `memo` must already hold the answer for every leaf; the
    answer for `tower` is added to it if `keep`."""
    got = memo.get(tower)
    if got is None:
        # Refining keeps each child's size, so sort on the old sizes.
        sizes = [_tower_size(c) for c in tower]
        seen: dict[tuple, int] = {}
        for kids in itertools.product(*(_tower_refinements(c, memo) for c in tower)):
            keyed = sorted(zip(sizes, (t for t, _ in kids)), reverse=True)
            seen[tuple(t for _, t in keyed)] = sum(n for _, n in kids)
        got = list(seen.items())
        if keep:
            memo[tower] = got
    return got


def _chain_orbits_relative(
    k: int, d: int, blocks: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[ChainFlag]]]:
    """Orbit representatives of strict chains lam_1 < ... < lam_d finer than
    the partition with the given blocks, under permutations fixing each
    block, in atlas order.  The absolute case is a single block.

    Yields one (types, flags) pair per group of chains that share their
    levels' block-size types: types[j] is the ascending tuple of block
    sizes of lam_{j+1}, so its length is that level's rank.  Atlas order is
    finest ranks descending, then types, then restricted-growth words (the
    order of the RGS strings up to 10 blocks).  Until its group is yielded,
    a face is one int, sorted once after the drain.
    """
    # One walk per forest reads each level's node sizes in leaf order, so a
    # node is a run of the coarse blocks' members laid end to end; runs never
    # cross a coarse block and each level strictly refines the next, so the
    # chains are valid as built.  A level is fixed by its sizes, a composition
    # of k, so there are fewer than 2^(k-1) levels.  The drain numbers each
    # level when it first sees it and holds one int per face: the numbers of
    # its levels, finest first, k - 1 bits each.
    ids: dict[tuple[int, ...], int] = {}
    codes: list[int] = []
    for forest in _level_forests(k, d, blocks):
        sizes: list[list[int]] = [[] for _ in range(d)]
        for tower in forest:
            _level_sizes(tower, d, sizes)
        code = 0
        for level in map(tuple, sizes):
            code = code << k - 1 | ids.setdefault(level, len(ids))
        codes.append(code)
    if not codes:
        return  # d is past the longest chain; the key widths below grow with d
    # The tower memo is freed by now.  Each level's partition and type are
    # built once and shared by every chain that has it.
    elements = [i for b in blocks for i in b]
    parts, types = [], []
    for level in ids:
        ends = itertools.accumulate(level)
        runs = sorted(tuple(elements[e - n : e]) for n, e in zip(level, ends))
        parts.append(SetPartition._from_blocks(k, tuple(runs)))
        types.append(tuple(sorted(level)))
    # A face's key packs three sections, highest first, of one field per
    # level, finest level highest: k minus the level's rank, its type's place
    # among the types and its partition's place among the RGS words.  Integer
    # order is then atlas order, and a group is a run of keys that agree
    # above the words.
    by_type, by_word = sorted(set(types)), sorted(parts, key=lambda p: p.index)
    type_place = {t: n for n, t in enumerate(by_type)}
    word_place = {p: n for n, p in enumerate(by_word)}
    rw, tw, ww = k.bit_length(), (len(by_type) - 1).bit_length(), (len(parts) - 1).bit_length()
    # keyed[i][n]: what level n contributes to the key as the (i+1)-th finest.
    keyed = [[((k - len(t) << rw * j) << tw * d | type_place[t] << tw * j) << ww * d
              | word_place[p] << ww * j for p, t in zip(parts, types)]
             for j in reversed(range(d))]
    for n, code in enumerate(codes):
        codes[n] = sum(map(list.__getitem__, keyed, _fields(code, k - 1, d)))
    codes.sort()
    for group, keys in itertools.groupby(codes, lambda key: key >> ww * d):
        chains = (tuple(map(by_word.__getitem__, _fields(key, ww, d))) for key in keys)
        yield (tuple(map(by_type.__getitem__, _fields(group, tw, d))),
               [ChainFlag._canonical(k, chain) for chain in chains])


def _fields(x: int, width: int, d: int) -> list[int]:
    """The d fields of x, each `width` bits wide, the highest first."""
    return [x >> width * j & (1 << width) - 1 for j in reversed(range(d))]


def _level_forests(k: int, d: int, blocks: tuple[tuple[int, ...], ...]) -> Iterator[tuple]:
    """The level-d forests below the given coarse blocks, one tower per
    block, each orbit once, depth first.  Not inlined: the tower memo is then
    held by `_forests_below` alone and freed before the packed faces are
    sorted (inlined, the k = 8, d = 5 peaks were 0.90 MB streamed and
    1.40 MB listed, against 0.69 and 1.15 MB)."""
    sizes = tuple(map(len, blocks))
    # Leaves up to the largest block occur; the memo lives as long as the generator.
    memo = _leaf_memo(range(1, max(sizes) + 1))
    # Not a self-calling closure, a cycle that would keep the memo past the end.
    return _forests_below(sizes, len(blocks), k - d + 1, k, memo, len(blocks) > 1)


def _leaf_memo(leaves: Iterable[int]) -> dict:
    """A `_tower_refinements` memo seeded for the given leaves: a leaf n
    refines to each integer partition of n, as (parts descending, part
    count)."""
    return {n: tuple((p[::-1], len(p)) for p in _ascending_parts(n, 1)) for n in leaves}


def _forests_below(forest, rank: int, cap: int, k: int, memo: dict, keep: bool) -> Iterator[tuple]:
    """The last-level refinements of a forest with `rank` leaves, when the
    next level may have at most `cap` leaves and the last at most k."""
    for combo in itertools.product(*(_tower_refinements(t, memo, keep) for t in forest)):
        n = sum(c for _, c in combo)
        if rank < n <= cap:
            refined = tuple(t for t, _ in combo)
            if cap == k:
                yield refined
            else:
                yield from _forests_below(refined, n, cap + 1, k, memo, keep)


def _level_sizes(tower, height: int, per_level: list[list[int]]) -> int:
    """Append to per_level[j] the sizes of the tower's height-j nodes (the
    blocks of lam_{j+1} inside it), in leaf order, and return the tower's
    size."""
    if height == 0:
        return tower
    total = 0
    for child in tower:
        n = _level_sizes(child, height - 1, per_level)
        per_level[height - 1].append(n)
        total += n
    return total


def chains_mod_symmetric_group(k: int, d: int) -> list[ChainFlag]:
    """One representative per relabelling orbit of strict chains
    lam_1 < ... < lam_d of proper partitions of {1..k}, in the order of
    `faces.corner_atlas(k, d)`: finest ranks descending, then block-size
    types, then restricted-growth words."""
    if not 1 <= k <= CHAIN_LIMIT:
        raise RangeLimitError(f"k must be in 1..{CHAIN_LIMIT}, got {k}")
    if not 1 <= d <= k - 1:
        raise RangeLimitError(f"d must be in 1..{k - 1}, got {d}")
    return [f for _, flags in _chain_orbits_relative(k, d, (tuple(range(1, k + 1)),))
            for f in flags]


# ---------------------------------------------------------------------------
# Symmetry groups of partitions and flags.
# ---------------------------------------------------------------------------


class SymmetryOrders(Record):
    __slots__ = ("order_sigma_lambda", "order_stab", "order_sym_lambda")


class FlagSymmetryOrders(Record):
    __slots__ = ("order_sym0", "order_sym")


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
    _check_strict(lam, nu)
    groups = blocks_within(lam, nu)
    sym0 = _multiplicity_factorials((n, len(b)) for n, g in enumerate(groups) for b in g)
    sym = sym0 * _multiplicity_factorials(tuple(sorted(map(len, g))) for g in groups)
    return FlagSymmetryOrders(sym0, sym)
