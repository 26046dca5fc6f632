"""Face lattices of many-body compactifications of a euclidean space.

A structure is a finite meet-closed family of subspace labels with
dimensions, containing the zero subspace and the whole space.  Subspaces are
abstract: all face-level conclusions depend only on the containment order
and the dimensions, so labels plus a meet function are enough, which keeps
everything exact.  The meet function is a lookup in a hand-built or JSON
table, or is computed on demand.  The one concrete constructor builds the
family of diagonals of E^k modulo the total diagonal, the reduced
configuration space of k points in R^m, whose meets are partition joins
computed when asked for: each merges the other partition's blocks in one at
a time through a memo of block merges keyed by (partition id, block mask),
at most Bell(k)*(2^k - k - 1) entries, so no Bell(k)^2 table is ever stored.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from . import partitions
from ._record import Record
from .errors import ChainError
from .inputs import as_int, as_list, as_object


class ManyBodyStructure:
    """Labelled subspace family with dimensions and a (partial) meet.

    The meet is given as a table, either a mapping from label pairs or
    (a, b, meet) triples, or as a function of two distinct labels that
    returns their meet, or None when there is none.  A meet is symmetric,
    meet(a, b) == meet(b, a), so :func:`validate` asks each unordered pair
    once, in label order, and keeps the answers in an n x n index table
    (about 3 MB for the 877 labels at k = 7).  The partial order is derived
    from the meet: a <= b iff meet(a, b) == a.  A missing meet, or one
    outside the family, is reported by :func:`validate` as an
    intersection-closure violation.
    """

    __slots__ = ("ambient_dim", "dims", "_meet")

    def __init__(
        self,
        ambient_dim: int,
        dims: Mapping[str, int],
        meets: (
            Mapping[frozenset, str]
            | Iterable[tuple[str, str, str]]
            | Callable[[str, str], str | None]
        ),
    ):
        ambient_dim = as_int(ambient_dim, "ambient dimension", 0)
        self_dims = {}
        for label, d in dict(dims).items():
            d = as_int(d, f"dimension of {label!r}", 0)
            if d > ambient_dim:
                raise ValueError(f"dimension of {label!r} outside 0..{ambient_dim}")
            self_dims[label] = d
        if callable(meets):
            meet = meets
        else:
            table: dict[frozenset, str] = {}
            items = meets.items() if isinstance(meets, Mapping) else ((frozenset((a, b)), c) for a, b, c in meets)
            for key, value in items:
                pair = frozenset(key)
                if not pair <= self_dims.keys() or value not in self_dims:
                    raise ValueError(f"meet entry {sorted(pair)} -> {value} uses unknown labels")
                table[pair] = value

            def meet(a: str, b: str) -> str | None:
                return table.get(frozenset((a, b)))

        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "dims", self_dims)
        object.__setattr__(self, "_meet", meet)

    def __setattr__(self, name, value):
        raise AttributeError("ManyBodyStructure is immutable")

    @property
    def labels(self) -> list[str]:
        return sorted(self.dims, key=lambda l: (self.dims[l], l))

    def dim(self, label: str) -> int:
        try:
            return self.dims[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}") from None

    def _meet_or_none(self, a: str, b: str) -> str | None:
        """The meet of two labels of the family, None when it is missing
        or outside the family."""
        if a == b:
            return a
        c = self._meet(a, b)
        return c if c in self.dims else None

    def meet(self, a: str, b: str) -> str:
        self.dim(a), self.dim(b)
        c = self._meet_or_none(a, b)
        if c is None:
            raise ValueError(f"no meet recorded for {a!r}, {b!r}")
        return c

    def leq(self, a: str, b: str) -> bool:
        return self.meet(a, b) == a

    def zero_label(self) -> str:
        for label, d in self.dims.items():
            if d == 0:
                return label
        raise ValueError("structure has no zero element")

    def top_label(self) -> str:
        for label, d in self.dims.items():
            if d == self.ambient_dim:
                return label
        raise ValueError("structure has no top element")

    def to_json_dict(self) -> dict:
        labels = self.labels
        elements = [{"label": l, "dim": self.dims[l]} for l in labels]
        meets = []
        for a, b in combinations(labels, 2):
            c = self._meet_or_none(a, b)
            if c is not None:
                meets.append(sorted((a, b)) + [c])
        meets.sort()
        return {"ambient_dim": self.ambient_dim, "elements": elements, "meets": meets}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ManyBodyStructure":
        """Parse the JSON form, naming the offending field on bad input."""
        d = as_object(d, "many-body structure")
        dims = {}
        for i, e in enumerate(as_list(d, "elements", "a list of {label, dim} objects")):
            if not isinstance(as_object(e, f"elements[{i}]").get("label"), str):
                raise ValueError(f"elements[{i}] needs a string 'label'")
            dims[e["label"]] = e.get("dim")
        meets = as_list(d, "meets", "a list of [a, b, meet] label triples")
        if not all(isinstance(r, list) and len(r) == 3 and all(isinstance(l, str) for l in r)
                   for r in meets):
            raise ValueError("'meets' must be a list of [a, b, meet] label triples")
        return cls(d.get("ambient_dim"), dims, [tuple(r) for r in meets])


class FaceFactor(Record):
    __slots__ = ("kind", "description", "dim")

    def __init__(self, kind: str, description: str, dim: int):
        # kind: "M" (closed type) or "B" (boundary type)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "dim", dim)


class ManyBodyFace(Record):
    """A corner of the compactification, indexed by a containment chain.

    `chain` lists the nonzero subspace labels largest first (A_1 over A_d);
    the factors are the closed piece of the quotient by A_1 followed by the
    free boundaries of the successive subquotients.
    """

    __slots__ = ("chain", "factors")

    def __init__(self, chain: tuple[str, ...], factors: tuple[FaceFactor, ...]):
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "factors", factors)

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def codim(self) -> int:
        return len(self.chain)


def diagonal_structure(k: int, m: int) -> ManyBodyStructure:
    """The diagonal family of E^k/E for E = R^m, labelled by partitions.

    The subspace attached to a partition has dimension m*(r-1) where r is
    its number of blocks; intersecting two diagonals corresponds to joining
    the partitions.  Each partition has an integer id and a canonical key,
    the sorted tuple of its block bitmasks.  The meet of a and b starts at
    a's id and merges in b's non-singleton blocks one at a time; each step
    reads a flat memo `merged[id * 2**k + mask]` (-1: not yet computed), and
    a miss does one block merge and one key lookup.  The memo holds at most
    Bell(k)*(2^k - k - 1) entries (877 * 120 at k = 7), never a Bell(k)^2
    table, and construction computes no merge.
    """
    if k < 2:
        raise ValueError(f"need at least two points, got k={k}")
    if m < 1:
        raise ValueError(f"need positive euclidean dimension, got m={m}")
    labels = []
    keys = []
    dims = {}
    id_of_label = {}
    blocks_of = {}
    for i, p in enumerate(partitions.all_partitions(k)):
        label = p.to_rgs()
        masks = partitions.block_masks(p)
        labels.append(label)
        keys.append(tuple(sorted(masks)))
        dims[label] = m * (len(masks) - 1)
        id_of_label[label] = i
        blocks_of[label] = [mb for mb in masks if mb & (mb - 1)]
    id_of = {key: i for i, key in enumerate(keys)}
    merged = [-1] * (len(keys) << k)

    def meet(a: str, b: str) -> str:
        i = id_of_label[a]
        for mb in blocks_of[b]:
            slot = i << k | mb
            j = merged[slot]
            if j < 0:
                j = merged[slot] = id_of[_merge_block(keys[i], mb)]
            i = j
        return labels[i]

    return ManyBodyStructure(m * (k - 1), dims, meet)


def _merge_block(key: tuple[int, ...], mb: int) -> tuple[int, ...]:
    """The canonical key after merging the blocks of `key` that meet the
    bitmask mb into one block."""
    rest = []
    for x in key:
        if x & mb:
            mb |= x
        else:
            rest.append(x)
    rest.append(mb)
    rest.sort()
    return tuple(rest)


def validate(ws: ManyBodyStructure) -> list[str]:
    """Check the subspace-family axioms; violations come back as data.

    Checked: a zero and a top element exist and behave as least/greatest,
    every pair has a meet in the family which is a common lower bound, and
    dimension is strictly monotone along strict containment.

    The meet is asked once per unordered pair, in label order, and kept in
    an n x n table of label indices (-1: no meet in the family) that every
    later check reads.
    """
    violations: list[str] = []
    labels = ws.labels
    dims = ws.dims
    zeros = [l for l in labels if dims[l] == 0]
    if len(zeros) != 1:
        violations.append(f"expected exactly one zero element, found {zeros}")
    tops = [l for l in labels if dims[l] == ws.ambient_dim]
    if len(tops) != 1:
        violations.append(f"expected exactly one top element, found {tops}")

    n = len(labels)
    index = {l: i for i, l in enumerate(labels)}.get
    raw_meet = ws._meet
    table = array("i", [-1]) * (n * n)
    for i, a in enumerate(labels):
        row = array("i", [index(raw_meet(a, b), -1) for b in labels[i + 1 :]])
        if -1 in row:
            for b, c in zip(labels[i + 1 :], row):
                if c < 0:
                    violations.append(f"closure violation: no meet for {a!r}, {b!r}")
        table[i * n + i] = i
        table[i * n + i + 1 : i * n + n] = row
        table[(i + 1) * n + i :: n] = row

    dim = [dims[l] for l in labels]
    pair_violations: list[str] = []
    for i, a in enumerate(labels):
        d = dim[i]
        for j, c in enumerate(table[i * n + i + 1 : i * n + n], start=i + 1):
            # When c is a or b, meet(c, a) and meet(c, b) are c by definition
            # and only the dimensions are checked.
            if c == i:
                if d >= dim[j]:
                    pair_violations.append(f"dimension not monotone: {a!r} < {labels[j]!r} "
                                           f"but dims {d} >= {dim[j]}")
            elif c == j:
                if dim[j] >= d:
                    pair_violations.append(f"dimension not monotone: {labels[j]!r} < {a!r} "
                                           f"but dims {dim[j]} >= {d}")
            elif c >= 0 and (table[c * n + i] != c or table[c * n + j] != c):
                pair_violations.append(f"meet({a!r},{labels[j]!r})={labels[c]!r} "
                                       "is not a common lower bound")

    if len(zeros) == 1:
        z = index(zeros[0])
        for l, c in zip(labels, table[z * n : z * n + n]):
            if c not in (z, -1):
                violations.append(f"zero element {zeros[0]!r} is not below {l!r}")
    if len(tops) == 1:
        t = index(tops[0])
        for i, (l, c) in enumerate(zip(labels, table[t * n : t * n + n])):
            if c not in (i, -1):
                violations.append(f"top element {tops[0]!r} is not above {l!r}")
    return violations + pair_violations


def hypersurfaces(ws: ManyBodyStructure) -> list[str]:
    """Labels of the boundary hypersurfaces: all nonzero elements.

    The top element labels the free boundary.
    """
    zero = ws.zero_label()
    return [l for l in ws.labels if l != zero]


def comparable(ws: ManyBodyStructure, a: str, b: str) -> bool:
    """Containment either way round."""
    return ws.leq(a, b) or ws.leq(b, a)


def face_of_chain(ws: ManyBodyStructure, chain: Sequence[str]) -> ManyBodyFace:
    """The corner attached to a containment chain of nonzero elements.

    The chain may be given in either orientation; it is stored largest
    first.  Factor dimensions telescope to ambient_dim - len(chain).
    """
    if not chain:
        raise ChainError("chain must be nonempty")
    labels = list(dict.fromkeys(chain))
    if len(labels) != len(chain):
        raise ChainError("chain entries must be distinct")
    zero = ws.zero_label()
    for l in labels:
        ws.dim(l)
        if l == zero:
            raise ChainError("chain entries must be nonzero")
    labels.sort(key=ws.dim, reverse=True)
    for hi, lo in zip(labels, labels[1:]):
        try:
            contained = ws.leq(lo, hi)
        except ValueError as exc:
            raise ChainError(str(exc)) from None
        if not contained:
            raise ChainError(f"{lo!r} is not strictly contained in {hi!r}")

    factors = []
    top_dim = ws.dim(labels[0])
    if ws.ambient_dim > top_dim:
        factors.append(FaceFactor("M", f"V/{labels[0]}", ws.ambient_dim - top_dim))
    for hi, lo in zip(labels, labels[1:]):
        factors.append(FaceFactor("B", f"{hi}/{lo}", ws.dim(hi) - ws.dim(lo) - 1))
    factors.append(FaceFactor("B", labels[-1], ws.dim(labels[-1]) - 1))
    return ManyBodyFace(tuple(labels), tuple(factors))
