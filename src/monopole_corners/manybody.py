"""Face lattices of many-body compactifications of a euclidean space.

A structure is a finite meet-closed family of subspace labels with
dimensions, containing the zero subspace and the whole space.  Subspaces are
abstract: all face-level conclusions depend only on the containment order
and the dimensions, so labels plus a meet table are enough, which keeps
everything exact.  The one concrete constructor builds the family of
diagonals of E^k modulo the total diagonal, the reduced configuration
space of k points in R^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import partitions
from .errors import ChainError


class ManyBodyStructure:
    """Labelled subspace family with dimensions and a (partial) meet table.

    The partial order is derived from the meet table: a <= b iff
    meet(a, b) == a.  A missing meet entry is recorded and reported by
    :func:`validate` as an intersection-closure violation.
    """

    __slots__ = ("ambient_dim", "dims", "_meets")

    def __init__(
        self,
        ambient_dim: int,
        dims: Mapping[str, int],
        meets: Mapping[frozenset, str] | Iterable[tuple[str, str, str]],
    ):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self_dims = dict(dims)
        for label, d in self_dims.items():
            if not 0 <= int(d) <= ambient_dim:
                raise ValueError(f"dimension of {label!r} outside 0..{ambient_dim}")
        table: dict[frozenset, str] = {}
        items = meets.items() if isinstance(meets, Mapping) else ((frozenset((a, b)), c) for a, b, c in meets)
        for key, value in items:
            pair = frozenset(key)
            if not pair <= self_dims.keys() or value not in self_dims:
                raise ValueError(f"meet entry {sorted(pair)} -> {value} uses unknown labels")
            table[pair] = value
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "dims", self_dims)
        object.__setattr__(self, "_meets", table)

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

    def meet(self, a: str, b: str) -> str:
        self.dim(a), self.dim(b)
        if a == b:
            return a
        try:
            return self._meets[frozenset((a, b))]
        except KeyError:
            raise ValueError(f"no meet recorded for {a!r}, {b!r}") from None

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
        elements = [{"label": l, "dim": self.dims[l]} for l in self.labels]
        meets = sorted([sorted(pair) + [value] for pair, value in self._meets.items()])
        return {"ambient_dim": self.ambient_dim, "elements": elements, "meets": meets}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ManyBodyStructure":
        dims = {e["label"]: int(e["dim"]) for e in d["elements"]}
        return cls(int(d["ambient_dim"]), dims, [tuple(row) for row in d["meets"]])


@dataclass(frozen=True)
class FaceFactor:
    kind: str  # "M" (closed type) or "B" (boundary type)
    description: str
    dim: int


@dataclass(frozen=True)
class ManyBodyFace:
    """A corner of the compactification, indexed by a containment chain.

    `chain` lists the nonzero subspace labels largest first (A_1 over A_d);
    the factors are the closed piece of the quotient by A_1 followed by the
    free boundaries of the successive subquotients.
    """

    chain: tuple[str, ...]
    factors: tuple[FaceFactor, ...]

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
    the partitions.
    """
    if k < 2:
        raise ValueError(f"need at least two points, got k={k}")
    if m < 1:
        raise ValueError(f"need positive euclidean dimension, got m={m}")
    parts = partitions.all_partitions(k)
    dims = {p.to_rgs(): m * (p.rank - 1) for p in parts}
    meets = {}
    for a, b in combinations(parts, 2):
        meets[frozenset((a.to_rgs(), b.to_rgs()))] = partitions.join(a, b).to_rgs()
    return ManyBodyStructure(m * (k - 1), dims, meets)


def validate(ws: ManyBodyStructure) -> list[str]:
    """Check the subspace-family axioms; violations come back as data.

    Checked: a zero and a top element exist and behave as least/greatest,
    every pair has a recorded meet which is a common lower bound, and
    dimension is strictly monotone along strict containment.
    """
    violations: list[str] = []
    labels = ws.labels
    zeros = [l for l in labels if ws.dims[l] == 0]
    if len(zeros) != 1:
        violations.append(f"expected exactly one zero element, found {zeros}")
    tops = [l for l in labels if ws.dims[l] == ws.ambient_dim]
    if len(tops) != 1:
        violations.append(f"expected exactly one top element, found {tops}")

    missing = []
    for a, b in combinations(labels, 2):
        if frozenset((a, b)) not in ws._meets:
            missing.append((a, b))
    for a, b in missing:
        violations.append(f"closure violation: no meet for {a!r}, {b!r}")

    def meet_or_none(a: str, b: str):
        if a == b:
            return a
        return ws._meets.get(frozenset((a, b)))

    if zeros and len(zeros) == 1:
        z = zeros[0]
        for l in labels:
            if meet_or_none(z, l) not in (z, None):
                violations.append(f"zero element {z!r} is not below {l!r}")
    if tops and len(tops) == 1:
        t = tops[0]
        for l in labels:
            if meet_or_none(t, l) not in (l, None):
                violations.append(f"top element {t!r} is not above {l!r}")

    for a, b in combinations(labels, 2):
        c = meet_or_none(a, b)
        if c is None:
            continue
        if meet_or_none(c, a) != c or meet_or_none(c, b) != c:
            violations.append(f"meet({a!r},{b!r})={c!r} is not a common lower bound")
        if c == a and ws.dims[a] >= ws.dims[b]:
            violations.append(f"dimension not monotone: {a!r} < {b!r} but dims {ws.dims[a]} >= {ws.dims[b]}")
        if c == b and ws.dims[b] >= ws.dims[a]:
            violations.append(f"dimension not monotone: {b!r} < {a!r} but dims {ws.dims[b]} >= {ws.dims[a]}")
    return violations


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
