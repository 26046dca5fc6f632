"""Block-level Chern-weight systems of the torus bundles over ideal
configuration spaces.

For a strict flag lam < nu the curvature data of the rank-r(lam) torus
bundle is captured, block by block, by integer weights: the form attached
to a lam-block B pulls back the area form once for every point it is
separated from inside its nu-block, with the conventional factor 2, so the
weight from B towards another lam-block B' in the same nu-block is 2|B'|.
Storing these multisets makes the boundary-restriction splitting identity a
finitely checkable statement.

Also here: the structure of the torus symmetry group attached to an
integer type (k_1,...,k_n) - a torus of rank n-1 times a cyclic group of
order gcd(k_i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import RangeLimitError
from .partitions import (
    CHAIN_LIMIT,
    IntegerPartition,
    SetPartition,
    apply_permutation,
    refines,
)


class ChernWeightSystem:
    """Integer weights between lam-blocks within common nu-blocks.

    `weights[i][j] == 2 * size of block(j)` where i, j are block
    representatives (minimum elements), j runs over the other lam-blocks in
    the nu-block of i.
    """

    __slots__ = ("k", "lam", "nu", "weights")

    def __init__(self, k: int, lam: SetPartition, nu: SetPartition,
                 weights: dict[int, dict[int, int]]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "nu", nu)
        frozen = {i: dict(sorted(m.items())) for i, m in sorted(weights.items())}
        object.__setattr__(self, "weights", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("ChernWeightSystem is immutable")

    @property
    def rank(self) -> int:
        return self.lam.rank

    def total_weight(self, i: int) -> int:
        return sum(self.weights[i].values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChernWeightSystem)
            and (self.k, self.lam, self.nu) == (other.k, other.lam, other.nu)
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.k, self.lam, self.nu,
                     tuple((i, tuple(m.items())) for i, m in self.weights.items())))

    def __repr__(self) -> str:
        return f"ChernWeightSystem(lam={self.lam}, nu={self.nu}, weights={self.weights})"

    def to_json_dict(self) -> dict:
        def block_key(rep: int) -> str:
            return "[" + ",".join(map(str, self.lam.block_of(rep))) + "]"

        return {
            "lambda": self.lam.to_rgs(),
            "nu": self.nu.to_rgs(),
            "weights": {
                str(i): {block_key(j): w for j, w in m.items()}
                for i, m in self.weights.items()
            },
        }


def _check_flag(lam: SetPartition, nu: SetPartition) -> None:
    if lam.k != nu.k:
        raise ValueError("partitions have different ground sets")
    if lam == nu:
        raise ValueError("flag must be strict: lam != nu")
    if not refines(lam, nu):
        raise ValueError(f"{lam} does not refine {nu}")


def weight_system(lam: SetPartition, nu: SetPartition) -> ChernWeightSystem:
    """The Chern-weight system of the strict flag lam < nu."""
    _check_flag(lam, nu)
    owner = {}
    for n, b in enumerate(nu.blocks):
        for i in b:
            owner[i] = n
    weights: dict[int, dict[int, int]] = {}
    for b in lam.blocks:
        rep = b[0]
        row: dict[int, int] = {}
        for b2 in lam.blocks:
            if b2 is b:
                continue
            if owner[b2[0]] == owner[rep]:
                row[b2[0]] = 2 * len(b2)
        weights[rep] = row
    return ChernWeightSystem(lam.k, lam, nu, weights)


@dataclass(frozen=True)
class SplitWitness:
    """Decomposition of each block's weights through an intermediate level."""

    splits: bool
    parts: dict  # rep -> (fine-side weights, pushed-down coarse-side weights)


def restriction_splits(lam: SetPartition, mu: SetPartition, nu: SetPartition) -> SplitWitness:
    """Check the boundary splitting of the weight system along lam < mu < nu.

    Restricting the (lam, nu) bundle to the mu-boundary must factor as the
    (lam, mu) bundle times the (mu, nu) bundle; in weights, the map at each
    lam-block representative splits as the (lam, mu) weights disjointly
    joined with the (mu, nu) weights of its mu-block, expanded into
    lam-blocks.  Returns the witness decomposition alongside the verdict.
    """
    _check_flag(lam, mu)
    _check_flag(mu, nu)
    w_ln = weight_system(lam, nu)
    w_lm = weight_system(lam, mu)
    w_mn = weight_system(mu, nu)
    lam_by_mu: dict[int, list[tuple[int, ...]]] = {}
    for b in lam.blocks:
        lam_by_mu.setdefault(mu.block_of(b[0])[0], []).append(b)

    ok = True
    parts = {}
    for b in lam.blocks:
        rep = b[0]
        fine = dict(w_lm.weights[rep])
        mu_rep = mu.block_of(rep)[0]
        pushed: dict[int, int] = {}
        for mu_target in w_mn.weights[mu_rep]:
            for sub in lam_by_mu[mu_target]:
                pushed[sub[0]] = 2 * len(sub)
        parts[rep] = (fine, pushed)
        merged = dict(fine)
        merged.update(pushed)
        if set(fine) & set(pushed) or merged != w_ln.weights[rep]:
            ok = False
    return SplitWitness(ok, parts)


def sym_action(sigma: Sequence[int], system: ChernWeightSystem) -> ChernWeightSystem:
    """Relabel a weight system through a flag-preserving permutation.

    sigma is a 1-based image tuple and must preserve both levels of the
    flag; the resulting system is the weight system of the (identical)
    relabelled flag, with representatives recomputed.
    """
    lam, nu = system.lam, system.nu
    if apply_permutation(sigma, lam) != lam or apply_permutation(sigma, nu) != nu:
        raise ValueError("permutation does not preserve the flag")
    new_weights: dict[int, dict[int, int]] = {}
    for i, row in system.weights.items():
        new_i = min(sigma[x - 1] for x in lam.block_of(i))
        new_weights[new_i] = {
            min(sigma[x - 1] for x in lam.block_of(j)): w for j, w in row.items()
        }
    return ChernWeightSystem(system.k, lam, nu, new_weights)


# ---------------------------------------------------------------------------
# Torus symmetry groups of integer types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusGroupStructure:
    torus_rank: int
    finite_order: int


def torus_group_structure(a: IntegerPartition) -> TorusGroupStructure:
    """Structure of {zeta in T^n : prod zeta_j^{k_j} = 1} for type (k_1..k_n).

    The kernel of the character is a torus of rank n-1 times a cyclic group
    of order gcd(k_1,...,k_n): the one invariant factor of the 1 x n
    exponent matrix is the gcd of its entries.
    """
    return TorusGroupStructure(torus_rank=len(a.parts) - 1, finite_order=gcd(*a.parts))


def all_flags(k: int) -> list[tuple[SetPartition, SetPartition]]:
    """All strict flags lam < nu over {1..k} (enumeration helper for the
    exhaustive splitting checks)."""
    from .partitions import all_partitions

    if k > CHAIN_LIMIT:
        raise RangeLimitError(f"flag enumeration capped at k <= {CHAIN_LIMIT}")
    parts = all_partitions(k)
    return [
        (lam, nu)
        for lam, nu in itertools.permutations(parts, 2)
        if refines(lam, nu)
    ]
