"""Block-level Chern-weight systems of the torus bundles over ideal
configuration spaces.

For a strict flag lam < nu the curvature data of the rank-r(lam) torus
bundle is captured, block by block, by integer weights: the form attached
to a lam-block B pulls back the area form once for every point it is
separated from inside its nu-block, with the conventional factor 2, so the
weight from B towards another lam-block B' in the same nu-block is 2|B'|.
Storing these multisets makes the boundary-restriction splitting identity a
finitely checkable statement: `restriction_splits` returns each block's two
halves along lam < mu < nu, and the tests check that they join disjointly
into the (lam, nu) weights.

Also here: the structure of the torus symmetry group attached to an
integer type (k_1,...,k_n) - a torus of rank n-1 times a cyclic group of
order gcd(k_i).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from ._record import Record
from .partitions import (
    IntegerPartition, SetPartition, _check_strict, apply_permutation, blocks_within,
)


class ChernWeightSystem(Record):
    """Integer weights between lam-blocks within common nu-blocks.

    `weights[i][j] == 2 * size of block(j)` where i, j are block
    representatives (minimum elements), j runs over the other lam-blocks in
    the nu-block of i.
    """

    __slots__ = ("k", "lam", "nu", "weights")

    def __init__(self, k: int, lam: SetPartition, nu: SetPartition,
                 weights: dict[int, dict[int, int]]):
        frozen = {i: dict(sorted(m.items())) for i, m in sorted(weights.items())}
        Record.__init__(self, k, lam, nu, frozen)

    @property
    def rank(self) -> int:
        return self.lam.rank

    def total_weight(self, i: int) -> int:
        return sum(self.weights[i].values())

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


def weight_system(lam: SetPartition, nu: SetPartition) -> ChernWeightSystem:
    """The Chern-weight system of the strict flag lam < nu."""
    _check_strict(lam, nu)
    groups = blocks_within(lam, nu)
    return ChernWeightSystem(lam.k, lam, nu, {
        b[0]: {b2[0]: 2 * len(b2) for b2 in groups[nu.index[b[0] - 1]] if b2 is not b}
        for b in lam.blocks
    })


class SplitWitness(Record):
    """Decomposition of each block's weights through an intermediate level.

    `parts` maps each lam-block representative to its fine-side weights and
    its pushed-down coarse-side weights.
    """

    __slots__ = ("splits", "parts")


def restriction_splits(lam: SetPartition, mu: SetPartition, nu: SetPartition) -> SplitWitness:
    """The boundary splitting of the weight system along lam < mu < nu.

    Restricting the (lam, nu) bundle to the mu-boundary factors as the
    (lam, mu) bundle times the (mu, nu) bundle; in weights, the map at each
    lam-block representative splits as its (lam, mu) weights disjointly
    joined with the (mu, nu) weights of its mu-block, expanded into
    lam-blocks.  Returns the witness: both halves for every lam-block.  Once
    both flags are checked, the split holds for every strict chain, so
    `splits` is always True; the tests check the halves against
    `weight_system(lam, mu)` and `weight_system(lam, nu)`.
    """
    _check_strict(lam, mu)
    _check_strict(mu, nu)
    lam_by_mu = blocks_within(lam, mu)
    mu_by_nu = blocks_within(mu, nu)
    parts = {}
    for b in lam.blocks:
        m = mu.index[b[0] - 1]
        fine = {b2[0]: 2 * len(b2) for b2 in lam_by_mu[m] if b2 is not b}
        pushed = {sub[0]: 2 * len(sub) for other in mu_by_nu[nu.index[b[0] - 1]]
                  if other is not mu.blocks[m] for sub in lam_by_mu[mu.index[other[0] - 1]]}
        parts[b[0]] = (fine, pushed)
    return SplitWitness(True, parts)


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


class TorusGroupStructure(Record):
    __slots__ = ("torus_rank", "finite_order")


def torus_group_structure(a: IntegerPartition) -> TorusGroupStructure:
    """Structure of {zeta in T^n : prod zeta_j^{k_j} = 1} for type (k_1..k_n).

    The kernel of the character is a torus of rank n-1 times a cyclic group
    of order gcd(k_1,...,k_n): the one invariant factor of the 1 x n
    exponent matrix is the gcd of its entries.
    """
    return TorusGroupStructure(torus_rank=len(a.parts) - 1, finite_order=gcd(*a.parts))

