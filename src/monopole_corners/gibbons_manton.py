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

from math import gcd
from typing import Sequence

from ._record import Record
from .partitions import IntegerPartition, SetPartition, apply_permutation, blocks_within, refines


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


def _weights(lam: SetPartition, nu: SetPartition) -> dict[int, dict[int, int]]:
    """The weights of the flag lam < nu, keyed in ascending order."""
    groups = blocks_within(lam, nu)
    return {
        b[0]: {b2[0]: 2 * len(b2) for b2 in groups[nu.index[b[0] - 1]] if b2 is not b}
        for b in lam.blocks
    }


def weight_system(lam: SetPartition, nu: SetPartition) -> ChernWeightSystem:
    """The Chern-weight system of the strict flag lam < nu."""
    _check_flag(lam, nu)
    return ChernWeightSystem(lam.k, lam, nu, _weights(lam, nu))


class SplitWitness(Record):
    """Decomposition of each block's weights through an intermediate level."""

    __slots__ = ("splits", "parts")

    def __init__(self, splits: bool, parts: dict):
        # parts: rep -> (fine-side weights, pushed-down coarse-side weights)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "parts", parts)


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
    # lam < nu follows: refinement is transitive and lam != mu <= nu.
    w_ln = _weights(lam, nu)
    w_lm = _weights(lam, mu)
    w_mn = _weights(mu, nu)
    lam_by_mu = blocks_within(lam, mu)

    ok = True
    parts = {}
    for b in lam.blocks:
        rep = b[0]
        fine = w_lm[rep]
        pushed: dict[int, int] = {}
        # w_mn is keyed by mu-block minima; mu.blocks[n][0] is block n's.
        for mu_target in w_mn[mu.blocks[mu.index[rep - 1]][0]]:
            for sub in lam_by_mu[mu.index[mu_target - 1]]:
                pushed[sub[0]] = 2 * len(sub)
        parts[rep] = (fine, pushed)
        merged = dict(fine)
        merged.update(pushed)
        if set(fine) & set(pushed) or merged != w_ln[rep]:
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


class TorusGroupStructure(Record):
    __slots__ = ("torus_rank", "finite_order")

    def __init__(self, torus_rank: int, finite_order: int):
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "finite_order", finite_order)


def torus_group_structure(a: IntegerPartition) -> TorusGroupStructure:
    """Structure of {zeta in T^n : prod zeta_j^{k_j} = 1} for type (k_1..k_n).

    The kernel of the character is a torus of rank n-1 times a cyclic group
    of order gcd(k_1,...,k_n): the one invariant factor of the 1 x n
    exponent matrix is the gcd of its entries.
    """
    return TorusGroupStructure(torus_rank=len(a.parts) - 1, finite_order=gcd(*a.parts))

