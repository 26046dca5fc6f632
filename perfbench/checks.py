"""Checks of the program's outputs against the oracles.

Each checker takes one operation's output (already parsed) and the
expected data, and returns a list of problems: empty when the output is
correct.  They test properties and independent counts, never a saved
copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import oracles as O


def _chain_levels(chain: list[str], k: int, problems: list[str]):
    levels = []
    for s in chain:
        lab = O.rgs_labels(s)
        if len(lab) != k or not O.is_rgs(lab):
            problems.append(f"{s!r} is not a partition of {{1..{k}}}")
            return None
        levels.append(lab)
    return levels


def chains(chains_out: list[list[str]], k: int, d: int, nu: str | None = None) -> list[str]:
    """Orbit representatives of strict chains below nu (one block if None)."""
    problems: list[str] = []
    nu_lab = O.rgs_labels(nu) if nu else (0,) * k
    nu_blocks = O.blocks_of(nu_lab)
    expected = O.chain_orbit_counts(tuple(len(b) for b in nu_blocks)).get(d, 0)
    if len(chains_out) != expected:
        problems.append(f"{len(chains_out)} chains, oracle count {expected}")
    towers = set()
    for chain in chains_out:
        if len(chain) != d:
            problems.append(f"chain {chain} has length {len(chain)}, want {d}")
            continue
        levels = _chain_levels(chain, k, problems)
        if levels is None:
            continue
        for fine, coarse in zip(levels, levels[1:] + [nu_lab]):
            if fine == coarse or not O.label_refines(fine, coarse):
                problems.append(f"chain {chain} is not strictly refining below {nu or 'one block'}")
                break
        inv = tuple(O.tower(b, levels) for b in nu_blocks)
        if inv in towers:
            problems.append(f"chain {chain} repeats a block-size tower")
        towers.add(inv)
    return problems


def faces(rows: list[dict], k: int, d: int, nu: str | None = None) -> list[str]:
    """Face descriptors: chain orbits plus the dimension identities."""
    problems = chains([r.get("chain", []) for r in rows], k, d, nu)
    nu_rank = len(set(O.rgs_labels(nu))) if nu else 1
    for r in rows:
        chain = r.get("chain", [])
        levels = _chain_levels(chain, k, [])
        if levels is None or len(levels) != d:
            continue
        ranks = [len(set(lab)) for lab in levels]
        total, fibre, bases = O.face_dims(k, ranks, nu_rank)
        if r.get("codim") != d:
            problems.append(f"{chain}: codim {r.get('codim')} != {d}")
        if r.get("total_dim") != total:
            problems.append(f"{chain}: total {r.get('total_dim')} != 4k-3r(nu)-d = {total}")
        if r.get("fiber_dim") != fibre:
            problems.append(f"{chain}: fibre {r.get('fiber_dim')} != 4k-3r(lam_1) = {fibre}")
        if r.get("base_dims") != bases:
            problems.append(f"{chain}: bases {r.get('base_dims')} != {bases}")
        if r.get("fiber_dim", 0) + sum(r.get("base_dims", [])) != r.get("total_dim"):
            problems.append(f"{chain}: fibre plus bases != total")
        types = [sorted(len(b) for b in O.blocks_of(lab)) for lab in levels]
        if r.get("types") != types:
            problems.append(f"{chain}: types {r.get('types')} != {types}")
        if r.get("nu") != (nu if nu_rank > 1 else None):
            problems.append(f"{chain}: nu field {r.get('nu')!r}, want {nu!r}")
    return problems


def ibf_edges(edges: list, violations: list, k: int) -> list[str]:
    problems = [f"violation: {v}" for v in violations]
    want = set(O.comparable_type_pairs(k))
    got = [(tuple(a), tuple(b)) for a, b in edges]
    if len(got) != len(want) or set(got) != want:
        problems.append(f"{len(got)} edges, want the {len(want)} comparable pairs of proper types")
    return problems


def validate_ibf_cli(out: dict, k: int) -> list[str]:
    problems = ibf_edges(out.get("edges", []), out.get("violations", []), k)
    want = {}
    for t in O.proper_types(k):
        r = len(t)
        want["(" + ",".join(map(str, t)) + ")"] = {"base_dim": 3 * (r - 1) - 1, "fiber_dim": 4 * k - 3 * r}
    if out.get("hypersurfaces") != want or out.get("k") != k:
        problems.append("hypersurface dimensions disagree with base 3(r-1)-1, fibre 4k-3r")
    return problems


def cover_schedule(rows: list[dict], k: int) -> list[str]:
    depth = O.type_depths(k)
    want = sorted(([list(t), dep] for t, dep in depth.items()), key=lambda e: (e[1], e[0]))
    got = [[r.get("type"), r.get("depth")] for r in rows]
    return [] if got == want else [f"schedule {got} != longest-chain depths {want}"]


def resultant(got: dict, expected: dict) -> list[str]:
    return [] if got == expected else [f"map verdicts {got} != {expected}"]


def taubes(got: dict, expected: dict) -> list[str]:
    """Decomposition against the Fraction re-implementation."""
    problems = []
    want = {
        "blocks": expected["blocks"],
        "centers": [[float(x) for x in c] for c in expected["centres"]],
        "radius": float(expected["radius"]),
        "gamma": float(expected["gamma"]),
        "diameter": float(expected["diameter"]),
        "rounds": expected["rounds"],
        "charges": expected["charges"],
        "type": sorted(expected["charges"]),
    }
    for key, value in want.items():
        if got.get(key) != value:
            problems.append(f"{key}: {got.get(key)!r:.80} != {value!r:.80}")
    if "sizes" in got and got["sizes"] != expected["sizes"]:
        problems.append(f"clusters per round {got['sizes']} != {expected['sizes']}")
    centres = [tuple(Fraction(x) for x in c) for c in got.get("centers", [])]
    if not _separated(centres, Fraction(got.get("gamma", 0))):
        problems.append("final centres are not pairwise farther apart than gamma")
    return problems


def _separated(centres, gamma) -> bool:
    """Sweep in x: every pair of centres lies farther apart than gamma."""
    pts = sorted(centres)
    g2 = gamma * gamma
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if q[0] - p[0] > gamma:
                break
            if sum((a - b) ** 2 for a, b in zip(p, q)) <= g2:
                return False
    return True


def taubes_cli(out: dict, expected: dict) -> list[str]:
    got = {
        "blocks": out.get("omega", {}).get("blocks"),
        "centers": out.get("centers"),
        "radius": out.get("radius"),
        "gamma": out.get("gamma"),
        "diameter": out.get("diameter"),
        "rounds": out.get("rounds"),
        "charges": out.get("cluster_charges"),
        "type": out.get("type"),
    }
    problems = taubes(got, expected)
    eps = _epsilon(got["centers"] or [])
    if not math.isclose(out.get("epsilon", -1.0), eps, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"epsilon {out.get('epsilon')} != {eps}")
    return problems


def _epsilon(centres) -> float:
    return sum(
        1.0 / math.dist(p, q)
        for i, p in enumerate(centres)
        for q in centres[i + 1 :]
    )


def scale_chain(got: list[str], expected: list[str]) -> list[str]:
    return [] if got == expected else [f"chain {got} != planted chain {expected}"]


def partition_count(got: dict, k: int) -> list[str]:
    bell = O.bell_numbers(k)[k]
    ok = got == {"count": bell, "distinct": bell}
    return [] if ok else [f"iter_partitions({k}) gave {got}, Bell({k}) = {bell}"]


def flag_orders(got: list[int], lam: str, nu: str) -> list[str]:
    want = list(O.flag_orders(O.rgs_labels(lam), O.rgs_labels(nu)))
    return [] if got == want else [f"flag {lam} < {nu}: orders {got} != {want}"]


def manybody(got: dict, k: int, m: int) -> list[str]:
    parts = O.all_rgs(k)
    want_dims = {"".join(map(str, p)): m * (len(set(p)) - 1) for p in parts}
    problems = [f"violation: {v}" for v in got.get("violations", [])]
    if got.get("labels") != sorted(want_dims) or got.get("dims") != want_dims:
        problems.append(f"labels/dims differ from the {len(parts)} diagonals of dimension m(r-1)")
    if got.get("ambient_dim") != m * (k - 1):
        problems.append(f"ambient dim {got.get('ambient_dim')} != {m * (k - 1)}")
    return problems


def restriction(got: list, triple: list[str]) -> list[str]:
    lam, mu, nu = (O.rgs_labels(s) for s in triple)
    want = [True, *O.weight_totals(lam, mu, nu)]
    return [] if got == want else [f"{triple}: split witness {got} != {want}"]


def torus_group(got: list[int], parts: list[int]) -> list[str]:
    want = [len(parts) - 1, gcd(*parts)]
    return [] if got == want else [f"type {parts}: {got} != {want}"]


def intersections(got: list, pairs: list, k: int) -> list[str]:
    """Zero off the comparable pairs; summed over them, the codim-2 count."""
    comparable = set(O.comparable_type_pairs(k))
    problems = []
    total = 0
    for n, (a, b) in zip(got, pairs):
        if isinstance(n, dict):
            continue
        a, b = tuple(a), tuple(b)
        if (a, b) in comparable or (b, a) in comparable:
            total += n
            if n < 1:
                problems.append(f"comparable types {a}, {b} give {n} components")
        elif n != 0:
            problems.append(f"incomparable types {a}, {b} give {n} components")
    if not any(isinstance(n, dict) for n in got):
        want = O.chain_orbit_counts((k,))[2]
        if total != want:
            problems.append(f"components sum to {total}, codim-2 orbit count {want}")
    return problems


def weight_system(out: dict, lam: str, nu: str) -> list[str]:
    lam_lab, nu_lab = O.rgs_labels(lam), O.rgs_labels(nu)
    blocks = O.blocks_of(lam_lab)
    want = {}
    for b in blocks:
        want[str(b[0])] = {
            "[" + ",".join(map(str, c)) + "]": 2 * len(c)
            for c in blocks
            if c != b and nu_lab[c[0] - 1] == nu_lab[b[0] - 1]
        }
    got = out.get("weights")
    ok = got == want and out.get("lambda") == lam and out.get("nu") == nu
    return [] if ok else [f"weights {got} != 2|B'| within nu-blocks {want}"]


def coords(got: list[float], points, chain: list[str]) -> list[str]:
    k = len(points)
    levels = [O.rgs_labels(s) for s in chain if len(set(O.rgs_labels(s))) < k]
    want = O.boundary_coords(points, levels + [(0,) * k])
    ok = len(got) == len(want) and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))
    return [] if ok else [f"coords {got} != {want}"]
