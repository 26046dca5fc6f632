"""Job bodies, run inside a fresh interpreter by job.py.

A job receives its generated inputs, calls the library's public
functions on them and returns the raw outputs for run.py to check.
With tracing on, every call into the library is wrapped in a span
(name, start, end, parent, job, tag) kept in memory and returned with
the outputs; with tracing off the calls are made directly.
Timestamps are CLOCK_MONOTONIC nanoseconds, which every process on the
host shares, so job spans nest inside run.py's span of the process.
"""

from __future__ import annotations

import contextlib
import io
import time


class Tracer:
    """Span recorder for one job process; a pass-through when off."""

    def __init__(self, job: str, on: bool):
        self.job = job
        self.on = on
        self.spans: list[dict] = []

    def call(self, name: str, tag: str, fn, *args):
        if not self.on:
            return fn(*args)
        start = time.monotonic_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append({"name": name, "start": start, "end": time.monotonic_ns(),
                               "parent": self.job, "job": self.job, "tag": tag})


def _each(items, body):
    """Apply body to every item; a raised exception fails that item only."""
    out = []
    for item in items:
        try:
            out.append(body(item))
        except Exception as exc:  # reported per operation, checked by run.py
            out.append({"error": f"{type(exc).__name__}: {exc}"})
    return out


def cli(t: Tracer, p: dict):
    """One CLI invocation: import the front end, then main(argv)."""
    cli_mod = t.call("cli.import", p["tag"], _import_cli)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = t.call("cli.main", p["tag"], cli_mod.main, p["argv"])
    return [{"status": status, "stdout": buf.getvalue()}]


def _import_cli():
    import monopole_corners.cli as cli_mod

    return cli_mod


def chains(t: Tracer, p: dict):
    from monopole_corners import partitions

    flags = t.call("partitions.chains_mod_symmetric_group", p["tag"],
                   partitions.chains_mod_symmetric_group, p["k"], p["d"])
    return [[[q.to_rgs() for q in f] for f in flags]]


def atlas(t: Tracer, p: dict):
    from monopole_corners import faces
    from monopole_corners.partitions import SetPartition

    nu = SetPartition.from_rgs(p["nu"]) if p.get("nu") else None
    descs = t.call("faces.corner_atlas", p["tag"], faces.corner_atlas, p["k"], p["d"], nu)
    return [[d.to_json_dict() for d in descs]]


def validate_ibf(t: Tracer, p: dict):
    from monopole_corners import faces

    r = t.call("faces.validate_ibf", p["tag"], faces.validate_ibf, p["k"])
    return [{"edges": [[list(a.parts), list(b.parts)] for a, b in r.edges],
             "violations": list(r.violations)}]


def cover_schedule(t: Tracer, p: dict):
    from monopole_corners import faces

    rows = t.call("faces.cover_schedule", p["tag"], faces.cover_schedule, p["k"])
    return [[{"type": list(ty.parts), "depth": depth} for ty, depth in rows]]


def resultants(t: Tracer, p: dict):
    from monopole_corners import ratmaps

    def body(m):
        pair = ratmaps.RationalMapPair.from_json_dict(m)
        tag = f"k{pair.k}"
        value = t.call("ratmaps.resultant", tag, ratmaps.resultant, pair)
        verdicts = t.call("ratmaps.verdicts", tag, _verdicts, ratmaps, pair)
        return {"resultant": value.to_json_pair(), **verdicts}

    return _each(p["maps"], body)


def _verdicts(ratmaps, pair) -> dict:
    return {
        "based": ratmaps.is_based(pair),
        "centred": ratmaps.is_centred(pair),
        "strongly_centred": ratmaps.is_strongly_centred(pair),
    }


def taubes(t: Tracer, p: dict):
    from monopole_corners import clusters

    def body(d):
        inp = clusters.StrongFieldInput.from_json_dict(d)
        dec = t.call("clusters.taubes_cluster", p["tag"], clusters.taubes_cluster, inp)
        return {
            "blocks": [list(b) for b in dec.omega.blocks],
            "centers": [list(c) for c in dec.centers],
            "radius": dec.radius,
            "gamma": dec.gamma,
            "diameter": dec.diameter,
            "rounds": dec.rounds,
            "charges": list(dec.cluster_charges),
            "type": list(dec.cluster_type.parts),
            "sizes": [r.n_clusters for r in dec.history],
        }

    return _each(p["inputs"], body)


def scale_chain(t: Tracer, p: dict):
    from monopole_corners import clusters

    def body(points):
        cfg = clusters.Configuration(points)
        flag = t.call("clusters.scale_chain", p["tag"], clusters.scale_chain, cfg)
        return [q.to_rgs() for q in flag]

    return _each(p["configs"], body)


def iter_partitions(t: Tracer, p: dict):
    from monopole_corners import partitions

    def body(k):
        def consume():
            blocks = [q.blocks for q in partitions.iter_partitions(k)]
            return len(blocks), len(set(blocks))

        n, distinct = t.call("partitions.iter_partitions", f"k{k}", consume)
        return {"count": n, "distinct": distinct}

    return _each(p["ks"], body)


def flag_orders(t: Tracer, p: dict):
    from monopole_corners.partitions import SetPartition, flag_symmetry_orders

    def body(pair):
        lam, nu = (SetPartition.from_rgs(s) for s in pair)
        r = t.call("partitions.flag_symmetry_orders", p["tag"], flag_symmetry_orders, lam, nu)
        return [r.order_sym0, r.order_sym]

    return _each(p["pairs"], body)


def manybody(t: Tracer, p: dict):
    from monopole_corners import manybody as mb

    ws = t.call("manybody.diagonal_structure", p["tag"], mb.diagonal_structure, p["k"], p["m"])
    violations = t.call("manybody.validate", p["tag"], mb.validate, ws)
    return [{
        "labels": sorted(ws.labels),
        "ambient_dim": ws.ambient_dim,
        "dims": {l: ws.dim(l) for l in ws.labels},
        "violations": violations,
    }]


def restriction_splits(t: Tracer, p: dict):
    from monopole_corners.gibbons_manton import restriction_splits as split
    from monopole_corners.partitions import SetPartition

    def body(triple):
        lam, mu, nu = (SetPartition.from_rgs(s) for s in triple)
        w = t.call("gibbons_manton.restriction_splits", p["tag"], split, lam, mu, nu)
        fine = sum(sum(f.values()) for f, _ in w.parts.values())
        pushed = sum(sum(q.values()) for _, q in w.parts.values())
        return [w.splits, fine, pushed]

    return _each(p["triples"], body)


def torus_group(t: Tracer, p: dict):
    from monopole_corners.gibbons_manton import torus_group_structure
    from monopole_corners.partitions import IntegerPartition

    def body(parts):
        s = t.call("gibbons_manton.torus_group_structure", p["tag"],
                   torus_group_structure, IntegerPartition(parts))
        return [s.torus_rank, s.finite_order]

    return _each(p["types"], body)


def intersections(t: Tracer, p: dict):
    from monopole_corners.faces import intersection_components
    from monopole_corners.partitions import IntegerPartition

    def body(pair):
        a, b = (IntegerPartition(x) for x in pair)
        return t.call("faces.intersection_components", p["tag"],
                      intersection_components, p["k"], a, b)

    return _each(p["pairs"], body)


KINDS = {f.__name__: f for f in (
    cli, chains, atlas, validate_ibf, cover_schedule, resultants, taubes, scale_chain,
    iter_partitions, flag_orders, manybody, restriction_splits, torus_group, intersections,
)}
