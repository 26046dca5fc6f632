"""The three workloads: their jobs, generated inputs, checks and work sizes.

A job is one fresh interpreter.  CLI jobs run `python3 -m
monopole_corners.cli ...`, as a user would; library jobs run job.py on a
spec file holding the generated inputs.  The traced variant of a job
runs the same calls through job.py with spans on; the atlas workload
adds cold probes of the layers under each command (chain enumeration,
corner_atlas, validate_ibf, cover_schedule), each in its own process
because partitions keeps process-wide caches.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
import oracles as O

JOB_PY = Path(__file__).resolve().parent / "job.py"


class Failed:
    """An operation that raised or exited with an error."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"Failed({self.message!r})"


@dataclass
class Job:
    id: str
    argv: list[str]                       # after the interpreter
    ops: int
    check: Callable[[list], list[str]]    # outputs -> problems (failed ops skipped)
    work: Callable[[list], dict] = lambda outs: {}
    cli: bool = False                     # stdout is the CLI's own output


@dataclass
class Plan:
    jobs: list[Job]                       # the timed job list
    traced: list[Job] = field(default_factory=list)  # traced re-runs and probes


def _per_op(check_one, expected: list) -> Callable[[list], list[str]]:
    def check(outs: list) -> list[str]:
        problems = []
        for out, exp in zip(outs, expected):
            if not isinstance(out, Failed):
                problems += check_one(out, exp)
        return problems

    return check


class SpecWriter:
    """Writes spec and input files into the run's work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.n = 0

    def file(self, data) -> str:
        self.n += 1
        path = self.work / f"in{self.n}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def lib(self, job_id: str, kind: str, params: dict, ops: int, check, work=None,
            trace: bool = False) -> Job:
        spec = {"kind": kind, "job": job_id, "trace": int(trace), "params": params}
        return Job(job_id, [str(JOB_PY), self.file(spec)], ops, check, work or (lambda o: {}))

    def cli(self, job_id: str, argv: list[str], check, work=None) -> Job:
        """The CLI job and its traced re-run."""
        untraced = Job(job_id, ["-m", "monopole_corners.cli", *argv], 1, check,
                       work or (lambda o: {}), cli=True)
        traced = self.lib(job_id, "cli", {"argv": argv, "tag": job_id}, 1, check, work, trace=True)
        traced.cli = True
        return untraced, traced


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

RELATIVE_SHAPES = ((4, 4), (3, 3, 2), (2, 2, 2, 2))


def _faces_work(outs: list) -> dict:
    rows = outs[0] if outs and not isinstance(outs[0], Failed) else []
    return {"faces.emitted": len(rows)}


def atlas(seed: int, b: SpecWriter) -> Plan:
    rng = random.Random(f"atlas-{seed}")
    commands = [(k, d, None, f"faces/k{k}/d{d}") for k in range(2, 8) for d in range(1, k)]
    commands += [(8, d, None, f"faces/k8/d{d}") for d in range(1, 6)]
    for shape in RELATIVE_SHAPES:
        nu = gen.relabelled(rng, shape)
        name = "+".join(map(str, shape))
        commands += [(8, d, nu, f"faces/k8/nu{name}/d{d}") for d in range(1, 9 - len(shape))]
    plan = Plan([])
    for k, d, nu, job_id in commands:
        argv = ["faces", "--k", str(k), "--codim", str(d), "--format", "json"]
        argv += ["--nu", nu] if nu else []
        check = _per_op(lambda rows, e: checks.faces(rows, *e), [(k, d, nu)])
        job, traced = b.cli(job_id, argv, check, _faces_work)
        plan.jobs.append(job)
        plan.traced.append(traced)
        plan.traced.append(b.lib(f"probe/atlas/{job_id}", "atlas",
                                 {"k": k, "d": d, "nu": nu, "tag": job_id}, 1, check, trace=True))
        if nu is None:
            plan.traced.append(b.lib(
                f"probe/chains/{job_id}", "chains", {"k": k, "d": d, "tag": job_id}, 1,
                _per_op(lambda ch, e: checks.chains(ch, *e), [(k, d)]),
                lambda outs: {"partitions.chains_emitted": sum(
                    len(o) for o in outs if not isinstance(o, Failed))},
                trace=True))
    for k in (6, 7, 8):
        job, traced = b.cli(f"validate-ibf/k{k}", ["validate-ibf", "--k", str(k)],
                            _per_op(lambda out, k: checks.validate_ibf_cli(out, k), [k]))
        plan.jobs.append(job)
        plan.traced += [traced, b.lib(
            f"probe/validate_ibf/k{k}", "validate_ibf", {"k": k, "tag": f"k{k}"}, 1,
            _per_op(lambda out, k: checks.ibf_edges(out["edges"], out["violations"], k), [k]),
            trace=True)]
        job, traced = b.cli(f"cover-schedule/k{k}", ["cover-schedule", "--k", str(k)],
                            _per_op(checks.cover_schedule, [k]))
        plan.jobs.append(job)
        plan.traced += [traced, b.lib(
            f"probe/cover_schedule/k{k}", "cover_schedule", {"k": k, "tag": f"k{k}"}, 1,
            _per_op(checks.cover_schedule, [k]), trace=True)]
    return plan


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

EXACT_DEGREES = (5, 6, 7, 8)
MAPS_PER_DEGREE = 4


def _map_work(outs: list, maps: list) -> dict:
    work: dict[str, int] = {}
    for m in maps:
        k = len(m["map"]["psi"])
        work[f"ratmaps.maps.k{k}"] = work.get(f"ratmaps.maps.k{k}", 0) + 1
        work[f"ratmaps.sylvester_rows.k{k}"] = work.get(f"ratmaps.sylvester_rows.k{k}", 0) + 2 * k - 1
    return work


def _pair_work(tag: str):
    def work(outs: list) -> dict:
        return {f"clusters.pair_tests.{tag}": sum(
            O.pair_tests(o["sizes"]) for o in outs if not isinstance(o, Failed))}

    return work


def _lib_pair(b: SpecWriter, job_id: str, kind: str, params: dict, ops: int, check, work=None):
    return (b.lib(job_id, kind, params, ops, check, work),
            b.lib(job_id, kind, params, ops, check, work, trace=True))


def _resultant_jobs(b: SpecWriter, job_id: str, maps: list):
    return _lib_pair(b, job_id, "resultants", {"maps": [m["map"] for m in maps]}, len(maps),
                     _per_op(checks.resultant, [m["expected"] for m in maps]),
                     lambda outs: _map_work(outs, maps))


def _taubes_jobs(b: SpecWriter, tag: str, inputs: list):
    cases = [gen.with_expected(i) for i in inputs]
    return _lib_pair(b, f"taubes/{tag}", "taubes", {"inputs": inputs, "tag": tag}, len(inputs),
                     _per_op(checks.taubes, [c["expected"] for c in cases]), _pair_work(tag))


def exact(seed: int, b: SpecWriter) -> Plan:
    rng = random.Random(f"exact-{seed}")
    pairs = [_resultant_jobs(b, f"resultants/k{k}", gen.rational_maps(rng, [k], MAPS_PER_DEGREE))
             for k in EXACT_DEGREES]
    pairs.append(_taubes_jobs(b, "sparse", [gen.sparse_clusters(rng, 300)]))
    pairs.append(_taubes_jobs(b, "dense", [gen.dense_clusters(rng, 300)]))
    pairs.append(_taubes_jobs(b, "multiscale", [gen.multiscale_clusters(rng, 4)]))
    configs = [gen.planted_configuration(rng, *shape) for shape in ((3, 10, 10), (4, 10, 10))]
    pairs.append(_lib_pair(
        b, "scale_chain", "scale_chain", {"configs": [c["points"] for c in configs], "tag": "large"},
        len(configs), _per_op(checks.scale_chain, [c["expected_chain"] for c in configs]),
        lambda outs: {"clusters.points": sum(len(c["points"]) for c in configs)}))
    return Plan([p[0] for p in pairs], [p[1] for p in pairs])


# ---------------------------------------------------------------------------
# many-small
# ---------------------------------------------------------------------------

SMALL_CLUSTER_INPUTS = 1000
SMALL_DEGREES = (1, 2, 3)
SMALL_MAPS_PER_DEGREE = 80


def many_small(seed: int, b: SpecWriter) -> Plan:
    rng = random.Random(f"many-small-{seed}")
    pairs = []

    ks = list(range(1, 10))
    pairs.append(_lib_pair(
        b, "iter_partitions", "iter_partitions", {"ks": ks}, len(ks),
        _per_op(checks.partition_count, ks),
        lambda outs: {"partitions.yielded": sum(
            o["count"] for o in outs if not isinstance(o, Failed))}))

    flags = [(gen.rgs(a), gen.rgs(c)) for k in range(2, 6) for a, c in gen.strict_pairs(k)]
    rng.shuffle(flags)
    pairs.append(_lib_pair(
        b, "flag_orders", "flag_orders", {"pairs": flags, "tag": "k<=5"}, len(flags),
        _per_op(lambda got, f: checks.flag_orders(got, *f), flags)))

    for k in (6, 7):
        pairs.append(_lib_pair(
            b, f"manybody/k{k}", "manybody", {"k": k, "m": 3, "tag": f"k{k}"}, 1,
            _per_op(lambda got, k: checks.manybody(got, k, 3), [k])))

    triples = [tuple(map(gen.rgs, t)) for k in range(3, 7) for t in gen.strict_triples(k)]
    rng.shuffle(triples)
    pairs.append(_lib_pair(
        b, "restriction_splits", "restriction_splits", {"triples": triples, "tag": "k<=6"},
        len(triples), _per_op(checks.restriction, triples)))

    types = [list(t) for k in range(2, 13) for t in O.integer_partitions(k)]
    rng.shuffle(types)
    pairs.append(_lib_pair(
        b, "torus_group", "torus_group", {"types": types, "tag": "k<=12"}, len(types),
        _per_op(checks.torus_group, types)))

    type_pairs = []
    proper = O.proper_types(8)
    for i, a in enumerate(proper):
        for c in proper[i + 1 :]:
            type_pairs.append([list(a), list(c)] if rng.random() < 0.5 else [list(c), list(a)])
    rng.shuffle(type_pairs)
    pairs.append(_lib_pair(
        b, "intersections", "intersections", {"k": 8, "pairs": type_pairs, "tag": "k8"},
        len(type_pairs), lambda outs: checks.intersections(outs, type_pairs, 8)))

    small = gen.small_cluster_inputs(rng, SMALL_CLUSTER_INPUTS)
    pairs.append(_taubes_jobs(b, "small", small))

    maps = gen.rational_maps(rng, SMALL_DEGREES, SMALL_MAPS_PER_DEGREE)
    pairs.append(_resultant_jobs(b, "resultants/small", maps))

    pairs += _cli_one_shots(rng, b)
    return Plan([p[0] for p in pairs], [p[1] for p in pairs])


def _cli_one_shots(rng: random.Random, b: SpecWriter) -> list:
    out = []
    m = gen.rational_map(rng, 3, "one")
    out.append(b.cli("cli/resultant", ["resultant", "--input", b.file(m["map"]), "--format", "json"],
                     _per_op(checks.resultant, [m["expected"]])))

    case = gen.with_expected(gen.paired_clusters(rng, 10))
    out.append(b.cli("cli/cluster", ["cluster", "--input", b.file(case["input"])],
                     _per_op(checks.taubes_cli, [case["expected"]])))

    cfg = gen.planted_configuration(rng, 2, 2, 2)
    path = b.file({"points": cfg["points"]})
    out.append(b.cli("cli/chain", ["chain", "--input", path, "--format", "json"],
                     _per_op(checks.scale_chain, [cfg["expected_chain"]])))
    out.append(b.cli("cli/coords", ["coords", "--input", path, "--chain", ",".join(cfg["expected_chain"])],
                     _per_op(lambda got, c: checks.coords(got, c["points"], c["expected_chain"]), [cfg])))

    lam, nu = rng.choice(gen.strict_pairs(6))
    lam, nu = gen.rgs(lam), gen.rgs(nu)
    out.append(b.cli("cli/gm", ["gm", "--lambda", lam, "--nu", nu],
                     _per_op(lambda got, f: checks.weight_system(got, *f), [(lam, nu)])))

    parts = list(rng.choice(O.proper_types(12)))
    out.append(b.cli("cli/torus-group", ["torus-group", "--type", ",".join(map(str, parts))],
                     _per_op(lambda got, p: checks.torus_group(
                         [got.get("torus_rank"), got.get("finite_order")], p), [parts])))
    return out


WORKLOADS = {"atlas": atlas, "exact": exact, "many-small": many_small}
