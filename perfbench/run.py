"""Benchmark entry point for monopole-corners.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/`.  Every job runs in a fresh interpreter, one at a time, because
the library keeps process-wide caches and every CLI call starts cold.
An untraced run makes whole passes over the workload's job list, as
many as fit in --seconds (at least one), and reports the end-to-end
metrics as one JSON object on the last line of stdout; --trace 1 instead
makes one traced pass over the jobs of every workload and reports the
per-layer metrics.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import runner  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_LAUNCHES_PER_PASS = 6
JOB_TIMEOUT_S = 120.0

SETUP_CODE = "import time, monopole_corners.cli as c; print(time.monotonic_ns(), c.__file__)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe(jobs: runner.Runner) -> float:
    """Seconds from spawning an interpreter until monopole_corners.cli is imported."""
    proc = jobs.run(["-c", SETUP_CODE], JOB_TIMEOUT_S)
    if proc.status != 0:
        raise SystemExit(f"importing monopole_corners.cli failed:\n{proc.stderr.decode()}")
    stamp, path = proc.stdout.decode().split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"monopole_corners was imported from {path.strip()}, not from {SRC}")
    return (int(stamp) - proc.start_ns) / 1e9


def decode(job: W.Job, proc: runner.Proc) -> tuple[list, list[str], list[dict]]:
    """(outputs, problems, spans) of one job process."""
    if proc.timed_out:
        return [W.Failed("timed out")] * job.ops, [], []
    if proc.status != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return [W.Failed(f"exit {proc.status}: {tail[0]}")] * job.ops, [], []
    try:
        if job.argv[0] == "-m":  # an untraced CLI job: stdout is the CLI's own
            payload = {"results": [{"status": 0, "stdout": proc.stdout.decode()}], "spans": []}
        else:
            payload = json.loads(proc.stdout)
        outs = []
        for r in payload["results"]:
            if isinstance(r, dict) and set(r) == {"error"}:
                outs.append(W.Failed(r["error"]))
            elif job.cli and r["status"] != 0:
                outs.append(W.Failed(f"exit {r['status']}"))
            elif job.cli:
                outs.append(json.loads(r["stdout"]))
            else:
                outs.append(r)
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"{job.id}: unreadable output ({exc})"], []
    if len(outs) != job.ops:
        return outs, [f"{job.id}: {len(outs)} outputs for {job.ops} operations"], payload["spans"]
    return outs, [f"{job.id}: {p}" for p in job.check(outs)], payload["spans"]


class Tally:
    """Operations attempted and failed, and the problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self._verified: dict[tuple[str, bytes], tuple[list[str], list[str]]] = {}

    def add(self, job: W.Job, proc: runner.Proc, cacheable: bool) -> tuple[list, list[dict]]:
        """Check one job's outputs; identical output bytes are checked once."""
        key = (job.id, hashlib.sha256(proc.stdout).digest() + bytes([proc.status & 0xFF]))
        outs, spans = [], []
        if cacheable and key in self._verified and not proc.timed_out:
            failures, problems = self._verified[key]
        else:
            outs, problems, spans = decode(job, proc)
            failures = [f"{job.id}: {o.message}" for o in outs if isinstance(o, W.Failed)]
            self._verified[key] = (failures, problems)
        self.attempted += job.ops
        self.failed += len(failures)
        self.failures += failures
        self.problems += problems
        return outs, spans

    @property
    def correct(self) -> bool:
        return not self.problems


def timed(plan: W.Plan, seconds: float, seed: int, jobs: runner.Runner) -> tuple[dict, Tally, dict]:
    rng = random.Random(f"order-{seed}")
    tally = Tally()
    procs: dict[str, list[runner.Proc]] = {j.id: [] for j in plan.jobs}
    setup: list[float] = []
    start = time.monotonic()
    passes = 0
    while True:
        pass_start = time.monotonic()
        setup += [setup_probe(jobs) for _ in range(SETUP_LAUNCHES_PER_PASS)]
        order = list(plan.jobs)
        rng.shuffle(order)
        for job in order:
            proc = jobs.run(job.argv, JOB_TIMEOUT_S)
            procs[job.id].append(proc)
            tally.add(job, proc, cacheable=True)
        passes += 1
        now = time.monotonic()
        # Whole passes only: start another one if it should end within the run.
        if now - start + (now - pass_start) > seconds:
            break
    per_job = {
        jid: {
            "wall_s": statistics.median(p.wall_s for p in ps),
            "cpu_s": statistics.median(p.cpu_s for p in ps),
            "maxrss_mb": max(p.maxrss_mb for p in ps),
        }
        for jid, ps in procs.items()
    }
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(j["wall_s"] for j in per_job.values()), "unit": "s"},
        "cpu_s": {"value": sum(j["cpu_s"] for j in per_job.values()), "unit": "s"},
        "peak_rss_mb": {"value": max(j["maxrss_mb"] for j in per_job.values()), "unit": "MB"},
    }
    return metrics, tally, {"passes": passes, "setup_samples": setup, "jobs": per_job}


def traced(workload: str, seed: int, specs: W.SpecWriter,
           runs: runner.Runner) -> tuple[dict, Tally, dict]:
    """One traced pass over the jobs of every workload, this one first."""
    tally = Tally()
    spans: list[dict] = []
    work: dict[str, int] = {}
    jobs: list[dict] = []
    for name in [workload] + [w for w in W.WORKLOADS if w != workload]:
        for job in W.WORKLOADS[name](seed, specs).traced:
            proc = runs.run(job.argv, JOB_TIMEOUT_S)
            outs, job_spans = tally.add(job, proc, cacheable=False)
            spans.append({"name": "job", "start": proc.start_ns, "end": proc.end_ns,
                          "parent": None, "job": job.id, "tag": name})
            spans += job_spans
            for key, value in job.work(outs or []).items():
                work[key] = work.get(key, 0) + value
            jobs.append({"id": job.id, "workload": name, "wall_s": proc.wall_s,
                         "cpu_s": proc.cpu_s, "maxrss_mb": proc.maxrss_mb})
    metrics = layers.per_layer(spans, jobs, work)
    retraced = {}
    for j in jobs:
        if not j["id"].startswith("probe/"):
            retraced[j["workload"]] = retraced.get(j["workload"], 0.0) + j["wall_s"]
    return metrics, tally, {"spans": spans, "work": work, "jobs": jobs, "traced_wall_s": retraced}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "monopole_corners" / "cli.py").is_file():
        print(f"error: no library source at {SRC}; run from a monopole-corners checkout",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        specs = W.SpecWriter(work_dir)
        with runner.Runner(child_env(), ROOT, work_dir) as jobs:
            if args.trace:
                metrics, tally, detail = traced(args.workload, args.seed, specs, jobs)
            else:
                plan = W.WORKLOADS[args.workload](args.seed, specs)
                metrics, tally, detail = timed(plan, args.seconds, args.seed, jobs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "trace" if args.trace else "result"
    record = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures[:50], "problems": tally.problems[:50], **detail}
    (OUT / f"{kind}-{args.workload}-{args.seed}.json").write_text(json.dumps(record))
    for p in tally.failures[:10] + tally.problems[:10]:
        print(p, file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
