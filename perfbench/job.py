"""Child entry point: run one job spec and print its outputs as one JSON line.

    python3 perfbench/job.py SPEC.json

The spec names a job kind from jobs.py, its parameters, the job id and
whether to record spans.
"""

import json
import sys

import jobs


def main(path: str) -> None:
    with open(path) as fh:
        spec = json.load(fh)
    tracer = jobs.Tracer(spec["job"], bool(spec["trace"]))
    results = jobs.KINDS[spec["kind"]](tracer, spec["params"])
    sys.stdout.write(json.dumps({"results": results, "spans": tracer.spans}))


if __name__ == "__main__":
    main(sys.argv[1])
