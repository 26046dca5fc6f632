"""Run jobs in fresh interpreters and take their resource usage.

Jobs are spawned by spawner.py, a small long-lived child, so that their
peak RSS does not start from run.py's (see spawner.py).  Wall time
runs from just before the spawn to the reap.  CPU time (user plus
system) and peak RSS come from the job's own rusage, returned by
os.wait4, so nothing else running on the host is counted in them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SPAWNER = Path(__file__).resolve().parent / "spawner.py"


@dataclass
class Proc:
    status: int          # exit code, or -signal
    stdout: bytes
    stderr: bytes
    start_ns: int        # CLOCK_MONOTONIC
    end_ns: int
    cpu_s: float
    maxrss_mb: float
    timed_out: bool

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Runner:
    """One spawner process; jobs run one at a time through it."""

    def __init__(self, env: dict, cwd: Path, scratch: Path):
        self._out = scratch / "job.stdout"
        self._err = scratch / "job.stderr"
        self._proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def run(self, argv: list[str], timeout_s: float) -> Proc:
        req = {"argv": [sys.executable, *argv], "stdout": str(self._out),
               "stderr": str(self._err), "timeout": timeout_s}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("job spawner exited")
        r = json.loads(line)
        return Proc(
            status=r["status"],
            stdout=self._out.read_bytes(),
            stderr=self._err.read_bytes(),
            start_ns=r["start_ns"],
            end_ns=r["end_ns"],
            cpu_s=r["cpu_s"],
            maxrss_mb=r["maxrss_kb"] / 1024,  # Linux reports KiB
            timed_out=r["timed_out"],
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
