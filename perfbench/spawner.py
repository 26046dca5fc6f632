"""Job launcher: spawns each job and reaps it with os.wait4.

    python3 perfbench/spawner.py < requests > replies

Linux seeds a child's peak RSS with the peak RSS of the process that
spawned it, so jobs spawned straight from run.py, which holds every
input and output of the run, would report run.py's peak.  This
launcher stays small instead: it reads one JSON request per line (argv,
stdout and stderr file paths, timeout), spawns the job with its output
going to those files, and answers with one JSON line of exit status,
CLOCK_MONOTONIC start and end, CPU seconds and peak RSS in KiB.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    child = 0

    def kill_child(signum, frame):
        if child:
            os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill_child)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        start = time.monotonic_ns()
        child = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(child, 0)
        end = time.monotonic_ns()
        child = 0
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.write(json.dumps({
            "status": os.waitstatus_to_exitcode(status),
            "start_ns": start,
            "end_ns": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "timed_out": remaining == 0,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
