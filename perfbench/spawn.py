"""Run one command and print its wall time, CPU time and peak memory.

Usage: python3 spawn.py CMD [ARGS...]

Prints one JSON object: wall seconds from start to exit, user + sys CPU
seconds of the command and its waited-for descendants, the largest max RSS
among them in MB, and the exit code. The command's stdout is discarded.

On Linux a child's max RSS starts from the memory of the process that
forked it, so the benchmark starts scans from this small process instead of
from itself: its own few MB are the floor of the reading, not the
benchmark's workloads and traces.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
