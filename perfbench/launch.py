"""Run one command and report its wall time, CPU time, peak RSS and exit code.

The benchmark starts every measured child through this small process. On
Linux a child's ``ru_maxrss`` starts from the memory of the process that
spawned it, so spawning straight from the benchmark (numpy and generated
inputs loaded) would hide any child that uses less than the benchmark does.

Usage: python3 -S launch.py STDOUT STDERR REPORT.json ARGV...
"""

import json
import os
import sys
import time


def main() -> None:
    out, err, report, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}, fh)


if __name__ == "__main__":
    main()
