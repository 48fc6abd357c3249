"""Run one command on one CPU and print its start and end, CPU time, peak
RSS and exit code.

Usage::

    python3 -S perfbench/spawn.py OUT_DIR TIMEOUT_S CPU -- <command...>

The command runs pinned to ``CPU``.  Its stdout and stderr go to
``OUT_DIR/stdout.txt`` and ``OUT_DIR/stderr.txt``; after ``TIMEOUT_S``
seconds it is killed.  One JSON list ``[start, end, cpu_s, maxrss_kib,
exit_code]`` is printed, with ``start`` and ``end`` in ``time.monotonic()``
seconds.

The benchmark starts nilcert through this small interpreter because
Linux carries a process's RSS high-water mark across ``exec`` into the
child's ``ru_maxrss``: started straight from the benchmark, which holds
numpy and the checks' arrays, a child would report the benchmark's peak
whenever that is the larger one.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    out, timeout, cpu, sep, *command = argv
    if sep != "--" or not command:
        print("usage: spawn.py OUT_DIR TIMEOUT_S CPU -- <command...>", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {int(cpu)})
    with open(os.path.join(out, "stdout.txt"), "wb") as so, \
            open(os.path.join(out, "stderr.txt"), "wb") as se:
        start = time.monotonic()
        proc = subprocess.Popen(command, stdout=so, stderr=se)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
