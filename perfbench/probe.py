"""Sample the speed of one CPU while nilcert runs on it.

Usage::

    python3 perfbench/probe.py CPU

The probe pins itself to ``CPU``, warms up, prints ``ready`` and then,
every ``INTERVAL_S`` seconds, times one fixed piece of work in its own
thread CPU time.  When its standard input closes it prints one JSON list
of ``[start, duration]`` samples (``time.monotonic()`` seconds) and exits.

The work is a Python loop of small numpy calls, as in nilcert, so that
it slows down when nilcert does: on a shared host the same
instructions take longer while other tenants load the machine.
Thread CPU time leaves out the time the probe waits for the CPU, so a
sample measures how fast the CPU runs, not how busy it is.  Each sample
costs 0.5-1 ms, about 2% of the CPU it shares with nilcert.
"""

import json
import os
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.04
MATRIX = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, -6.0], [0.0, 1.0, 9.0]])


def work() -> None:
    m = MATRIX
    for k in range(25):
        np.linalg.eigvals(m + k)
        m = m @ MATRIX / 9.0


def sample() -> float:
    start = time.thread_time()
    work()
    return time.thread_time() - start


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: probe.py CPU", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {int(argv[0])})
    for _ in range(20):
        sample()
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append((time.monotonic(), sample()))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
