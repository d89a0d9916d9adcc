"""The host-speed probe, and the sampling process that runs it.

``reference_loop`` is a fixed mix of dict, tuple and small numpy work that
does not touch cascata.  Run as a script, this module is the sampling
process that ``perf_workloads.timed`` starts around long rounds:

    python3 perfbench/perf_sampler.py <cpu> <interval>

It pins itself to ``<cpu>``, prints ``ready``, then times the loop every
``<interval>`` seconds until its standard input is closed, and prints the
slowdowns it saw as one JSON list before it exits.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

import numpy as np

#: time of ``reference_loop`` on an idle core of the host the reference
#: figures in README.md were taken on
REFERENCE_S = 0.0008


def reference_loop() -> float:
    """Returns the CPU time the loop took, which a core shared with a busy
    neighbour stretches but a preemption does not."""
    start = time.thread_time()
    table = {}
    for i in range(4000):
        key = (i & 127, i % 5)
        table[key] = table.get(key, 0) + 1
    values = np.arange(256)
    for _ in range(40):
        values = (values * 7 + 3) % 256
    return time.thread_time() - start


def main(argv) -> int:
    cpu, interval = int(argv[0]), float(argv[1])
    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], interval)[0]:
        samples.append(reference_loop() / REFERENCE_S)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
