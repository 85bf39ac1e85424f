"""Build one workload's inputs in a fresh interpreter, then print the clock.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts this to measure setup_s: from interpreter start until
fqidtest is imported and the workload's algebras and polynomials are
built.  The printed ``time.monotonic()`` is on a system-wide clock.
"""

import sys
import time

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))
print(time.monotonic())
