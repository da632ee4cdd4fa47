"""Set-up time in a fresh interpreter: import pvguard and build every input
of a workload, up to the first analysis call.  Prints the seconds taken,
scaled to the reference machine speed like the timed calls.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import sys
import time

from harness import SpeedProbe
from workloads import build, import_pvguard

with SpeedProbe() as probe:
    started = time.perf_counter()
    build(import_pvguard(), sys.argv[1], int(sys.argv[2]))
    ended = time.perf_counter()
print((ended - started - probe.seconds) * probe.factor(started, ended))
