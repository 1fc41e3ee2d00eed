"""Set-up probe, run in a fresh interpreter: import the CLI, build the
workload's inputs and pay the lazy set-up its first call pays on every CLI
run.  Prints `<import seconds> <set-up seconds>`.

Only `sys` and `time` are imported before the clock starts, so the modules
`shadowlab.cli` pulls in (argparse, json, fractions, ...) are paid here.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time

start = time.perf_counter()
import shadowlab.cli  # noqa: E402,F401

imported = time.perf_counter()

from shadowlab.verifier import CLAIMS, InstanceSpace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
for op in WORKLOADS[workload](seed):
    InstanceSpace.parse(op.space)
    CLAIMS.get(op.claim)
if workload == "kernels":
    import numpy  # noqa: F401  -- the graph kernel imports it on its first call

done = time.perf_counter()
sys.stdout.write(f"{imported - start!r} {done - start!r}\n")
