"""The measured process.  It runs whole passes of one workload and prints
their timings and the reports on its last stdout line as JSON; the checks
run later, in the process that started it, so they add nothing to this
process's time or memory.

    PYTHONPATH=src python3 perfbench/worker.py passes <workload> <seed> <seconds>
    PYTHONPATH=src python3 perfbench/worker.py traced <workload> <seed>

`passes` starts a new pass while fewer than <seconds> have gone by.
`traced` runs one traced pass of every workload between two untraced passes
of <workload>, then the untraced passes the parallel ratios need.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from workloads import WORKLOADS, level_scan, serial_ops

from shadowlab.verifier import BudgetExceeded, verify


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_pass(ops) -> dict:
    """One timed pass; reports are serialized after the clock stops."""
    results = []
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for op in ops:
        try:
            results.append(verify(op.claim, op.space, params=op.params or None,
                                  jobs=op.jobs, budget=op.budget))
        except BudgetExceeded as exc:
            results.append(exc)
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(RuntimeError(f"{type(exc).__name__}: {exc}"))
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    return {"wall": wall, "cpu": cpu, "outcomes": [outcome(r) for r in results]}


def outcome(result) -> dict:
    if isinstance(result, BudgetExceeded):
        return {"raised": "BudgetExceeded", "message": str(result)}
    if isinstance(result, Exception):
        return {"error": str(result)}
    canonical = result.canonical_json()
    body = result.to_dict()
    body["canonical_sha"] = hashlib.sha256(canonical.encode()).hexdigest()
    return body


def passes(workload: str, seed: int, seconds: float) -> dict:
    ops = WORKLOADS[workload](seed)
    if workload == "kernels":
        import numpy  # noqa: F401  -- the graph kernel's lazy set-up, measured as setup_s
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        done.append(run_pass(ops))
    return {"passes": done, "peak_rss_mb": peak_rss_mb()}


def traced(workload: str, seed: int) -> dict:
    import numpy  # noqa: F401  -- the graph kernel's lazy set-up, paid before any pass
    import tracer as tracing
    from shadowlab import orders

    # The untraced twins of --workload's traced pass: one before the traced
    # passes and one after them, so the overhead compares the traced pass
    # with a colder and a warmer untraced one, not with a warmer one only.
    before = run_pass(serial_ops(workload, seed))
    level_words = orders.level_words
    tracer = tracing.install()
    layers = {}
    for name in WORKLOADS:
        tracer.reset()
        level_words.cache_clear()
        result = run_pass(serial_ops(name, seed))
        layers[name] = {
            "wall": result["wall"],
            "outcomes": result["outcomes"],
            "first_next": dict(tracer.first_next),
            "cold": tracer.cold,
            "stats": {key: {"calls": s.calls, "total": s.total, "self": s.self, "count": s.count}
                      for key, s in tracer.stats.items()},
        }
    tracer.uninstall()

    # Untraced, so the parallel pass forks workers without the wrappers.
    parallel = run_pass(level_scan(seed))
    serial = run_pass(level_scan(seed, jobs=1))
    after = run_pass(serial_ops(workload, seed))
    return {"parallel": parallel, "serial": serial, "untraced": [before, after], "layers": layers}


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "passes":
        result = passes(workload, seed, float(argv[3]))
    else:
        result = traced(workload, seed)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
