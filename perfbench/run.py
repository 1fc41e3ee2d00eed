"""Benchmark of shadowlab's verifier, run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: level-scan, compress, kernels, search-spaces (see workloads.py
and README.md).  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`, named and with units as in
BENCHMARK.json.  A fuller record of the run goes to `.perfbench-runs/`.
The program is always the checkout's own `src/`; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker, check
from workloads import BUDGET_SPACE, WORKLOADS, instances, level_scan, serial_ops

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-runs"
PROBES = 10       # fresh interpreters per run, half before and half after the passes
DEADLINE = 170.0  # seconds from the start; a run must end within 180

# per-layer metric -> (span, field, the workloads whose traced passes it sums)
LAYERS = {
    "verifier.iter_space.self_s": ("verifier.iter_space", "self", ("level-scan", "search-spaces")),
    "verifier.check.self_s": ("verifier.check", "self", ("level-scan", "compress", "search-spaces")),
    "verifier.kernel.shadow_s": ("verifier.kernel.shadow", "total", ("kernels",)),
    "verifier.kernel.graph_s": ("verifier.kernel.graph", "total", ("kernels",)),
    "verifier.verify_cross_pair_space.self_s":
        ("verifier.verify_cross_pair_space", "self", ("search-spaces",)),
    "families.Family.self_s": ("families.Family", "self", ("level-scan", "compress")),
    "families.Family.calls": ("families.Family", "calls", ("level-scan", "compress")),
    "families.shadow.self_s": ("families.shadow", "self", ("compress",)),
    "families.shadow.calls": ("families.shadow", "calls", ("compress",)),
    "families.is_r_wise_t_intersecting.self_s":
        ("families.is_r_wise_t_intersecting", "self", ("search-spaces",)),
    "families.is_cross_t_intersecting.self_s":
        ("families.is_cross_t_intersecting", "self", ("search-spaces",)),
    "families.degree_vector.self_s": ("families.degree_vector", "self", ("search-spaces",)),
    "orders.colex_rank.self_s": ("orders.colex_rank", "self", ("compress",)),
    "orders.colex_rank.calls": ("orders.colex_rank", "calls", ("compress",)),
    "shifting.compress_to_colex.self_s": ("shifting.compress_to_colex", "self", ("compress",)),
    "shifting.compress_to_colex.steps": ("shifting.compress_to_colex", "count", ("compress",)),
    "shifting.find_colex_violation.self_s": ("shifting.find_colex_violation", "self", ("compress",)),
    "shifting.is_shifted.self_s": ("shifting.is_shifted", "self", ("level-scan",)),
    "shifting.cross_lex_shift_step.self_s":
        ("shifting.cross_lex_shift_step", "self", ("search-spaces",)),
    "diversity.diversity.self_s": ("diversity.diversity", "self", ("search-spaces",)),
    "diversity.influence_profile.self_s": ("diversity.influence_profile", "self", ("search-spaces",)),
    "binomials.inv_gbinom.self_s": ("binomials.inv_gbinom", "self", ("search-spaces",)),
    "binomials.inv_gbinom.calls": ("binomials.inv_gbinom", "calls", ("search-spaces",)),
    "binomials.kk_bound.self_s": ("binomials.kk_bound", "self", ("kernels",)),
    "constructions.build.self_s": ("constructions.build", "self", ("search-spaces",)),
}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def run_child(args: list[str], timeout: float) -> str:
    """Run a perfbench script on the checkout's `src/` and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SHADOWLAB_BUDGET", None)
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args[0]} did not end within {timeout:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{args[0]} exited with code {done.returncode}")
    return done.stdout


def probe(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Import and set-up seconds of `count` fresh interpreters."""
    runs = (run_child([str(HERE / "probe.py"), workload, str(seed)], 60).split() for _ in range(count))
    return [(float(imported), float(setup)) for imported, setup in runs]


def worker(args: list[str], started: float) -> dict:
    left = DEADLINE - (time.perf_counter() - started)
    return json.loads(run_child([str(HERE / "worker.py"), *args], left).splitlines()[-1])


def failed_ops(*passes) -> int:
    return sum("error" in out for p in passes for out in p["outcomes"])


def untraced(workload: str, seed: int, seconds: int, started: float, checker) -> tuple:
    ops = WORKLOADS[workload](seed)
    probes = probe(workload, seed, PROBES // 2)
    result = worker(["passes", workload, str(seed), str(seconds)], started)
    probes += probe(workload, seed, PROBES - PROBES // 2)
    passes = result["passes"]
    check(workload, seed, ops, passes[0]["outcomes"], checker)
    for later in passes[1:]:
        checker.same_reports(ops, passes[0]["outcomes"], later["outcomes"], "between passes")
    failed = failed_ops(*passes)
    for p in passes:
        p["instances"] = sum(instances(op, out) for op, out in zip(ops, p.pop("outcomes")))
    metrics = {
        "setup_s": statistics.median(setup for _, setup in probes),
        "instances_per_s": statistics.median(p["instances"] / p["wall"] for p in passes),
        "cpu_us_per_instance": statistics.median(p["cpu"] * 1e6 / p["instances"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, result, len(passes) * len(ops), failed


def traced(workload: str, seed: int, started: float, checker) -> tuple:
    from shadowlab.verifier import InstanceSpace

    import_s = statistics.median(imported for imported, _ in probe(workload, seed, PROBES))
    result = worker(["traced", workload, str(seed)], started)
    layers = result["layers"]
    for name in WORKLOADS:
        check(name, seed, serial_ops(name, seed), layers[name]["outcomes"], checker)
    scan = level_scan(seed)
    for other, what in ((layers["level-scan"], "at jobs=1 (traced)"), (result["serial"], "at jobs=1")):
        checker.same_reports(scan, result["parallel"]["outcomes"], other["outcomes"],
                             f"{what} and at the CPU count")
    for twin in result["untraced"]:
        checker.same_reports(serial_ops(workload, seed), layers[workload]["outcomes"],
                             twin["outcomes"], "traced and untraced")

    metrics = {metric: sum(layers[n]["stats"].get(span, {}).get(field, 0) for n in names)
               for metric, (span, field, names) in LAYERS.items()}
    budget_space = InstanceSpace.parse(BUDGET_SPACE).describe()
    metrics["verifier.iter_space.first_s"] = layers["search-spaces"]["first_next"].get(budget_space, 0.0)
    metrics["verifier.parallel.speedup"] = result["serial"]["wall"] / result["parallel"]["wall"]
    metrics["verifier.parallel.cpu_ratio"] = result["parallel"]["cpu"] / result["serial"]["cpu"]
    metrics["orders.level_words.cold_s"] = sum(layer["cold"] for layer in layers.values())
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead"] = layers[workload]["wall"] / statistics.mean(
        twin["wall"] for twin in result["untraced"])

    runs = [result["parallel"], result["serial"], *layers.values(), *result["untraced"]]
    attempted, failed = sum(len(r["outcomes"]) for r in runs), failed_ops(*runs)
    for r in runs:
        r.pop("outcomes")
    return metrics, result, attempted, failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "shadowlab" / "verifier.py").is_file():
        fail(f"no shadowlab sources under {SRC}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))  # the checks call the checkout's shadowlab

    checker = Checker(args.workload)
    if args.trace:
        metrics, record, attempted, failed = traced(args.workload, args.seed, started, checker)
    else:
        metrics, record, attempted, failed = untraced(
            args.workload, args.seed, args.seconds, started, checker)
    for problem in checker.failures:
        sys.stderr.write(f"CHECK FAILED {problem}\n")
    result = {
        "correct": checker.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    OUT.mkdir(exist_ok=True)
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps({**result, "checks_failed": checker.failures,
                                       "record": record}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
