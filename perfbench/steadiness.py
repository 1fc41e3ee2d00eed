"""Steadiness of the end-to-end metrics: two sets of ten runs of one commit.

    python3 perfbench/steadiness.py [--workloads level-scan,compress,...]

Every run uses another seed: 1 to 10 in the first set, 11 to 20 in the
second.  The two sets are run interleaved (seed 1, 11, 2, 12, ...), so an
episode of a faster or slower host falls on both sets alike.  For each
end-to-end metric on each workload it prints both sets' medians, the
spread of each set (the distance between the first and third quartile as a
share of the median, by `statistics.quantiles(values, n=4)`), how much
worse the second median is than the first, and the bound from
BENCHMARK.json.  A metric is steady when both spreads stay within its bound
and the second median is not worse than the first by more than the bound.
Exits with code 1 when a metric is not steady, a run is not correct or the
share of failed operations differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (range(1, 11), range(11, 21))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    steady = True
    table = {}
    for workload in args.workloads.split(","):
        first, second = [], []
        for seed_1, seed_2 in zip(*SEEDS):
            for runs, seed in ((first, seed_1), (second, seed_2)):
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"# {workload} seed {seed}: "
                      + json.dumps({k: v["value"] for k, v in runs[-1]["metrics"].items()}),
                      flush=True)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (first, second)}
        if len(shares) != 1 or not all(r["correct"] for r in first + second):
            steady = False
            print(f"{workload}: runs not correct, or failed shares differ: {sorted(shares)}")
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in (first, second)]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound and max(spreads) <= bound
            steady &= ok
            table[workload][name] = {"medians": medians, "spreads": spreads, "worse": worse,
                                     "bound": bound, "steady": ok}
            print(f"{workload:14} {name:20} medians {' '.join(f'{m:.6g}' for m in medians):30} "
                  f"spreads {' '.join(f'{s:.3f}' for s in spreads):14} worse {worse:+.3f} "
                  f"bound {bound:.2f} {'ok' if ok else 'NOT STEADY'}", flush=True)
    out = Path(".perfbench-runs")
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(table, indent=1))
    raise SystemExit(0 if steady else 1)


if __name__ == "__main__":
    main()
