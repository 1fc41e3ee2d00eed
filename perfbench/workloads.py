"""The four workloads: which `verify` calls one pass makes, and how its
instances are counted.

An operation is one `verify` call.  Every pass of a workload makes the same
operations in the same order, so `attempted` is a whole multiple of the pass
size and `failed` (always 0 here) is the same share in every run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# The budget stop: a space of 683,464 shifted (9,4) families, stopped far
# below its size.
BUDGET_SPACE = "all-shifted-families:n=9,k=4"
BUDGET = 1000


@dataclass(frozen=True)
class Op:
    claim: str
    space: str
    params: dict = field(default_factory=dict)
    jobs: int = 1
    budget: int | None = None  # set only for the budget stop, which must raise

    @property
    def label(self) -> str:
        body = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.claim}[{body}]@{self.space}" if body else f"{self.claim}@{self.space}"


def level_scan(seed: int, jobs: int | None = None) -> list[Op]:
    """At `jobs` workers; by default one per CPU this process may run on."""
    return [Op("shifted-structure", "all-families:n=6,k=3",
               jobs=jobs or len(os.sched_getaffinity(0)))]


def sample_seed(seed: int) -> int:
    """The `random-sample` seed of the compress workload for a benchmark seed."""
    return 1000 + seed


def compress(seed: int) -> list[Op]:
    return [
        Op("compression-shadow-monotone", "all-families:n=5,k=2"),
        Op("compression-shadow-monotone",
           f"random-sample:count=1000,k=3,n=7,seed={sample_seed(seed)}"),
    ]


def kernels(seed: int) -> list[Op]:
    ops = [
        Op("shadow-colex-lower", "all-families:n=6,k=3"),
        Op("shadow-real-lower", "all-families:n=6,k=3"),
    ]
    ops += [Op("graph-avoidance", f"all-graphs:n={n}") for n in range(2, 8)]
    return ops


def search_spaces(seed: int) -> list[Op]:
    cross = "all-cross-pairs:n=5,a=2,b=2"
    return [
        Op("shifted-structure", "all-shifted-families:n=8,k=3"),
        Op("shifted-correlation", "all-shifted-families:n=7,k=3"),
        Op("t-intersecting-max", "all-up-sets:n=5", {"t": 2}),
        Op("influence-identity", "all-up-sets:n=5"),
        Op("cross-lex-segments", cross),
        Op("cross-shift-preserves", cross),
        Op("cross-shadow-size", cross),
        Op("cross-diversity-stability", "all-cross-pairs:n=6,a=3,b=3", {"u": 3, "v": 3}),
        Op("kalai-properties", "constructions-grid:n=3..15,name=kalai_circle"),
        Op("t-intersecting-diversity", "constructions-grid:n=2..12,name=katona_t,t=1..4"),
        Op("shifted-structure", BUDGET_SPACE, budget=BUDGET),
    ]


WORKLOADS = {
    "level-scan": level_scan,
    "compress": compress,
    "kernels": kernels,
    "search-spaces": search_spaces,
}


def serial_ops(workload: str, seed: int) -> list:
    """A workload's operations as traced: `level-scan` at jobs=1."""
    return level_scan(seed, jobs=1) if workload == "level-scan" else WORKLOADS[workload](seed)


def instances(op: Op, outcome: dict) -> int:
    """Instances an operation went through: checked + skipped, the instances
    its budget let through when it stopped, or none when it failed."""
    if "error" in outcome:
        return 0
    if op.budget is not None:
        return op.budget
    return outcome["checked"] + outcome["skipped"]
