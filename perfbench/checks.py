"""Output checks made apart from the program.

Every expected count here is computed by the benchmark itself, by a method
other than the program's (a closure search of down-sets, brute force over
pairs, a numpy pass over all masks, the colex order built from tuples), or
is a published count (OEIS A006129, the Dedekind number M(5)).  Nothing is
compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

import numpy as np

from workloads import sample_seed

# Graphs on n labelled vertices without isolated vertices (OEIS A006129).
A006129 = {2: 1, 3: 4, 4: 41, 5: 768, 6: 27449, 7: 1887284}
DEDEKIND_5 = 7581  # up-sets of 2^[5] (OEIS A000372)


def word(elements) -> int:
    w = 0
    for e in elements:
        w |= 1 << (e - 1)
    return w


def family_words(text: str) -> frozenset[int]:
    """Members of a family in the program's text format, read by hand."""
    lines = text.splitlines()[1:]
    return frozenset(word(int(t) for t in ln.split(",")) if ln else 0 for ln in lines)


@lru_cache(maxsize=None)
def count_down_sets(n: int, k: int) -> int:
    """Down-sets of the componentwise order on the k-subsets of [n], found by
    closing the empty set under adding any set whose lower sets are all in."""
    sets = list(itertools.combinations(range(1, n + 1), k))
    below = [sum(1 << j for j, b in enumerate(sets) if j != i and all(x <= y for x, y in zip(b, a)))
             for i, a in enumerate(sets)]
    seen = {0}
    frontier = [0]
    while frontier:
        grown = []
        for down in frontier:
            for i, need in enumerate(below):
                if not down >> i & 1 and down & need == need:
                    bigger = down | 1 << i
                    if bigger not in seen:
                        seen.add(bigger)
                        grown.append(bigger)
        frontier = grown
    return len(seen)


def count_cross_intersecting(n: int, a: int, b: int) -> int:
    """Pairs (A, B) of an a-level and a b-level family with every member of A
    meeting every member of B, by brute force over all mask pairs."""
    sets_a = [word(c) for c in itertools.combinations(range(1, n + 1), a)]
    sets_b = [word(c) for c in itertools.combinations(range(1, n + 1), b)]
    pairs = np.arange(1 << (len(sets_a) + len(sets_b)), dtype=np.int64)
    mask_a, mask_b = pairs >> len(sets_b), pairs & ((1 << len(sets_b)) - 1)
    bad = np.zeros(pairs.size, dtype=bool)
    for i, wa in enumerate(sets_a):
        for j, wb in enumerate(sets_b):
            if not wa & wb:
                bad |= ((mask_a >> i) & 1).astype(bool) & ((mask_b >> j) & 1).astype(bool)
    return int((~bad).sum())


def colex_first(n: int, m: int, k: int) -> frozenset[int]:
    """The first m k-subsets of [n] in colex order (compare largest elements first)."""
    ordered = sorted(itertools.combinations(range(1, n + 1), k), key=lambda c: c[::-1])
    return frozenset(word(c) for c in ordered[:m])


def shadow_size(members) -> int:
    return len({w & ~(1 << b) for w in members for b in range(w.bit_length()) if w >> b & 1})


def real_binomial_root(m: int, k: int) -> float:
    """x >= k with x(x-1)...(x-k+1)/k! = m, by bisection."""
    def c(x):
        return math.prod(x - i for i in range(k)) / math.factorial(k)
    lo, hi = float(k), float(k + m)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if c(mid) < m else (lo, mid)
    return (lo + hi) / 2


class Checker:
    """Collects failed checks; `ok` is True while none failed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.failures.append(f"{self.workload}: {what}")

    def reports(self, ops, outcomes) -> None:
        """Each outcome must be a report with no violation, except the budget
        stop, which must have raised BudgetExceeded."""
        for op, out in zip(ops, outcomes):
            if op.budget is not None:
                self.expect(out.get("raised") == "BudgetExceeded",
                            f"{op.label} with budget {op.budget} did not raise BudgetExceeded")
            elif "error" in out:
                self.expect(False, f"{op.label} failed: {out['error']}")
            else:
                self.expect(out["violations"] == 0, f"{op.label} has {out['violations']} violations")

    def same_reports(self, ops, first, other, what: str) -> None:
        for op, a, b in zip(ops, first, other):
            self.expect(a.get("canonical_sha") == b.get("canonical_sha"),
                        f"{op.label}: canonical report differs {what}")


def check(workload: str, seed: int, ops, outcomes, checker: Checker) -> None:
    checker.workload = workload  # a traced run checks every workload's pass
    checker.reports(ops, outcomes)
    if checker.ok:  # the detailed checks read report fields
        CHECKS[workload](seed, ops, outcomes, checker)


def check_level_scan(seed, ops, outcomes, c: Checker) -> None:
    rep = outcomes[0]
    c.expect(rep["checked"] + rep["skipped"] == 1 << 20, "checked + skipped != 2^20")
    shifted = count_down_sets(6, 3)
    c.expect(rep["checked"] == shifted,
             f"checked {rep['checked']} != {shifted} shifted (6,3) families")


def check_compress(seed, ops, outcomes, c: Checker) -> None:
    from shadowlab.shifting import ShiftTrace, compress_to_colex
    from shadowlab.verifier import InstanceSpace, iter_space

    c.expect(outcomes[0]["checked"] == 1 << 10, "all-families:n=5,k=2 not fully checked")
    c.expect(outcomes[1]["checked"] == 1000, "the (7,3) sample not fully checked")
    sample = list(iter_space(InstanceSpace.parse(ops[1].space)))
    c.expect(len(sample) == 1000, "the (7,3) sample does not hold 1000 families")
    rng = random.Random(sample_seed(seed))
    for idx in sorted(rng.sample(range(len(sample)), 60)):
        fam = sample[idx]
        result, trace = compress_to_colex(fam)
        target = colex_first(7, len(fam), 3)
        c.expect(frozenset(result.members) == target,
                 f"sample {idx}: compression is not the colex initial segment")
        c.expect(trace.replay(fam) == result, f"sample {idx}: trace does not replay")
        cur, size = fam, shadow_size(fam.members)
        for step in trace.steps:
            cur = ShiftTrace((step,)).replay(cur)
            nxt = shadow_size(cur.members)
            c.expect(nxt <= size, f"sample {idx}: shadow grew {size} -> {nxt} at {step.to_line()}")
            size = nxt


def check_kernels(seed, ops, outcomes, c: Checker) -> None:
    colex, real = outcomes[0], outcomes[1]
    c.expect(colex["checked"] == 1 << 20, "shadow-colex-lower did not check 2^20 families")
    c.expect(real["checked"] == (1 << 20) - 1, "shadow-real-lower did not check 2^20 - 1 families")
    for op, rep in zip(ops[2:], outcomes[2:]):
        n = int(op.space.rpartition("=")[2])
        c.expect(rep["checked"] == A006129[n], f"n={n}: {rep['checked']} graphs, not {A006129[n]}")
        complete = frozenset(word(e) for e in itertools.combinations(range(1, n + 1), 2))
        witnesses = [family_words(text) for text in rep["equality_witnesses"]]
        if n % 2:
            c.expect(witnesses == [complete] and rep["equalities"] == 1,
                     f"n={n}: equality witnesses are not exactly K_{n}")
        else:
            c.expect(rep["equalities"] == 0, f"n={n}: equality witnesses at even n")

    # Shadow sizes of all 2^20 subfamilies of the (6,3) level.
    triples = [word(t) for t in itertools.combinations(range(1, 7), 3)]
    pairs = {word(p): i for i, p in enumerate(itertools.combinations(range(1, 7), 2))}
    masks = np.arange(1 << len(triples), dtype=np.int64)
    shadow = np.zeros(masks.size, dtype=np.int64)
    for i, t in enumerate(triples):
        below = sum(1 << pairs[t & ~(1 << b)] for b in range(6) if t >> b & 1)
        shadow |= np.where((masks >> i) & 1 == 1, below, 0)
    sizes = np.bitwise_count(masks).astype(np.int64)
    shadows = np.bitwise_count(shadow).astype(np.int64)

    colex_bound = np.array([shadow_size(colex_first(6, m, 3)) for m in range(21)])
    at = colex_bound[sizes]
    c.expect(not (shadows < at).any(), "own pass finds a colex-bound violation")
    own = int((shadows == at).sum())
    c.expect(colex["equalities"] == own, f"colex equalities {colex['equalities']} != own {own}")

    root = [0.0] + [real_binomial_root(m, 3) for m in range(1, 21)]
    real_bound = np.array([x * (x - 1) / 2 for x in root])[sizes]
    nonempty = sizes > 0
    own = int((nonempty & (np.abs(shadows - real_bound) <= 1e-9)).sum())
    c.expect(not (nonempty & (shadows < real_bound - 1e-9)).any(), "own pass finds a real-bound violation")
    c.expect(real["equalities"] == own, f"real equalities {real['equalities']} != own {own}")


def check_search_spaces(seed, ops, outcomes, c: Checker) -> None:
    by = {op.label: out for op, out in zip(ops, outcomes) if op.budget is None}

    def total(label):
        return by[label]["checked"] + by[label]["skipped"]

    c.expect(total("shifted-structure@all-shifted-families:n=8,k=3") == count_down_sets(8, 3),
             "shifted (8,3) count differs from own down-set count")
    c.expect(total("shifted-correlation@all-shifted-families:n=7,k=3") == count_down_sets(7, 3) ** 2,
             "shifted (7,3) pair count is not the square of own down-set count")
    for label in ("t-intersecting-max[t=2]@all-up-sets:n=5", "influence-identity@all-up-sets:n=5"):
        c.expect(total(label) == DEDEKIND_5, f"{label}: {total(label)} up-sets, not M(5)")
    pairs = count_cross_intersecting(5, 2, 2)
    for claim in ("cross-lex-segments", "cross-shift-preserves", "cross-shadow-size"):
        label = f"{claim}@all-cross-pairs:n=5,a=2,b=2"
        c.expect(total(label) == pairs, f"{label}: {total(label)} pairs, own brute force {pairs}")

    # Katona's extremal 2-intersecting family on [5]: n+t odd, so the sets
    # with at least 3 elements outside element 1.
    katona = frozenset(w for w in range(1 << 5) if (w >> 1).bit_count() >= 3)
    witnesses = {family_words(t) for t in by["t-intersecting-max[t=2]@all-up-sets:n=5"]["equality_witnesses"]}
    c.expect(katona in witnesses, "the Katona family is not a t-intersecting-max witness")

    notes = by["kalai-properties@constructions-grid:n=3..15,name=kalai_circle"]["notes"]
    seq = notes.get("max_influence", {})
    c.expect(set(seq) == {str(n) for n in range(3, 16, 2)}, "kalai max_influence covers the wrong n")
    if c.ok:
        c.expect(seq["3"] == 0.5, "kalai max influence at n=3 is not 1/2")
        values = [seq[str(n)] for n in range(3, 16, 2)]
        c.expect(notes.get("max_influence_nonincreasing") is True
                 and all(b <= a + 1e-12 for a, b in zip(values, values[1:])),
                 "kalai max influence is not nonincreasing")
        fitted = notes.get("fitted_constant", 0.0)
        c.expect(all(seq[str(n)] <= fitted * math.log(n) / n + 1e-12 for n in range(5, 16, 2)),
                 "kalai max influence exceeds the fitted log n / n curve")
    grid = by["t-intersecting-diversity@constructions-grid:n=2..12,name=katona_t,t=1..4"]
    c.expect(grid["checked"] > 0, "the katona_t grid checked nothing")


CHECKS = {
    "level-scan": check_level_scan,
    "compress": check_compress,
    "kernels": check_kernels,
    "search-spaces": check_search_spaces,
}
