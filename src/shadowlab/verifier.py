"""Exhaustive and construction-based certification of the package's claims.

``verify`` streams an instance space (see ``spaces``) through a registered
claim (see ``claims``) and produces a replayable Report: hypothesis failures
are skipped, violations are recorded as counterexamples (re-verifiable from
their serialized form), and instances meeting a bound with equality become
witnesses.

A space known to exceed the budget is refused by its meter (``spaces.Meter``)
before its check is prepared, whatever the worker count.  The check is then
prepared once and handed to the claim's fast kernel or to the one generic
scan.  Either one only states how many instances of each status it met and
hands over the instances to record; one tally, ``_record``, counts them,
keeps at most MAX_RECORDED counterexamples and witnesses and serializes
them through ``_instance_payload``.  With jobs >= 2 the scan splits the
numbered spaces, all-families and random-sample, into index ranges: the
first checked here, each other by a child process that prepares its own
check and builds only its own instances; the reduction merges the
counterexample and witness lists in index order under the same cut, so
runs are reproducible regardless of the worker count.  Kernels and every
other space run in one process and tick the meter as they work.  A kernel
reads its claim's verdict from ``claims`` when it runs, so it holds no
bound of its own, and its level's tables (shadows, level-index masks, the
``meets`` masks) from ``orders.level``, so it holds no cache of its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from math import comb

from . import claims
from .claims import CLAIMS, ClaimSpec
from .families import Family
from .orders import level, level_words
from .spaces import (
    NUMBERED_KINDS,
    BudgetExceeded,  # raised by the meter; callers catch it from here
    InstanceSpace,
    Meter,
    _iter_numbered,
    _label,
    _mask_family,
    _parse_label,
    iter_space,
    space_size,
)

MAX_RECORDED = 1000
KERNEL_BLOCK = 1 << 16  # masks per numpy block in the shadow and graph kernels


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    claim: str
    space: str
    checked: int = 0
    skipped: int = 0
    counterexamples: list = field(default_factory=list)
    equality_witnesses: list = field(default_factory=list)
    seconds: float = 0.0
    violations: int = 0
    equalities: int = 0
    exploratory: bool = False
    expected_boundary: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def canonical_json(self) -> str:
        """Byte-comparable form: timing zeroed out."""
        body = self.to_dict()
        body["seconds"] = 0.0
        return json.dumps(body, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))


def reverify(report: Report | dict) -> bool:
    """Re-run the claim on every recorded counterexample; True iff each
    one still violates."""
    body = report.to_dict() if isinstance(report, Report) else report
    claim_id, params = _parse_label(body["claim"])
    spec = _claim_spec(claim_id)
    space = InstanceSpace.parse(body["space"])
    check = spec.prepare(space, dict(spec.checked_params(params), _notes={}))
    return all(
        check(_instance_from_payload(entry["instance"]))[0] == "violation"
        for entry in body["counterexamples"]
    )


def _claim_spec(claim_id: str) -> ClaimSpec:
    """The registered claim `claim_id`; an unknown one is a ValueError."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; know {sorted(CLAIMS)}")
    return CLAIMS[claim_id]


def _instance_payload(inst) -> object:
    """An instance's serialized form; a pair's sides may be texts already."""
    if isinstance(inst, Family):
        return inst.to_text()
    if isinstance(inst, tuple) and len(inst) == 2:
        first, second = inst
        if isinstance(first, Family) and isinstance(second, Family):
            first, second = first.to_text(), second.to_text()
        if isinstance(first, str) and isinstance(second, str):
            return {"A": first, "B": second}
        if isinstance(first, dict):
            return {
                "params": first,
                "family": second.to_text() if second is not None else None,
            }
    raise TypeError(f"cannot serialize instance {inst!r}")


def _instance_from_payload(payload):
    if isinstance(payload, str):
        return Family.from_text(payload)
    if isinstance(payload, dict) and "A" in payload:
        return Family.from_text(payload["A"]), Family.from_text(payload["B"])
    if isinstance(payload, dict) and "params" in payload:
        fam = payload["family"]
        return payload["params"], (Family.from_text(fam) if fam else None)
    raise TypeError(f"cannot rebuild instance from {payload!r}")


# ---------------------------------------------------------------------------
# the tally
# ---------------------------------------------------------------------------

# The count and the list of each status that is recorded.
_RECORDED = {"violation": ("violations", "counterexamples"),
             "equality": ("equalities", "equality_witnesses")}


def _tallies() -> dict:
    """An empty tally: the Report fields that a kernel or a scan fills."""
    return {"checked": 0, "skipped": 0, "violations": 0, "equalities": 0,
            "counterexamples": [], "equality_witnesses": []}


def _record(tallies: dict, status: str, count: int, recorded=()) -> None:
    """Add `count` instances of one verdict status to the tallies: a skip as
    skipped, any other as checked.  A violation or equality also records
    (instance, detail) pairs from `recorded` while its list holds fewer than
    MAX_RECORDED entries, so a generator handed over builds its instances
    only then.  A witness drops its detail: witnesses come with None."""
    tallies["skipped" if status == "skip" else "checked"] += count
    if status not in _RECORDED or not count:
        return
    count_key, list_key = _RECORDED[status]
    tallies[count_key] += count
    kept = tallies[list_key]
    room = MAX_RECORDED - len(kept)
    if room > 0:
        for inst, detail in itertools.islice(recorded, room):
            payload = _instance_payload(inst)
            kept.append(payload if status == "equality" else {"instance": payload, "detail": detail})


# ---------------------------------------------------------------------------
# fast kernels
# ---------------------------------------------------------------------------


def _split_table(member_masks: list[int], limbs: int):
    """The OR of member_masks[i] over the bits i of each mask of
    len(member_masks) bits, as a (limbs, 2^len) array of uint64 limbs, the
    least significant limb first."""
    import numpy as np

    tab = np.zeros((limbs, 1 << len(member_masks)), dtype=np.uint64)
    for i, member in enumerate(member_masks):
        limb_values = [member >> (64 * limb) & (1 << 64) - 1 for limb in range(limbs)]
        tab[:, 1 << i:2 << i] = tab[:, :1 << i] | np.array(limb_values, dtype=np.uint64)[:, None]
    return tab


def _shadow_kernel(check, space: InstanceSpace, mode: str) -> dict:
    """Split-table scan of the shadow lower bounds over a full level.

    The shadow of a family is the union of per-member shadow masks, so a
    mask's shadow splits as (high-table OR low-table), each table held as
    uint64 limbs of the shadow level.  The 2^C(n,k) masks are popcounted
    in blocks of whole high rows, about KERNEL_BLOCK masks each, so the
    tables and one block are all the memory the scan holds.  The verdict
    per family size comes from the checkers' own _shadow_verdict, and
    counterexample details from the check itself; witnesses get none.
    """
    import numpy as np

    n, k = space.get("n"), space.get("k")
    words = level_words(n, k)
    m_words = len(words)
    member_masks = [sum(1 << i for i in sub) for sub in level(n, k).shadows]
    limbs = max(1, -(-max(member_masks, default=0).bit_length() // 64))
    verdicts = [claims._shadow_verdict(mode, n, k, size) for size in range(m_words + 1)]
    # Skips depend on the size alone, so they are counted here, and a
    # skipped size gets floor -1 and equality size -1, which no shadow meets.
    skipped = sum(comb(m_words, size) for size, v in enumerate(verdicts) if v is None)
    floors = np.array([v[0] if v else -1 for v in verdicts], dtype=np.int16)
    equal_at = np.array([v[0] if v and v[1] else -1 for v in verdicts], dtype=np.int16)

    split = m_words // 2
    low_tab = _split_table(member_masks[:split], limbs)
    high_tab = _split_table(member_masks[split:], limbs)
    # Row h of each: the floor or equality size of every low mask beside a
    # high mask of h members.
    sizes = np.arange(m_words - split + 1)[:, None] + np.bitwise_count(
        np.arange(1 << split, dtype=np.uint64))
    floor_rows, equal_rows = floors[sizes], equal_at[sizes]
    high_sizes = np.bitwise_count(np.arange(1 << (m_words - split), dtype=np.uint64))

    def families(hits, base: int):
        # the flat index of a block entry, plus the block's first mask, is its mask
        for mask in (np.flatnonzero(hits) + base).tolist():
            yield _mask_family(n, k, words, mask)

    tallies = _tallies()
    rows = max(1, KERNEL_BLOCK >> split)
    for start in range(0, 1 << (m_words - split), rows):
        high = high_tab[:, start:start + rows, None]
        sh = np.bitwise_count(high[0] | low_tab[0])
        for limb in range(1, limbs):
            sh = sh + np.bitwise_count(high[limb] | low_tab[limb]).astype(np.uint16)
        hs = high_sizes[start:start + rows]
        below = sh < floor_rows[hs]
        met = sh == equal_rows[hs]
        base = start << split
        _record(tallies, "violation", int(np.count_nonzero(below)),
                ((fam, check(fam)[1]) for fam in families(below, base)))
        _record(tallies, "equality", int(np.count_nonzero(met)),
                ((fam, None) for fam in families(met, base)))
    _record(tallies, "skip", skipped)
    _record(tallies, "ok", (1 << m_words) - tallies["skipped"] - tallies["checked"])
    return tallies


def _graph_kernel(check, space: InstanceSpace, params, meter) -> dict:
    """Vectorized scan of the graph-avoidance claim over all-graphs(n).

    Statuses and details come from the checker's own _graph_verdict.  Each
    block of `_graph_keys` is tallied by status in turn, so instances are
    recorded in ascending edge-mask order.
    """
    import numpy as np

    n = space.get("n")
    edges = level_words(n, 2)
    num_edges = len(edges)
    # Every graph here covers [n], so it is complete only with every edge.
    verdicts = [
        claims._graph_verdict(s, a, n, complete)
        for s in range(n // 2 + 1) for a in range(num_edges + 1)
        for complete in (False, True)
    ]
    codes = ("ok", "violation", "equality", "skip")
    table = np.array([codes.index(v[0]) for v in verdicts], dtype=np.int8)

    def found(graphs, key, status, code: int):
        at = np.flatnonzero(status == code)
        for mask, index in zip(graphs[at].tolist(), key[at].tolist()):
            yield _mask_family(n, 2, edges, mask), verdicts[index][1]

    tallies = _tallies()
    for graphs, key in _graph_keys(n, edges):
        status = table[key]
        for code, count in enumerate(np.bincount(status, minlength=4).tolist()):
            _record(tallies, codes[code], count, found(graphs, key, status, code))
    return tallies


def _graph_keys(n: int, edges):
    """Each graph of all-graphs(n), as its edge mask in ascending order, and
    the index (nu, avoided, complete) of its verdict in the graph kernel's
    table, yielded as (graphs, key) arrays block by block.

    Every edge mask m gets its covered vertices and matching number from m
    without its highest edge e, with
    nu(m) = max(nu(m - e), 1 + nu(m minus every edge touching e)).  Those
    two tables, one byte per edge mask up to n = 8, are the only arrays as
    long as the space; everything else is built for one block of
    KERNEL_BLOCK edge masks at a time.  A graph's edge count and the edges
    each s-set avoids are popcounts.
    """
    import numpy as np

    num_edges = len(edges)
    total = 1 << num_edges
    # The narrowest dtypes that hold an edge mask and a vertex mask.
    index = np.min_scalar_type(total - 1)
    cover = np.zeros(total, dtype=np.min_scalar_type((1 << n) - 1))
    nu = np.zeros(total, dtype=np.uint8)
    meets = level(n, 2).meets(2)
    for e, word in enumerate(edges):
        lo = 1 << e
        apart = (lo - 1) & ~meets[e]
        cover[lo:2 * lo] = cover[:lo] | word
        for start in range(0, lo, KERNEL_BLOCK):
            stop = min(start + KERNEL_BLOCK, lo)
            nu[lo + start:lo + stop] = np.maximum(
                nu[start:stop], 1 + nu[np.arange(start, stop, dtype=index) & apart])

    # The edges avoiding each s-set, for s = 1 .. n // 2.
    keeps = [[(total - 1) & ~meet for meet in level(n, s).meets(2)] for s in range(1, n // 2 + 1)]
    key_type = np.min_scalar_type((n // 2 + 1) * (num_edges + 1) * 2)
    for start in range(0, total, KERNEL_BLOCK):
        covering = np.flatnonzero(cover[start:start + KERNEL_BLOCK] == (1 << n) - 1)
        graphs = (covering + start).astype(index)
        nus = nu[graphs]
        avoided = np.bitwise_count(graphs)
        for s, keep_s in enumerate(keeps, start=1):
            sel = nus == s
            sub = graphs[sel]
            best = avoided[sel]
            for keep in keep_s:
                np.minimum(best, np.bitwise_count(sub & keep), out=best)
            avoided[sel] = best
        key = (nus.astype(key_type) * (num_edges + 1) + avoided) * 2 + (graphs == total - 1)
        yield graphs, key


def _max_room(meets: list[int], lb: int) -> list[int]:
    """The largest room an A-side of each size 0..la leaves for B, given the
    mask `meets[i]` of the b-sets (lb of them) that the i-th a-set meets.

    A b-set meets every member of A unless it lies in a member's
    complement, so A's room is lb minus the b-shadow of its complements,
    which are (n-a)-sets.  By Kruskal–Katona the first s colex (n-a)-sets
    have the least b-shadow of any s of them, so the largest room at size s
    is the room their complements leave.  Complementing reverses colex
    order: those complements are the last s a-sets.
    """
    room = (1 << lb) - 1
    best = [lb]
    for meet in reversed(meets):
        room &= meet
        best.append(room.bit_count())
    return best


def _cross_stability_kernel(check, space: InstanceSpace, params, meter) -> dict:
    """Room-pruned scan of the cross-pair stability claim.

    An A-side's room is the mask of the b-sets meeting every member, and
    its B-sides are the subsets of its room.  A-sides are walked size by
    size from their size threshold up, each size by an include-first DFS
    over the a-level's colex indices, which meets them in
    itertools.combinations order.  The A threshold, C(n-1,a-1) -
    C(n-v-1,a-1) plus a cap, is at least 1 where the claim runs (a, b >= 2,
    v >= 3), so every A-side walked has a member.  The DFS carries the room
    down and drops a prefix whose room is below the B threshold: room only
    shrinks as A grows.  The walk stops before the first size whose
    Kruskal–Katona largest room (`_max_room`) is below the B threshold; no
    A-side of that size or a later one has room.

    The pairs of a B size that fails the check's own `_stability_hypothesis`
    are counted as skipped without building them.  An A-side whose room
    holds no B size that passes it adds its skips from a per-size table and
    yields nothing; every other pair goes to the check.  Pruned pairs are not
    counted.  The meter counts each node that extends a prefix, in batches
    of about 4096, and each pair handed to the check, before it is built.
    """
    thr_a, thr_b, _, _ = claims._stability_thresholds(space, params)
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    words_a = level_words(n, a)
    words_b = level_words(n, b)
    la, lb = len(words_a), len(words_b)
    notes = params["_notes"]
    notes["threshold_a"] = thr_a
    notes["threshold_b"] = thr_b
    meet = level(n, a).meets(b)
    best = _max_room(meet, lb)
    skipped = 0

    def by_room(size_a: int, room: int) -> tuple[list[int], int]:
        """The B sizes up to the room where the hypothesis holds, and the pairs it skips."""
        held = [s for s in range(thr_b, room + 1)
                if claims._stability_hypothesis(size_a, s, thr_a, thr_b)]
        return held, sum(comb(room, s) for s in range(thr_b, room + 1) if s not in held)

    def pairs_of(combo, room: int, held: list[int]):
        bbits = [jdx for jdx in range(lb) if room >> jdx & 1]
        fam_a = Family(n, (words_a[i] for i in combo), k=a)
        for size_b in held:
            meter.tick(comb(len(bbits), size_b))
            for bcombo in itertools.combinations(bbits, size_b):
                yield fam_a, Family(n, (words_b[j] for j in bcombo), k=b)

    def pairs():
        nonlocal skipped
        for size_a in range(thr_a, la + 1):
            if best[size_a] < thr_b:
                break
            table = [by_room(size_a, room) if room >= thr_b else None
                     for room in range(best[size_a] + 1)]
            # combo[:depth] is the prefix, rooms[depth] its room, nxt the
            # next index tried at depth, and nodes the nodes taken since the
            # last tick; an index taken at the last depth completes an A-side.
            combo = [0] * size_a
            rooms = [(1 << lb) - 1] * (size_a + 1)
            slack, last = la - size_a, size_a - 1
            depth = nxt = nodes = 0
            while True:
                if nxt <= slack + depth:
                    room = rooms[depth] & meet[nxt]
                    count = room.bit_count()
                    if count >= thr_b:
                        nodes += 1
                        combo[depth] = nxt
                        if depth < last:
                            depth += 1
                            rooms[depth] = room
                        else:
                            held, skips = table[count]
                            skipped += skips
                            if held:
                                yield from pairs_of(combo, room, held)
                    nxt += 1
                    continue
                if depth == 0 or nodes >= 4096:
                    meter.tick(nodes)
                    nodes = 0
                    if depth == 0:
                        break
                depth -= 1
                nxt = combo[depth] + 1

    tallies = _check_stream(check, pairs())
    _record(tallies, "skip", skipped)
    return tallies


def _correlation_pairs_kernel(check, space: InstanceSpace, params, meter) -> dict:
    """The correlation claim over every ordered pair of the space's families.

    The meter counts each family, then each row of pairs before its tally.
    Each family is a mask over its level's colex indices, so a pair's
    intersection size is one AND and a popcount.  The verdict depends on
    that size and the two family sizes alone, and comes from the check's
    own `_correlation_verdict`, once per distinct triple.  Pairs are tallied
    in itertools.product order.  A recorded pair is handed over as the texts
    of its two families, and each text is built once, when a recorded pair
    first needs it.
    """
    fams = list(iter_space(space, meter))
    n, k = space.get("n"), space.get("k")
    lvl = level(n, k)
    total = comb(n, k)
    sides = [(lvl.mask(fam.members), len(fam)) for fam in fams]
    verdict = functools.cache(claims._correlation_verdict)
    text = functools.cache(lambda i: fams[i].to_text())

    def pair(i: int, j: int, detail):
        yield (text(i), text(j)), detail

    tallies = _tallies()
    for i, (m1, s1) in enumerate(sides):
        meter.tick(len(sides))
        for j, (m2, s2) in enumerate(sides):
            status, detail = verdict((m1 & m2).bit_count(), s1, s2, total)
            if status != "ok":
                _record(tallies, status, 1, pair(i, j, detail))
    _record(tallies, "ok", len(sides) ** 2 - tallies["skipped"] - tallies["checked"])
    return tallies


# Each kernel is called as kernel(check, space, params, meter).  The shadow
# kernels look _shadow_kernel up when they run, so a wrapper put on
# verifier._shadow_kernel (as the benchmark's tracer does) is the one run.
KERNELS = {
    ("graph-avoidance", "all-graphs"): _graph_kernel,
    ("shifted-correlation", "all-shifted-families"): _correlation_pairs_kernel,
    ("shadow-colex-lower", "all-families"):
        lambda check, space, params, meter: _shadow_kernel(check, space, "colex"),
    ("shadow-real-lower", "all-families"):
        lambda check, space, params, meter: _shadow_kernel(check, space, "real"),
    ("cross-diversity-stability", "all-cross-pairs"): _cross_stability_kernel,
}

# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def verify(
    claim_id: str,
    space: InstanceSpace | str,
    params: dict | None = None,
    jobs: int | None = None,
    budget: int | None = None,
) -> Report:
    """Check one claim over one instance space and return the Report."""
    spec = _claim_spec(claim_id)
    if isinstance(space, str):
        space = InstanceSpace.parse(space)
    if space.kind not in spec.spaces:
        raise ValueError(
            f"claim {claim_id!r} runs on {spec.spaces}, not {space.kind!r}"
        )
    checked = spec.checked_params(params)
    t0 = time.perf_counter()
    report = Report(_label(claim_id, checked), space.describe())
    merged = dict(checked, _notes=report.notes)
    meter = Meter(space, budget)
    check = spec.prepare(space, merged)

    kernel = KERNELS.get((claim_id, space.kind))
    if kernel is not None:
        tallies = kernel(check, space, merged, meter)
    else:
        tallies = _scan(spec, check, space, checked, jobs or 1, meter)
    vars(report).update(tallies)  # counts and recorded lists, each a Report field

    if spec.exploratory is True:
        report.exploratory = True
    elif callable(spec.exploratory):
        report.exploratory = bool(spec.exploratory(space, merged))
    if spec.finalize is not None:
        spec.finalize(report, space, merged)
    report.seconds = round(time.perf_counter() - t0, 6)
    return report


def _scan(spec: ClaimSpec, check, space, params, jobs, meter) -> dict:
    """The generic scan.  A numbered space is cut into min(jobs, CPUs,
    instances) index ranges, checked through the check's mask filter if it
    has one: the first here, each other in a child process that pipes back
    its tally, merged in range order with the lists cut back to MAX_RECORDED.
    Every other space is one stream through iter_space, which ticks the meter."""
    if space.kind not in NUMBERED_KINDS:
        return _check_stream(check, iter_space(space, meter))
    total = space_size(space)
    workers = min(jobs, os.cpu_count() or 1, total)
    if workers < 2:
        return _check_range(check, space, (0, total))
    import multiprocessing  # loaded only when a scan starts workers

    cuts = [total * i // workers for i in range(workers + 1)]
    blocks = list(zip(cuts, cuts[1:]))
    context, children = multiprocessing.get_context(), []
    try:
        for blk in blocks[1:]:
            receive, send = context.Pipe(duplex=False)
            args = (send, spec.id, space.describe(), params, blk)
            child = context.Process(target=_worker_main, args=args, daemon=True)
            child.start()
            children.append((child, receive))
            send.close()  # the child holds the only write end, so its death reads as EOF
        partials = [_check_range(check, space, blocks[0])]
        for child, receive in children:
            try:
                raised, result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"scan worker died with exit code {child.exitcode}") from None
            if raised:
                raise result
            partials.append(result)
    finally:
        for child, receive in children:
            receive.close()
            if child.is_alive():
                child.terminate()
            child.join()
    merged = _tallies()
    for part in partials:
        for key, value in part.items():
            merged[key] += value  # counts add up, lists are extended
    for _, list_key in _RECORDED.values():
        del merged[list_key][MAX_RECORDED:]  # the first entries in range order, as _record keeps
    return merged


def _check_stream(check, stream) -> dict:
    """Tally the check's verdicts over a stream of instances."""
    tallies = _tallies()
    ok = 0
    for inst in stream:
        status, detail = check(inst)
        if status == "ok":
            ok += 1
        else:
            _record(tallies, status, 1, [(inst, detail)])
    _record(tallies, "ok", ok)
    return tallies


def _check_range(check, space: InstanceSpace, block) -> dict:
    """Check instances lo..hi-1 of a numbered space.  With the check's mask
    filter only the instances it keeps are built and checked (on
    all-families the filter enumerates them, so the time goes with the kept
    instances, not the range); every instance of the range that is not
    checked is skipped, so the rest are counted in one step."""
    lo, hi = block
    keep = getattr(check, "mask_filter", None)
    tallies = _check_stream(check, _iter_numbered(space, lo, hi, keep))
    _record(tallies, "skip", (hi - lo) - tallies["skipped"] - tallies["checked"])
    return tallies


def _worker_scan(claim_id, space_text, params, block):
    """A worker's range of a numbered space, checked in its own process."""
    space = InstanceSpace.parse(space_text)
    check = CLAIMS[claim_id].prepare(space, dict(params, _notes={}))
    return _check_range(check, space, block)


def _worker_main(send, *args) -> None:
    """A child's entry: _worker_scan(*args), sent as (raised, result)."""
    try:
        reply = (False, _worker_scan(*args))
    except Exception as exc:
        reply = (True, exc)
    send.send(reply)


def verify_cross_pair_space(
    n: int, a: int, b: int, u: int, v: int, budget: int | None = None
) -> Report:
    """Shorthand for verify("cross-diversity-stability") on all-cross-pairs(n, a, b)."""
    return verify(
        "cross-diversity-stability",
        InstanceSpace.make("all-cross-pairs", n=n, a=a, b=b),
        params={"u": u, "v": v}, budget=budget,
    )
