"""Exhaustive and construction-based certification of the package's claims.

A claim is a named per-instance predicate (hypothesis -> conclusion); an
instance space is a deterministic generator of families, pairs, graphs or
parameter tuples.  ``verify`` streams the space through the claim and
produces a replayable Report: hypothesis failures are skipped, violations
are recorded as counterexamples (re-verifiable from their serialized
form), and instances meeting a bound with equality become witnesses.

A claim runs either through its fast kernel or through the one generic
scan.  With jobs >= 2 the scan splits the numbered spaces, all-families
and random-sample, into index ranges checked in a process pool, each
worker building only its own instances; the reduction merges counterexample
and witness lists in index order, so runs are reproducible regardless of
the worker count.  Kernels and every other space run in one process.
Unknown space parameters and a negative sample count are refused.

A prepared check may carry a ``mask_filter``: a predicate on the level
masks of all-families and of a uniform random-sample that rejects only
instances the check itself would skip (not shifted, or not pairwise
intersecting).  The scan of those spaces counts a rejected mask as skipped
without building its Family, and hands every kept mask to the check.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import ceil, comb, log

from .binomials import bound_value, gbinom, inv_gbinom, kk_bound, check_gap_monotonicity
from .constructions import CONSTRUCTIONS, a2_family, build, l_family
from .diversity import (
    diversity,
    influence_profile,
    is_up_closed,
    kk_diversity,
    s_diversity,
)
from .families import (
    Family,
    InvariantViolation,
    complement_family,
    degree_vector,
    is_cross_t_intersecting,
    is_r_wise_t_intersecting,
    matching_number,
    set_repr,
    shadow,
    trace,
)
from .orders import level, level_words, lex_segment
from .shifting import (
    compress_to_colex,
    cross_lex_shift_step,
    is_shifted,
    shift_ij,
)

DEFAULT_BUDGET = 1 << 26
MAX_RECORDED = 1000


class BudgetExceeded(RuntimeError):
    """The instance space is larger than the configured budget."""


# ---------------------------------------------------------------------------
# instance spaces
# ---------------------------------------------------------------------------

# Each kind's required parameters, then the optional ones checked when
# present; no others are accepted, except the grid's axes.  All are integers
# except the grid's name, which is "params" or a key of CONSTRUCTIONS, and a
# sample's count may not be negative.
SPACE_KINDS = {
    "all-families": (("n", "k"), ()),
    "all-shifted-families": (("n", "k"), ()),
    "all-cross-pairs": (("n", "a", "b"), ()),
    "all-graphs": (("n",), ()),
    "all-up-sets": (("n",), ()),
    "constructions-grid": (("name",), ()),
    "random-sample": (("n", "count"), ("k", "seed")),
}


@dataclass(frozen=True)
class InstanceSpace:
    kind: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, kind: str, **params) -> "InstanceSpace":
        if kind not in SPACE_KINDS:
            raise ValueError(f"unknown space kind {kind!r}; know {tuple(SPACE_KINDS)}")
        required, optional = SPACE_KINDS[kind]
        unknown = sorted(set(params) - set(required + optional))
        if unknown and kind != "constructions-grid":
            raise ValueError(f"{kind} takes no parameter {', '.join(unknown)}")
        for key in required + tuple(key for key in optional if key in params):
            val = params.get(key)
            if key == "name":
                if val != "params" and val not in CONSTRUCTIONS:
                    raise ValueError(
                        f"{kind} needs name=params or one of {sorted(CONSTRUCTIONS)}"
                    )
            elif not isinstance(val, int):
                raise ValueError(f"{kind} needs an integer {key}=...")
            elif key == "count" and val < 0:
                raise ValueError(f"{kind} needs count >= 0, not {val}")
        return cls(kind, tuple(sorted(params.items())))

    def get(self, name: str, default=None):
        for key, val in self.params:
            if key == name:
                return val
        return default

    def describe(self) -> str:
        body = ",".join(f"{k}={_format_value(v)}" for k, v in self.params)
        return f"{self.kind}:{body}" if body else self.kind

    @classmethod
    def parse(cls, text: str) -> "InstanceSpace":
        kind, _, body = text.partition(":")
        params = {}
        if body:
            for tok in body.split(","):
                key, _, val = tok.partition("=")
                if not key or not val:
                    raise ValueError(f"bad space parameter {tok!r}")
                params[key] = _parse_value(val)
        return cls.make(kind, **params)


def _parse_value(text: str):
    if ".." in text:
        lo, _, hi = text.partition("..")
        return ("range", int(lo), int(hi))
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _format_value(val) -> str:
    if isinstance(val, tuple) and val and val[0] == "range":
        return f"{val[1]}..{val[2]}"
    return str(val)


def space_size(space: InstanceSpace) -> int | None:
    """Exact instance count when cheaply known; None when only streaming tells."""
    kind = space.kind
    if kind == "all-families":
        return 1 << comb(space.get("n"), space.get("k"))
    if kind == "all-graphs":
        n = space.get("n")
        total = 0
        for j in range(n + 1):
            total += (-1) ** j * comb(n, j) * (1 << comb(n - j, 2))
        return total
    if kind == "random-sample":
        return space.get("count")
    if kind == "constructions-grid":
        total = 1
        for key, val in space.params:
            if key == "name":
                continue
            total *= len(_axis_values(val))
        return total
    return None


def _axis_values(val) -> list:
    if isinstance(val, tuple) and val and val[0] == "range":
        return list(range(val[1], val[2] + 1))
    return [val]


def _grid_points(space: InstanceSpace):
    axes = [(k, _axis_values(v)) for k, v in space.params if k != "name"]
    names = [k for k, _ in axes]
    for combo in itertools.product(*(vals for _, vals in axes)):
        yield dict(zip(names, combo))


def iter_space(space: InstanceSpace, budget: int | None = None):
    """Deterministic instance stream; raises BudgetExceeded past the budget."""
    budget = _effective_budget(budget)
    known = space_size(space)
    if known is not None:
        _refuse_over_budget(space, known, budget)
    count = 0
    for inst in _raw_iter(space):
        count += 1
        if count > budget:
            raise BudgetExceeded(
                f"{space.describe()} exceeded the budget of {budget} instances"
            )
        yield inst


def _effective_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("SHADOWLAB_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def _refuse_over_budget(space: InstanceSpace, total: int, budget: int | None) -> None:
    eff = _effective_budget(budget)
    if total > eff:
        raise BudgetExceeded(f"{space.describe()} holds {total} instances; budget {eff}")


def _raw_iter(space: InstanceSpace):
    kind = space.kind
    if kind in NUMBERED_KINDS:
        yield from _iter_numbered(space, 0, space_size(space))
    elif kind == "all-shifted-families":
        yield from _iter_shifted(space.get("n"), space.get("k"))
    elif kind == "all-cross-pairs":
        yield from _iter_cross_pairs(space.get("n"), space.get("a"), space.get("b"))
    elif kind == "all-graphs":
        yield from _iter_graphs(space.get("n"))
    elif kind == "all-up-sets":
        yield from _iter_up_sets(space.get("n"))
    else:  # constructions-grid
        name = space.get("name")
        for params in _grid_points(space):
            if name == "params":
                yield params, None
                continue
            wanted = CONSTRUCTIONS[name][1]
            try:
                fam = build(name, **{p: params[p] for p in wanted})
            except (ValueError, KeyError):
                yield params, None
                continue
            yield params, fam


# Spaces whose instance i is computed from i alone: mask i of the level, or
# sample i of the seed.  Only these are split into index ranges over workers.
NUMBERED_KINDS = ("all-families", "random-sample")


def _iter_numbered(space: InstanceSpace, lo: int, hi: int, keep=None):
    """Instances lo..hi-1 of a numbered space, each built from its index.

    With `keep`, a predicate on level masks, a mask it rejects yields None
    instead of a Family; a non-uniform sample ignores `keep`."""
    n, k = space.get("n"), space.get("k")
    seed = space.get("seed", 0)
    rngs = (random.Random(seed * 1_000_003 + idx) for idx in range(lo, hi))
    if k is None:
        for rng in rngs:
            if n > 16:
                raise ValueError("non-uniform random sampling limited to n <= 16")
            mask = rng.getrandbits(1 << n)
            yield Family(n, (w for w in range(1 << n) if mask >> w & 1))
        return
    words = level_words(n, k)
    if space.kind == "all-families":
        masks = range(lo, hi)
    else:
        masks = (rng.getrandbits(len(words)) for rng in rngs)
    for mask in masks:
        yield _mask_family(n, k, words, mask) if keep is None or keep(mask) else None


def _mask_family(n: int, k: int | None, words, mask: int) -> Family:
    sel = []
    m = mask
    while m:
        low = m & -m
        sel.append(words[low.bit_length() - 1])
        m ^= low
    return Family(n, sel, k=k if not sel else None)


def _closure_filter(size: int, per_word, flip: int):
    """The predicate on masks over a level of `size` words: True iff no word
    i in the mask has a bit of per_word(i) in mask ^ flip.  Words are tried
    from the highest index down, where a random mask most often fails
    first, and per_word(i) is computed when word i is first tried: a sample
    of a large level tries few of its words, and all the masks of a level
    would take about size**2 / 8 bytes."""
    known: list[int | None] = [None] * size

    def keep(mask: int) -> bool:
        bad = mask ^ flip
        rest = mask
        while rest:
            top = rest.bit_length() - 1
            bits = known[top]
            if bits is None:
                bits = known[top] = per_word(top)
            if bits & bad:
                return False
            rest ^= 1 << top
        return True

    return keep


@functools.lru_cache(maxsize=64)
def _shifted_filter(n: int, k: int):
    """Keeps exactly the shifted masks of the k-level of [n]: those holding
    the immediate shift predecessors of each of their words."""
    preds = level(n, k).shift_preds
    return _closure_filter(
        len(preds), lambda i: sum(1 << j for j in preds[i]), (1 << len(preds)) - 1
    )


@functools.lru_cache(maxsize=64)
def _intersecting_filter(n: int, k: int):
    """Keeps exactly the pairwise intersecting masks of the k-level of [n]:
    no word is disjoint from a word of the mask, itself included."""
    words = level_words(n, k)
    return _closure_filter(
        len(words),
        lambda i: sum(1 << j for j, other in enumerate(words) if not words[i] & other),
        0,
    )


def _with_mask_filter(check, space: InstanceSpace, make):
    """The check, carrying make(n, k) as its mask_filter when the space
    streams level masks: all-families or a uniform random-sample."""
    if space.kind in NUMBERED_KINDS and space.get("k") is not None:
        check.mask_filter = make(space.get("n"), space.get("k"))
    return check


def _iter_down_sets(pred: list[int]):
    """Every mask closed under pred (bit i set => bits pred[i] set), ascending.

    pred[i] may hold only bits below i.  An explicit-stack DFS decides bits
    from the highest down, "exclude" before "include": it follows the
    exclude branch at once and stacks the include branch, so masks come out
    in ascending order as they are found.  A bit some included bit requires
    cannot be excluded, so every branch ends in a mask.
    """
    stack = [(len(pred) - 1, 0, 0)]   # (bit to decide, mask, required bits)
    while stack:
        i, mask, required = stack.pop()
        while i >= 0:
            bit = 1 << i
            if required & bit:
                mask |= bit
                required |= pred[i]
            else:
                stack.append((i - 1, mask | bit, required | pred[i]))
            i -= 1
        yield mask


def _iter_shifted(n: int, k: int):
    """Down-sets of the shifting partial order on the k-level.

    Words are indexed in colex order; a word may join only once its
    immediate shift predecessors have.  Those covering relations generate
    the order, so this enumerates exactly the shifted families.
    """
    lvl = level(n, k)
    words = lvl.words
    pred_mask = [sum(1 << j for j in preds) for preds in lvl.shift_preds]
    for mask in _iter_down_sets(pred_mask):
        yield _mask_family(n, k, words, mask)


def _cross_meets(n: int, a: int, b: int) -> list[int]:
    """For each a-set (colex index), the mask of the b-sets it meets."""
    words_b = level_words(n, b)
    return [
        sum(1 << j for j, wb in enumerate(words_b) if wa & wb)
        for wa in level_words(n, a)
    ]


def _iter_cross_pairs(n: int, a: int, b: int):
    """All cross-intersecting pairs (A, B) with A in the a-level, B in the b-level.

    For each A the compatible B-sets form one maximal mask, so the stream
    is A-mask ascending, then B-submask ascending.
    """
    words_a = level_words(n, a)
    words_b = level_words(n, b)
    meets = _cross_meets(n, a, b)
    full_b = (1 << len(words_b)) - 1
    for amask in range(1 << len(words_a)):
        bmax = full_b
        m = amask
        while m:
            low = m & -m
            bmax &= meets[low.bit_length() - 1]
            m ^= low
        fam_a = _mask_family(n, a, words_a, amask)
        # ascending submask walk of bmax
        sub = 0
        while True:
            yield fam_a, _mask_family(n, b, words_b, sub)
            if sub == bmax:
                break
            sub = (sub - bmax) & bmax


def _iter_graphs(n: int):
    """Edge subsets of K_n with no isolated vertex, edge-mask ascending.

    On n = 0 the one graph is the empty one, with no uniformity tag since
    [0] has no 2-sets."""
    edges = level_words(n, 2)
    k = 2 if n >= 2 else None
    full = (1 << n) - 1
    for mask in range(1 << len(edges)):
        cover = 0
        m = mask
        while m:
            low = m & -m
            cover |= edges[low.bit_length() - 1]
            m ^= low
        if cover == full:
            yield _mask_family(n, k, edges, mask)


def _iter_up_sets(n: int):
    """All up-closed families in 2^[n], sets indexed in descending size.

    A set may join only if all its supersets already joined.
    """
    order = sorted(range(1 << n), key=lambda w: (-w.bit_count(), w))
    pos = {w: i for i, w in enumerate(order)}
    sup_mask = [0] * len(order)
    for i, w in enumerate(order):
        free = ((1 << n) - 1) ^ w
        while free:
            low = free & -free
            sup_mask[i] |= 1 << pos[w | low]
            free ^= low
    for mask in _iter_down_sets(sup_mask):
        yield Family(n, (order[i] for i in range(len(order)) if mask >> i & 1))


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
    claim_id, _, tail = body["claim"].partition(":")
    embedded: dict = {}
    for tok in tail.split(","):
        key, _, val = tok.partition("=")
        if key and val:
            embedded[key] = _parse_value(val)
    spec = CLAIMS[claim_id]
    space = InstanceSpace.parse(body["space"])
    merged = _merged_params(spec, embedded)
    merged["_notes"] = {}
    check = spec.prepare(space, merged)
    for entry in body["counterexamples"]:
        inst = _instance_from_payload(entry["instance"])
        status, _ = check(inst)
        if status != "violation":
            return False
    return True


def _instance_payload(inst) -> object:
    if isinstance(inst, Family):
        return inst.to_text()
    if isinstance(inst, tuple) and len(inst) == 2:
        first, second = inst
        if isinstance(first, Family) and isinstance(second, Family):
            return {"A": first.to_text(), "B": second.to_text()}
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
# claim registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    doc: str
    spaces: tuple[str, ...]
    defaults: tuple[tuple[str, object], ...] = ()
    exploratory: object = None   # None | True | callable(space, params) -> bool
    finalize: object = None      # callable(report, space, params) -> None

    def prepare(self, space: InstanceSpace, params: dict):
        return _PREPARE[self.id](space, params)


CLAIMS: dict[str, ClaimSpec] = {}
_PREPARE: dict[str, object] = {}


def _claim(id: str, doc: str, spaces, defaults=(), exploratory=None, finalize=None):
    def register(fn):
        CLAIMS[id] = ClaimSpec(id, doc, tuple(spaces), tuple(defaults), exploratory, finalize)
        _PREPARE[id] = fn
        return fn
    return register


def _merged_params(spec: ClaimSpec, params: dict | None) -> dict:
    merged = dict(spec.defaults)
    if params:
        merged.update(params)
    return merged


@functools.lru_cache(maxsize=None)
def _colex_shadow_table(n: int, k: int) -> tuple[int, ...]:
    """|immediate shadow| of the colex segment of each size in the k-level."""
    seen: set[int] = set()
    sizes = [0]
    for sub in level(n, k).shadows:
        seen.update(sub)
        sizes.append(len(seen))
    return tuple(sizes)


@functools.lru_cache(maxsize=None)
def _shadow_verdict(mode: str, n: int, k: int, size: int) -> tuple[int, bool] | None:
    """What a k-uniform family of `size` members over [n] must satisfy under
    the colex or real shadow bound: None when the claim skips it, else the
    least integer shadow size the bound allows and whether meeting it is an
    equality.  The colex bound is an integer; the real bound B gives
    ceil(B - 1e-9), an equality when that is within 1e-9 of B."""
    if k < 1 or (mode == "real" and size == 0):
        return None
    if mode == "colex":
        return _colex_shadow_table(n, k)[size], True
    bound = kk_bound(size, k)
    floor = ceil(bound - 1e-9)
    return floor, abs(floor - bound) <= 1e-9


def _shadow_check(mode: str):
    def check(inst):
        fam = inst[1] if isinstance(inst, tuple) else inst
        if fam is None or fam.k is None:
            return "skip", None
        verdict = _shadow_verdict(mode, fam.n, fam.k, len(fam))
        if verdict is None:
            return "skip", None
        floor, tight = verdict
        sh = len(shadow(fam, fam.k - 1))
        if sh < floor:
            return "violation", f"|shadow|={sh} < {floor}, the {mode} bound rounded up"
        if sh == floor and tight:
            return "equality", None
        return "ok", None

    return check


@_claim(
    "shadow-colex-lower",
    "the immediate shadow is at least the shadow of the same-size colex segment",
    spaces=("all-families", "all-shifted-families", "random-sample", "constructions-grid"),
)
def _prep_shadow_colex(space, params):
    return _shadow_check("colex")


@_claim(
    "shadow-real-lower",
    "the immediate shadow is at least C(x, k-1) where C(x, k) = |F|",
    spaces=("all-families", "all-shifted-families", "random-sample", "constructions-grid"),
)
def _prep_shadow_real(space, params):
    return _shadow_check("real")


@_claim(
    "cross-unbalanced-size",
    "in a cross-intersecting pair, a star-sized side forces the other side "
    "below the star size",
    spaces=("all-cross-pairs",),
)
def _prep_cross_unbalanced(space, params):
    n, a, b = _cross_theorem_range(space)
    thr_a = comb(n - 1, a - 1)
    cap_b = comb(n - 1, b - 1)

    def check(inst):
        fam_a, fam_b = inst
        if len(fam_a) < thr_a:
            return "skip", None
        if len(fam_b) > cap_b:
            return "violation", f"|B|={len(fam_b)} > {cap_b}"
        if len(fam_b) == cap_b:
            return "equality", None
        return "ok", None

    return check


@_claim(
    "cross-shadow-size",
    "in a cross-intersecting pair, |A| >= C(x, n-a) forces |B| <= C(n,b) - C(x,b)",
    spaces=("all-cross-pairs",),
)
def _prep_cross_shadow(space, params):
    n, a, b = _cross_theorem_range(space)

    @functools.cache
    def cap_for(size_a: int) -> float:
        return comb(n, b) - gbinom(inv_gbinom(size_a, n - a), b)

    def check(inst):
        fam_a, fam_b = inst
        if len(fam_a) < 1 or n == a:
            return "skip", None
        cap = cap_for(len(fam_a))
        tol = 1e-9 * max(1.0, comb(n, b))
        if len(fam_b) > cap + tol:
            return "violation", f"|B|={len(fam_b)} > {cap:.9f}"
        if abs(len(fam_b) - cap) <= tol:
            return "equality", None
        return "ok", None

    return check


@_claim(
    "cross-lex-segments",
    "replacing both sides of a cross-intersecting pair by same-size lex "
    "segments keeps them cross-intersecting",
    spaces=("all-cross-pairs",),
)
def _prep_cross_lex_segments(space, params):
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    segment = functools.cache(lex_segment)

    @functools.cache
    def verdict(size_a: int, size_b: int) -> tuple[str, str | None]:
        seg_a = segment(n, size_a, a)
        seg_b = segment(n, size_b, b)
        if len(seg_a) == 0 or len(seg_b) == 0:
            return "ok", None
        if not is_cross_t_intersecting([seg_a, seg_b], 1):
            return "violation", "lex segments are not cross-intersecting"
        return "ok", None

    def check(inst):
        fam_a, fam_b = inst
        return verdict(len(fam_a), len(fam_b))

    return check


@_claim(
    "shifted-correlation",
    "shifted families are positively correlated: |F1 n F2| C(n,k) >= |F1||F2|",
    spaces=("all-shifted-families",),
)
def _prep_shifted_correlation(space, params):
    n, k = space.get("n"), space.get("k")
    total = comb(n, k)

    def check(inst):
        f1, f2 = inst
        inter = len(f1.member_set() & f2.member_set())
        lhs = inter * total
        rhs = len(f1) * len(f2)
        if lhs < rhs:
            return "violation", f"{inter}*{total} < {len(f1)}*{len(f2)}"
        if lhs == rhs:
            return "equality", None
        return "ok", None

    return check


@_claim(
    "compression-shadow-monotone",
    "colex compression never grows the immediate shadow along its trace",
    spaces=("all-families", "random-sample", "constructions-grid"),
)
def _prep_compression_monotone(space, params):
    def check(inst):
        fam = inst[1] if isinstance(inst, tuple) else inst
        if fam is None or fam.k is None:
            return "skip", None
        try:
            compress_to_colex(fam)
        except InvariantViolation as exc:
            return "violation", str(exc)
        return "ok", None

    return check


@_claim(
    "cross-shift-preserves",
    "paired lex shifts keep a cross-intersecting pair cross-intersecting and "
    "drive it to lex initial segments",
    spaces=("all-cross-pairs",),
)
def _prep_cross_shift(space, params):
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    segment = functools.cache(lex_segment)

    def check(inst):
        fam_a, fam_b = inst
        size_a, size_b = len(fam_a), len(fam_b)
        try:
            while True:
                step = cross_lex_shift_step(fam_a, fam_b)
                if step is None:
                    break
                fam_a, fam_b = step[0], step[1]
        except InvariantViolation as exc:
            return "violation", str(exc)
        if len(fam_a) != size_a or len(fam_b) != size_b:
            return "violation", "sizes changed along the shift"
        if fam_a != segment(n, size_a, a) or fam_b != segment(n, size_b, b):
            return "violation", "fixed point is not a pair of lex segments"
        return "ok", None

    return check


def _cross_theorem_range(space: InstanceSpace) -> tuple[int, int, int]:
    """(n, a, b) of a cross-pair space, refused when n < a+b: there every
    a-set meets every b-set, outside the cross-pair theorems' range."""
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    if n < a + b:
        raise ValueError("need n >= a+b")
    return n, a, b


def _stability_thresholds(space: InstanceSpace, params: dict):
    """(threshold_a, threshold_b, cap_a, cap_b) of the cross-pair stability
    claim: the size thresholds of its hypothesis and the diversity caps of
    its conclusion."""
    u, v = int(params["u"]), int(params["v"])
    if u < 3 or v < 3:
        raise ValueError("need u >= 3 and v >= 3")
    n, a, b = _cross_theorem_range(space)
    cap_a = gbinom(n - u - 1, n - a - 1)
    cap_b = gbinom(n - v - 1, n - b - 1)
    thr_a = gbinom(n - 1, a - 1) - gbinom(n - v - 1, a - 1) + cap_a
    thr_b = gbinom(n - 1, b - 1) - gbinom(n - u - 1, b - 1) + cap_b
    return thr_a, thr_b, cap_a, cap_b


def _stability_finalize(report: Report, space, params) -> None:
    """Replay the boundary pair built from the u=v=2 relaxation and record it
    as expected-boundary, never as a counterexample."""
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    thr_a, thr_b, cap_a, cap_b = _stability_thresholds(space, params)
    if report.exploratory:
        report.notes["outside_theorem_range"] = True
    boundary_a = l_family(n, a, 2, 2)
    boundary_b = l_family(n, b, 2, 2)
    gamma_a = diversity(boundary_a).value
    gamma_b = diversity(boundary_b).value
    report.expected_boundary.append(
        {
            "pair": "size-threshold relaxation at u'=v'=2",
            "size_a": len(boundary_a),
            "size_b": len(boundary_b),
            "meets_size_thresholds": len(boundary_a) >= thr_a and len(boundary_b) >= thr_b,
            "gamma_a": gamma_a,
            "gamma_b": gamma_b,
            "gamma_cap_a": cap_a,
            "gamma_cap_b": cap_b,
            "violates_diversity_conclusion": gamma_a >= cap_a or gamma_b >= cap_b,
        }
    )


@_claim(
    "cross-diversity-stability",
    "a cross-intersecting pair at or above both size thresholds, above at "
    "least one, has both diversities below their caps and one common "
    "unique largest-degree element",
    spaces=("all-cross-pairs",),
    defaults=(("u", 3), ("v", 3)),
    exploratory=lambda space, params: not (
        int(params["u"]) <= space.get("a") and int(params["v"]) <= space.get("b")
    ),
    finalize=_stability_finalize,
)
def _prep_cross_stability(space, params):
    thr_a, thr_b, cap_a, cap_b = _stability_thresholds(space, params)

    def check(inst):
        fam_a, fam_b = inst
        size_a, size_b = len(fam_a), len(fam_b)
        if size_a < thr_a or size_b < thr_b or (size_a == thr_a and size_b == thr_b):
            return "skip", None
        da = diversity(fam_a).value
        db = diversity(fam_b).value
        if da >= cap_a:
            return "violation", f"diversity(A)={da} >= {cap_a}"
        if db >= cap_b:
            return "violation", f"diversity(B)={db} >= {cap_b}"
        degs_a = degree_vector(fam_a)
        degs_b = degree_vector(fam_b)
        if degs_a.count(max(degs_a)) != 1 or degs_b.count(max(degs_b)) != 1:
            return "violation", "largest-degree element is not unique"
        if degs_a.index(max(degs_a)) != degs_b.index(max(degs_b)):
            return "violation", "largest-degree elements differ between the sides"
        return "ok", None

    return check


@_claim(
    "restriction-boost",
    "for shifted r-wise t-intersecting families, restricting away from "
    "element 1 boosts the intersection level to t+r-1",
    spaces=("all-shifted-families", "all-families"),
    defaults=(("r", 2), ("t", 1)),
)
def _prep_restriction_boost(space, params):
    r, t = int(params["r"]), int(params["t"])

    def check(fam):
        if fam.k is None or not is_shifted(fam):
            return "skip", None
        if not is_r_wise_t_intersecting(fam, r, t):
            return "skip", None
        rest = trace(fam, 0, 1)
        if not is_r_wise_t_intersecting(rest, r, t + r - 1):
            return "violation", f"restriction is not {r}-wise {t + r - 1}-intersecting"
        return "ok", None

    return _with_mask_filter(check, space, _shifted_filter)


@_claim(
    "shadow-diversity-stability",
    "size plus cover-diversity hypotheses force the stability shadow bound",
    spaces=("constructions-grid",),
)
def _prep_shadow_stability(space, params):
    def check(inst):
        if not isinstance(inst, tuple):
            return "skip", None
        grid, fam = inst
        if fam is None or fam.k is None:
            return "skip", None
        n, k = grid.get("n"), grid.get("k")
        x, y = grid.get("x"), grid.get("y")
        if None in (n, k, x, y):
            return "skip", None
        try:
            size_floor = bound_value("shadow-stability-size", n=n, k=k, x=x, y=y)
            shadow_floor = bound_value("shadow-stability", n=n, k=k, x=x, y=y)
        except ValueError:
            return "skip", None
        if len(fam) < size_floor:
            return "skip", None
        if kk_diversity(fam, n).value < gbinom(x, k - 1):
            return "skip", None
        sh = len(shadow(fam, fam.k - 1))
        if sh < shadow_floor:
            return "violation", f"|shadow|={sh} < stability bound {shadow_floor}"
        if sh == shadow_floor:
            return "equality", None
        return "ok", None

    return check


@_claim(
    "ratio-monotone",
    "the weighted binomial gap is monotone on its stated interval with the "
    "exact boundary identity",
    spaces=("constructions-grid",),
)
def _prep_ratio_monotone(space, params):
    def check(inst):
        grid, _ = inst
        m, t, s = grid.get("m"), grid.get("t"), grid.get("s")
        if None in (m, t, s) or s < 2 or t < 2 or m < s + t - 1:
            return "skip", None
        try:
            check_gap_monotonicity(m, t, s)
        except InvariantViolation as exc:
            return "violation", str(exc)
        return "ok", None

    return check


@functools.lru_cache(maxsize=None)
def _graph_verdict(s: int, avoided: int, cover: int, complete: bool) -> tuple[str, str | None]:
    """The graph-avoidance verdict for a graph with matching number s whose
    best s-set leaves `avoided` edges, on `cover` non-isolated vertices and
    complete on them or not.  The empty graph (s = 0) is skipped; the bound
    is C(s+1,2), met only by complete graphs on 2s+1 vertices, and a graph
    on more than 2s+1 vertices leaves at most C(s,2)+1."""
    if s == 0:
        return "skip", None
    bound = comb(s + 1, 2)
    if avoided > bound:
        return "violation", f"min avoided edges {avoided} > {bound}"
    if avoided == bound:
        if complete and cover == 2 * s + 1:
            return "equality", None
        return "violation", "bound met by a non-complete graph"
    if cover > 2 * s + 1 and avoided > comb(s, 2) + 1:
        return "violation", (
            f"non-clique-bounded graph leaves {avoided} > C(s,2)+1 edges"
        )
    return "ok", None


@_claim(
    "graph-avoidance",
    "a graph with matching number s has an s-set whose removal leaves at "
    "most C(s+1,2) edges; equality only at complete graphs on 2s+1 vertices",
    spaces=("all-graphs",),
)
def _prep_graph_avoidance(space, params):
    def check(fam):
        s = matching_number(fam)
        avoided = s_diversity(fam, s).value if s else len(fam)
        cover = 0
        for w in fam.members:
            cover |= w
        csize = cover.bit_count()
        return _graph_verdict(s, avoided, csize, len(fam) == comb(csize, 2))

    return check


@_claim(
    "rwise-diversity",
    "r-wise t-intersecting k-uniform families have diversity at most "
    "C(n-r-t, k-r-t+1)",
    spaces=("all-families", "all-shifted-families", "random-sample", "constructions-grid"),
    defaults=(("r", 3), ("t", 1)),
    exploratory=lambda space, params: not _rwise_in_range(space, params),
)
def _prep_rwise_diversity(space, params):
    r, t = int(params["r"]), int(params["t"])

    def check(inst):
        fam = inst[1] if isinstance(inst, tuple) else inst
        if fam is None or fam.k is None or len(fam) == 0:
            return "skip", None
        if fam.k - r - t + 1 < 0:
            return "skip", None
        if not is_r_wise_t_intersecting(fam, r, t):
            return "skip", None
        bound = gbinom(max(fam.n - r - t, 0), fam.k - r - t + 1)
        gamma = diversity(fam).value
        if gamma > bound:
            return "violation", f"diversity {gamma} > {bound}"
        if gamma == bound:
            return "equality", None
        return "ok", None

    # r-wise t-intersecting (repetition allowed) implies pairwise intersecting
    # once r >= 2 and t >= 1; other values reach the check's own error
    if r >= 2 and t >= 1:
        return _with_mask_filter(check, space, _intersecting_filter)
    return check


def _rwise_in_range(space: InstanceSpace, params: dict) -> bool:
    n, k = space.get("n"), space.get("k")
    if n is None or k is None:
        return False
    r, t = int(params.get("r", 3)), int(params.get("t", 1))
    return r >= 3 and t >= 1 and n > max(15, 2 * (r + t)) * k


@_claim(
    "matching-diversity-max",
    "among families with matching number s, the two-of-a-head construction "
    "maximizes s-diversity",
    spaces=("all-families", "random-sample"),
    defaults=(("s", 2),),
    exploratory=True,
)
def _prep_matching_diversity(space, params):
    s = int(params["s"])
    n, k = space.get("n"), space.get("k")
    if k is None:
        raise ValueError("matching-diversity-max needs a uniform (n, k) space")
    benchmark = s_diversity(a2_family(n, k, s), s).value

    def check(fam):
        if fam.k is None or matching_number(fam) != s:
            return "skip", None
        value = s_diversity(fam, s).value
        if value > benchmark:
            return "violation", f"s-diversity {value} > benchmark {benchmark}"
        if value == benchmark:
            return "equality", None
        return "ok", None

    return check


@_claim(
    "shift-preserves",
    "each i<-j shift preserves size, uniformity and r-wise t-intersection, "
    "and never raises the matching number",
    spaces=("all-families", "random-sample"),
    defaults=(("r", 2), ("t", 1)),
)
def _prep_shift_preserves(space, params):
    r, t = int(params["r"]), int(params["t"])

    def check(fam):
        inter = (
            is_r_wise_t_intersecting(fam, r, t) if len(fam) else True
        )
        nu = matching_number(fam)
        for i in range(1, fam.n + 1):
            for j in range(i + 1, fam.n + 1):
                shifted = shift_ij(fam, i, j)
                if len(shifted) != len(fam):
                    return "violation", f"size changed under ({i},{j})"
                if shifted.k != fam.k:
                    return "violation", f"uniformity changed under ({i},{j})"
                if inter and not is_r_wise_t_intersecting(shifted, r, t):
                    return "violation", (
                        f"{r}-wise {t}-intersection lost under ({i},{j})"
                    )
                if matching_number(shifted) > nu:
                    return "violation", f"matching number grew under ({i},{j})"
        return "ok", None

    return check


@_claim(
    "shift-degree-diversity",
    "degree bookkeeping of the i<-j shift: off-pair degrees are untouched, "
    "the receiving degree gains the one-sided flow, and diversity drops by "
    "at most half the two-sided flow",
    spaces=("all-families", "random-sample"),
)
def _prep_shift_degree(space, params):
    def check(fam):
        if fam.n < 2:
            return "skip", None
        degs = degree_vector(fam)
        gamma = diversity(fam).value if fam.n else 0
        for i in range(1, fam.n + 1):
            for j in range(i + 1, fam.n + 1):
                shifted = shift_ij(fam, i, j)
                sdegs = degree_vector(shifted)
                for x in range(1, fam.n + 1):
                    if x in (i, j):
                        continue
                    if sdegs[x - 1] != degs[x - 1]:
                        return "violation", f"degree of {x} changed under ({i},{j})"
                fi = set(trace(fam, 1 << (i - 1), 1 << (j - 1)).members)
                fj = set(trace(fam, 1 << (j - 1), 1 << (i - 1)).members)
                if sdegs[i - 1] != degs[i - 1] + len(fj - fi):
                    return "violation", f"receiving degree wrong under ({i},{j})"
                if sdegs[i - 1] != degs[j - 1] + len(fi - fj):
                    return "violation", f"donor-side identity wrong under ({i},{j})"
                if sdegs[j - 1] > sdegs[i - 1]:
                    return "violation", f"degree order wrong under ({i},{j})"
                flow = len(fi ^ fj)
                sgamma = diversity(shifted).value
                if sgamma < gamma - min(len(fi - fj), len(fj - fi)):
                    return "violation", f"diversity drop too large under ({i},{j})"
                if 2 * sgamma < 2 * gamma - flow:
                    return "violation", f"diversity drop beyond half-flow under ({i},{j})"
        return "ok", None

    return check


@_claim(
    "shifted-structure",
    "shifted families have descending degree sequence and diversity equal "
    "to the count of members avoiding element 1",
    spaces=("all-shifted-families", "all-families"),
)
def _prep_shifted_structure(space, params):
    def check(fam):
        if fam.n < 1 or not is_shifted(fam):
            return "skip", None
        degs = degree_vector(fam)
        if any(degs[i] < degs[i + 1] for i in range(len(degs) - 1)):
            return "violation", "degree sequence is not descending"
        gamma = diversity(fam)
        avoid1 = len(trace(fam, 0, 1))
        if gamma.value != avoid1 or gamma.value != len(fam) - degs[0]:
            return "violation", "diversity != members avoiding 1"
        if len(fam) and gamma.witness != 1:
            return "violation", "max-degree witness is not element 1"
        return "ok", None

    return _with_mask_filter(check, space, _shifted_filter)


@_claim(
    "intersecting-diversity-size",
    "an intersecting family with diversity at least C(n-u-1, n-k-1) has size "
    "at most the near-star threshold",
    spaces=("all-shifted-families", "all-families", "random-sample", "constructions-grid"),
)
def _prep_intersecting_diversity(space, params):
    fixed_u = params.get("u")

    def check(inst):
        fam = inst[1] if isinstance(inst, tuple) else inst
        if fam is None or fam.k is None or len(fam) == 0:
            return "skip", None
        n, k = fam.n, fam.k
        if k < 3 or n <= 2 * k:
            return "skip", None
        if not is_r_wise_t_intersecting(fam, 2, 1):
            return "skip", None
        if fixed_u is not None:
            grid = [fixed_u]
        else:
            grid = [3 + Fraction(i, 2) for i in range(2 * (k - 3) + 1)]
        gamma = diversity(fam).value
        matched = False
        equal = False
        for u in grid:
            if gamma < gbinom(_as_number(n - u - 1), n - k - 1):
                continue
            matched = True
            cap = bound_value("intersecting-diversity-size", n=n, k=k, u=_as_number(u))
            if isinstance(cap, float):
                if len(fam) > cap + 1e-9 * max(1.0, cap):
                    return "violation", f"|F|={len(fam)} > cap {cap:.9f} at u={u}"
                equal = equal or abs(len(fam) - cap) <= 1e-9 * max(1.0, cap)
            else:
                if len(fam) > cap:
                    return "violation", f"|F|={len(fam)} > cap {cap} at u={u}"
                equal = equal or len(fam) == cap
        if not matched:
            return "skip", None
        return ("equality", None) if equal else ("ok", None)

    return _with_mask_filter(check, space, _intersecting_filter)


def _as_number(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    if isinstance(value, Fraction):
        return float(value)
    return value


@_claim(
    "t-intersecting-max",
    "t-intersecting families are no larger than the parity-threshold bound",
    spaces=("all-up-sets",),
    defaults=(("t", 2),),
)
def _prep_t_intersecting_max(space, params):
    t = int(params["t"])
    n = space.get("n")
    cap = bound_value("t-intersecting-size", n=n, t=t)

    def check(fam):
        if len(fam) == 0:
            return "skip", None
        if not is_r_wise_t_intersecting(fam, 2, t):
            return "skip", None
        if len(fam) > cap:
            return "violation", f"|F|={len(fam)} > {cap}"
        if len(fam) == cap:
            return "equality", None
        return "ok", None

    return check


def _max_union_deficit(fam: Family, r: int, cap: int | None = None) -> int:
    """max over <= r members of |union|; memoized DFS mirror of the
    intersection search.  With a cap, the walk stops at the first union
    larger than cap and returns its size instead."""
    members = fam.members
    best = 0
    searched: dict[tuple[int, int], int] = {}
    cap = fam.n if cap is None else cap

    def walk(start: int, union: int, left: int) -> bool:
        nonlocal best
        if union.bit_count() > best:
            best = union.bit_count()
            if best > cap:
                return True
        if left == 0:
            return False
        key = (union, left)
        prev = searched.get(key)
        if prev is not None and prev <= start:
            return False
        for idx in range(start, len(members)):
            w = union | members[idx]
            if w != union and walk(idx + 1, w, left - 1):
                return True
        searched[key] = start if prev is None else min(prev, start)
        return False

    any(walk(i + 1, members[i], r - 1) for i in range(len(members)))
    return best


def is_r_wise_t_union(fam: Family, r: int, t: int) -> bool:
    """Every r members jointly omit at least t elements of [n]."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(fam) == 0:
        return True
    return _max_union_deficit(fam, r, fam.n - t) <= fam.n - t


@_claim(
    "complement-duality",
    "complementing swaps r-wise t-intersecting with r-wise t-union and "
    "diversity with minimum degree",
    spaces=("all-families", "random-sample"),
    defaults=(("r", 2), ("t", 1)),
)
def _prep_complement_duality(space, params):
    r, t = int(params["r"]), int(params["t"])

    def check(fam):
        if fam.n < 1:
            return "skip", None
        comp = complement_family(fam)
        lhs = is_r_wise_t_intersecting(fam, r, t) if len(fam) else True
        rhs = is_r_wise_t_union(comp, r, t)
        if lhs != rhs:
            return "violation", "intersecting/union duality failed"
        gamma = diversity(fam).value
        mindeg = min(degree_vector(comp)) if len(comp) else 0
        if len(fam) and gamma != mindeg:
            return "violation", f"diversity {gamma} != min degree {mindeg}"
        return "ok", None

    return check


@_claim(
    "influence-identity",
    "for up-closed families, half the maximum influence plus twice the "
    "normalized diversity equals the measure",
    spaces=("all-up-sets",),
)
def _prep_influence_identity(space, params):
    def check(fam):
        if fam.n < 1 or len(fam) == 0:
            return "skip", None
        if not is_up_closed(fam):
            return "skip", None
        scale = 1 << (fam.n - 1)
        profile = influence_profile(fam)
        bp_max = max(round(v * scale) for v in profile)
        gamma = diversity(fam).value
        if bp_max + 2 * gamma != len(fam):
            return "violation", (
                f"max boundary {bp_max} + 2*{gamma} != |F|={len(fam)}"
            )
        return "ok", None

    return check


def _kalai_finalize(report: Report, space, params) -> None:
    seq = report.notes.get("max_influence", {})
    pairs = sorted((int(n), v) for n, v in seq.items())
    fitted = [v * n / log(n) for n, v in pairs if n >= 5]
    if fitted:
        report.notes["fitted_constant"] = max(fitted)
    drops = all(b[1] <= a[1] + 1e-12 for a, b in zip(pairs, pairs[1:]))
    report.notes["max_influence_nonincreasing"] = drops
    if not drops:
        report.violations += 1
        report.counterexamples.append(
            {"instance": {"params": {"trend": "max-influence"}, "family": None},
             "detail": "max influence increased with n"}
        )


@_claim(
    "kalai-properties",
    "the circle family is complement-antisymmetric, intersecting, up-closed "
    "for odd n, and its max influence shrinks like log n / n",
    spaces=("constructions-grid",),
    exploratory=True,
    finalize=_kalai_finalize,
)
def _prep_kalai_properties(space, params):
    notes = params["_notes"]

    def check(inst):
        grid, fam = inst
        if fam is None:
            return "skip", None
        n = grid["n"]
        full = (1 << n) - 1
        if len(fam) != 1 << (n - 1):
            return "violation", f"|F|={len(fam)} != 2^{n-1}"
        present = fam.member_set()
        for w in range(1 << n):
            if (w in present) == ((full ^ w) in present):
                return "violation", f"complement pair {set_repr(w)} not split"
        for w in fam.members:
            if (full ^ w) in present:
                return "violation", "family contains a disjoint (complementary) pair"
        if n % 2 == 1:
            if not is_up_closed(fam):
                return "violation", "odd-n circle family is not up-closed"
            if not is_r_wise_t_intersecting(fam, 2, 1):
                return "violation", "circle family is not intersecting"
            profile = influence_profile(fam)
            notes.setdefault("max_influence", {})[str(n)] = max(profile)
        return "ok", None

    return check


@_claim(
    "t-intersecting-diversity",
    "the parity-threshold families are t-intersecting, meet the size bound "
    "with equality, and their diversity obeys the one-element restriction bound",
    spaces=("constructions-grid",),
    exploratory=True,
)
def _prep_t_intersecting_diversity(space, params):
    notes = params["_notes"]

    def check(inst):
        grid, fam = inst
        if fam is None:
            return "skip", None
        n, t = grid["n"], grid["t"]
        if not is_r_wise_t_intersecting(fam, 2, t):
            return "violation", f"construction is not {t}-intersecting"
        cap = bound_value("t-intersecting-size", n=n, t=t)
        if len(fam) != cap:
            return "violation", f"|F|={len(fam)} != bound {cap}"
        gamma = diversity(fam).value
        if n - 1 >= t:
            restriction_cap = bound_value("t-intersecting-size", n=n - 1, t=t)
            if gamma > restriction_cap:
                return "violation", (
                    f"diversity {gamma} > restriction bound {restriction_cap}"
                )
        notes.setdefault("gamma", {})[f"{n},{t}"] = gamma
        return "equality", None

    return check


# ---------------------------------------------------------------------------
# fast kernels
# ---------------------------------------------------------------------------


def _shadow_kernel_factory(mode: str):
    def kernel(space: InstanceSpace, params, budget, max_recorded) -> dict:
        return _shadow_kernel(space, mode, budget, max_recorded)
    return kernel


def _shadow_kernel(space: InstanceSpace, mode: str, budget, max_recorded) -> dict:
    """Split-table scan of the shadow lower bounds over a full level.

    The shadow of a family is the union of per-member shadow masks, so a
    mask's shadow splits as (high-table OR low-table); one pass covers all
    2^C(n,k) subsets.  The verdict per family size comes from the checkers'
    own _shadow_verdict, and counterexample details from the check itself.
    """
    n, k = space.get("n"), space.get("k")
    words = level_words(n, k)
    m_words = len(words)
    total = 1 << m_words
    _refuse_over_budget(space, total, budget)
    member_masks = [sum(1 << i for i in sub) for sub in level(n, k).shadows]
    verdicts = [_shadow_verdict(mode, n, k, size) for size in range(m_words + 1)]
    # Skips depend on the size alone, so they are counted here, and a
    # skipped size gets floor -1 and equality size -1, which no shadow meets.
    skipped = sum(comb(m_words, size) for size, v in enumerate(verdicts) if v is None)
    floors = [v[0] if v else -1 for v in verdicts]
    equal_at = [v[0] if v and v[1] else -1 for v in verdicts]

    split = m_words // 2
    low_tab = [0] * (1 << split)
    for mask in range(1, 1 << split):
        low_tab[mask] = low_tab[mask & (mask - 1)] | member_masks[
            (mask & -mask).bit_length() - 1
        ]
    high_tab = [0] * (1 << (m_words - split))
    for mask in range(1, 1 << (m_words - split)):
        high_tab[mask] = high_tab[mask & (mask - 1)] | member_masks[
            split + (mask & -mask).bit_length() - 1
        ]

    violations = equalities = 0
    counterexamples: list = []
    witnesses: list = []
    check = _shadow_check(mode)
    low_count = 1 << split
    low_sizes = [lo.bit_count() for lo in range(low_count)]
    for hi in range(1 << (m_words - split)):
        hmask = high_tab[hi]
        floor_of = floors[hi.bit_count():]
        equal_of = equal_at[hi.bit_count():]
        for lo in range(low_count):
            sh = (hmask | low_tab[lo]).bit_count()
            size = low_sizes[lo]
            if sh < floor_of[size]:
                violations += 1
                if len(counterexamples) < max_recorded:
                    fam = _mask_family(n, k, words, (hi << split) | lo)
                    counterexamples.append(
                        {"instance": _instance_payload(fam), "detail": check(fam)[1]}
                    )
            elif sh == equal_of[size]:
                equalities += 1
                if len(witnesses) < max_recorded:
                    fam = _mask_family(n, k, words, (hi << split) | lo)
                    witnesses.append(_instance_payload(fam))
    return {
        "checked": total - skipped, "skipped": skipped,
        "violations": violations, "equalities": equalities,
        "counterexamples": counterexamples, "equality_witnesses": witnesses,
    }


def _graph_kernel(space: InstanceSpace, params, budget, max_recorded) -> dict:
    """Vectorized scan of the graph-avoidance claim over all-graphs(n).

    Every edge mask m gets its covered vertices, edge count and matching
    number from m without its highest edge e, with
    nu(m) = max(nu(m - e), 1 + nu(m minus every edge touching e)).  The edge
    counts double as the popcount table for the edges each s-set avoids.
    Statuses and details come from the checker's own _graph_verdict, and
    instances are recorded in ascending edge-mask order.
    """
    import numpy as np

    n = space.get("n")
    edges = level_words(n, 2)
    num_edges = len(edges)
    _refuse_over_budget(space, space_size(space), budget)

    # The narrowest dtypes that hold an edge mask, a vertex mask and a count.
    index = np.min_scalar_type((1 << num_edges) - 1)
    cover = np.zeros(1 << num_edges, dtype=np.min_scalar_type((1 << n) - 1))
    count = np.zeros(1 << num_edges, dtype=np.min_scalar_type(num_edges))
    nu = np.zeros_like(count)
    for e, word in enumerate(edges):
        lo, hi = 1 << e, 2 << e
        touching = sum(1 << f for f in range(e) if edges[f] & word)
        apart = np.arange(lo, dtype=index) & ((lo - 1) ^ touching)
        cover[lo:hi] = cover[:lo] | word
        count[lo:hi] = count[:lo] + 1
        nu[lo:hi] = np.maximum(nu[:lo], 1 + nu[apart])
    graphs = np.flatnonzero(cover == (1 << n) - 1).astype(index)
    del cover

    nu = nu[graphs]
    avoided = count[graphs]
    for s in range(1, n // 2 + 1):
        sel = nu == s
        sub = graphs[sel]
        best = avoided[sel]
        for r in level_words(n, s):
            keep = sum(1 << e for e, word in enumerate(edges) if word & r == 0)
            np.minimum(best, count[sub & keep], out=best)
        avoided[sel] = best

    # Every graph here covers [n], so it is complete only with every edge.
    verdicts = [
        _graph_verdict(s, a, n, complete)
        for s in range(n // 2 + 1) for a in range(num_edges + 1)
        for complete in (False, True)
    ]
    codes = ("ok", "violation", "equality", "skip")
    table = np.array([codes.index(v[0]) for v in verdicts], dtype=np.int8)
    key = nu.astype(np.min_scalar_type(len(verdicts)))
    key = (key * (num_edges + 1) + avoided) * 2 + (graphs == (1 << num_edges) - 1)
    status = table[key]
    ok, violations, equalities, skipped = np.bincount(status, minlength=4).tolist()

    def recorded(code: int):
        for idx in np.flatnonzero(status == code)[:max_recorded]:
            yield _mask_family(n, 2, edges, int(graphs[idx])), verdicts[key[idx]][1]

    return {
        "checked": ok + violations + equalities, "skipped": skipped,
        "violations": violations, "equalities": equalities,
        "counterexamples": [
            {"instance": _instance_payload(fam), "detail": detail}
            for fam, detail in recorded(1)
        ],
        "equality_witnesses": [_instance_payload(fam) for fam, _ in recorded(2)],
    }


def _cross_stability_kernel(space: InstanceSpace, params, budget, max_recorded) -> dict:
    """Pruned scan of the cross-pair stability claim.

    Enumerates A-sides at or above their size threshold, computes the
    unique maximal compatible B-side, and descends into B-subsets only when
    the B threshold is reachable.  Pairs sitting exactly at both thresholds
    are counted as skipped without building them; every other pair goes to
    the claim's check.  Pruned pairs are not counted.  The budget counts
    A-sides.
    """
    check = _PREPARE["cross-diversity-stability"](space, params)
    thr_a, thr_b, _, _ = _stability_thresholds(space, params)
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    words_a = level_words(n, a)
    words_b = level_words(n, b)
    la, lb = len(words_a), len(words_b)
    notes = params["_notes"]
    notes["threshold_a"] = thr_a
    notes["threshold_b"] = thr_b
    feasible = thr_a <= la and thr_b <= lb
    if not feasible:
        notes["vacuous"] = True
    eff = _effective_budget(budget)
    at_thresholds = 0

    def pairs():
        nonlocal at_thresholds
        meets = _cross_meets(n, a, b)
        enumerated = 0
        for size_a in range(thr_a, la + 1):
            for combo in itertools.combinations(range(la), size_a):
                enumerated += 1
                if enumerated > eff:
                    raise BudgetExceeded(f"cross-pair scan exceeded budget {eff}")
                bmax = (1 << lb) - 1
                for idx in combo:
                    bmax &= meets[idx]
                    if bmax == 0:
                        break
                room = bmax.bit_count()
                if room < thr_b:
                    continue
                least_b = thr_b
                if size_a == thr_a:
                    at_thresholds += comb(room, thr_b)
                    least_b += 1
                if least_b > room:
                    continue
                bbits = [jdx for jdx in range(lb) if bmax >> jdx & 1]
                fam_a = Family(n, (words_a[i] for i in combo), k=a)
                for size_b in range(least_b, room + 1):
                    for bcombo in itertools.combinations(bbits, size_b):
                        yield fam_a, Family(n, (words_b[j] for j in bcombo), k=b)

    tallies = _check_stream(check, pairs() if feasible else (), max_recorded)
    tallies["skipped"] += at_thresholds
    return tallies


def _correlation_pairs_kernel(space: InstanceSpace, params, budget, max_recorded) -> dict:
    """The correlation claim over every ordered pair of the space's families.

    The budget bounds the families and then the pairs."""
    fams = list(iter_space(space, budget))
    eff = _effective_budget(budget)
    if len(fams) ** 2 > eff:
        raise BudgetExceeded(f"{len(fams)}^2 ordered pairs exceed the budget of {eff}")
    check = CLAIMS["shifted-correlation"].prepare(space, params)
    return _check_stream(check, itertools.product(fams, fams), max_recorded)


KERNELS = {
    ("graph-avoidance", "all-graphs"): _graph_kernel,
    ("shifted-correlation", "all-shifted-families"): _correlation_pairs_kernel,
    ("shadow-colex-lower", "all-families"): _shadow_kernel_factory("colex"),
    ("shadow-real-lower", "all-families"): _shadow_kernel_factory("real"),
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
    max_recorded: int = MAX_RECORDED,
) -> Report:
    """Check one claim over one instance space and return the Report."""
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; know {sorted(CLAIMS)}")
    spec = CLAIMS[claim_id]
    if isinstance(space, str):
        space = InstanceSpace.parse(space)
    if space.kind not in spec.spaces:
        raise ValueError(
            f"claim {claim_id!r} runs on {spec.spaces}, not {space.kind!r}"
        )
    merged = _merged_params(spec, params)
    t0 = time.perf_counter()
    report = Report(claim=_claim_label(claim_id, merged), space=space.describe())
    notes: dict = {}
    merged["_notes"] = notes

    kernel = KERNELS.get((claim_id, space.kind))
    if kernel is not None:
        tallies = kernel(space, merged, budget, max_recorded)
    else:
        tallies = _scan(spec, space, merged, jobs or 1, budget, max_recorded)
    _merge_into(report, tallies, max_recorded)
    report.notes.update(notes)

    if spec.exploratory is True:
        report.exploratory = True
    elif callable(spec.exploratory):
        report.exploratory = bool(spec.exploratory(space, merged))
    if spec.finalize is not None:
        spec.finalize(report, space, merged)
    report.seconds = round(time.perf_counter() - t0, 6)
    return report


def _claim_label(claim_id: str, params: dict) -> str:
    shown = {k: v for k, v in params.items() if not k.startswith("_")}
    if not shown:
        return claim_id
    body = ",".join(f"{k}={v}" for k, v in sorted(shown.items()))
    return f"{claim_id}:{body}"


def _scan(spec, space, params, jobs, budget, max_recorded) -> dict:
    """The generic scan.  A numbered space is checked by index range,
    through the check's mask filter if it has one: with jobs >= 2 in at
    most `jobs` ranges, checked in at most one worker process per CPU and
    merged in range order, else as one range.  Every other space is one
    stream through iter_space."""
    numbered = space.kind in NUMBERED_KINDS
    blocks = []
    if jobs > 1 and numbered:
        total = space_size(space)
        _refuse_over_budget(space, total, budget)
        chunk = max(1, -(-total // jobs))
        blocks = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    workers = min(len(blocks), os.cpu_count() or 1)
    if workers < 2:
        check = spec.prepare(space, params)
        if not numbered:
            return _check_stream(check, iter_space(space, budget), max_recorded)
        total = space_size(space)
        _refuse_over_budget(space, total, budget)
        return _check_range(check, space, (0, total), max_recorded)
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when a pool starts

    plain = {k: v for k, v in params.items() if not k.startswith("_")}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_worker_scan, spec.id, space.describe(), plain, blk, max_recorded)
            for blk in blocks
        ]
        partials = [f.result() for f in futures]
    merged = partials[0]
    for part in partials[1:]:
        for key in ("checked", "skipped", "violations", "equalities"):
            merged[key] += part[key]
        merged["counterexamples"].extend(part["counterexamples"])
        merged["equality_witnesses"].extend(part["equality_witnesses"])
    return merged


def _check_stream(check, stream, max_recorded: int) -> dict:
    """Tally the check's verdicts over a stream of instances, recording
    counterexamples and equality witnesses while the lists have room."""
    tallies = {
        "checked": 0, "skipped": 0, "violations": 0, "equalities": 0,
        "counterexamples": [], "equality_witnesses": [],
    }
    for inst in stream:
        if inst is None:  # a level mask the check's mask filter rejected
            tallies["skipped"] += 1
            continue
        status, detail = check(inst)
        if status == "skip":
            tallies["skipped"] += 1
            continue
        tallies["checked"] += 1
        if status == "violation":
            tallies["violations"] += 1
            if len(tallies["counterexamples"]) < max_recorded:
                tallies["counterexamples"].append(
                    {"instance": _instance_payload(inst), "detail": detail}
                )
        elif status == "equality":
            tallies["equalities"] += 1
            if len(tallies["equality_witnesses"]) < max_recorded:
                tallies["equality_witnesses"].append(_instance_payload(inst))
    return tallies


def _check_range(check, space: InstanceSpace, block, max_recorded: int) -> dict:
    """Check instances lo..hi-1 of a numbered space, building only those
    that pass the check's mask filter."""
    keep = getattr(check, "mask_filter", None)
    return _check_stream(check, _iter_numbered(space, *block, keep), max_recorded)


def _worker_scan(claim_id, space_text, params, block, max_recorded):
    """A worker's range of a numbered space, checked in its own process."""
    space = InstanceSpace.parse(space_text)
    check = CLAIMS[claim_id].prepare(space, dict(params, _notes={}))
    return _check_range(check, space, block, max_recorded)


def _merge_into(report: Report, tallies: dict, max_recorded: int) -> None:
    report.checked = tallies["checked"]
    report.skipped = tallies["skipped"]
    report.violations = tallies["violations"]
    report.equalities = tallies["equalities"]
    report.counterexamples = tallies["counterexamples"][:max_recorded]
    report.equality_witnesses = tallies["equality_witnesses"][:max_recorded]


def verify_cross_pair_space(
    n: int,
    a: int,
    b: int,
    u: int,
    v: int,
    budget: int | None = None,
    max_recorded: int = MAX_RECORDED,
) -> Report:
    """Shorthand for verify("cross-diversity-stability") on all-cross-pairs(n, a, b)."""
    return verify(
        "cross-diversity-stability",
        InstanceSpace.make("all-cross-pairs", n=n, a=a, b=b),
        params={"u": u, "v": v}, budget=budget, max_recorded=max_recorded,
    )
