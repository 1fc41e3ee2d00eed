"""Instance spaces: deterministic streams of the families, pairs, graphs or
construction-grid points a claim is checked on.

A space is a kind and its parameters, parsed from and described as text
such as ``all-families:k=3,n=6``.  Unknown kinds and parameters, non-integer
values and a negative sample count are refused.  One `Meter` owns the
budget of a run: built, it refuses a space whose size, or a proven floor
of it, is over the budget; then each unit of work ticks it (an instance
streamed, a pair checked, a node of the stability walk) until the tick
that passes the cap raises.

The numbered spaces, all-families and random-sample, build instance i from
i alone, so a scan can check any index range of them by itself.
`_numbered_masks` streams the masks of a range, and `_iter_numbered` maps
`_mask_family` over them.  On their level masks a ``mask_filter``
(shifted, or pairwise intersecting) can reject an instance before its
Family is built, and a check with a mask form (the compression check) is
handed the masks themselves: the scan then builds a Family only for an
instance it records.  A filter is both a predicate, which a sample tries
on each drawn mask, and an enumerator of the masks it keeps in an index
range, which all-families walks instead of trying every mask of the range.

That enumerator, `_ClosureFilter.masks`, is the one closure walk: the
shifted families are the kept masks of the shifted filter, the up-sets those
of a filter on the superset table, and the cross-intersecting pairs those of
a filter over the a-words and b-words together, each walked over its whole
range.  The filters are built afresh for each stream or check; the level
tables they read come from `orders.level`, the one cache of level tables.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from math import comb

from .constructions import CONSTRUCTIONS, build
from .families import Family
from .orders import level, level_words

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """A run's work passed its budget, or its space is refused up front."""


# Each kind's required parameters, then the optional ones checked when
# present; no others are accepted, except the grid's axes, each an integer
# or an integer range lo..hi.  All are integers except the grid's name, which
# is "params" or a key of CONSTRUCTIONS, and none but a sample's seed may be
# negative.
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
        for key in unknown:  # the grid's axes
            if not _integer_axis(params[key]):
                raise ValueError(f"{kind} needs an integer or an integer range {key}=...")
        for key in required + tuple(key for key in optional if key in params):
            val = params.get(key)
            if key == "name":
                if val != "params" and val not in CONSTRUCTIONS:
                    raise ValueError(
                        f"{kind} needs name=params or one of {sorted(CONSTRUCTIONS)}"
                    )
            elif not isinstance(val, int):
                raise ValueError(f"{kind} needs an integer {key}=...")
            elif key != "seed" and val < 0:
                raise ValueError(f"{kind} needs {key} >= 0, not {val}")
        return cls(kind, tuple(sorted(params.items())))

    def get(self, name: str, default=None):
        for key, val in self.params:
            if key == name:
                return val
        return default

    def describe(self) -> str:
        return _label(self.kind, dict(self.params))

    @classmethod
    def parse(cls, text: str) -> "InstanceSpace":
        kind, params = _parse_label(text)
        return cls.make(kind, **params)


def _label(head: str, params: dict) -> str:
    """`head:k=v,...` in key order, or `head` alone: a space's or a report's claim."""
    body = ",".join(
        f"{k}={v[1]}..{v[2]}" if isinstance(v, tuple) else f"{k}={v}"
        for k, v in sorted(params.items())
    )
    return f"{head}:{body}" if body else head


def _parse_label(text: str) -> tuple[str, dict]:
    """The head and parameters of a `head:k=v,...` label."""
    head, _, body = text.partition(":")
    return head, _parse_params(body.split(",") if body else (), "parameter")


def _parse_params(tokens, what: str) -> dict:
    """`k=v` tokens as a dict of parsed values; refuses an empty key or value."""
    params = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        if not key or not val:
            raise ValueError(f"bad {what} {tok!r}")
        params[key] = _parse_value(val)
    return params


def _parse_value(text: str):
    if ".." in text:
        lo, _, hi = text.partition("..")
        return ("range", int(lo), int(hi))
    try:
        return int(text)
    except ValueError:
        return text


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


def _axis_values(val) -> range | list:
    """An axis of the grid; a range is not built as a list, so its size is
    known without spending memory on it."""
    if isinstance(val, tuple) and val and val[0] == "range":
        return range(val[1], val[2] + 1)
    return [val]


def _integer_axis(val) -> bool:
    """A grid axis is an integer or a range ("range", lo, hi) of integers."""
    if isinstance(val, tuple) and len(val) == 3 and val[0] == "range":
        return all(isinstance(end, int) for end in val[1:])
    return isinstance(val, int)


def _grid_points(space: InstanceSpace):
    axes = [(k, _axis_values(v)) for k, v in space.params if k != "name"]
    names = [k for k, _ in axes]
    for combo in itertools.product(*(vals for _, vals in axes)):
        yield dict(zip(names, combo))


class Meter:
    """A run's one budget.  `verify` builds it once and hands it down; each
    unit of work ticks it (an instance streamed, a pair handed to a check, a
    node of the stability walk), and the tick past the cap raises.  When
    built, it refuses a space whose size or proven floor is over the cap, so
    the numbered spaces tick nothing.  Powers of 2 are compared by their
    exponents, never written out.  The floors: all-graphs from n = 4 on
    holds 2^(C(n,2)-1) graphs, as at most n * 2^C(n-1,2) of all 2^C(n,2)
    have an isolated vertex; each subfamily of the middle layer generates
    its own up-set; and the empty family and each k-set's principal
    down-set are C(n,k)+1 shifted families."""

    def __init__(self, space: InstanceSpace, budget: int | None = None):
        if budget is None:
            budget = int(os.environ.get("SHADOWLAB_BUDGET") or DEFAULT_BUDGET)
        self.name, self.cap, self.spent = space.describe(), budget, 0
        bits = max(budget, 0).bit_length()
        n = space.get("n")
        if space.kind == "all-families":
            exponent = comb(n, space.get("k"))
            over, size = exponent >= bits, f"2^{exponent}"
        elif space.kind == "all-graphs" and n >= 4 and comb(n, 2) - 1 >= bits:
            over, size = True, f"at least 2^{comb(n, 2) - 1}"
        elif space.kind == "all-up-sets":
            over, size = comb(n, n // 2) >= bits, f"at least 2^{comb(n, n // 2)}"
        elif space.kind == "all-shifted-families":
            floor = comb(n, space.get("k")) + 1
            over, size = floor > budget, f"at least {floor}"
        else:
            size = space_size(space)
            over = size is not None and size > budget
        if over:
            raise BudgetExceeded(f"{self.name} holds {size} instances; budget {budget}")

    def tick(self, count: int = 1) -> None:
        self.spent += count
        if self.spent > self.cap:
            raise BudgetExceeded(f"{self.name} exceeded the budget of {self.cap} instances")


def iter_space(space: InstanceSpace, budget: Meter | int | None = None):
    """Deterministic instance stream; each instance ticks `budget`, or a Meter built from it."""
    tick = (budget if isinstance(budget, Meter) else Meter(space, budget)).tick
    for inst in _raw_iter(space):
        tick()
        yield inst


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
    """Instances lo..hi-1 of a numbered space: `_mask_family` over the
    masks `_numbered_masks` streams, the words of the k-level or, without
    k, of all of 2^[n]."""
    n, k = space.get("n"), space.get("k")
    words = None
    for mask in _numbered_masks(space, lo, hi, keep):
        if words is None:
            words = range(1 << n) if k is None else level_words(n, k)
        yield _mask_family(n, k, words, mask)


def _numbered_masks(space: InstanceSpace, lo: int, hi: int, keep=None):
    """The masks of instances lo..hi-1 of a numbered space, each computed
    from its index: mask i of the k-level, or the mask sample i draws over
    its k-level or, without k, over all of 2^[n].

    With `keep`, a level-mask filter, only the masks it keeps are yielded:
    all-families enumerates them by `keep.masks`, and a sample tries each
    drawn mask with the predicate.  An empty range builds nothing."""
    if lo >= hi:
        return
    n, k = space.get("n"), space.get("k")
    if space.kind == "all-families":
        masks = range(lo, hi) if keep is None else keep.masks(lo, hi)
    else:
        if k is None and n > 16:
            raise ValueError("non-uniform random sampling limited to n <= 16")
        width = 1 << n if k is None else len(level_words(n, k))
        seed = space.get("seed", 0) * 1_000_003
        masks = (random.Random(seed + idx).getrandbits(width) for idx in range(lo, hi))
        if keep is not None:
            masks = filter(keep, masks)
    yield from masks


def _mask_family(n: int, k: int | None, words, mask: int) -> Family:
    sel = []
    m = mask
    while m:
        low = m & -m
        sel.append(words[low.bit_length() - 1])
        m ^= low
    return Family(n, sel, k=k if not sel else None)


class _ClosureFilter:
    """A filter on the masks over `size` words: mask m is kept iff no word
    i in m has a bit of per_word(i) in m ^ flip.  Where flip is set at bit
    j, per_word(i) holding j means word i requires word j; where flip is
    clear, that word i forbids word j.  per_word(i) is computed when word i
    is first needed: a sample of a large level tries few of its words, and
    all the masks of a level would take about size**2 / 8 bytes.

    Called on a mask, it is the predicate; `masks(lo, hi)` enumerates the
    kept masks of a range without trying the others.  The walk takes only
    tables whose bits at or above a word are the word's own bit or mutual
    exclusions: a bit j above word i needs flip clear at i and j, and i in
    per_word(j)."""

    def __init__(self, size: int, per_word, flip: int):
        self.size, self.per_word, self.flip = size, per_word, flip
        self.known: list[int | None] = [None] * size

    def word(self, i: int) -> int:
        bits = self.known[i]
        if bits is None:
            bits = self.known[i] = self.per_word(i)
        return bits

    def __call__(self, mask: int) -> bool:
        """Words are tried from the highest index down, where a random mask
        most often fails first."""
        known, bad = self.known, mask ^ self.flip
        rest = mask
        while rest:
            top = rest.bit_length() - 1
            bits = known[top]
            if bits is None:
                bits = self.word(top)
            if bits & bad:
                return False
            rest ^= 1 << top
        return True

    def masks(self, lo: int, hi: int):
        """Every kept mask in [lo, hi), ascending; raises ValueError, before
        the walk, on a table outside the contract above.

        An explicit-stack DFS decides words from the highest down, "exclude"
        before "include": it follows the exclude branch at once and stacks
        the include branch, so masks come out ascending as they are found.
        It carries `pinned`, the bits that included words pin to their value
        in flip: a pinned word is included or excluded as flip says, a free
        word takes both branches.  A bit above a word is a mutual exclusion,
        pinned when the higher word joined, so every branch ends in a kept
        mask; a word that forbids itself is pinned out from the start.  A
        stacked prefix whose interval [prefix, prefix + 2^i) lies below lo is
        dropped, and the first mask at or past hi ends the walk."""
        flip, words, barred = self.flip, [self.word(i) for i in range(self.size)], 0
        for i, bits in enumerate(words):
            if bits >> i & ~flip >> i & 1:
                barred |= 1 << i
            above = bits >> i + 1 << i + 1
            while above:
                j = above.bit_length() - 1
                if (flip >> i | flip >> j) & 1 or not words[j] >> i & 1:
                    raise ValueError(f"word {i} holds bit {j} above it, not a mutual exclusion")
                above ^= 1 << j
        stack = [(self.size, 0, barred)]   # (words left to decide, prefix, pinned)
        while stack:
            i, mask, pinned = stack.pop()
            if mask + (1 << i) <= lo:
                continue
            while i:
                i -= 1
                bit = 1 << i
                if not pinned & bit:
                    stack.append((i, mask | bit, pinned | words[i]))
                elif flip & bit:
                    mask |= bit
                    pinned |= words[i]
            if mask >= hi:
                return
            if mask >= lo:
                yield mask


def _shifted_filter(n: int, k: int):
    """Keeps exactly the shifted masks of the k-level of [n]: those holding
    the immediate shift predecessors of each of their words.  Words are
    indexed in colex order, so each predecessor sits below its word; the
    covering relations generate the shifting order, so its kept masks are
    exactly the shifted families."""
    preds = level(n, k).shift_preds
    return _ClosureFilter(
        len(preds), lambda i: sum(1 << j for j in preds[i]), (1 << len(preds)) - 1
    )


def _iter_shifted(n: int, k: int):
    """The shifted families of the k-level of [n], mask ascending."""
    shifted, words = _shifted_filter(n, k), level_words(n, k)
    for mask in shifted.masks(0, 1 << shifted.size):
        yield _mask_family(n, k, words, mask)


def _intersecting_filter(n: int, k: int):
    """Keeps exactly the pairwise intersecting masks of the k-level of [n]:
    no word is disjoint from a word of the mask, itself included.  Word i's
    table is the complement of ``level(n, k).meets(k)[i]``, but it is built
    when word i is first needed (see `_ClosureFilter`), not for the whole
    level at once."""
    words = level_words(n, k)
    return _ClosureFilter(
        len(words),
        lambda i: sum(1 << j for j, other in enumerate(words) if not words[i] & other),
        0,
    )


def _mask_level(space: InstanceSpace) -> tuple[int, int] | None:
    """(n, k) when the space streams masks of the k-level of [n]: it is
    all-families or a non-empty uniform random-sample; else None."""
    if space.kind in NUMBERED_KINDS and space.get("k") is not None and space_size(space):
        return space.get("n"), space.get("k")
    return None


def _with_mask_filter(check, space: InstanceSpace, make):
    """The check, carrying make(n, k) as its mask_filter when the space
    streams masks of the k-level of [n] (`_mask_level`)."""
    if (nk := _mask_level(space)) is not None:
        check.mask_filter = make(*nk)
    return check


def _iter_cross_pairs(n: int, a: int, b: int):
    """All cross-intersecting pairs (A, B) with A in the a-level, B in the b-level.

    One filter walks the la + lb words, the b-words in the low bits and the
    a-words above them, each a-word forbidding the b-words it misses.  So
    the stream is A-mask ascending, then B-mask ascending.
    """
    words_a = level_words(n, a)
    words_b = level_words(n, b)
    lb, full_b = len(words_b), (1 << len(words_b)) - 1
    misses = [full_b & ~meet for meet in level(n, a).meets(b)]
    pairs = _ClosureFilter(len(words_a) + lb, lambda i: misses[i - lb] if i >= lb else 0, 0)
    amask = fam_a = None
    for mask in pairs.masks(0, 1 << pairs.size):
        if mask >> lb != amask:
            amask = mask >> lb
            fam_a = _mask_family(n, a, words_a, amask)
        yield fam_a, _mask_family(n, b, words_b, mask & full_b)


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
    ups = _ClosureFilter(len(order), sup_mask.__getitem__, (1 << len(order)) - 1)
    for mask in ups.masks(0, 1 << len(order)):
        yield _mask_family(n, None, order, mask)
