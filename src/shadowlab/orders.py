"""Lex, colex and shifting orders on sets, and initial segments."""

from __future__ import annotations

import enum
import functools
import itertools
from collections.abc import Iterable
from math import comb

from .families import Family, elements_of

ORDER_KINDS = ("lex", "colex", "shift-partial")


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare(a: int, b: int, kind: str) -> Ordering:
    """Compare two set words.

    lex: the smaller set owns the smallest element of the symmetric
    difference.  colex: the larger set owns the largest element (on words
    this is plain numeric comparison).  shift-partial: coordinate-wise
    comparison of the sorted element tuples; sets of different sizes are
    incomparable.  The total orders require equal cardinalities.
    """
    if kind not in ORDER_KINDS:
        raise ValueError(f"unknown order kind {kind!r}")
    if a == b:
        return Ordering.EQUAL
    if kind == "shift-partial":
        ea, eb = elements_of(a), elements_of(b)
        if len(ea) != len(eb):
            return Ordering.INCOMPARABLE
        if all(x <= y for x, y in zip(ea, eb)):
            return Ordering.LESS
        if all(x >= y for x, y in zip(ea, eb)):
            return Ordering.GREATER
        return Ordering.INCOMPARABLE
    if a.bit_count() != b.bit_count():
        raise ValueError(f"{kind} order needs equal-size sets")
    if kind == "colex":
        return Ordering.LESS if a < b else Ordering.GREATER
    diff = a ^ b
    return Ordering.LESS if a & (diff & -diff) else Ordering.GREATER


def _colex_words(n: int, k: int):
    """The k-subsets of [n] as ascending (= colex) words, by Gosper's next-subset step."""
    if not 0 <= k <= n:
        return
    if k == 0:
        yield 0
        return
    w = (1 << k) - 1
    top = 1 << n
    while w < top:
        yield w
        low = w & -w
        ripple = w + low
        w = ripple | (((w ^ ripple) // low) >> 2)


@functools.lru_cache(maxsize=64)
def level_words(n: int, k: int) -> tuple[int, ...]:
    """All k-subsets of [n] as words in ascending (= colex) order."""
    return tuple(_colex_words(n, k))


class Level:
    """The k-subsets of [n] in colex order and every table read on them: the
    one owner of the package's per-(n, k) tables.

    Built eagerly: ``words``; ``index[w]``, the colex index of ``w`` (equal
    to ``colex_rank(w)``); ``shadows[i]``, the immediate shadow of
    ``words[i]`` as the colex indices of its (k-1)-subsets (empty when
    k = 0); and ``shift_preds[i]``, the colex indices of the words that move
    one element j of ``words[i]`` down to a free j - 1: the sets
    ``words[i]`` covers in the shifting partial order, at most k of them and
    all of smaller index.  Index tuples keep these tables near the size of
    the level itself, and ``colex_shadow_sizes`` is built from them with a
    set of indices: a bit mask over the (k-1)-level per word would grow with
    the product of the two levels' sizes.

    Built the first time something reads them: ``colex_shadow_sizes``;
    ``meets(b)``, a table of that product size, read only on the kernels'
    small levels; and the U<-V step tables, ``table(u, v)``: pairs
    (d, H_d), H_d the level-index mask of the words i that hold V and miss
    U and whose image, V replaced by U, is word i + d.  A step on a mask
    (``move``) is then a handful of int operations per offset.  ``singles``
    lists the single-element steps {x}<-{y}, x < y, in the colex violation
    search's order: y increasing, then x increasing, and ``single_tables``
    their tables, each None until the search first reaches it.  Their
    images are colex-smaller, so every offset in their tables is negative.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.words = words = level_words(n, k)
        below = {w: i for i, w in enumerate(level_words(n, k - 1))}
        self.index = index = {w: i for i, w in enumerate(words)}
        shadows = []
        shift_preds = []
        for w in words:
            sub = []
            preds = []
            ww = w
            while ww:
                low = ww & -ww
                sub.append(below[w ^ low])
                if low > 1 and not w & (low >> 1):
                    preds.append(index[w ^ low ^ (low >> 1)])
                ww ^= low
            shadows.append(tuple(sub))
            shift_preds.append(tuple(preds))
        self.shadows, self.shift_preds = tuple(shadows), tuple(shift_preds)
        self.singles = tuple((1 << x, 1 << y) for y in range(1, n) for x in range(y))
        self.single_tables: list[tuple[tuple[int, int], ...] | None] = [None] * len(self.singles)
        self._tables: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._meets: dict[int, tuple[int, ...]] = {}

    def mask(self, members: Iterable[int]) -> int:
        """The level-index mask of a family's members: bit i for words[i]."""
        index = self.index
        return sum(1 << index[w] for w in members)

    @functools.cached_property
    def colex_shadow_sizes(self) -> tuple[int, ...]:
        """|immediate shadow| of the colex segment of each size 0 .. |level|."""
        seen: set[int] = set()
        sizes = [0]
        for sub in self.shadows:
            seen.update(sub)
            sizes.append(len(seen))
        return tuple(sizes)

    def meets(self, b: int) -> tuple[int, ...]:
        """For each word, the mask of the b-level words it meets."""
        out = self._meets.get(b)
        if out is None:
            words_b = level_words(self.n, b)
            out = self._meets[b] = tuple(
                sum(1 << j for j, wb in enumerate(words_b) if w & wb) for w in self.words
            )
        return out

    def table(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """The (d, H_d) groups of the U<-V step."""
        groups = self._tables.get((u, v))
        if groups is None:
            uv, index = u | v, self.index
            by_offset: dict[int, int] = {}
            for i, w in enumerate(self.words):
                if w & uv == v:
                    d = index[w ^ uv] - i
                    by_offset[d] = by_offset.get(d, 0) | 1 << i
            groups = self._tables[u, v] = tuple(by_offset.items())
        return groups

    def move(self, mask: int, u: int, v: int) -> tuple[int, int, int]:
        """The U<-V step on a level-index mask: the masks of the members it
        moves and of their images, and the sum of the moves' index offsets.
        An image moves in when `mask` lacks it, as in `shifting._daykin_words`."""
        sources = images = delta = 0
        for d, h in self.table(u, v):
            s = mask & h
            if s:
                if d > 0:
                    g = s << d & ~mask
                    sources |= g >> d
                else:
                    g = s >> -d & ~mask
                    sources |= g << -d
                images |= g
                delta += d * g.bit_count()
        return sources, images, delta


@functools.lru_cache(maxsize=64)
def level(n: int, k: int) -> Level:
    """The cached `Level` of the k-level of [n]: the one cache of level tables."""
    return Level(n, k)


def colex_rank(word: int) -> int:
    """Position of a k-set among all k-sets in colex order."""
    rank = 0
    for idx, e in enumerate(elements_of(word), start=1):
        rank += comb(e - 1, idx)
    return rank


def colex_segment(n: int, t: int, k: int) -> Family:
    """The first t k-subsets of [n] in colex order."""
    _check_segment_args(n, t, k)
    return Family(n, itertools.islice(_colex_words(n, k), t), k=k)


def lex_segment(n: int, t: int, k: int) -> Family:
    """The first t k-subsets of [n] in lex order."""
    _check_segment_args(n, t, k)
    words = []
    for combo in itertools.islice(itertools.combinations(range(1, n + 1), k), t):
        w = 0
        for e in combo:
            w |= 1 << (e - 1)
        words.append(w)
    return Family(n, words, k=k)


def _check_segment_args(n: int, t: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, not {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if not 0 <= t <= comb(n, k):
        raise ValueError(f"segment size {t} outside 0..C({n},{k})")
