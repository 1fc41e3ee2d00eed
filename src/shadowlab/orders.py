"""Lex, colex and shifting orders on sets, and initial segments."""

from __future__ import annotations

import enum
import functools
import itertools
from math import comb
from typing import NamedTuple

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


@functools.lru_cache(maxsize=64)
def level_words(n: int, k: int) -> tuple[int, ...]:
    """All k-subsets of [n] as words in ascending (= colex) order."""
    if k < 0 or k > n:
        return ()
    if k == 0:
        return (0,)
    out = []
    w = (1 << k) - 1
    top = 1 << n
    while w < top:
        out.append(w)
        low = w & -w
        ripple = w + low
        w = ripple | (((w ^ ripple) // low) >> 2)
    return tuple(out)


class Level(NamedTuple):
    """The k-subsets of [n] in colex order, with their indices, shadows and
    immediate shift predecessors.

    ``index[w]`` is the colex index of ``w`` (equal to ``colex_rank(w)``), and
    ``shadows[i]`` is the immediate shadow of ``words[i]`` as the colex
    indices of its (k-1)-subsets (empty when k = 0).  ``shift_preds[i]``
    holds the colex indices of the words that move one element j of
    ``words[i]`` down to a free j - 1: the sets ``words[i]`` covers in the
    shifting partial order, at most k of them and all of smaller index.
    Index tuples keep the table near the size of the level itself; a bit
    mask over the (k-1)-level per word would grow with the product of the
    two levels' sizes.
    """

    words: tuple[int, ...]
    index: dict[int, int]
    shadows: tuple[tuple[int, ...], ...]
    shift_preds: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=64)
def level(n: int, k: int) -> Level:
    """The cached table of the k-level of [n]."""
    words = level_words(n, k)
    below = {w: i for i, w in enumerate(level_words(n, k - 1))}
    index = {w: i for i, w in enumerate(words)}
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
    return Level(words, index, tuple(shadows), tuple(shift_preds))


def colex_rank(word: int) -> int:
    """Position of a k-set among all k-sets in colex order."""
    rank = 0
    for idx, e in enumerate(elements_of(word), start=1):
        rank += comb(e - 1, idx)
    return rank


def colex_segment(n: int, t: int, k: int) -> Family:
    """The first t k-subsets of [n] in colex order."""
    _check_segment_args(n, t, k)
    if k == 0:
        return Family(n, [0][:t], k=0)
    out = []
    w = (1 << k) - 1
    while len(out) < t:
        out.append(w)
        low = w & -w
        ripple = w + low
        w = ripple | (((w ^ ripple) // low) >> 2)
    return Family(n, out, k=k)


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
