"""Lex/colex/shift-partial comparisons and initial segments."""

import itertools
from math import comb

import pytest

from shadowlab.families import Family, word_of, elements_of
from shadowlab.orders import (
    Ordering,
    colex_rank,
    colex_segment,
    compare,
    level,
    level_words,
    lex_segment,
)
from shadowlab.shifting import is_shifted


def w(*elems):
    return word_of(elems)


def test_compare_shared_low_element():
    assert compare(w(1, 3), w(2, 3), "lex") is Ordering.LESS
    assert compare(w(1, 3), w(2, 3), "colex") is Ordering.LESS


def test_compare_lex_colex_disagree():
    # the orders split on {1,4} vs {2,3}: 1 wins lex, 4 loses colex
    assert compare(w(1, 4), w(2, 3), "lex") is Ordering.LESS
    assert compare(w(1, 4), w(2, 3), "colex") is Ordering.GREATER


def test_compare_shift_partial():
    assert compare(w(1, 2), w(1, 3), "shift-partial") is Ordering.LESS
    assert compare(w(1, 4), w(2, 3), "shift-partial") is Ordering.INCOMPARABLE
    assert compare(w(2, 3), w(1, 3), "shift-partial") is Ordering.GREATER
    assert compare(w(1), w(1, 2), "shift-partial") is Ordering.INCOMPARABLE


def test_compare_validation():
    with pytest.raises(ValueError):
        compare(w(1), w(1, 2), "lex")
    with pytest.raises(ValueError):
        compare(w(1), w(2), "zorder")
    assert compare(w(2, 5), w(2, 5), "colex") is Ordering.EQUAL


def test_shift_partial_implies_both_total_orders():
    words = level_words(7, 3)
    for a, b in itertools.combinations(words, 2):
        if compare(a, b, "shift-partial") is Ordering.LESS:
            assert compare(a, b, "lex") is Ordering.LESS
            assert compare(a, b, "colex") is Ordering.LESS


def test_shift_preds_generate_the_shifting_order():
    for n in range(7):
        for k in range(n + 1):
            lvl = level(n, k)
            below = []  # the words strictly below each word, from shift_preds alone
            for i, preds in enumerate(lvl.shift_preds):
                assert len(preds) <= k and all(j < i for j in preds)
                below.append(0)
                for j in preds:
                    below[i] |= 1 << j | below[j]
            for i, a in enumerate(lvl.words):
                for j, b in enumerate(lvl.words):
                    less = compare(b, a, "shift-partial") is Ordering.LESS
                    assert bool(below[i] >> j & 1) == less, (n, k, a, b)


def test_level_words_are_sorted_colex():
    words = level_words(6, 3)
    assert len(words) == comb(6, 3)
    assert list(words) == sorted(words)
    assert words[0] == w(1, 2, 3)
    assert words[-1] == w(4, 5, 6)


def test_colex_rank_matches_position():
    for n, k in ((6, 3), (7, 2), (5, 4)):
        for idx, word in enumerate(level_words(n, k)):
            assert colex_rank(word) == idx


def test_segments_unrolled():
    assert [set(elements_of(x)) for x in colex_segment(5, 4, 2)] == [
        {1, 2}, {1, 3}, {2, 3}, {1, 4},
    ]
    assert [set(elements_of(x)) for x in lex_segment(5, 4, 2)] == [
        {1, 2}, {1, 3}, {1, 4}, {1, 5},
    ]


def test_colex_segment_closure():
    # the first C(m,k) colex sets are exactly the k-level of [m]
    for n, m, k in ((6, 4, 2), (7, 5, 3), (8, 6, 2)):
        seg = colex_segment(n, comb(m, k), k)
        assert seg.members == tuple(level_words(m, k))


def test_colex_segment_builds_only_its_words():
    # the 32-level of [64] holds C(64,32) words: a segment stops at its t-th
    assert colex_segment(64, 5, 32).members == level_words(33, 32)[:5]
    assert colex_segment(4, 1, 0).members == (0,) and len(colex_segment(4, 0, 0)) == 0
    assert level_words(3, -1) == level_words(3, 4) == ()


def test_segments_are_shifted():
    for t in range(comb(5, 2) + 1):
        assert is_shifted(colex_segment(5, t, 2))
        assert is_shifted(lex_segment(5, t, 2))


def test_segment_validation():
    with pytest.raises(ValueError):
        colex_segment(4, comb(4, 2) + 1, 2)
    with pytest.raises(ValueError):
        lex_segment(4, -1, 2)


def test_lex_order_matches_tuple_order():
    words = sorted(level_words(6, 3), key=lambda x: elements_of(x))
    seg = lex_segment(6, 10, 3)
    assert sorted(seg.members) == sorted(words[:10])
