"""Family core: representation, text format, shadows, traces, predicates."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import families
from shadowlab.families import (
    Family,
    _common_core_at_least,
    _cross_t_search,
    _cube_t_intersecting,
    _pair_t_intersecting,
    complement_family,
    degree,
    degree_vector,
    elements_of,
    is_cross_t_intersecting,
    is_r_wise_t_intersecting,
    matching_number,
    max_degree,
    shadow,
    trace,
    word_of,
)
from shadowlab.constructions import a2_family, build, kalai_circle, l_family
from shadowlab.orders import level_words


def fam(n, *sets):
    return Family(n, [word_of(s) for s in sets])


def members_as_sets(family):
    return [set(elements_of(w)) for w in family]


# -- representation ---------------------------------------------------------


def test_words_round_trip():
    assert word_of([1, 3, 64]) == 1 | 4 | (1 << 63)
    assert elements_of(word_of([5, 2, 9])) == (2, 5, 9)
    assert elements_of(0) == ()


def test_word_rejects_out_of_range():
    with pytest.raises(ValueError):
        word_of([0])
    with pytest.raises(ValueError):
        word_of([65])


def test_family_canonicalizes_and_tags():
    f = Family(4, [0b0110, 0b0011, 0b0110])
    assert f.members == (0b0011, 0b0110)
    assert f.k == 2
    mixed = Family(4, [0b1, 0b11])
    assert mixed.k is None


def test_family_rejects_bad_members_and_tags():
    with pytest.raises(ValueError):
        Family(3, [0b1000])
    with pytest.raises(ValueError):
        Family(4, [0b1, 0b11], k=2)
    with pytest.raises(ValueError):
        Family(65)


def test_text_format_fixed_point():
    f = fam(5, [1, 2], [2, 3], [1, 4])
    text = f.to_text()
    assert text == "n=5 k=2\n1,2\n2,3\n1,4\n"
    assert Family.from_text(text) == f


def test_text_format_empty_set_member():
    f = Family(5, [0, 0b11])
    assert f.to_text() == "n=5 k=-\n\n1,2\n"
    assert Family.from_text(f.to_text()) == f


@settings(max_examples=200)
@given(st.integers(1, 10), st.data())
def test_text_round_trip_random(n, data):
    words = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    f = Family(n, words)
    again = Family.from_text(f.to_text())
    assert again == f
    assert again.to_text() == f.to_text()


# -- shadow -----------------------------------------------------------------


def test_shadow_single_set():
    f = fam(5, [1, 2, 3])
    assert members_as_sets(shadow(f, 2)) == [{1, 2}, {1, 3}, {2, 3}]


def test_shadow_expansion_and_tag():
    f = fam(4, [1, 2], [1, 3], [2, 3], [1, 4])
    sh = shadow(f, 1)
    assert members_as_sets(sh) == [{1}, {2}, {3}, {4}]
    assert sh.k == 1
    # the real-binomial bound for 4 two-sets is x with C(x,2)=4, about 3.372
    assert len(sh) >= 3.372


def test_shadow_full_level():
    full = build("full_level", n=5, k=3)
    sh = shadow(full, 2)
    assert sh == build("full_level", n=5, k=2)


def test_shadow_requires_uniform_and_range():
    with pytest.raises(ValueError):
        shadow(Family(4, [0b1, 0b11]), 1)
    with pytest.raises(ValueError):
        shadow(fam(4, [1, 2]), 3)


def test_shadow_monotone_under_subfamily():
    words = level_words(5, 3)
    rng = random.Random(7)
    for _ in range(50):
        big = rng.sample(words, rng.randint(1, len(words)))
        small = rng.sample(big, rng.randint(1, len(big)))
        assert len(shadow(Family(5, big), 2)) >= len(shadow(Family(5, small), 2))


# -- trace ------------------------------------------------------------------


def test_trace_forms():
    f = fam(3, [1, 2], [2, 3])
    assert members_as_sets(trace(f, word_of([1]))) == [{2}]
    assert members_as_sets(trace(f, 0, word_of([1]))) == [{2, 3}]


def test_trace_l_family():
    l33 = l_family(7, 3, 3, 3)
    assert len(l33) == 13
    out = trace(l33, 0, word_of([1]))
    assert members_as_sets(out) == [{2, 3, 4}]


def test_trace_rejects_overlap():
    f = fam(3, [1, 2])
    with pytest.raises(ValueError):
        trace(f, word_of([1]), word_of([1, 2]))


# -- degrees ----------------------------------------------------------------


def test_degree_star():
    star = build("star", n=5, k=2)
    assert degree(star, 1) == 4
    assert max_degree(star) == (1, 4)


def test_degree_full_level_symmetry():
    full = build("full_level", n=4, k=2)
    assert [degree(full, i) for i in range(1, 5)] == [3, 3, 3, 3]
    assert max_degree(full) == (1, 3)  # ties break to the smallest element


def test_degree_l_family():
    l33 = l_family(7, 3, 3, 3)
    assert max_degree(l33) == (1, 12)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        degree(fam(3, [1]), 4)


# -- matching number --------------------------------------------------------


def test_matching_explicit():
    assert matching_number(fam(6, [1, 2], [3, 4], [5, 6])) == 3


def test_matching_star_is_one():
    assert matching_number(build("star", n=6, k=3)) == 1


def test_matching_a2():
    assert matching_number(a2_family(9, 2, 2)) == 2


def test_matching_empty():
    assert matching_number(Family(4)) == 0


def test_matching_agrees_with_brute_force():
    words = level_words(5, 2)
    for mask in range(0, 1 << len(words), 7):
        sel = [words[i] for i in range(len(words)) if mask >> i & 1]
        best = 0
        for size in range(len(sel), 0, -1):
            for combo in itertools.combinations(sel, size):
                union = 0
                ok = True
                for w in combo:
                    if union & w:
                        ok = False
                        break
                    union |= w
                if ok:
                    best = max(best, size)
                    break
            if best:
                break
        assert matching_number(Family(5, sel)) == best


# -- intersection predicates -------------------------------------------------


def test_cross_intersecting_stars():
    s2 = build("star", n=6, k=2)
    s3 = build("star", n=6, k=3)
    assert is_cross_t_intersecting([s2, s3], 1)


def test_cross_intersecting_disjoint_pair():
    a = fam(4, [1, 2])
    b = fam(4, [3, 4])
    assert not is_cross_t_intersecting([a, b], 1)


def test_cross_intersecting_l_family_self():
    l33 = l_family(7, 3, 3, 3)
    assert is_cross_t_intersecting([l33, l33], 1)


def test_cross_intersecting_validation():
    f = fam(4, [1, 2])
    with pytest.raises(ValueError):
        is_cross_t_intersecting([f], 1)
    with pytest.raises(ValueError):
        is_cross_t_intersecting([f, fam(5, [1, 2])], 1)


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(2, 3), st.booleans(), st.data())
def test_cross_common_core_agrees_with_search(n, t, r, shared, data):
    # with a shared core of >= t elements the fast path must fire and the
    # reference DFS must agree; without one the two must still agree
    top = (1 << n) - 1
    core = 0
    if shared:
        t = min(t, n)
        core = word_of(data.draw(st.sets(st.integers(1, n), min_size=t, max_size=n)))
    words = st.lists(st.integers(0, top), min_size=1, max_size=8)
    fams = [Family(n, [w | core for w in data.draw(words)]) for _ in range(r)]
    if shared:
        assert _common_core_at_least(fams, t)
    assert is_cross_t_intersecting(fams, t) == _cross_t_search(fams, t)
    # two families without a shared core take the direct pair loop
    pair = fams[:2]
    assert is_cross_t_intersecting(pair, t) == _cross_t_search(pair, t)
    brute = all((wa & wb).bit_count() >= t for wa in pair[0] for wb in pair[1])
    assert is_cross_t_intersecting(pair, t) == brute


def test_r_wise_examples():
    head = Family(9, (w for w in level_words(9, 4) if (w & 0b1111).bit_count() >= 3))
    assert is_r_wise_t_intersecting(head, 3, 1)
    full = build("full_level", n=4, k=2)
    assert not is_r_wise_t_intersecting(full, 2, 1)
    short = fam(5, [1, 2], [1, 2, 3])
    assert not is_r_wise_t_intersecting(short, 2, 3)  # a member smaller than t


def test_r_wise_matches_naive_tuples():
    words = level_words(5, 2)
    rng = random.Random(11)
    for _ in range(80):
        sel = rng.sample(words, rng.randint(1, 6))
        f = Family(5, sel)
        for r, t in ((2, 1), (3, 1), (2, 2), (4, 1)):
            naive = all(
                (lambda ws: _inter(ws).bit_count() >= t)(tup)
                for tup in itertools.product(f.members, repeat=r)
            )
            assert is_r_wise_t_intersecting(f, r, t) == naive, (sel, r, t)


@st.composite
def dense_families(draw):
    """Random dense, up-closed, threshold and single-member families and the
    full power set, over [n] with n <= 10."""
    n = draw(st.integers(0, 10))
    cube = range(1 << n)
    kind = draw(st.sampled_from(("random", "up", "threshold", "single", "all")))
    if kind == "random":
        words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=200))
    elif kind == "up":
        gens = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
        words = [w for w in cube if any(w & g == g for g in gens)]
    elif kind == "threshold":
        low = draw(st.integers(0, n))
        words = [w for w in cube if w.bit_count() >= low]
    elif kind == "single":
        words = [draw(st.integers(0, (1 << n) - 1))]
    else:
        words = list(cube)
    return Family(n, words)


@settings(max_examples=300, deadline=None)
@given(dense_families(), st.data())
def test_cube_test_matches_pair_loop(f, data):
    t = data.draw(st.integers(1, f.n + 1))
    assert _cube_t_intersecting(f, t) == _pair_t_intersecting(f, t)


def test_circle_family_takes_cube_path(monkeypatch):
    taken = []

    def cube(fam, t):
        taken.append((fam.n, t))
        return _cube_t_intersecting(fam, t)

    monkeypatch.setattr(families, "_cube_t_intersecting", cube)
    circle = kalai_circle(15)
    assert is_r_wise_t_intersecting(circle, 2, 1)
    assert not is_r_wise_t_intersecting(circle, 2, 2)
    # the pair loop keeps small ground sets, even the full power set
    assert not is_r_wise_t_intersecting(Family(5, range(1 << 5)), 2, 1)
    assert taken == [(15, 1), (15, 2)]


def _inter(words):
    out = words[0]
    for w in words[1:]:
        out &= w
    return out


# -- complement --------------------------------------------------------------


def test_complement_basic():
    f = fam(3, [1])
    assert members_as_sets(complement_family(f)) == [{2, 3}]


@settings(max_examples=100)
@given(st.integers(1, 8), st.data())
def test_complement_involution(n, data):
    words = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    f = Family(n, words)
    assert complement_family(complement_family(f)) == f


def test_complement_diversity_equals_min_degree():
    # both sides computed independently on 200 random families over [10]
    rng = random.Random(2024)
    for _ in range(200):
        words = {rng.getrandbits(10) for _ in range(rng.randint(1, 40))}
        f = Family(10, words)
        gamma = len(f) - max_degree(f)[1]
        comp = complement_family(f)
        min_deg = min(degree_vector(comp))
        assert gamma == min_deg
