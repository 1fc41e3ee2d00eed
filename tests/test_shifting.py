"""Shift operators, shiftedness, colex compression and the paired lex shift."""

import itertools
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowlab import families, orders, shifting, spaces

from shadowlab.families import (
    Family,
    InvariantViolation,
    elements_of,
    is_cross_t_intersecting,
    is_r_wise_t_intersecting,
    matching_number,
    shadow,
    trace,
    word_of,
)
from shadowlab.orders import (
    Ordering,
    colex_rank,
    colex_segment,
    compare,
    level,
    level_words,
    lex_segment,
)
from shadowlab.shifting import (
    ShiftStep,
    ShiftTrace,
    _daykin_words,
    compress_to_colex,
    cross_lex_shift_step,
    daykin_shift,
    find_colex_violation,
    is_shifted,
    shift_ij,
    shift_to_shifted,
)


def w(*elems):
    return word_of(elems)


def fam(n, *sets):
    return Family(n, [word_of(s) for s in sets])


def all_subfamilies(n, k):
    words = level_words(n, k)
    for mask in range(1 << len(words)):
        yield Family(n, [words[i] for i in range(len(words)) if mask >> i & 1],
                     k=k if mask == 0 else None)


# -- shift_ij ----------------------------------------------------------------


def test_shift_moves_free_image():
    assert shift_ij(fam(3, [2, 3]), 1, 2).members == (w(1, 3),)


def test_shift_blocked_by_present_image():
    f = fam(3, [1, 3], [2, 3])
    assert shift_ij(f, 1, 2) == f


def test_shift_validation():
    with pytest.raises(ValueError):
        shift_ij(fam(3, [1]), 2, 2)
    with pytest.raises(ValueError):
        shift_ij(fam(3, [1]), 1, 4)


def test_shift_reverse_direction():
    # i > j applies the same replacement rule upward
    assert shift_ij(fam(3, [1, 2]), 3, 1).members == (w(2, 3),)


def test_shift_preserves_size_uniformity_everywhere():
    for f in all_subfamilies(4, 2):
        for i, j in itertools.combinations(range(1, 5), 2):
            g = shift_ij(f, i, j)
            assert len(g) == len(f)
            assert g.k == f.k


def test_shift_diversity_drop_bounded_exhaustive():
    # diversity loses at most half the symmetric difference of the two
    # one-sided restrictions, over every subfamily of the (5,2) level
    from shadowlab.diversity import diversity

    for f in all_subfamilies(5, 2):
        gamma = diversity(f).value if f.n else 0
        for i, j in itertools.combinations(range(1, 6), 2):
            fi = set(trace(f, w(i), w(j)).members)
            fj = set(trace(f, w(j), w(i)).members)
            g = shift_ij(f, i, j)
            assert diversity(g).value >= gamma - len(fi ^ fj) / 2


def test_shift_preserves_matching_and_intersection_exhaustive():
    for f in all_subfamilies(5, 2):
        nu = matching_number(f)
        inter = is_r_wise_t_intersecting(f, 2, 1) if len(f) else True
        for i, j in itertools.combinations(range(1, 6), 2):
            g = shift_ij(f, i, j)
            assert matching_number(g) <= nu
            if inter:
                assert is_r_wise_t_intersecting(g, 2, 1) or len(g) == 0


# -- is_shifted / shift_to_shifted --------------------------------------------


def brute_force_shifted(f):
    """Direct closure check under the shifting partial order."""
    words = level_words(f.n, f.k) if f.k is not None else [
        x for x in range(1 << f.n)
    ]
    present = f.member_set()
    for member in f.members:
        for other in words:
            if other.bit_count() != member.bit_count():
                continue
            if compare(other, member, "shift-partial") is Ordering.LESS:
                if other not in present:
                    return False
    return True


def test_is_shifted_matches_definition():
    for f in all_subfamilies(4, 2):
        assert is_shifted(f) == brute_force_shifted(f)
    for f in all_subfamilies(5, 3):
        assert is_shifted(f) == brute_force_shifted(f)


def shifted_by_all_moves(f):
    """Closure under every move of an element j down to a free i < j."""
    present = f.member_set()
    for member in f.members:
        for j in elements_of(member):
            for i in range(1, j):
                bi = 1 << (i - 1)
                if not member & bi and (member ^ (1 << (j - 1)) | bi) not in present:
                    return False
    return True


def test_is_shifted_matches_all_moves_exhaustive():
    for n in range(4):
        for mask in range(1 << (1 << n)):
            f = Family(n, [x for x in range(1 << n) if mask >> x & 1])
            assert is_shifted(f) == shifted_by_all_moves(f), f
    for n, k in ((4, 1), (4, 2), (5, 2), (5, 3)):
        for f in all_subfamilies(n, k):
            assert is_shifted(f) == shifted_by_all_moves(f), f


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=40))
), st.booleans())
def test_is_shifted_matches_all_moves_random(case, shift_first):
    n, words = case
    f = Family(n, words)
    if shift_first:  # shifted families are rare among random ones
        f = shift_to_shifted(f)[0]
    assert is_shifted(f) == shifted_by_all_moves(f)


def test_segments_already_shifted_identity_trace():
    seg = colex_segment(5, 6, 2)
    out, tr = shift_to_shifted(seg)
    assert out == seg
    assert len(tr) == 0


def test_shift_to_shifted_two_steps():
    out, tr = shift_to_shifted(fam(3, [2, 3]))
    assert out.members == (w(1, 2),)
    assert [s.to_line() for s in tr.steps] == ["ij 1 2 moved=1", "ij 2 3 moved=1"]
    # a step is a named tuple: equal to the plain tuple of its fields
    assert tr.steps[0] == ("ij", 1, 2, 0, 0, 1)
    assert ShiftStep.from_line("ij 1 2 moved=1") == tr.steps[0]


def test_shift_to_shifted_terminates_within_potential():
    # the element-sum potential bounds the number of moving steps
    for f in all_subfamilies(5, 2):
        out, tr = shift_to_shifted(f)
        assert is_shifted(out)
        assert len(out) == len(f)
        potential = sum(sum(elements_of(x)) for x in f.members)
        assert len(tr) <= potential
        assert tr.replay(f) == out


# -- daykin shift --------------------------------------------------------------


def test_daykin_rewrites_pattern():
    f = fam(5, [3, 4, 5])
    assert daykin_shift(f, w(1, 2), w(3, 4)).members == (w(1, 2, 5),)


def test_daykin_identity_when_pattern_absent():
    f = fam(5, [1, 2, 3])
    assert daykin_shift(f, w(4), w(5)) == f


def test_daykin_validation():
    f = fam(4, [1, 2])
    with pytest.raises(ValueError):
        daykin_shift(f, w(1), w(1, 2))
    with pytest.raises(ValueError):
        daykin_shift(f, w(1), w(1))


def test_daykin_singleton_equals_shift_exhaustive():
    for f in all_subfamilies(4, 2):
        assert daykin_shift(f, w(1), w(2)) == shift_ij(f, 1, 2)


# -- colex violation search ----------------------------------------------------


def test_violation_none_on_segments():
    assert find_colex_violation(colex_segment(5, 4, 2)) is None
    assert find_colex_violation(Family(5, (), k=2)) is None


def test_violation_examples():
    assert find_colex_violation(fam(3, [1, 3])) == (w(2), w(3))
    assert find_colex_violation(fam(3, [2, 3])) == (w(1), w(2))


def test_violation_agrees_with_direct_pair_search():
    # first hit of the documented tie order: |U| ascending, then V then U by word
    def direct(f):
        present = f.member_set()
        for size in range(1, f.k + 1):
            hits = []
            for v in level_words(f.n, size):
                for u in level_words(f.n, size):
                    if u >= v or u & v:
                        continue
                    uv = u | v
                    for member in f.members:
                        if member & uv == v and ((member & ~v) | u) not in present:
                            hits.append((v, u))
                            break
            if hits:
                v, u = min(hits)
                return u, v
        return None

    rng = random.Random(5)
    words = level_words(5, 2)
    for _ in range(150):
        sel = rng.sample(words, rng.randint(0, len(words)))
        f = Family(5, sel, k=2 if not sel else None)
        assert find_colex_violation(f) == direct(f)
    words3 = level_words(6, 3)
    for _ in range(60):
        sel = rng.sample(words3, rng.randint(0, 10))
        f = Family(6, sel, k=3 if not sel else None)
        assert find_colex_violation(f) == direct(f)


# -- compress_to_colex ----------------------------------------------------------


def test_compress_zero_steps_on_segment():
    seg = colex_segment(6, 7, 3)
    out, tr = compress_to_colex(seg)
    assert out == seg and len(tr) == 0


def test_compress_exhaustive_level_5_2():
    for f in all_subfamilies(5, 2):
        out, tr = compress_to_colex(f)
        assert out == colex_segment(5, len(f), 2)
        assert len(shadow(out, 1)) <= len(shadow(f, 1)) if len(f) else True
        assert tr.replay(f) == out


def test_compress_random_6_3_traces_replay():
    words = level_words(6, 3)
    rng = random.Random(99)
    for _ in range(40):
        sel = rng.sample(words, rng.randint(1, len(words)))
        f = Family(6, sel)
        out, tr = compress_to_colex(f)
        assert out == colex_segment(6, len(f), 3)
        assert tr.replay(f) == out


def test_trace_text_round_trip():
    f = fam(4, [2, 4], [3, 4])
    out, tr = compress_to_colex(f)
    text = tr.to_text()
    again = ShiftTrace.from_text(text)
    assert again == tr
    assert again.replay(f) == out


def test_trace_replay_rejects_wrong_start():
    f = fam(4, [2, 4], [3, 4])
    _, tr = compress_to_colex(f)
    if len(tr):
        with pytest.raises(InvariantViolation):
            tr.replay(fam(4, [1, 2], [1, 3]))


def _reference_violation(f):
    """The plain pair scan: every absent G below the top member against every
    member F above it, keyed by (|U|, V, U)."""
    present = f.member_set()
    best = None
    for g in level_words(f.n, f.k):
        if not f.members or g >= f.members[-1]:
            break
        if g in present:
            continue
        for member in f.members:
            if member > g:
                u, v = g & ~member, member & ~g
                key = (u.bit_count(), v, u)
                if best is None or key < best:
                    best = key
    return None if best is None else (best[2], best[1])


def _reference_compress(f):
    """Colex compression with both certificates recomputed from scratch at
    every step: the shadow by `shadow`, the rank sum by `colex_rank`."""
    steps = []
    cur = f
    track = cur.k >= 1 and len(cur) > 0
    cur_shadow = len(shadow(cur, cur.k - 1)) if track else 0
    cur_rank = sum(colex_rank(x) for x in cur.members)
    while (hit := _reference_violation(cur)) is not None:
        u, v = hit
        nxt = daykin_shift(cur, u, v)
        if track:
            assert len(shadow(nxt, nxt.k - 1)) <= cur_shadow
            cur_shadow = len(shadow(nxt, nxt.k - 1))
        nxt_rank = sum(colex_rank(x) for x in nxt.members)
        assert nxt_rank < cur_rank
        cur_rank = nxt_rank
        moved = len(nxt.member_set() - cur.member_set())
        steps.append(ShiftStep("daykin", u=u, v=v, moved=moved))
        cur = nxt
    return cur, ShiftTrace(tuple(steps))


@st.composite
def uniform_families(draw, max_n=8, max_k=4):
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, min(n, max_k)))
    words = level_words(n, k)
    keep = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    members = [x for x, kept in zip(words, keep) if kept]
    return Family(n, members, k=k if not members else None)


@settings(max_examples=150, deadline=None)
@given(uniform_families())
@example(Family(6, (), k=3))
@example(Family(4, [0]))
@example(fam(5, [2], [4], [5]))
def test_compress_matches_reference(f):
    out, tr = compress_to_colex(f)
    ref_out, ref_tr = _reference_compress(f)
    assert out.members == ref_out.members
    assert tr.to_text() == ref_tr.to_text()


@settings(max_examples=150, deadline=None)
@given(uniform_families(max_n=9, max_k=5))
def test_level_table_matches_rank_and_shadow(f):
    table = level(f.n, f.k)
    assert table.words == level_words(f.n, f.k)
    for i, x in enumerate(table.words):
        assert table.index[x] == i == colex_rank(x)
    if f.k >= 1:
        below = level_words(f.n, f.k - 1)
        for x in f.members:
            sub = {below[j] for j in table.shadows[table.index[x]]}
            assert sub == set(shadow(Family(f.n, [x]), f.k - 1).members)
        union = set().union(*(table.shadows[table.index[x]] for x in f.members))
        assert len(union) == len(shadow(f, f.k - 1))
        for s, size in enumerate(table.colex_shadow_sizes):
            assert size == len(shadow(colex_segment(f.n, s, f.k), f.k - 1))
    assert spaces._mask_family(f.n, f.k, table.words, table.mask(f.members)) == f
    for b in (f.k - 1, f.k, f.k + 1):
        if 0 <= b <= f.n:
            other = level_words(f.n, b)
            meets = table.meets(b)
            assert len(meets) == len(table.words)
            for i, x in enumerate(table.words):
                assert [meets[i] >> j & 1 for j in range(len(other))] == [
                    int(bool(x & y)) for y in other]
                assert meets[i] >> len(other) == 0


@settings(max_examples=200, deadline=None)
@given(uniform_families())
def test_violation_search_matches_reference(f):
    assert find_colex_violation(f) == _reference_violation(f)


def test_violation_search_on_shifted_families():
    # a shifted family has no single-element violation, so its search is
    # the scan over couples; every shifted family of these levels is tried
    from shadowlab.spaces import InstanceSpace, iter_space

    for n, k in ((5, 2), (6, 3), (7, 2), (7, 3), (7, 4)):
        shifted = iter_space(InstanceSpace.make("all-shifted-families", n=n, k=k))
        for f in shifted:
            assert find_colex_violation(f) == _reference_violation(f)


def test_violation_search_on_whole_levels():
    for n, k in ((5, 2), (6, 2)):
        for mask in range(1 << comb(n, k)):
            f = Family(n, [x for i, x in enumerate(level_words(n, k)) if mask >> i & 1], k=k)
            assert find_colex_violation(f) == _reference_violation(f), (n, k, mask)


def _reference_trail(f):
    """The (mask, step) trail of `_reference_compress`'s walk on Families,
    each state keyed by the level-index mask of its members."""
    index = level(f.n, f.k).index

    def mask_of(g):
        return sum(1 << index[x] for x in g.members)

    trail = [(mask_of(f), None)]
    while (hit := _reference_violation(f)) is not None:
        nxt = daykin_shift(f, *hit)
        moved = len(nxt.member_set() - f.member_set())
        trail.append((mask_of(nxt), ShiftStep("daykin", u=hit[0], v=hit[1], moved=moved)))
        f = nxt
    return trail


@pytest.mark.parametrize("n, k, count, most", [
    (7, 3, 300, 35),
    (8, 4, 80, 70),
    # a single (x, y) step of this level spans up to 85 colex offsets
    (12, 5, 8, 40),
])
def test_mask_walk_trail_matches_family_walk(n, k, count, most):
    rng = random.Random(n * 100 + k)
    words = level_words(n, k)
    for _ in range(count):
        f = Family(n, rng.sample(words, rng.randint(1, most)), k=k)
        assert list(shifting._colex_walk(f)) == _reference_trail(f)


def test_compress_reads_no_shadow_or_colex_rank(monkeypatch):
    # the level table is the only source of both certificates
    def refuse(*args):
        raise AssertionError("compression fell back to a slow certificate")

    monkeypatch.setattr(families, "shadow", refuse)
    monkeypatch.setattr(orders, "colex_rank", refuse)
    monkeypatch.setattr(shifting, "shadow", refuse, raising=False)
    monkeypatch.setattr(shifting, "colex_rank", refuse, raising=False)
    f = fam(6, [4, 5, 6], [2, 5, 6], [1, 3, 6], [3, 4, 5], [2, 4, 6])
    out, tr = compress_to_colex(f)
    assert out == colex_segment(6, 5, 3)
    assert len(tr) > 0


def _force_steps(monkeypatch, *hits):
    """Make the walk's violation search answer `hits` in turn, then None."""
    answers = iter(hits)
    monkeypatch.setattr(shifting, "_mask_violation", lambda steps, mask: next(answers, None))


def test_compress_certificates_raise(monkeypatch):
    # {1,2},{1,3},{2,3} <- {4,5} for {1,2}: the shadow grows from 3 to 5
    _force_steps(monkeypatch, (w(4, 5), w(1, 2)))
    with pytest.raises(InvariantViolation, match="immediate shadow grew 3 -> 5"):
        compress_to_colex(fam(6, [1, 2], [1, 3], [2, 3]))
    # {1,2} -> {2,3} keeps the shadow size but raises the colex rank
    _force_steps(monkeypatch, (w(3), w(1)))
    with pytest.raises(InvariantViolation, match="colex-rank potential did not drop"):
        compress_to_colex(fam(3, [1, 2]))
    # stopping early leaves a family that is not the colex segment
    _force_steps(monkeypatch)
    with pytest.raises(InvariantViolation, match="fixed point is not the colex segment"):
        compress_to_colex(fam(3, [2, 3]))


def test_compress_builds_one_family_and_searches_once_per_step(monkeypatch):
    # the compression carries a level-index mask between steps: the only
    # Family it builds is its result, and every search goes through the
    # module name of the mask search
    f = Family(6, level_words(6, 3)[-6:])
    builds, searches = [], []
    init = families.Family.__init__
    search = shifting._mask_violation

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def counting_search(steps, mask):
        searches.append(1)
        return search(steps, mask)

    monkeypatch.setattr(families.Family, "__init__", counting_init)
    monkeypatch.setattr(shifting, "_mask_violation", counting_search)
    out, tr = compress_to_colex(f)
    assert len(tr) >= 10
    assert len(builds) <= 2
    assert len(searches) == len(tr) + 1
    assert out == colex_segment(6, 6, 3)


@st.composite
def forced_steps(draw, max_n=7):
    """A uniform family of a few members and a disjoint, equal-size (U, V)
    with V inside a member and U outside it, so that the U<-V step moves
    that member unless its image is taken."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    words = level_words(n, k)
    members = draw(st.lists(st.sampled_from(words), unique=True, min_size=1, max_size=len(words)))
    inside = elements_of(draw(st.sampled_from(members)))
    outside = [e for e in range(1, n + 1) if e not in inside]
    most = min(len(inside), len(outside))
    size = draw(st.integers(min(1, most), most))
    v = draw(st.permutations(inside))[:size]
    u = draw(st.permutations(outside))[:size]
    return Family(n, members), word_of(u), word_of(v)


@settings(max_examples=300, deadline=None)
@given(forced_steps())
@example((Family(6, (), k=3), 0, 0))
@example((Family(4, [0]), 0, 0))
@example((fam(6, [1, 2], [1, 3], [2, 3]), w(4, 5), w(1, 2)))
def test_step_certificates_match_recomputation(step):
    # one forced step: the carried counts must raise exactly when the
    # recomputed shadow grows or the recomputed colex-rank sum does not drop
    f, u, v = step
    after = daykin_shift(f, u, v)
    k = f.k
    a = len(shadow(f, k - 1)) if k >= 1 else 0
    b = len(shadow(after, k - 1)) if k >= 1 else 0
    rank_drops = sum(map(colex_rank, after.members)) < sum(map(colex_rank, f.members))
    with pytest.MonkeyPatch.context() as mp:
        _force_steps(mp, (u, v))
        if b > a:
            with pytest.raises(InvariantViolation, match=f"immediate shadow grew {a} -> {b} under"):
                compress_to_colex(f)
        elif not rank_drops:
            with pytest.raises(InvariantViolation, match="colex-rank potential did not drop"):
                compress_to_colex(f)
        elif after != colex_segment(f.n, len(f), k):
            with pytest.raises(InvariantViolation, match="fixed point is not the colex segment"):
                compress_to_colex(f)
        else:
            out, tr = compress_to_colex(f)
            assert out == after
            moved = len(after.member_set() - f.member_set())
            assert tr.steps == (ShiftStep("daykin", u=u, v=v, moved=moved),)


def test_daykin_step_checks_family_size():
    # a corrupted family that lists a member twice: both copies move to the
    # same image, and the step refuses the smaller result
    dup = fam(3, [1, 2])
    object.__setattr__(dup, "members", dup.members * 2)
    with pytest.raises(InvariantViolation, match="shift changed the family size"):
        _daykin_words(dup, w(3), w(1))


# -- cross lex shift -------------------------------------------------------------


def _lex_violation_reference(f):
    """The minimal lex-violating pair by tuple keys (|U|, elements(V), elements(U))."""
    present = f.member_set()
    best = None
    for g in level_words(f.n, f.k):
        if g in present:
            continue
        for m in f.members:
            diff = m ^ g
            if not g & (diff & -diff):
                continue
            u, v = g & ~m, m & ~g
            key = (u.bit_count(), elements_of(v), elements_of(u), u, v)
            if best is None or key < best:
                best = key
    return best


@settings(max_examples=300, deadline=None)
@given(uniform_families(max_n=7, max_k=7))
@example(lex_segment(6, 7, 3))
@example(Family(5, level_words(5, 2)))
def test_lex_violation_matches_tuple_keys(f):
    assert shifting._lex_violation(f) == _lex_violation_reference(f)


def test_cross_shift_none_on_lex_segments():
    a = lex_segment(4, 3, 2)
    b = lex_segment(4, 2, 2)
    assert cross_lex_shift_step(a, b) is None


def test_cross_shift_requires_cross_intersecting():
    with pytest.raises(ValueError):
        cross_lex_shift_step(fam(4, [1, 2]), fam(4, [3, 4]))


def test_cross_shift_fixpoints_exhaustive_n4():
    words = level_words(4, 2)
    full = (1 << len(words)) - 1
    count = 0
    for amask in range(full + 1):
        a_words = [words[i] for i in range(len(words)) if amask >> i & 1]
        fam_a = Family(4, a_words, k=2 if not a_words else None)
        for bmask in range(full + 1):
            b_words = [words[i] for i in range(len(words)) if bmask >> i & 1]
            fam_b = Family(4, b_words, k=2 if not b_words else None)
            if a_words and b_words and not is_cross_t_intersecting([fam_a, fam_b], 1):
                continue
            count += 1
            x, y = fam_a, fam_b
            for _ in range(200):
                step = cross_lex_shift_step(x, y)
                if step is None:
                    break
                nx, ny = step[0], step[1]
                assert len(nx) == len(x) and len(ny) == len(y)
                x, y = nx, ny
            else:
                pytest.fail("no fixpoint reached")
            assert x == lex_segment(4, len(fam_a), 2)
            assert y == lex_segment(4, len(fam_b), 2)
    assert count > 64  # the filtered pair space is nontrivial


def test_cross_shift_preserves_intersection_along_runs():
    words = level_words(5, 2)
    rng = random.Random(17)
    runs = 0
    while runs < 60:
        amask = rng.getrandbits(len(words))
        a_words = [words[i] for i in range(len(words)) if amask >> i & 1]
        if not a_words:
            continue
        fam_a = Family(5, a_words)
        compatible = [x for x in words if all(x & yw for yw in a_words)]
        if not compatible:
            continue
        b_words = rng.sample(compatible, rng.randint(1, len(compatible)))
        fam_b = Family(5, b_words)
        runs += 1
        x, y = fam_a, fam_b
        while True:
            step = cross_lex_shift_step(x, y)  # raises if intersection breaks
            if step is None:
                break
            x, y = step[0], step[1]
        assert is_cross_t_intersecting([x, y], 1)


def _level_key(x, y):
    """The pair's level-index masks side by side, from the level word lists."""
    words_a, words_b = level_words(x.n, x.k), level_words(y.n, y.k)
    mask_a = sum(1 << words_a.index(w) for w in x.members)
    mask_b = sum(1 << words_b.index(w) for w in y.members)
    return mask_a | mask_b << len(words_a)


def test_cross_lex_walk_yields_each_state_of_the_shift():
    words = level_words(5, 2)
    rng = random.Random(23)
    for _ in range(40):
        a_words = rng.sample(words, rng.randint(1, 5))
        compatible = [x for x in words if all(x & y for y in a_words)]
        b_words = rng.sample(compatible, rng.randint(0, len(compatible)))
        x, y = Family(5, a_words, k=2), Family(5, b_words, k=2)
        expected = [(_level_key(x, y), None)]
        while (step := cross_lex_shift_step(x, y)) is not None:
            x, y = step[0], step[1]
            expected.append((_level_key(x, y), step))
        assert list(shifting._cross_lex_walk(Family(5, a_words, k=2), Family(5, b_words, k=2))) \
            == expected


def test_cross_lex_walk_certifies_sizes_and_fixed_point(monkeypatch):
    a, b = fam(5, [1, 3], [2, 3]), fam(5, [1, 2], [3, 4])
    monkeypatch.setattr(shifting, "cross_lex_shift_step", lambda x, y: None)
    with pytest.raises(InvariantViolation, match="^fixed point is not a pair of lex segments$"):
        list(shifting._cross_lex_walk(a, b))
    # one step that drops a member of A, then a fixed point
    monkeypatch.setattr(shifting, "cross_lex_shift_step",
                        lambda x, y: (Family(5, x.members[1:], k=2), y, 0, 0) if x == a else None)
    with pytest.raises(InvariantViolation, match="^sizes changed along the shift$"):
        list(shifting._cross_lex_walk(a, b))
