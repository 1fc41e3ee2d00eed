"""Instance spaces, the claim engine, reports and their replay guarantees."""

import bisect
import functools
import inspect
import itertools
import json
import multiprocessing
import operator
import random
import subprocess
import sys
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shadowlab import claims, orders, shifting, spaces, verifier
from shadowlab.binomials import bound_value
from shadowlab.claims import CLAIMS, is_r_wise_t_union
from shadowlab.constructions import build
from shadowlab.diversity import s_diversity
from shadowlab.families import Family, InvariantViolation, is_r_wise_t_intersecting, matching_number
from shadowlab.families import word_of
from shadowlab.orders import Ordering, compare, level, level_words, lex_segment
from shadowlab.shifting import is_shifted
from shadowlab.spaces import BudgetExceeded, InstanceSpace, Meter, iter_space, space_size
from shadowlab.verifier import Report, reverify, verify, verify_cross_pair_space


# -- spaces -------------------------------------------------------------------


def test_space_parse_and_describe_round_trip():
    for text in (
        "all-families:k=2,n=4",
        "all-graphs:n=5",
        "random-sample:count=10,n=7,seed=3",
        "constructions-grid:k=3..4,n=5..9,name=KK_xy,x=1..6,y=2..6",
    ):
        space = InstanceSpace.parse(text)
        assert space.describe() == text
        assert InstanceSpace.parse(space.describe()) == space


def test_space_rejects_unknown_kind():
    with pytest.raises(ValueError):
        InstanceSpace.parse("all-hypergraphs:n=3")
    # missing or unknown parameter values are refused as well
    for text in (
        "all-families:n=6",
        "all-shifted-families:n=6",
        "random-sample:n=6,k=3",
        "all-cross-pairs:n=5,a=2",
        "constructions-grid:name=nope,n=3..5",
        "constructions-grid:n=3..5",
        "all-families:n=6,k=x",
        "all-families:n=4,k=2,bogus=7",
        "all-graphs:n=4,seed=5",
        "random-sample:n=6,count=-1,k=3",
        # negative sizes are refused where the space is parsed
        "all-graphs:n=-2",
        "all-up-sets:n=-1",
        "all-families:n=4,k=-1",
        "all-shifted-families:n=-3,k=2",
        "all-cross-pairs:n=5,a=-1,b=2",
        "all-cross-pairs:n=5,a=2,b=-2",
        "random-sample:n=-6,count=3",
    ):
        with pytest.raises(ValueError):
            InstanceSpace.parse(text)
    # a sample's seed is the one parameter that may be negative
    assert InstanceSpace.parse("random-sample:n=6,count=3,seed=-5").get("seed") == -5


def test_readme_names_every_claim_and_space():
    # tests/ sits next to README.md at the root of the repository
    with open(__file__.rsplit("tests", 1)[0] + "README.md", encoding="utf-8") as handle:
        readme = handle.read()
    for name in (*CLAIMS, *spaces.SPACE_KINDS):
        assert f"`{name}`" in readme or f"`{name}:" in readme, name


def test_all_families_counts():
    space = InstanceSpace.make("all-families", n=4, k=2)
    assert space_size(space) == 64
    fams = list(iter_space(space))
    assert len(fams) == 64
    assert len({f.members for f in fams}) == 64


def _moves_closed_masks(n, k):
    """Every mask of the k-level of [n] closed under each shift move, an
    element j of a word down to a free i < j, ascending.  All masks are
    tried at once, one column of bits per word."""
    import numpy as np

    words = level_words(n, k)
    index = {w: i for i, w in enumerate(words)}
    masks = np.arange(1 << len(words), dtype=np.int64)
    col = [(masks >> i & 1).astype(bool) for i in range(len(words))]
    keep = np.ones(len(masks), dtype=bool)
    for i, w in enumerate(words):
        for j, low in itertools.combinations(range(n), 2):
            if w >> low & 1 and not w >> j & 1:
                keep &= ~col[i] | col[index[w ^ (1 << low) ^ (1 << j)]]
    return [int(m) for m in np.flatnonzero(keep)]


def test_all_shifted_families_matches_filter():
    # the whole stream, in order, against the ascending masks of the level
    # that is_shifted keeps; at (6,3), 2^20 masks, against the move closure
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 3)):
        words = level_words(n, k)
        shifted = [f.members for f in iter_space(InstanceSpace.make("all-shifted-families", n=n, k=k))]
        expected = [spaces._mask_family(n, k, words, m).members for m in _moves_closed_masks(n, k)]
        if len(words) <= 10:
            brute = iter_space(InstanceSpace.make("all-families", n=n, k=k))
            assert [f.members for f in brute if is_shifted(f)] == expected
        assert all(is_shifted(Family(n, members, k)) for members in expected)
        assert shifted == expected, (n, k)


def test_all_graphs_matches_filter():
    space = InstanceSpace.make("all-graphs", n=5)
    graphs = list(iter_space(space))
    assert space_size(space) == len(graphs) == 768
    full = (1 << 5) - 1
    for g in graphs[:50]:
        cover = 0
        for w in g.members:
            cover |= w
        assert cover == full


def _up_sets(n):
    """Every up-set of 2^[n] as a frozenset of words: one of 2^[n-1] and the
    sets of [n-1] that join element n-1, an up-set holding the first."""
    if n == 0:
        return [frozenset(), frozenset({0})]
    smaller = _up_sets(n - 1)
    top = 1 << (n - 1)
    return [
        without | {w | top for w in with_top}
        for without in smaller for with_top in smaller if without <= with_top
    ]


def test_all_up_sets_dedekind_count():
    # the whole stream, in order: by the mask over the sets of 2^[n] in
    # descending size, then ascending, as the space documents
    for n, count in enumerate((2, 3, 6, 20, 168, 7581)):
        ups = [f.members for f in iter_space(InstanceSpace.make("all-up-sets", n=n))]
        order = sorted(range(1 << n), key=lambda w: (-w.bit_count(), w))
        rank = {up: sum(1 << order.index(w) for w in up) for up in _up_sets(n)}
        assert ups == [tuple(sorted(up)) for up in sorted(rank, key=rank.get)]
        assert len(ups) == count


def test_budget_stops_down_set_spaces_early():
    # M(7) is about 2.4e12 up-sets: at budget 10 its floor 2^35 refuses it
    # before any table is built.  The 168 up-sets of n = 4 (floor 2^6) and
    # the 683,464 shifted families of the (9,4) level pass their floors, so
    # the budget must stop both as they stream.
    with pytest.raises(BudgetExceeded, match="holds at least 2\\^35 instances"):
        verify("t-intersecting-max", "all-up-sets:n=7", params={"t": 2}, budget=10)
    for claim, params, text, budget in (
        ("t-intersecting-max", {"t": 2}, "all-up-sets:n=4", 100),
        ("shifted-structure", None, "all-shifted-families:n=9,k=4", 1000),
    ):
        space = InstanceSpace.parse(text)
        message = f"{space.describe()} exceeded the budget of {budget} instances"
        with pytest.raises(BudgetExceeded) as stop:
            verify(claim, space, params=params, budget=budget)
        assert str(stop.value) == message
        streamed = 0
        with pytest.raises(BudgetExceeded) as stop:
            for _ in iter_space(space, budget=budget):
                streamed += 1
        assert streamed == budget and str(stop.value) == message


def test_closure_spaces_stream_through_one_walk(monkeypatch):
    walks = []
    masks = spaces._ClosureFilter.masks

    def counting(self, lo, hi):
        walks.append((lo, hi))
        return masks(self, lo, hi)

    monkeypatch.setattr(spaces._ClosureFilter, "masks", counting)
    for text in ("all-shifted-families:n=5,k=2", "all-up-sets:n=4", "all-cross-pairs:n=4,a=2,b=2"):
        walks.clear()
        assert sum(1 for _ in iter_space(InstanceSpace.parse(text))) > 1
        assert len(walks) == 1, text


def test_cross_pairs_all_cross_intersecting():
    # the whole stream, in order, against every (A, B) mask pair that is
    # cross-intersecting: each B word meets every A word
    for n, a, b in ((4, 2, 2), (5, 2, 2), (4, 1, 2), (3, 0, 1), (2, 0, 0)):
        words_a, words_b = level_words(n, a), level_words(n, b)
        expected = []
        for amask in range(1 << len(words_a)):
            fam_a = tuple(w for i, w in enumerate(words_a) if amask >> i & 1)
            meet_all = sum(
                1 << j for j, wb in enumerate(words_b) if all(wa & wb for wa in fam_a)
            )
            for bmask in range(1 << len(words_b)):
                if not bmask & ~meet_all:
                    fam_b = tuple(w for j, w in enumerate(words_b) if bmask >> j & 1)
                    expected.append((fam_a, fam_b))
        pairs = iter_space(InstanceSpace.make("all-cross-pairs", n=n, a=a, b=b))
        assert [(fa.members, fb.members) for fa, fb in pairs] == expected, (n, a, b)


def test_random_sample_deterministic():
    space = InstanceSpace.make("random-sample", n=6, k=3, count=20, seed=11)
    one = [f.members for f in iter_space(space)]
    two = [f.members for f in iter_space(space)]
    assert one == two
    other = InstanceSpace.make("random-sample", n=6, k=3, count=20, seed=12)
    assert one != [f.members for f in iter_space(other)]


def test_an_empty_sample_builds_no_level(monkeypatch):
    # count=0 is an empty space, whose C(40,20)-word level is never built
    def refuse(n, k):
        raise AssertionError(f"built the ({n}, {k}) level")

    monkeypatch.setattr(spaces, "level_words", refuse)
    space = InstanceSpace.make("random-sample", n=40, k=20, count=0)
    assert list(iter_space(space)) == []
    # nor the level filter of a claim that has one
    for claim in ("shadow-real-lower", "rwise-diversity", "intersecting-diversity-size"):
        rep = verify(claim, space, jobs=1)
        assert (rep.checked, rep.skipped) == (0, 0)


def test_budget_exceeded_reported():
    space = InstanceSpace.make("all-families", n=6, k=3)
    with pytest.raises(BudgetExceeded):
        list(iter_space(space, budget=1000))
    with pytest.raises(BudgetExceeded):
        verify("shadow-colex-lower", space, budget=1000)


def test_over_budget_spaces_refused_before_prepare(monkeypatch):
    prepared = []
    for claim_id, prepare in list(claims._PREPARE.items()):
        monkeypatch.setitem(
            claims._PREPARE, claim_id,
            lambda space, params, prepare=prepare: prepared.append(space) or prepare(space, params),
        )
    for claim, space in (
        ("shifted-structure", "all-families:n=6,k=3"),                   # generic scan
        ("shadow-colex-lower", "all-families:n=6,k=3"),                  # shadow kernel
        ("graph-avoidance", "all-graphs:n=6"),                           # graph kernel
        ("compression-shadow-monotone", "random-sample:count=100,k=3,n=6"),
    ):
        for jobs in (1, 2):
            with pytest.raises(BudgetExceeded):
                verify(claim, space, jobs=jobs, budget=10)
    assert prepared == []
    # within the budget the check is prepared once in this process, as
    # workers prepare their own
    for jobs in (1, 2):
        verify("shifted-structure", "all-families:n=4,k=2", jobs=jobs)
        assert len(prepared) == 1
        prepared.clear()


def test_constructions_grid_instances():
    space = InstanceSpace.parse("constructions-grid:name=kalai_circle,n=3..7")
    got = list(iter_space(space))
    assert [p["n"] for p, _ in got] == [3, 4, 5, 6, 7]
    assert all(fam is not None for _, fam in got)


# -- the engine ----------------------------------------------------------------


def test_unknown_claim_and_mismatched_space():
    with pytest.raises(ValueError):
        verify("no-such-claim", "all-families:n=4,k=2")
    with pytest.raises(ValueError):
        verify("graph-avoidance", "all-families:n=4,k=2")


def test_shadow_claims_small_exhaustive():
    for claim in ("shadow-colex-lower", "shadow-real-lower"):
        rep = verify(claim, "all-families:n=5,k=2")
        assert rep.violations == 0
        assert rep.checked + rep.skipped == 1 << 10
        assert rep.passed()


def test_report_json_round_trip_and_determinism():
    rep1 = verify("shadow-colex-lower", "all-families:n=4,k=2")
    rep2 = verify("shadow-colex-lower", "all-families:n=4,k=2")
    assert rep1.canonical_json() == rep2.canonical_json()
    again = Report.from_json(rep1.to_json())
    assert again.canonical_json() == rep1.canonical_json()


def test_cross_unbalanced_star_witness():
    rep = verify("cross-unbalanced-size", "all-cross-pairs:a=2,b=2,n=4")
    assert rep.violations == 0
    assert rep.equalities > 0
    star_text = build("star", n=4, k=2).to_text()
    assert any(
        w["A"] == star_text and w["B"] == star_text for w in rep.equality_witnesses
    )


def test_cross_shadow_size_claim():
    rep = verify("cross-shadow-size", "all-cross-pairs:a=2,b=2,n=4")
    assert rep.violations == 0
    assert rep.checked > 0


def test_cross_lex_segments_claim():
    rep = verify("cross-lex-segments", "all-cross-pairs:a=2,b=2,n=4")
    assert rep.violations == 0


def test_cross_pair_checks_compute_once_per_size(monkeypatch):
    space = "all-cross-pairs:n=5,a=2,b=2"
    inv_calls = []
    inv_gbinom = claims.inv_gbinom

    def counting_inv(m, k):
        inv_calls.append(m)
        return inv_gbinom(m, k)

    monkeypatch.setattr(claims, "inv_gbinom", counting_inv)
    rep = verify("cross-shadow-size", space)
    assert rep.checked == 5188
    # the cap depends on |A| alone: one inverse binomial per size of A
    assert len(inv_calls) == len(set(inv_calls)) <= comb(5, 2)

    lex_segment = claims.lex_segment
    for claim in ("cross-lex-segments", "cross-shift-preserves"):
        seg_calls = []

        def counting_segment(n, t, k):
            seg_calls.append((k, t))
            return lex_segment(n, t, k)

        monkeypatch.setattr(claims, "lex_segment", counting_segment)
        assert verify(claim, space).checked == 6212
        # one segment per (side, size): a = b here, so the sides share them
        assert len(seg_calls) == len(set(seg_calls)) <= comb(5, 2) + 1, claim


def test_shifted_correlation_claim_with_full_level_witness():
    rep = verify("shifted-correlation", "all-shifted-families:n=5,k=2")
    assert rep.violations == 0
    shifted_count = len(list(iter_space(InstanceSpace.make("all-shifted-families", n=5, k=2))))
    assert rep.checked == shifted_count**2
    full_text = build("full_level", n=5, k=2).to_text()
    assert any(w["A"] == full_text for w in rep.equality_witnesses)


def test_restriction_boost_claim():
    rep = verify(
        "restriction-boost", "all-shifted-families:n=6,k=3", params={"r": 2, "t": 1}
    )
    assert rep.violations == 0
    assert rep.checked > 0


def test_compression_monotone_claim_random():
    rep = verify(
        "compression-shadow-monotone",
        "random-sample:count=150,k=3,n=7,seed=5",
    )
    assert rep.violations == 0
    assert rep.checked == 150


def test_cross_shift_preserves_claim():
    for n in (4, 5):
        rep = verify("cross-shift-preserves", f"all-cross-pairs:a=2,b=2,n={n}")
        assert rep.violations == 0
        assert rep.checked > 0


def _prep_cross_shift_uncertified(space, params):
    """The cross-shift check as it was before certified states: every pair
    walks all the way to its fixed point."""
    n, a, b = space.get("n"), space.get("a"), space.get("b")

    def check(pair):
        fam_a, fam_b = pair
        size_a, size_b = len(fam_a), len(fam_b)
        try:
            while (step := shifting.cross_lex_shift_step(fam_a, fam_b)) is not None:
                fam_a, fam_b = step[0], step[1]
        except InvariantViolation as exc:
            return "violation", str(exc)
        if len(fam_a) != size_a or len(fam_b) != size_b:
            return "violation", "sizes changed along the shift"
        if fam_a != lex_segment(n, size_a, a) or fam_b != lex_segment(n, size_b, b):
            return "violation", "fixed point is not a pair of lex segments"
        return "ok", None

    return check


def _cross_shift_reports(monkeypatch, space, cap=None):
    """cross-shift-preserves on `space`, with certified states (at most
    `cap` of them when given) and without."""
    if cap is not None:
        monkeypatch.setattr(claims, "MAX_CERTIFIED", cap)
    certified = verify("cross-shift-preserves", space)
    monkeypatch.setitem(claims._PREPARE, "cross-shift-preserves", _prep_cross_shift_uncertified)
    uncertified = verify("cross-shift-preserves", space)
    return certified, uncertified


@pytest.mark.parametrize("nab", [(4, 2, 2), (5, 2, 2), (5, 2, 3)])
def test_certified_cross_shift_matches_full_walks(monkeypatch, nab):
    space = "all-cross-pairs:n={},a={},b={}".format(*nab)
    certified, uncertified = _cross_shift_reports(monkeypatch, space)
    assert certified.checked == uncertified.checked > 0
    assert certified.canonical_json() == uncertified.canonical_json()


def test_failed_walk_certifies_no_state(monkeypatch):
    # a step planted to fail one move before the segments: every pair whose
    # walk passes such a state must fail, not only the first to reach it
    real = shifting.cross_lex_shift_step

    def failing(fam_a, fam_b):
        step = real(fam_a, fam_b)
        if step is not None and real(step[0], step[1]) is None:
            raise InvariantViolation("planted")
        return step

    monkeypatch.setattr(shifting, "cross_lex_shift_step", failing)
    certified, uncertified = _cross_shift_reports(monkeypatch, "all-cross-pairs:n=4,a=2,b=2")
    assert certified.violations > 1
    assert certified.canonical_json() == uncertified.canonical_json()


def test_certified_states_live_for_one_verify(monkeypatch):
    calls = []
    real = shifting.cross_lex_shift_step

    def counting(fam_a, fam_b):
        calls.append(1)
        return real(fam_a, fam_b)

    monkeypatch.setattr(shifting, "cross_lex_shift_step", counting)
    for _ in range(2):
        calls.clear()
        verify("cross-shift-preserves", "all-cross-pairs:n=5,a=2,b=2")
        assert len(calls) == 6212


def test_walks_at_cap_0_match_full_walks(monkeypatch):
    # at cap 0 the certified set certifies nothing, so every walk runs to
    # its end, and the reports are those of the full walks
    for certified, uncertified in (
        _cross_shift_reports(monkeypatch, "all-cross-pairs:n=4,a=2,b=2", cap=0),
        _compression_reports("all-families:n=5,k=2", cap=0),
    ):
        assert certified.checked == uncertified.checked > 0
        assert certified.canonical_json() == uncertified.canonical_json()


def _walk(keys, fail=False):
    """A fake step generator over `keys`, raising at its end when `fail`."""
    for key in keys:
        yield key, None
    if fail:
        raise InvariantViolation("planted")


def test_walk_certified_stops_at_a_seen_key():
    seen = {3}
    walk = _walk([1, 2, 3, 4, 5], fail=True)
    assert claims._walk_certified(walk, seen) == ("ok", None)
    assert next(walk) == (4, None)  # never reached, nor the planted failure
    assert seen == {1, 2, 3}


def test_walk_certified_adds_nothing_for_a_raising_walk():
    seen = {9}
    assert claims._walk_certified(_walk([1, 2], fail=True), seen) == ("violation", "planted")
    assert seen == {9}


def test_walk_certified_keeps_the_set_within_the_cap(monkeypatch):
    cap = 5
    monkeypatch.setattr(claims, "MAX_CERTIFIED", cap)
    rng = random.Random(7)
    seen = set()
    for start in range(0, 1000, 10):
        trail = list(range(start, start + rng.randint(1, 7)))
        assert claims._walk_certified(_walk(trail), seen) == ("ok", None)
        assert len(seen) <= cap
        # a trail within the cap is certified in full, a longer one not at all
        assert set(trail) <= seen if len(trail) <= cap else not seen & set(trail)


def _prep_compression_uncertified(space, params):
    """The compression check without certified states: every family's
    compression walks all the way to its fixed point."""
    @claims._uniform
    def check(fam):
        try:
            shifting.compress_to_colex(fam)
        except InvariantViolation as exc:
            return "violation", str(exc)
        return "ok", None

    return check


def _compression_reports(space, jobs=1, cap=None):
    """compression-shadow-monotone on `space`, with certified states (at
    most `cap` of them when given) and without."""
    claim = "compression-shadow-monotone"
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(claims, "MAX_CERTIFIED", cap)
        certified = verify(claim, space, jobs=jobs)
        mp.setitem(claims._PREPARE, claim, _prep_compression_uncertified)
        uncertified = verify(claim, space, jobs=jobs)
    return certified, uncertified


@pytest.mark.parametrize("space, jobs", [
    ("all-families:n=4,k=2", 1),
    ("all-families:n=5,k=2", 1),
    ("all-families:n=5,k=3", 1),
    ("constructions-grid:k=2..3,n=4..6,name=lex_seg,t=1..6", 1),
    # the first 2,000 families of acceptance criterion 2's sample
    ("random-sample:count=2000,k=3,n=7,seed=31415", 1),
    ("random-sample:count=2000,k=3,n=7,seed=31415", 2),
])
def test_certified_compression_matches_full_walks(space, jobs):
    certified, uncertified = _compression_reports(space, jobs)
    assert certified.checked == uncertified.checked > 0
    assert certified.canonical_json() == uncertified.canonical_json()


@settings(max_examples=40, deadline=None)
@given(level=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       count=st.integers(0, 80), seed=st.integers(0, 1000))
def test_certified_compression_matches_full_walks_on_samples(level, count, seed):
    n, k = level
    certified, uncertified = _compression_reports(
        f"random-sample:count={count},k={k},n={n},seed={seed}")
    assert certified.canonical_json() == uncertified.canonical_json()


def test_failed_compression_certifies_no_state(monkeypatch):
    # a step planted to fail one move before the colex segment, at every
    # even family size: each family whose walk passes such a state must
    # fail, not only the first to reach it, while odd sizes certify states
    real = shifting._mask_violation

    def planted(steps, mask):
        hit = real(steps, mask)
        if hit is not None:
            uv, v = hit[0] | hit[1], hit[1]
            words = steps.words
            present = {words[i] for i in range(len(words)) if mask >> i & 1}
            after = {w ^ uv if w & uv == v and w ^ uv not in present else w
                     for w in present}
            if len(after) % 2 == 0 and after == set(words[:len(after)]):
                return 0, 0  # moves nothing, so the colex rank does not drop
        return hit

    monkeypatch.setattr(shifting, "_mask_violation", planted)
    certified, uncertified = _compression_reports("all-families:n=5,k=2")
    assert 1 < certified.violations < certified.checked
    assert certified.canonical_json() == uncertified.canonical_json()


def test_compression_certified_states_live_for_one_verify(monkeypatch):
    calls = []
    real = shifting._mask_violation

    def counting(steps, mask):
        calls.append(1)
        return real(steps, mask)

    monkeypatch.setattr(shifting, "_mask_violation", counting)
    # the 2^10 families are all the states of the level, and each is
    # searched once; full walks would search 5,243 times
    for _ in range(2):
        calls.clear()
        verify("compression-shadow-monotone", "all-families:n=5,k=2")
        assert len(calls) == 1 << 10


def test_shadow_stability_claim_on_grid():
    rep = verify(
        "shadow-diversity-stability",
        "constructions-grid:k=3..4,n=5..9,name=KK_xy,x=1..6,y=2..6",
    )
    assert rep.violations == 0
    assert rep.checked > 0
    # the construction meets the stability bound with equality everywhere
    assert rep.equalities == rep.checked


def test_ratio_monotone_claim():
    rep = verify(
        "ratio-monotone", "constructions-grid:m=6..14,name=params,s=2..5,t=2..5"
    )
    assert rep.violations == 0
    assert rep.checked > 0
    assert rep.skipped > 0  # the m < s+t-1 corner of the grid


def test_graph_claim_kernel_and_generic_agree():
    kernel_rep = verify("graph-avoidance", "all-graphs:n=5")
    assert kernel_rep.violations == 0
    assert kernel_rep.checked == 768
    # K5 is the unique equality witness on 5 vertices
    assert kernel_rep.equalities == 1
    k5 = build("full_level", n=5, k=2).to_text()
    assert kernel_rep.equality_witnesses == [k5]
    # generic per-instance route on random graphs agrees with the kernel claim
    check = CLAIMS["graph-avoidance"].prepare(
        InstanceSpace.make("all-graphs", n=5), {}
    )
    rng = random.Random(31)
    words = level_words(6, 2)
    for _ in range(400):
        sel = rng.sample(words, rng.randint(1, 12))
        fam = Family(6, sel)
        status, detail = check(fam)
        assert status in ("ok", "equality"), detail


def _graph_scans(n: int) -> tuple[dict, dict]:
    """The graph kernel's and the generic scan's tallies on all-graphs(n)."""
    space = InstanceSpace.make("all-graphs", n=n)
    check = CLAIMS["graph-avoidance"].prepare(space, {})
    kernel = verifier._graph_kernel(check, space, {}, None)
    generic = verifier._scan(CLAIMS["graph-avoidance"], check, space, {}, 1, None)
    return kernel, generic


@pytest.mark.parametrize("n", range(7))
def test_graph_kernel_matches_generic_scan(n):
    kernel, generic = _graph_scans(n)
    assert kernel == generic
    if n == 0:
        # the empty graph is the one instance, and the check skips it
        assert list(iter_space(InstanceSpace.make("all-graphs", n=0))) == [Family(0)]
        assert (kernel["checked"], kernel["skipped"]) == (0, 1)


def test_graph_kernel_features_match_the_check(monkeypatch):
    # With every verdict a violation that spells out its inputs, each
    # graph's recorded detail shows the features its path computed.
    def spell(s, avoided, cover, complete):
        return "violation", f"{s},{avoided},{cover},{complete}"

    monkeypatch.setattr(claims, "_graph_verdict", spell)
    # At the kernel's block size and at a small one: 4 edge masks a block up
    # to n = 5, where the first blocks of n >= 4 hold no graph covering [n],
    # and 2^10 at n = 6, where the MAX_RECORDED cut falls inside a block.
    default = verifier.KERNEL_BLOCK
    for n in range(2, 7):
        space = InstanceSpace.make("all-graphs", n=n)
        check = CLAIMS["graph-avoidance"].prepare(space, {})
        generic = verifier._scan(CLAIMS["graph-avoidance"], check, space, {}, 1, None)
        assert generic["violations"] == generic["checked"]
        assert len(generic["counterexamples"]) == min(verifier.MAX_RECORDED, generic["checked"])
        for block in (default, 4 if n < 6 else 1 << 10):
            monkeypatch.setattr(verifier, "KERNEL_BLOCK", block)
            assert verifier._graph_kernel(check, space, {}, None) == generic
    monkeypatch.setattr(verifier, "KERNEL_BLOCK", 4)
    blocks = [len(graphs) for graphs, _ in verifier._graph_keys(5, level_words(5, 2))]
    assert len(blocks) == 1 << 8 and 0 in blocks and sum(blocks) == 768


@pytest.mark.parametrize("mode", ["colex", "real"])
def test_shadow_kernel_violations_match_the_check(monkeypatch, mode):
    # With every floor above any shadow, each family the bound does not skip
    # is a violation, recorded by the kernel as by the generic scan.
    verdict = claims._shadow_verdict

    def unreachable(mode, n, k, size):
        return None if verdict(mode, n, k, size) is None else (comb(n, k - 1) + 1, True)

    monkeypatch.setattr(claims, "_shadow_verdict", unreachable)
    space = InstanceSpace.make("all-families", n=5, k=2)
    spec = CLAIMS[f"shadow-{mode}-lower"]
    check = spec.prepare(space, {})
    generic = verifier._scan(spec, check, space, {}, 1, None)
    # at the kernel's block size, and at one high row of 32 masks a block,
    # where the MAX_RECORDED cut falls inside the last block
    for block in (verifier.KERNEL_BLOCK, 4):
        monkeypatch.setattr(verifier, "KERNEL_BLOCK", block)
        kernel = verifier._shadow_kernel(check, space, mode)
        assert kernel == generic
        assert kernel["violations"] == {"colex": 1024, "real": 1023}[mode]
        assert len(kernel["counterexamples"]) == verifier.MAX_RECORDED


@pytest.mark.parametrize("mode", ["colex", "real"])
@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (4, 0), (4, 2), (5, 2), (6, 2), (12, 11)])
def test_shadow_kernel_matches_the_scan_across_blocks(monkeypatch, mode, n, k):
    # A few masks a block cuts every level into blocks of one high row.
    # The (6,2) colex scan meets 3,423 equalities, so the MAX_RECORDED cut
    # falls inside a block; the (12,11) shadow level has C(12,10) = 66
    # words, more than one uint64 limb.
    monkeypatch.setattr(verifier, "KERNEL_BLOCK", 4)
    space = InstanceSpace.make("all-families", n=n, k=k)
    spec = CLAIMS[f"shadow-{mode}-lower"]
    check = spec.prepare(space, {})
    kernel = verifier._shadow_kernel(check, space, mode)
    assert kernel == verifier._scan(spec, check, space, {}, 1, None)
    if (mode, n, k) == ("colex", 6, 2):
        assert kernel["equalities"] == 3423


def test_rwise_diversity_exploratory_flag():
    rep = verify("rwise-diversity", "all-families:n=5,k=3", params={"r": 3, "t": 1})
    assert rep.exploratory
    assert rep.violations == 0
    # a grid is in range only when every point is: its least n above
    # max(15, 2(r+t)) times its largest k
    for space, exploratory in (
        ("constructions-grid:name=rwise_example,n=6..8,k=3,r=2,t=1", True),
        ("constructions-grid:k=3..4,n=6..8,name=rwise_example,r=2..3,t=1..2", True),
        ("constructions-grid:k=2,n=31..33,name=params", False),
    ):
        assert verify("rwise-diversity", space).exploratory is exploratory, space


def test_shifted_t_diversity_out_of_range_counterexample():
    # the shifted 2-wise t-intersecting diversity bound genuinely fails out
    # of range: the full 4-level of [6] is 2-wise 2-intersecting with
    # diversity 5 > C(2,1); the verifier must record and re-verify it
    rep = verify(
        "rwise-diversity", "all-shifted-families:n=6,k=4", params={"r": 2, "t": 2}
    )
    assert rep.exploratory
    assert rep.violations > 0
    assert rep.counterexamples
    assert reverify(rep)


def test_matching_diversity_claim():
    rep = verify("matching-diversity-max", "all-families:n=5,k=2", params={"s": 2})
    assert rep.exploratory
    assert rep.violations == 0
    assert rep.equalities >= 1  # the benchmark construction itself


def test_shift_claims_exhaustive_small():
    for claim in ("shift-preserves", "shift-degree-diversity"):
        rep = verify(claim, "all-families:n=4,k=2")
        assert rep.violations == 0
        assert rep.checked == 64


def test_shifted_structure_claim():
    for n, k in ((5, 2), (6, 2), (6, 3)):
        rep = verify("shifted-structure", f"all-shifted-families:k={k},n={n}")
        assert rep.violations == 0
        assert rep.checked > 0


def test_intersecting_diversity_claim_sharp_witness():
    rep = verify("intersecting-diversity-size", "all-shifted-families:n=7,k=3")
    assert rep.violations == 0
    assert rep.checked > 0


def test_t_intersecting_max_claim():
    rep = verify("t-intersecting-max", "all-up-sets:n=4", params={"t": 2})
    assert rep.violations == 0
    assert rep.equalities >= 1


def test_complement_duality_claim():
    rep = verify("complement-duality", "random-sample:count=200,n=10,seed=9")
    assert rep.violations == 0
    assert rep.checked == 200


def test_influence_identity_claim():
    rep = verify("influence-identity", "all-up-sets:n=4")
    assert rep.violations == 0
    assert rep.checked == 167  # every nonempty up-set


def test_complement_duality_exhaustive_small_levels():
    for n, k in ((4, 2), (5, 2), (4, 3)):
        rep = verify("complement-duality", f"all-families:k={k},n={n}")
        assert rep.violations == 0
        assert rep.checked == 1 << comb(n, k)


def test_cross_t_product_bound_on_constructions_and_samples():
    # the product bound |A||B| <= C(n-t, k-t)^2 for cross t-intersecting
    # pairs, treated as a black box in its stated range n >= max(15,t+1)k;
    # the common-t-core pair is the sharp witness, subpairs stay below,
    # and padding (which shifts (n,k,t) by alpha) leaves the bound intact
    from shadowlab.binomials import bound_value, pad_cross_families
    from shadowlab.families import is_cross_t_intersecting, word_of
    from shadowlab.orders import level_words

    rng = random.Random(271828)
    for n, k, t in ((30, 2, 1), (45, 3, 2), (61, 4, 3), (60, 4, 1)):
        cap = bound_value("cross-t-product", n=n, k=k, t=t)
        core = word_of(range(1, t + 1))
        members = [core | (w << t) for w in level_words(n - t, k - t)]
        full = Family(n, members, k=k)
        assert is_cross_t_intersecting([full, full], t)
        assert len(full) ** 2 == cap  # the t-core pair is extremal
        for _ in range(20):
            sub_a = Family(n, rng.sample(members, rng.randint(1, len(members))))
            sub_b = Family(n, rng.sample(members, rng.randint(1, len(members))))
            assert len(sub_a) * len(sub_b) <= cap
    # a padded extremal pair is extremal for the shifted parameters; padding
    # raises the range threshold faster than n, so pad (44,2,1) by 1 to land
    # on (45,3,2), where 45 = max(15, 3) * 3 is still in range
    core_pair = Family(44, [word_of([1]) | (w << 1) for w in level_words(43, 1)], k=2)
    pa, pb = pad_cross_families(core_pair, core_pair, 1)
    assert is_cross_t_intersecting([pa, pb], 2)
    assert len(pa) * len(pb) == bound_value("cross-t-product", n=45, k=3, t=2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=10),
        st.integers(1, n),
    )),
    st.sampled_from([2, 3]),
)
def test_capped_union_search_keeps_the_verdict(case, r):
    n, members, t = case
    fam = Family(n, members)
    assume(len(fam))
    uncapped = claims._max_union_deficit(fam, r)
    capped = claims._max_union_deficit(fam, r, n - t)
    assert (capped <= n - t) == (uncapped <= n - t)
    assert capped <= uncapped
    assert is_r_wise_t_union(fam, r, t) == (uncapped <= n - t)


def test_union_predicate_matches_complement_route():
    from shadowlab.families import complement_family

    rng = random.Random(77)
    for _ in range(120):
        fam = Family(7, {rng.getrandbits(7) for _ in range(rng.randint(1, 12))})
        for r, t in ((2, 1), (3, 2)):
            direct = is_r_wise_t_union(fam, r, t)
            via_complement = is_r_wise_t_intersecting(complement_family(fam), r, t)
            assert direct == via_complement


def test_kalai_claim_and_notes():
    rep = verify("kalai-properties", "constructions-grid:n=3..9,name=kalai_circle")
    assert rep.violations == 0
    assert rep.exploratory
    seq = rep.notes["max_influence"]
    assert seq["3"] == 0.5
    assert rep.notes["max_influence_nonincreasing"]
    assert rep.notes["fitted_constant"] > 0


def test_t_intersecting_diversity_claim():
    rep = verify(
        "t-intersecting-diversity",
        "constructions-grid:n=4..8,name=katona_t,t=1..3",
    )
    assert rep.violations == 0
    assert rep.exploratory
    assert rep.notes["gamma"]
    # a point without a t axis is skipped, as other grid claims skip a missing axis
    rep = verify("t-intersecting-diversity", "constructions-grid:name=kalai_circle,n=3..4")
    assert (rep.checked, rep.skipped) == (0, 2)


def test_parallel_scan_matches_serial():
    for claim, space in (
        ("shifted-structure", "all-families:n=4,k=2"),
        # 1001 samples split unevenly over 2 and 3 workers
        ("compression-shadow-monotone", "random-sample:count=1001,k=3,n=6,seed=4"),
        # the intersecting mask filter, inside workers and on sampled masks
        ("rwise-diversity", "random-sample:count=1001,k=3,n=6,seed=4"),
        # 1,395 equalities: the merge cuts the witness list at MAX_RECORDED
        ("shadow-colex-lower", "random-sample:count=4000,k=2,n=5,seed=1"),
    ):
        assert (claim, space.partition(":")[0]) not in verifier.KERNELS
        serial = verify(claim, space, jobs=1)
        if claim == "shadow-colex-lower":
            assert serial.equalities == 1395
            assert len(serial.equality_witnesses) == verifier.MAX_RECORDED
        assert serial.checked + serial.skipped == space_size(InstanceSpace.parse(space))
        for jobs in (2, 3):
            assert verify(claim, space, jobs=jobs).canonical_json() == serial.canonical_json()


def test_worker_builds_only_its_block(monkeypatch):
    built = []
    init = Family.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    # a check that builds nothing, so every Family counted is an instance
    monkeypatch.setitem(claims._PREPARE, "shifted-structure",
                        lambda space, params: lambda fam: ("ok", None))
    monkeypatch.setattr(Family, "__init__", counting_init)
    lo, hi = 900, 940
    tallies = verifier._worker_scan(
        "shifted-structure", "all-families:k=2,n=5", {}, (lo, hi)
    )
    assert tallies["checked"] == len(built) == hi - lo


# -- mask filters ---------------------------------------------------------------

FILTERED = {
    "shifted-structure": {},
    "restriction-boost": {"r": 2, "t": 1},
    "rwise-diversity": {"r": 3, "t": 1},
    "intersecting-diversity-size": {},
}


def _prepared(claim, n, k):
    space = InstanceSpace.make("all-families", n=n, k=k)
    return CLAIMS[claim].prepare(space, dict(FILTERED[claim], _notes={}))


def _shift_closure(words, mask):
    """The mask with every word below one of its words in the shifting order."""
    present = [w for i, w in enumerate(words) if mask >> i & 1]
    return sum(
        1 << i for i, w in enumerate(words)
        if any(compare(w, v, "shift-partial") in (Ordering.LESS, Ordering.EQUAL)
               for v in present)
    )


def _greedy_intersecting(words, mask):
    """The words of the mask, in index order, kept while they meet every kept word."""
    kept = []
    for i, w in enumerate(words):
        if mask >> i & 1 and w and all(w & v for v in kept):
            kept.append(w)
    return sum(1 << words.index(w) for w in kept)


@st.composite
def level_masks(draw):
    """(n, k, mask) with n <= 8 and k drawn from 0, 1, n and anything
    between.  The mask is raw, the shift closure of at most three words, a
    substar at element 1, or greedily intersecting, so the filters see masks
    they keep, and that the checks do not skip, as well as masks they reject."""
    n = draw(st.integers(0, 8))
    k = draw(st.sampled_from(sorted({0, min(1, n), n, draw(st.integers(0, n))})))
    words = level_words(n, k)
    mask = draw(st.integers(0, (1 << len(words)) - 1))
    shape = draw(st.sampled_from(["raw", "shifted", "star", "intersecting"]))
    if shape == "shifted":
        # words drawn below a random limit, so small closures come up too
        limit = draw(st.integers(0, len(words) - 1))
        picks = draw(st.lists(st.integers(0, limit), max_size=3))
        mask = _shift_closure(words, sum(1 << i for i in set(picks)))
    elif shape == "star":
        mask &= sum(1 << i for i, w in enumerate(words) if w & 1)
    elif shape == "intersecting":
        mask = _greedy_intersecting(words, mask)
    return n, k, mask


@pytest.mark.parametrize("claim", sorted(FILTERED))
@settings(max_examples=200, deadline=None)
@given(level_masks())
def test_mask_filter_rejects_only_skipped_instances(claim, case):
    n, k, mask = case
    check = _prepared(claim, n, k)
    if not check.mask_filter(mask):
        fam = spaces._mask_family(n, k, level_words(n, k), mask)
        assert check(fam)[0] == "skip"


@pytest.mark.parametrize("n,k", [(3, 0), (4, 1), (3, 3), (4, 2), (5, 2), (5, 3), (4, 4)])
def test_mask_filters_are_exact_on_small_levels(n, k):
    words = level_words(n, k)
    shifted = spaces._shifted_filter(n, k)
    intersecting = spaces._intersecting_filter(n, k)
    for mask in range(1 << len(words)):
        fam = spaces._mask_family(n, k, words, mask)
        assert shifted(mask) == is_shifted(fam), mask
        assert intersecting(mask) == is_r_wise_t_intersecting(fam, 2, 1), mask


@settings(max_examples=300, deadline=None)
@given(level_masks(), st.integers(0, 600), st.integers(0, 600))
def test_filter_masks_are_the_kept_masks_of_a_range(case, below, above):
    # a window around a drawn mask, so large levels show kept masks in it too
    n, k, mask = case
    lo, hi = max(0, mask - below), min(1 << comb(n, k), mask + above)
    for keep in (spaces._shifted_filter(n, k), spaces._intersecting_filter(n, k)):
        assert list(keep.masks(lo, hi)) == [m for m in range(lo, hi) if keep(m)]


@st.composite
def closure_tables(draw, exclusions):
    """(table, flip, lo, hi) over up to 8 words: each word's bits below it
    and its own bit drawn at will and, with `exclusions`, pairs of words
    clear in flip that exclude each other, listed at both words."""
    size = draw(st.integers(0, 8))
    flip = draw(st.integers(0, (1 << size) - 1))
    table = [draw(st.integers(0, (2 << i) - 1)) for i in range(size)]
    clear = [i for i in range(size) if not flip >> i & 1]
    if exclusions and len(clear) >= 2:
        for i, j in draw(st.lists(st.sampled_from(list(itertools.combinations(clear, 2))))):
            table[i] |= 1 << j
            table[j] |= 1 << i
    return table, flip, draw(st.integers(0, 1 << size)), draw(st.integers(0, 1 << size))


def _kept_by_definition(table, flip, lo, hi):
    """The masks of [lo, hi) in which no word has a bit of its table entry in
    mask ^ flip."""
    return [
        m for m in range(lo, hi)
        if not any(m >> i & 1 and table[i] & (m ^ flip) for i in range(len(table)))
    ]


@settings(max_examples=300, deadline=None)
@given(closure_tables(exclusions=False))
def test_closure_walk_matches_its_predicate_on_tables_below_each_word(case):
    # any flip and any range: the down-set spaces' tables, with flip full,
    # are the case of the bits below each word that the word requires
    table, flip, lo, hi = case
    keep = spaces._ClosureFilter(len(table), table.__getitem__, flip)
    assert list(keep.masks(lo, hi)) == _kept_by_definition(table, flip, lo, hi)


def _walkable(table, flip):
    """Every bit j above word i is a mutual exclusion: flip clear at i and
    j, and i in the table entry of j."""
    return all(
        not (flip >> i | flip >> j) & 1 and table[j] >> i & 1
        for i in range(len(table)) for j in range(i + 1, len(table)) if table[i] >> j & 1
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(0, 8).flatmap(lambda size: st.tuples(
        st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size),
        st.integers(0, (1 << size) - 1), st.integers(0, 1 << size), st.integers(0, 1 << size))),
    closure_tables(exclusions=True),
))
# a bit above word 0 set in flip, word 0 set in flip, and no partner entry
@example(([0b10, 0b01], 0b10, 0, 4))
@example(([0b10, 0b01], 0b01, 0, 4))
@example(([0b10, 0b00], 0b00, 0, 4))
def test_any_closure_filter_enumerates_its_predicate(case):
    # any table and flip: the walk refuses a table with a bit above a word
    # that is not a mutual exclusion, and enumerates the predicate's masks
    # on every other, mutual exclusions above a word drawn on purpose
    table, flip, lo, hi = case
    keep = spaces._ClosureFilter(len(table), table.__getitem__, flip)
    if not _walkable(table, flip):
        with pytest.raises(ValueError, match="not a mutual exclusion"):
            next(keep.masks(lo, hi))
        return
    assert list(keep.masks(lo, hi)) == [m for m in range(lo, hi) if keep(m)]


@pytest.mark.parametrize("n,k", [(3, 0), (4, 1), (3, 3), (4, 2), (5, 2), (5, 3), (4, 4)])
def test_filter_masks_are_exact_on_small_levels(n, k):
    # every range of a level of up to 64 masks; of a larger level every
    # prefix, every suffix and every range of up to 16 masks
    total = 1 << comb(n, k)
    for keep in (spaces._shifted_filter(n, k), spaces._intersecting_filter(n, k)):
        kept = [m for m in range(total) if keep(m)]
        for lo in range(total + 1):
            for hi in range(lo, total + 1):
                if total <= 64 or lo == 0 or hi == total or hi - lo <= 16:
                    at = bisect.bisect_left
                    assert list(keep.masks(lo, hi)) == kept[at(kept, lo):at(kept, hi)], (lo, hi)


class _CountingBound(int):
    """An int that counts the comparisons made with it."""

    calls = 0

    def __le__(self, other):
        _CountingBound.calls += 1
        return int(self) <= other

    def __ge__(self, other):
        _CountingBound.calls += 1
        return int(self) >= other


def test_closure_walk_drops_prefixes_below_its_range(monkeypatch):
    # The walk drops a stacked prefix that ends at or below lo, so the top
    # 2^12 masks of the (6,3) level cost 130 comparisons with lo.  A walk
    # that went on through every kept mask below lo would compare each of
    # the level's 59,049 kept masks with lo.
    monkeypatch.setattr(_CountingBound, "calls", 0)
    keep = spaces._intersecting_filter(6, 3)
    total = 1 << 20
    lo = total - (1 << 12)
    kept = list(keep.masks(0, total))
    assert list(keep.masks(_CountingBound(lo), total)) == kept[bisect.bisect_left(kept, lo):]
    assert _CountingBound.calls < 1000


def test_filtered_level_scans_enumerate_instead_of_testing_masks(monkeypatch):
    def refuse(self, mask):
        raise AssertionError(f"an all-families scan tested mask {mask}")

    # forked workers inherit the patch too
    monkeypatch.setattr(spaces._ClosureFilter, "__call__", refuse)
    for claim, (n, k) in itertools.product(sorted(FILTERED), ((5, 2), (5, 3), (6, 3))):
        space = InstanceSpace.make("all-families", n=n, k=k)
        serial = verify(claim, space, FILTERED[claim], jobs=1)
        assert serial.checked + serial.skipped == 1 << comb(n, k)
        for jobs in (2, 3):
            rep = verify(claim, space, FILTERED[claim], jobs=jobs)
            assert rep.canonical_json() == serial.canonical_json(), (claim, n, k, jobs)
        if n == 5:
            # the reference: every family of the level through the check alone
            check = CLAIMS[claim].prepare(space, dict(FILTERED[claim], _notes={}))
            reference = verifier._check_stream(check, iter_space(space))
            assert {key: getattr(serial, key) for key in reference} == reference


def test_filtered_claims_carry_their_filter_only_on_level_masks():
    for claim in FILTERED:
        assert _prepared(claim, 5, 2).mask_filter(0)
        spec = CLAIMS[claim]
        for text in ("all-shifted-families:n=5,k=2", "random-sample:count=3,n=5"):
            check = spec.prepare(InstanceSpace.parse(text), dict(FILTERED[claim], _notes={}))
            assert not hasattr(check, "mask_filter")
    # r below 2 or t below 1 is left to the check's own error
    space = InstanceSpace.make("all-families", n=5, k=2)
    check = CLAIMS["rwise-diversity"].prepare(space, {"r": 1, "t": 1, "_notes": {}})
    assert not hasattr(check, "mask_filter")


def test_shifted_scan_builds_only_shifted_families(monkeypatch):
    built = []
    mask_family = spaces._mask_family

    def counting(*args):
        built.append(args[-1])
        return mask_family(*args)

    monkeypatch.setattr(spaces, "_mask_family", counting)
    rep = verify("shifted-structure", "all-families:n=6,k=3", jobs=1)
    # the (6,3) level has 66 shifted families, and only they are built
    assert len(built) == rep.checked == 66
    assert rep.skipped == (1 << 20) - 66


class InlineContext:
    """A multiprocessing context that counts the processes it starts and
    runs each one at once, in this process, through a list as its pipe."""

    def __init__(self):
        self.started = 0

    def Pipe(self, duplex):
        box = []
        end = SimpleNamespace(send=box.append, recv=box.pop, close=lambda: None)
        return end, end

    def Process(self, target, args, daemon):
        def start():
            self.started += 1
            target(*args)

        return SimpleNamespace(start=start, is_alive=lambda: False, join=lambda: None)


def test_worker_count_is_capped(monkeypatch):
    opened = []

    def get_context():
        opened.append(InlineContext())
        return opened[-1]

    # the scan imports multiprocessing and takes its default context when it starts workers
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
    serial = verify("shifted-structure", "all-families:n=4,k=2", jobs=1)
    for jobs in (3, 1000):
        rep = verify("shifted-structure", "all-families:n=4,k=2", jobs=jobs)
        assert rep.canonical_json() == serial.canonical_json()
    assert verify("shift-preserves", "random-sample:count=3,k=2,n=4", jobs=1000).checked == 3
    # min(jobs, CPUs, instances) processes, this one counted: 3 jobs; 4 CPUs; 3 instances
    assert [ctx.started + 1 for ctx in opened] == [3, 4, 3]
    # an empty sample, or one instance, starts no process
    for count in (0, 1):
        rep = verify("shift-preserves", f"random-sample:count={count},k=2,n=4", jobs=1000)
        assert rep.checked == count
    assert [ctx.started + 1 for ctx in opened] == [3, 4, 3]


# the full (5,2) family is in the last block, a child's; the empty one in block 0, this process's
@pytest.mark.parametrize("members", [10, 0])
def test_a_worker_failure_reaches_the_caller(monkeypatch, members):
    from shadowlab import cli

    def prepare(space, params):
        def check(fam):
            if len(fam) == members:
                raise InvariantViolation(f"planted failure on {len(fam)} members")
            return "ok", None

        return check

    # forked workers inherit the planted check
    monkeypatch.setitem(claims._PREPARE, "shifted-structure", prepare)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    with pytest.raises(InvariantViolation, match="planted failure"):
        verify("shifted-structure", "all-families:n=5,k=2", jobs=2)
    assert multiprocessing.active_children() == []
    argv = ["verify", "--claim", "shifted-structure", "--space", "all-families:n=5,k=2", "--jobs", "2"]
    assert cli.main(argv) == 70
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_named_by_its_exit_code(monkeypatch):
    # the full (5,2) family is in the second block, which a child checks
    def prepare(space, params):
        return lambda fam: verifier.os._exit(3) if len(fam) == 10 else ("ok", None)

    monkeypatch.setitem(claims._PREPARE, "shifted-structure", prepare)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="exit code 3"):
        verify("shifted-structure", "all-families:n=5,k=2", jobs=2)
    assert multiprocessing.active_children() == []


def test_shadow_kernel_matches_generic_scan():
    for claim, k in itertools.product(("shadow-colex-lower", "shadow-real-lower"), (2, 0)):
        space = InstanceSpace.make("all-families", n=4, k=k)
        via_kernel = verify(claim, space)
        check = CLAIMS[claim].prepare(space, {})
        generic = verifier._scan(CLAIMS[claim], check, space, {"_notes": {}}, 1, None)
        assert via_kernel.checked == generic["checked"]
        assert via_kernel.skipped == generic["skipped"]
        assert via_kernel.violations == generic["violations"]
        assert via_kernel.equalities == generic["equalities"]
        assert via_kernel.equality_witnesses == generic["equality_witnesses"]


# -- the cross-pair stability scan ----------------------------------------------


def test_cross_pair_space_n6_all_pairs_sit_at_threshold():
    rep = verify_cross_pair_space(6, 3, 3, u=3, v=3)
    # at n = a+b the complement pairing pins every hypothesis pair to the
    # exact thresholds, so the strictness flag skips them all
    assert rep.violations == 0
    assert rep.checked == 0
    assert rep.skipped == comb(20, 10)
    entry = rep.expected_boundary[0]
    assert entry["violates_diversity_conclusion"]
    assert entry["meets_size_thresholds"]


def test_cross_pair_space_vacuous_small():
    # thresholds out of the theorem range still run, reported exploratory
    rep = verify_cross_pair_space(4, 2, 2, u=3, v=3)
    assert rep.violations == 0
    assert rep.checked == 0
    assert rep.exploratory


def test_cross_pair_space_validation():
    with pytest.raises(ValueError):
        verify_cross_pair_space(5, 2, 2, u=2, v=3)  # u < 3
    with pytest.raises(ValueError):
        verify_cross_pair_space(4, 3, 3, u=3, v=3)  # n < a+b


def test_stability_thresholds_stay_within_the_levels():
    # thr_a <= C(n-1,a-1) + C(n-u-1,n-a-1) <= C(n,a), and so for B: the
    # cross-stability kernel never starts past a level's size
    for n in range(2, 14):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                space = InstanceSpace.make("all-cross-pairs", n=n, a=a, b=b)
                for u, v in itertools.product(range(3, 9), repeat=2):
                    thr_a, thr_b, _, _ = claims._stability_thresholds(space, {"u": u, "v": v})
                    assert thr_a <= comb(n, a) and thr_b <= comb(n, b), (n, a, b, u, v)
                    # where the claim runs, a, b >= 2, every A-side the kernel
                    # walks has a member: C(n-1,a-1) > C(n-v-1,a-1), and so for B
                    if a >= 2 and b >= 2:
                        assert thr_a >= 1 and thr_b >= 1, (n, a, b, u, v)


def test_stability_thresholds_match_the_registry():
    # the claim computes its own thresholds, as it also runs outside the
    # stated range; inside it they are the registry's cross-pair-size
    compared = 0
    for n in range(2, 16):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                space = InstanceSpace.make("all-cross-pairs", n=n, a=a, b=b)
                for u, v in itertools.product(range(3, 9), repeat=2):
                    thr_a, thr_b, _, _ = claims._stability_thresholds(space, {"u": u, "v": v})
                    for thr, size, uu, vv in ((thr_a, a, u, v), (thr_b, b, v, u)):
                        try:
                            expected = bound_value("cross-pair-size", n=n, a=size, u=uu, v=vv)
                        except ValueError:
                            continue
                        assert thr == expected, (n, a, b, u, v)
                        compared += 1
    assert compared == 6300


def test_stability_check_reaches_every_verdict(monkeypatch):
    # at (7,3,3) both thresholds are 13 and both caps 1; S(x) is the 15
    # 3-sets of [7] that hold x
    space = InstanceSpace.make("all-cross-pairs", n=7, a=3, b=3)
    spec = CLAIMS["cross-diversity-stability"]
    assert claims._stability_thresholds(space, {"u": 3, "v": 3}) == (13, 13, 1, 1)
    check = spec.prepare(space, {"u": 3, "v": 3, "_notes": {}})
    star = {x: [w for w in level_words(7, 3) if w >> (x - 1) & 1] for x in (1, 2)}
    s1 = Family(7, star[1])
    assert check((s1, s1)) == ("ok", None)
    assert check((s1, Family(7, star[1][:14] + [word_of((2, 3, 4))]))) == (
        "violation", "diversity(B)=1 >= 1")
    assert check((s1, Family(7, star[2]))) == (
        "violation", "largest-degree elements differ between the sides")
    # at caps 1 a side below its cap is a star, whose top element is unique;
    # thresholds 1 and caps 2 reach the uniqueness test
    monkeypatch.setattr(claims, "_stability_thresholds", lambda space, params: (1, 1, 2, 2))
    check = spec.prepare(space, {"u": 3, "v": 3, "_notes": {}})
    fam_a = Family(7, [word_of((1, 2, 3))])
    fam_b = Family(7, [word_of((1, 2, 4)), word_of((1, 2, 5))])
    assert check((fam_a, fam_b)) == ("violation", "largest-degree element is not unique")


def test_cross_pair_claim_via_engine():
    assert "cross-diversity-stability" in CLAIMS
    rep = verify(
        "cross-diversity-stability",
        "all-cross-pairs:a=3,b=3,n=6",
        params={"u": 3, "v": 3},
    )
    assert rep.violations == 0
    assert rep.expected_boundary


def test_cross_stability_kernel_matches_generic_scan():
    space = InstanceSpace.make("all-cross-pairs", n=5, a=2, b=2)
    via_kernel = verify("cross-diversity-stability", space)
    params = {"u": 3, "v": 3, "_notes": {}}
    spec = CLAIMS["cross-diversity-stability"]
    generic = verifier._scan(spec, spec.prepare(space, params), space, params, 1, None)
    assert via_kernel.exploratory
    assert via_kernel.checked == generic["checked"] == 45
    assert via_kernel.violations == generic["violations"] == 45
    assert sorted(json.dumps(e, sort_keys=True) for e in via_kernel.counterexamples) == sorted(
        json.dumps(e, sort_keys=True) for e in generic["counterexamples"]
    )
    # skipped differs by design: the generic scan counts every one of the
    # 6,212 pairs, the kernel never reaches the pairs below the thresholds
    assert generic["checked"] + generic["skipped"] == 6212
    assert via_kernel.skipped < generic["skipped"]


def _cross_stability_loop(check, space, params, budget):
    """The cross-stability kernel's loop as it was before its early stop:
    every A-side of every size at or above the threshold, its room taken
    member by member.  Returns the tallies and, per A size, the number of
    A-sides with room for the B threshold."""
    thr_a, thr_b, _, _ = claims._stability_thresholds(space, params)
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    words_a, words_b = level_words(n, a), level_words(n, b)
    la, lb = len(words_a), len(words_b)
    meets = level(n, a).meets(b)
    roomy = {}
    at_thresholds = 0

    def pairs():
        nonlocal at_thresholds
        for size_a in range(thr_a, la + 1):
            roomy[size_a] = 0
            for combo in itertools.combinations(range(la), size_a):
                bmax = (1 << lb) - 1
                for idx in combo:
                    bmax &= meets[idx]
                    if bmax == 0:
                        break
                room = bmax.bit_count()
                if room < thr_b:
                    continue
                roomy[size_a] += 1
                least_b = thr_b
                if size_a == thr_a:
                    at_thresholds += comb(room, thr_b)
                    least_b += 1
                bbits = [j for j in range(lb) if bmax >> j & 1]
                fam_a = Family(n, (words_a[i] for i in combo), k=a)
                for size_b in range(least_b, room + 1):
                    for bcombo in itertools.combinations(bbits, size_b):
                        yield fam_a, Family(n, (words_b[j] for j in bcombo), k=b)

    feasible = thr_a <= la and thr_b <= lb
    tallies = verifier._check_stream(check, pairs() if feasible else ())
    tallies["skipped"] += at_thresholds
    return tallies, roomy


@pytest.mark.parametrize("nab", [(5, 2, 2), (6, 2, 2), (6, 2, 3), (6, 3, 3), (7, 2, 2)])
def test_cross_stability_kernel_matches_full_loop(nab):
    space = InstanceSpace.make("all-cross-pairs", n=nab[0], a=nab[1], b=nab[2])
    spec = CLAIMS["cross-diversity-stability"]
    params = {"u": 3, "v": 3, "_notes": {}}
    check = spec.prepare(space, params)
    expected, roomy = _cross_stability_loop(check, space, params, None)
    assert verifier._cross_stability_kernel(check, space, params, Meter(space)) == expected
    # the kernel stops at the first size without room: no later size has any
    sizes = sorted(roomy)
    dead = [size for size in sizes if not roomy[size]]
    assert all(not roomy[size] for size in sizes if dead and size > dead[0])


@pytest.mark.parametrize(
    "nab", [(5, 2, 2), (6, 2, 2), (6, 2, 3), (6, 3, 2), (6, 3, 3), (7, 2, 3), (7, 3, 2)]
)
def test_max_room_is_the_largest_room_of_each_size(nab):
    # the Kruskal–Katona bound against every A-side of each size small enough to list
    n, a, b = nab
    meets = level(n, a).meets(b)
    la, lb = len(meets), comb(n, b)
    best = verifier._max_room(meets, lb)
    assert len(best) == la + 1
    full = (1 << lb) - 1
    for size in range(la + 1):
        if comb(la, size) > 2 * 10**5:
            continue
        rooms = (
            functools.reduce(operator.and_, combo, full).bit_count()
            for combo in itertools.combinations(meets, size)
        )
        assert best[size] == max(rooms), (nab, size)


@pytest.mark.parametrize("claim, space, work, tallies", [
    # at (6,3,3) the stability walk takes 352,715 nodes that extend a prefix
    # and hands no pair to the check: the C(20,10) A-sides of size 10 all
    # sit at both thresholds, and size 11 is cut by the bound, unwalked
    ("cross-diversity-stability", "all-cross-pairs:a=3,b=3,n=6", 352_715, (0, 184_756)),
    # at (5,2,2) 237 nodes, then the 45 pairs it hands to the check
    ("cross-diversity-stability", "all-cross-pairs:a=2,b=2,n=5", 237 + 45, (45, 150)),
    # 66 shifted (6,3) families stream, then 66 rows of 66 ordered pairs
    ("shifted-correlation", "all-shifted-families:k=3,n=6", 66 + 66 * 66, (4356, 0)),
], ids=["stability", "stability-pairs", "correlation"])
def test_pair_kernel_budget_boundaries(claim, space, work, tallies):
    rep = verify(claim, space, budget=work)
    assert (rep.checked, rep.skipped) == tallies
    with pytest.raises(BudgetExceeded) as stop:
        verify(claim, space, budget=work - 1)
    assert str(stop.value) == f"{space} exceeded the budget of {work - 1} instances"


def test_only_the_meter_holds_the_budget():
    # verify builds one spaces.Meter and hands it down; the engine only
    # ticks it, and in spaces the meter alone reads the cap and raises
    for name, obj in vars(verifier).items():
        if getattr(obj, "__module__", None) == verifier.__name__:
            source = inspect.getsource(obj)
            for word in ("_effective_budget", "_refuse_over_budget", "raise BudgetExceeded"):
                assert word not in source, (name, word)
    holders = {
        name for name, obj in vars(spaces).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and getattr(obj, "__module__", None) == spaces.__name__
        and any(word in inspect.getsource(obj)
                for word in ("raise BudgetExceeded", "DEFAULT_BUDGET", "SHADOWLAB_BUDGET"))
    }
    assert holders == {"Meter"}


def test_one_cache_of_level_tables():
    # orders.level builds one orders.Level per (n, k), and it owns every
    # table read on a level: the step tables, the meets masks and the colex
    # shadow sizes.  The module-level caches that stay: level itself;
    # level_words, which the benchmark clears and traces by name;
    # families._cube_masks, a table over 2^[n] keyed by n alone; and the
    # verdict caches _shadow_verdict and _graph_verdict, which hold verdicts
    # and no level table.
    import importlib
    import pkgutil

    import shadowlab

    cached = set()
    for info in pkgutil.iter_modules(shadowlab.__path__):
        module = importlib.import_module(f"shadowlab.{info.name}")
        for name in ("_LevelSteps", "_level_steps", "_colex_shadow_table", "_cross_meets"):
            assert not hasattr(module, name), (info.name, name)
        cached |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                   if hasattr(obj, "cache_info")
                   and getattr(obj, "__module__", None) == module.__name__}
    assert cached == {"orders.level", "orders.level_words", "families._cube_masks",
                      "claims._shadow_verdict", "claims._graph_verdict"}
    for fn in (spaces._shifted_filter, spaces._intersecting_filter):
        assert not hasattr(fn, "cache_info"), fn.__name__
    for module in (shifting, spaces):
        assert "lru_cache" not in inspect.getsource(module), module.__name__


def test_each_rule_written_once():
    # one colex successor, one U<-V step on a Family, no second way to get a
    # meter, and no float values in the name:k=v grammar
    import importlib
    import pkgutil

    import shadowlab

    for info in pkgutil.iter_modules(shadowlab.__path__):
        module = importlib.import_module(f"shadowlab.{info.name}")
        assert not hasattr(module, "_daykin_pairs"), info.name
    assert not hasattr(spaces.Meter, "of")
    assert inspect.getsource(orders).count("ripple = w + low") == 1
    assert spaces._parse_value("2.5") == "2.5"


def _correlation_cases():
    for n, k in ((5, 2), (6, 2), (6, 3), (7, 3)):
        space = InstanceSpace.make("all-shifted-families", n=n, k=k)
        check = CLAIMS["shifted-correlation"].prepare(space, {"_notes": {}})
        fams = list(iter_space(space))
        yield space, check, verifier._check_stream(check, itertools.product(fams, fams))


def test_only_the_tally_reads_the_recording_cut():
    # every kernel and the generic scan record through verifier._record;
    # _scan's merge cuts the workers' serialized lists by the same rule
    readers = {
        name for name, fn in vars(verifier).items()
        if inspect.isfunction(fn) and fn.__module__ == verifier.__name__
        and "MAX_RECORDED" in inspect.getsource(fn)
    }
    assert readers == {"_record", "_scan"}
    for fn in (verifier._check_stream, verifier._shadow_kernel, verifier._graph_kernel,
               verifier._correlation_pairs_kernel, verifier._cross_stability_kernel):
        source = inspect.getsource(fn)
        for word in ("MAX_RECORDED", '"counterexamples"', '"equality_witnesses"'):
            assert word not in source, (fn.__name__, word)


def test_correlation_kernel_matches_the_check_on_every_pair():
    for space, check, expected in _correlation_cases():
        assert verifier._correlation_pairs_kernel(check, space, {}, Meter(space)) == expected
    # (7,3) has more equalities than a report records
    assert expected["equalities"] == 1404 > verifier.MAX_RECORDED


def test_correlation_kernel_records_violations_as_the_check_does(monkeypatch):
    # a stricter bound, read by the check and the kernel alike, makes violations
    bound = claims._correlation_verdict
    monkeypatch.setattr(
        claims, "_correlation_verdict", lambda inter, s1, s2, total: bound(inter, s1 + 1, s2, total)
    )
    for space, check, expected in _correlation_cases():
        assert expected["violations"] > 0
        assert verifier._correlation_pairs_kernel(check, space, {}, Meter(space)) == expected
    assert expected["violations"] > verifier.MAX_RECORDED


def test_pair_kernels_load_no_numpy():
    # numpy would lift the search-spaces pass's peak RSS by about 10 MB
    probe = (
        "import sys\n"
        "from shadowlab.verifier import verify\n"
        "verify('shifted-correlation', 'all-shifted-families:n=6,k=3')\n"
        "verify('cross-diversity-stability', 'all-cross-pairs:n=6,a=3,b=3')\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_compression_walk_loads_no_numpy():
    # numpy would lift the compress pass's set-up time and peak RSS
    probe = (
        "import sys\n"
        "from shadowlab.verifier import verify\n"
        "verify('compression-shadow-monotone', 'all-families:n=5,k=2')\n"
        "verify('compression-shadow-monotone', 'random-sample:count=200,k=3,n=7,seed=7')\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cross_stability_reverify():
    rep = verify_cross_pair_space(5, 2, 2, u=3, v=3)
    assert rep.violations == 45
    assert reverify(rep)
    body = rep.to_dict()
    # a pair below both size thresholds cannot violate the claim
    body["counterexamples"][0] = {
        "instance": {"A": "n=5 k=2\n1,2\n", "B": "n=5 k=2\n1,3\n"},
        "detail": "swapped",
    }
    assert not reverify(body)


@pytest.mark.parametrize("claim, space, params", [
    ("rwise-diversity", "all-families:n=4,k=2", {"r": 2.5}),
    ("rwise-diversity", "all-families:n=4,k=2", {"R": 2}),
    ("rwise-diversity", "all-families:n=4,k=2", {"r": ("range", 1, 3)}),
    ("shifted-structure", "all-families:n=4,k=2", {"x": 1}),
    ("intersecting-diversity-size", "all-families:n=4,k=2", {"u": 3}),
    ("cross-diversity-stability", "all-cross-pairs:n=5,a=2,b=2", {"u": 3.9}),
])
def test_verify_refuses_undeclared_and_non_integer_parameters(claim, space, params):
    with pytest.raises(ValueError, match=f"claim '{claim}'"):
        verify(claim, space, params=params, jobs=1)


def test_checked_params_merge_the_defaults():
    spec = CLAIMS["rwise-diversity"]
    assert spec.checked_params(None) == {"r": 3, "t": 1}
    assert spec.checked_params({"r": 2}) == {"r": 2, "t": 1}
    assert CLAIMS["shifted-structure"].checked_params({}) == {}


def test_reverify_checks_the_label_parameters():
    rep = verify("rwise-diversity", "all-shifted-families:n=6,k=4", params={"r": 2, "t": 2})
    assert rep.claim == "rwise-diversity:r=2,t=2"
    assert reverify(rep)
    # the label's parameters are checked as verify checks them, and a
    # malformed token is refused rather than skipped
    for label in (
        "rwise-diversity:r=2.5,t=2",
        "rwise-diversity:R=2,r=2,t=2",
        "rwise-diversity:r=2,,t=2",
        "rwise-diversity:r=2,t",
    ):
        with pytest.raises(ValueError):
            reverify(dict(rep.to_dict(), claim=label))


def test_reverify_refuses_an_unknown_claim():
    body = verify("shifted-structure", "all-families:n=4,k=2").to_dict()
    for call in (lambda: reverify(dict(body, claim="no-such-claim")),
                 lambda: verify("no-such-claim", "all-families:n=4,k=2")):
        with pytest.raises(ValueError, match="unknown claim 'no-such-claim'; know"):
            call()


def test_labels_share_the_space_grammar():
    for text, parsed in (
        ("rwise-diversity:r=2,t=1", ("rwise-diversity", {"r": 2, "t": 1})),
        ("shifted-structure", ("shifted-structure", {})),
        ("constructions-grid:n=3..5,name=star",
         ("constructions-grid", {"n": ("range", 3, 5), "name": "star"})),
    ):
        assert spaces._parse_label(text) == parsed
        assert spaces._label(*parsed) == text
    with pytest.raises(ValueError):
        InstanceSpace.parse("all-families:n=4,,k=2")


def test_instance_payloads_round_trip():
    fam = build("star", n=4, k=2)
    pair = (fam, build("full_level", n=4, k=2))
    for inst in (fam, pair, ({"n": 4, "k": 2}, fam), ({"m": 5}, None)):
        payload = json.loads(json.dumps(verifier._instance_payload(inst)))
        assert verifier._instance_from_payload(payload) == inst


def test_reverify_replays_grid_points(monkeypatch):
    def unreachable(mode, n, k, size):
        return comb(n, k - 1) + 1, True

    monkeypatch.setattr(claims, "_shadow_verdict", unreachable)
    rep = verify("shadow-colex-lower", "constructions-grid:k=2,n=4..5,name=star")
    assert rep.violations == 2
    assert reverify(rep)
    # the check skips a grid point without a family: it violates nothing
    body = rep.to_dict()
    body["counterexamples"][0]["instance"]["family"] = None
    assert not reverify(body)
