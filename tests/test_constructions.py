"""Named extremal constructions: member formulas, sharpness values, tie rules."""

import itertools
from math import comb

import pytest

from shadowlab.binomials import bound_value
from shadowlab.constructions import (
    a2_family,
    build,
    kalai_circle,
    kalai_member,
    katona_family,
    kk_family,
    l_family,
    run_sequences,
    rwise_family,
)
from shadowlab.diversity import diversity, is_up_closed, kk_diversity, s_diversity
from shadowlab.families import (
    Family,
    elements_of,
    is_r_wise_t_intersecting,
    matching_number,
    shadow,
    word_of,
)
from shadowlab.orders import colex_segment, level_words, lex_segment


def test_star_and_full_level():
    assert len(build("star", n=6, k=3)) == comb(5, 2)
    assert len(build("full_level", n=6, k=3)) == comb(6, 3)


def test_l_family_size_and_diversity():
    l33 = build("L_uv", n=7, k=3, u=3, v=3)
    assert len(l33) == 13
    assert diversity(l33).value == 1


def test_l_family_matches_threshold_formula_grid():
    for a in (3, 4):
        for u in range(3, a + 1):
            for v in range(3, a + 1):
                for n in range(2 * a, 13):
                    fam = l_family(n, a, u, v)
                    expect = bound_value("cross-pair-size", n=n, a=a, u=u, v=v)
                    assert len(fam) == expect
                    assert diversity(fam).value == comb(n - u - 1, n - a - 1)


def test_l_family_cross_intersecting_pairs():
    from shadowlab.families import is_cross_t_intersecting

    for n, a, b, u, v in ((7, 3, 4, 3, 3), (8, 4, 4, 3, 4), (10, 4, 3, 4, 3)):
        fam_a = l_family(n, a, u, v)
        fam_b = l_family(n, b, v, u)
        assert is_cross_t_intersecting([fam_a, fam_b], 1)


def test_l22_same_size_much_larger_diversity():
    for n, k in ((7, 3), (8, 3), (9, 4)):
        l22 = l_family(n, k, 2, 2)
        l33 = l_family(n, k, 3, 3)
        assert len(l22) == len(l33)
        assert diversity(l22).value > comb(n - 4, n - k - 1)


def test_kk_family_counts_and_shadow():
    kk = build("KK_xy", n=6, k=3, x=2, y=3)
    assert kk.n == 7 and kk.k == 3
    assert len(kk) == 20
    assert len(shadow(kk, 2)) == 17


def test_kk_family_hypotheses_hold_with_equality_grid():
    for k in (3, 4):
        for n in range(k + 2, 10):
            for x in range(k - 1, n - 2):
                for y in range(n - k, n - 2):
                    fam = kk_family(n, k, x, y)
                    assert len(fam) == bound_value(
                        "shadow-stability-size", n=n, k=k, x=x, y=y
                    )
                    assert kk_diversity(fam, n).value == comb(x, k - 1)
                    assert len(shadow(fam, k - 1)) == bound_value(
                        "shadow-stability", n=n, k=k, x=x, y=y
                    )


def test_kk_33_equals_22_in_size():
    # the sizes agree exactly in the symmetric regime n = 2k-1 (and in the
    # wide regime where both corrections vanish); elsewhere they differ
    for n, k in ((5, 3), (7, 4), (9, 5), (11, 6)):
        assert len(kk_family(n, k, 3, 3)) == len(kk_family(n, k, 2, 2))
    assert len(kk_family(10, 5, 3, 3)) == len(kk_family(10, 5, 2, 2))
    assert len(kk_family(7, 3, 3, 3)) != len(kk_family(7, 3, 2, 2))


def test_a2_family():
    a2 = a2_family(9, 2, 2)
    assert {frozenset(elements_of(x)) for x in a2} == {
        frozenset(pair) for pair in itertools.combinations(range(1, 6), 2)
    }
    assert matching_number(a2) == 2
    assert s_diversity(a2, 2).value == 3


def test_a2_benchmark_identity():
    # s-diversity of the construction equals its restriction away from [s]
    from shadowlab.families import trace

    for n, k, s in ((9, 2, 2), (9, 3, 2), (11, 3, 3)):
        fam = a2_family(n, k, s)
        head = word_of(range(1, s + 1))
        assert s_diversity(fam, s).value == len(trace(fam, 0, head))


def test_rwise_family_spot():
    fam = rwise_family(9, 4, 3, 1)
    direct = [
        w for w in level_words(9, 4) if (w & 0b1111).bit_count() >= 3
    ]
    assert list(fam.members) == sorted(direct)
    assert is_r_wise_t_intersecting(fam, 3, 1)


def test_rwise_family_large_ground():
    fam = rwise_family(61, 4, 3, 1)
    assert len(fam) == 4 * 57 + 1
    assert diversity(fam).value == 57


def test_rwise_family_diversity_formula_spot_grid():
    for n, k, r, t in ((9, 4, 3, 1), (12, 5, 3, 2), (10, 4, 4, 1), (30, 5, 3, 2)):
        fam = rwise_family(n, k, r, t)
        assert is_r_wise_t_intersecting(fam, r, t)
        assert diversity(fam).value == comb(n - r - t, k - r - t + 1)


def test_katona_families_meet_bound():
    for n in range(2, 13):
        for t in range(1, min(4, n) + 1):
            fam = katona_family(n, t)
            assert len(fam) == bound_value("t-intersecting-size", n=n, t=t)
            assert is_up_closed(fam)


def test_katona_families_are_t_intersecting():
    for n, t in ((4, 2), (5, 2), (6, 3), (7, 2), (8, 4), (9, 3)):
        fam = katona_family(n, t)
        assert is_r_wise_t_intersecting(fam, 2, t)


def test_run_sequences():
    assert run_sequences(word_of([1, 2, 4]), 5) == ((2, 1), (1, 1))
    assert run_sequences(word_of([1, 5]), 5) == ((2,), (3,))  # wraps the circle
    assert run_sequences(0, 4) == ((), (4,))
    assert run_sequences(0b1111, 4) == ((4,), ())


def test_kalai_full_set_always_member():
    for n in range(3, 10):
        assert kalai_member((1 << n) - 1, n)
        assert not kalai_member(0, n)


def test_kalai_n3_is_majority():
    fam = kalai_circle(3)
    assert sorted(fam.members) == [w for w in range(8) if bin(w).count("1") >= 2]


def test_kalai_n5_properties():
    fam = kalai_circle(5)
    assert len(fam) == 16
    assert is_up_closed(fam)
    assert is_r_wise_t_intersecting(fam, 2, 1)


def test_kalai_even_n_splits_complement_pairs():
    n = 6
    fam = kalai_circle(n)
    assert len(fam) == 1 << (n - 1)
    present = fam.member_set()
    full = (1 << n) - 1
    for w in range(1 << n):
        assert (w in present) != ((full ^ w) in present)


def test_kalai_circle_matches_member_test():
    for n in range(3, 17):
        assert kalai_circle(n).members == tuple(
            w for w in range(1 << n) if kalai_member(w, n)
        ), n


def test_construction_spec_and_validation():
    assert len(build("L_uv", n=7, k=3, u=3, v=3)) == 13
    with pytest.raises(ValueError):
        build("no_such_thing", n=3)
    with pytest.raises(ValueError):
        build("L_uv", n=7, k=3, u=3)  # missing v
    with pytest.raises(ValueError):
        build("KK_xy", n=6, k=3, x=9, y=3)  # x > n
    with pytest.raises(ValueError):
        build("A2", n=4, k=2, s=2)  # 2s+1 > n
    with pytest.raises(ValueError):
        kalai_circle(2)


def test_build_refuses_non_integer_parameters():
    # a float is refused, never truncated to the n=4 star
    for bad in (4.7, 4.0, "4"):
        with pytest.raises(ValueError, match="integer"):
            build("star", n=bad, k=2)
    with pytest.raises(ValueError, match="extra"):
        build("star", n=4, k=2, x=9)
    assert len(build("star", n=4, k=2)) == 3


def test_segment_constructions_delegate():
    assert build("colex_seg", n=5, t=4, k=2) == colex_segment(5, 4, 2)
    assert build("lex_seg", n=5, t=4, k=2) == lex_segment(5, 4, 2)
