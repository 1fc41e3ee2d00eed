"""Deterministic generators for the named extremal families.

Generators validate only what makes the member formula meaningful; the
tighter parameter ranges under which a construction is extremal are the
verifier's business, so boundary cases stay reachable.
"""

from __future__ import annotations

import itertools

from .binomials import check_named_params
from .families import Family, word_of
from .orders import colex_segment, level_words, lex_segment


def star(n: int, k: int) -> Family:
    """All k-sets containing element 1."""
    _ground(n, k)
    return Family(n, (w for w in level_words(n, k) if w & 1), k=k)


def full_level(n: int, k: int) -> Family:
    _ground(n, k)
    return Family(n, level_words(n, k), k=k)


def l_family(n: int, k: int, u: int, v: int) -> Family:
    """Sets containing 1 that meet [2, v+1], plus all sets containing [2, u+1].

    The canonical near-star family: its diversity comes entirely from the
    second block.
    """
    _ground(n, k)
    if not 1 <= u <= k:
        raise ValueError("need 1 <= u <= k")
    if v < 1:
        raise ValueError("need v >= 1")
    if max(u, v) + 1 > n:
        raise ValueError("blocks [2, u+1], [2, v+1] must fit in [n]")
    vmask = ((1 << v) - 1) << 1          # elements 2..v+1
    umask = ((1 << u) - 1) << 1          # elements 2..u+1
    out = []
    for w in level_words(n, k):
        if (w & 1 and w & vmask) or (w & umask == umask):
            out.append(w)
    return Family(n, out, k=k)


def kk_family(n: int, k: int, x: int, y: int) -> Family:
    """The k-level of [n] minus sets containing [y+1, n], plus the (k-1)-level
    of [x] lifted with the fresh element n+1.  Lives over [n+1]."""
    _ground(n, k)
    if n + 1 > 64:
        raise ValueError("ground set n+1 exceeds 64")
    if not 0 <= x <= n:
        raise ValueError(f"x={x} outside 0..{n}")
    if not 0 <= y <= n:
        raise ValueError(f"y={y} outside 0..{n}")
    tail = (((1 << (n - y)) - 1) << y) if y < n else 0   # elements y+1..n
    out = [w for w in level_words(n, k) if tail == 0 or w & tail != tail]
    lift = 1 << n
    out.extend(w | lift for w in level_words(x, k - 1))
    return Family(n + 1, out, k=k)


def a2_family(n: int, k: int, s: int) -> Family:
    """All k-sets meeting [2s+1] in at least two elements."""
    _ground(n, k)
    if s < 1 or 2 * s + 1 > n:
        raise ValueError("need 1 <= s and 2s+1 <= n")
    head = (1 << (2 * s + 1)) - 1
    return Family(
        n, (w for w in level_words(n, k) if (w & head).bit_count() >= 2), k=k
    )


def rwise_family(n: int, k: int, r: int, t: int) -> Family:
    """All k-sets meeting [r+t] in at least r+t-1 elements."""
    _ground(n, k)
    if r < 2 or t < 1:
        raise ValueError("need r >= 2 and t >= 1")
    h = r + t
    if h > n:
        raise ValueError("head block [r+t] must fit in [n]")
    out = []
    rest = range(h + 1, n + 1)
    for j in (h - 1, h):
        if j > k or k - j > n - h:
            continue
        for head in itertools.combinations(range(1, h + 1), j):
            hw = word_of(head)
            for tail in itertools.combinations(rest, k - j):
                out.append(hw | word_of(tail))
    return Family(n, out, k=k)


def katona_family(n: int, t: int) -> Family:
    """The extremal t-intersecting family in 2^[n].

    Size-threshold family when n+t is even; the off-element-1 threshold
    family when n+t is odd.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, not {n}")
    if not 1 <= t <= n:
        raise ValueError(f"t={t} outside 1..{n}")
    if (n + t) % 2 == 0:
        lo = (n + t) // 2
        out = [w for w in range(1 << n) if w.bit_count() >= lo]
    else:
        lo = (n + t - 1) // 2
        rest = ((1 << n) - 1) ^ 1
        out = [w for w in range(1 << n) if (w & rest).bit_count() >= lo]
    return Family(n, out)


def run_sequences(word: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cyclic run-length profiles (ones descending, zeros descending)."""
    full = (1 << n) - 1
    word &= full
    if word == full:
        return (n,), ()
    if word == 0:
        return (), (n,)
    start = 0
    while not (word >> start & 1 and not word >> ((start - 1) % n) & 1):
        start += 1
    rot = ((word >> start) | (word << (n - start))) & full
    ones, zeros = [], []
    i = 0
    while i < n:
        bit = rot >> i & 1
        j = i
        while j < n and (rot >> j & 1) == bit:
            j += 1
        (ones if bit else zeros).append(j - i)
        i = j
    ones.sort(reverse=True)
    zeros.sort(reverse=True)
    return tuple(ones), tuple(zeros)


def kalai_member(word: int, n: int) -> bool:
    """Membership test for the circle family.

    A set joins when its descending run profile of ones beats the zeros
    profile lexicographically (trailing zeros implied, so the full set
    always joins).  Ties, which occur only for even n, keep the numerically
    smaller of the two complementary sets.
    """
    ones, zeros = run_sequences(word, n)
    if ones > zeros:
        return True
    if ones < zeros:
        return False
    comp = ((1 << n) - 1) ^ word
    return word < comp


def kalai_circle(n: int) -> Family:
    """The circle family on [n]; intersecting with uniformly small influences.

    The members are those `kalai_member` accepts.  Run profiles do not
    change under rotation, so they are computed once per rotation class:
    the class joins or stays out whole, except on a tie, where each
    rotation is held against its own complement.
    """
    if not 3 <= n <= 24:
        raise ValueError(f"n={n} outside 3..24")
    full = (1 << n) - 1
    seen = bytearray(1 << n)
    members = []
    for word in range(1 << n):
        if seen[word]:
            continue
        rotations = []
        rot = word
        while not seen[rot]:
            seen[rot] = 1
            rotations.append(rot)
            rot = (rot << 1 | rot >> (n - 1)) & full
        ones, zeros = run_sequences(word, n)
        if ones > zeros:
            members += rotations
        elif ones == zeros:
            members += [rot for rot in rotations if rot < full ^ rot]
    return Family(n, members)


def _ground(n: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, not {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if n > 64:
        raise ValueError("ground set exceeds 64")


CONSTRUCTIONS = {
    "star": (star, ("n", "k")),
    "full_level": (full_level, ("n", "k")),
    "L_uv": (l_family, ("n", "k", "u", "v")),
    "KK_xy": (kk_family, ("n", "k", "x", "y")),
    "A2": (a2_family, ("n", "k", "s")),
    "rwise_example": (rwise_family, ("n", "k", "r", "t")),
    "katona_t": (katona_family, ("n", "t")),
    "kalai_circle": (kalai_circle, ("n",)),
    "lex_seg": (lex_segment, ("n", "t", "k")),
    "colex_seg": (colex_segment, ("n", "t", "k")),
}


def build(name: str, **params: int) -> Family:
    """Build a named construction; extra, missing or non-integer parameters
    are errors."""
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}; know {sorted(CONSTRUCTIONS)}")
    fn, wanted = CONSTRUCTIONS[name]
    check_named_params("construction", name, wanted, params, integers=True)
    return fn(**params)
