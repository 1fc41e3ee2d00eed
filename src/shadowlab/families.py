"""Bit-packed set families over a ground set [n], n <= 64.

A set is a single machine word: bit i-1 encodes element i.  A family keeps
its members sorted by word value, which coincides with colex order on
equal-size sets, so colex initial segments are contiguous ranges of the
sorted level.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

MAX_GROUND = 64


class InvariantViolation(AssertionError):
    """A runtime certificate check failed (never disabled by -O)."""


def word_of(elements: Iterable[int]) -> int:
    """Pack elements from 1..64 into a set word."""
    w = 0
    for e in elements:
        if not 1 <= e <= MAX_GROUND:
            raise ValueError(f"element {e} outside 1..{MAX_GROUND}")
        w |= 1 << (e - 1)
    return w


def elements_of(word: int) -> tuple[int, ...]:
    """Unpack a set word into its ascending tuple of elements."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length())
        word ^= low
    return tuple(out)


def set_repr(word: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(word)) + "}"


class Family:
    """Immutable, deduplicated family of subsets of [n].

    ``members`` is a sorted tuple of set words.  The uniformity tag ``k``
    is inferred: present exactly when every member has the same
    cardinality (an explicit ``k`` that contradicts the members is an
    error; it is kept only for the empty family, whose uniformity is
    indeterminate).
    """

    __slots__ = ("n", "k", "members", "_set")

    def __init__(self, n: int, members: Iterable[int] = (), k: int | None = None):
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground-set size {n} outside 0..{MAX_GROUND}")
        words = sorted(set(members))
        top = 1 << n
        if words and words[-1] >= top:
            bad = next(w for w in words if w >= top)
            raise ValueError(f"member {set_repr(bad)} not contained in [{n}]")
        if words:
            sizes = {w.bit_count() for w in words}
            inferred = sizes.pop() if len(sizes) == 1 else None
            if k is not None and k != inferred:
                raise ValueError(f"k={k} inconsistent with member cardinalities")
            k = inferred
        elif k is not None and not 0 <= k <= n:
            raise ValueError(f"k={k} outside 0..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "members", tuple(words))
        object.__setattr__(self, "_set", frozenset(words))

    def __setattr__(self, name, value):
        raise AttributeError("Family is immutable")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, word: int) -> bool:
        return word in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Family)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        body = ", ".join(set_repr(w) for w in itertools.islice(self.members, 8))
        if len(self.members) > 8:
            body += ", ..."
        return f"Family(n={self.n}, k={self.k}, |F|={len(self.members)}: {body})"

    def member_set(self) -> frozenset[int]:
        return self._set

    # -- text format -------------------------------------------------------
    #
    # header ``n=<N> k=<K|->`` then one member per line as comma-separated
    # ascending elements; a blank line is the empty set.

    def to_text(self) -> str:
        head = f"n={self.n} k={self.k if self.k is not None else '-'}"
        lines = [head]
        for w in self.members:
            lines.append(",".join(str(e) for e in elements_of(w)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Family":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty family text")
        head = lines[0].split()
        if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("k="):
            raise ValueError(f"bad family header: {lines[0]!r}")
        n = int(head[0][2:])
        ktag = head[1][2:]
        k = None if ktag == "-" else int(ktag)
        members = []
        for line in lines[1:]:
            line = line.strip()
            if not line:
                members.append(0)
            else:
                members.append(word_of(int(tok) for tok in line.split(",")))
        return cls(n, members, k)


def shadow(fam: Family, l: int) -> Family:
    """The family of all l-sets contained in at least one member.

    Requires a k-uniform family and 0 <= l <= k; the result carries the
    tag l.  The immediate shadow is ``shadow(fam, fam.k - 1)``.
    """
    if fam.k is None:
        raise ValueError("shadow requires a uniform family")
    if not 0 <= l <= fam.k:
        raise ValueError(f"shadow order {l} outside 0..{fam.k}")
    out = set()
    for w in fam.members:
        for combo in itertools.combinations(elements_of(w), l):
            word = 0
            for e in combo:
                word |= 1 << (e - 1)
            out.add(word)
    return Family(fam.n, out, k=l)


def trace(fam: Family, x: int = 0, y: int = 0) -> Family:
    """Members whose intersection with X ∪ Y is exactly X, with X removed.

    ``x`` and ``y`` are disjoint set words; the ground set stays [n].  The
    forms trace(F, X) and trace(F, 0, Y) restrict to/away from fixed sets.
    """
    if x & y:
        raise ValueError("trace requires disjoint X and Y")
    top = 1 << fam.n
    if x >= top or y >= top:
        raise ValueError("X or Y not contained in the ground set")
    xy = x | y
    kept = [w & ~x for w in fam.members if w & xy == x]
    if kept:
        return Family(fam.n, kept)
    k = None
    if fam.k is not None and fam.k >= x.bit_count():
        k = fam.k - x.bit_count()
    return Family(fam.n, (), k=k)


def degree(fam: Family, i: int) -> int:
    """Number of members containing element i."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"element {i} outside 1..{fam.n}")
    bit = 1 << (i - 1)
    return sum(1 for w in fam.members if w & bit)


def degree_vector(fam: Family) -> list[int]:
    degs = [0] * fam.n
    for w in fam.members:
        while w:
            low = w & -w
            degs[low.bit_length() - 1] += 1
            w ^= low
    return degs


def max_degree(fam: Family) -> tuple[int, int]:
    """(element, count) of the largest degree; ties go to the smallest element."""
    if fam.n < 1:
        raise ValueError("max_degree needs a nonempty ground set")
    degs = degree_vector(fam)
    best = max(degs)
    return degs.index(best) + 1, best


def matching_number(fam: Family) -> int:
    """Largest number of pairwise disjoint members, by branch and bound.

    Branches on the numerically least member still available; prunes with
    the trivial count + remaining bound.
    """
    best = 0

    def grow(avail: Sequence[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if not avail or count + len(avail) <= best:
            return
        head = avail[0]
        rest = avail[1:]
        grow([w for w in rest if w & head == 0], count + 1)
        grow(rest, count)

    grow(fam.members, 0)
    return best


def is_cross_t_intersecting(fams: Sequence[Family], t: int) -> bool:
    """True iff every transversal tuple has common intersection >= t.

    Families whose members all share t common elements pass at once.
    Otherwise two families are decided by a direct loop over their member
    pairs that stops at the first pair meeting in fewer than t elements,
    and three or more by a memoized search over partial intersections.
    """
    if len(fams) < 2:
        raise ValueError("cross-intersection needs at least two families")
    n = fams[0].n
    if any(f.n != n for f in fams):
        raise ValueError("mismatched ground sizes")
    if t < 1:
        raise ValueError("t must be >= 1")
    if any(len(f) == 0 for f in fams):
        return True
    if _common_core_at_least(fams, t):
        return True
    if len(fams) == 2:
        members_b = fams[1].members
        for wa in fams[0].members:
            for wb in members_b:
                if (wa & wb).bit_count() < t:
                    return False
        return True
    return _cross_t_search(fams, t)


def _common_core_at_least(fams: Sequence[Family], t: int) -> bool:
    """True iff the members of all families share at least t elements.

    Every transversal tuple then meets in that core.  The AND stops as soon
    as fewer than t bits remain, so a call that fails costs only a prefix.
    """
    core = -1
    for f in fams:
        for w in f.members:
            core &= w
            if core.bit_count() < t:
                return False
    return True


def _cross_t_search(fams: Sequence[Family], t: int) -> bool:
    """Reference cross-t-intersection test: DFS memoized on (level, partial AND)."""
    searched: dict[tuple[int, int], bool] = {}

    def violate(level: int, inter: int) -> bool:
        if inter.bit_count() < t:
            return True
        if level == len(fams):
            return False
        key = (level, inter)
        hit = searched.get(key)
        if hit is not None:
            return hit
        res = any(violate(level + 1, inter & w) for w in fams[level].members)
        searched[key] = res
        return res

    return not any(violate(1, w) for w in fams[0].members)


def is_r_wise_t_intersecting(fam: Family, r: int, t: int) -> bool:
    """True iff every r-tuple of members (repetition allowed) meets in >= t elements.

    The intersection over a tuple equals the intersection over its support
    set, so the search runs over subsets of size <= r, memoized on the
    partial intersection.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if t < 1:
        raise ValueError("t must be >= 1")
    members = fam.members
    if not members:
        return True
    if r == 2:
        return _pairwise_t_intersecting(fam, t)

    # (inter, picks_left) -> smallest start index already searched clean
    searched: dict[tuple[int, int], int] = {}

    def hunt(start: int, inter: int, left: int) -> bool:
        if inter.bit_count() < t:
            return True
        if left == 0:
            return False
        key = (inter, left)
        prev = searched.get(key)
        if prev is not None and prev <= start:
            return False
        for idx in range(start, len(members)):
            w = inter & members[idx]
            if w != inter and hunt(idx + 1, w, left - 1):
                return True
        searched[key] = start if prev is None else min(prev, start)
        return False

    return not any(hunt(i + 1, members[i], r - 1) for i in range(len(members)))


def _pairwise_t_intersecting(fam: Family, t: int) -> bool:
    """|A n B| >= t for all pairs of members.

    Two paths, chosen from n and |F| alone.  Dense families over a small
    ground set take the bit-parallel cube test `_cube_t_intersecting`: from
    n = 8 and 90 members on, up to n = 20 (words of 128 KB), and while
    2^n <= 16 |F|^2, where it beats the pair loop.  Every other family takes
    `_pair_t_intersecting`, the pair loop over members sorted by size.
    """
    n, size = fam.n, len(fam.members)
    if 8 <= n <= 20 and size >= 90 and 1 << n <= size * size << 4:
        return _cube_t_intersecting(fam, t)
    return _pair_t_intersecting(fam, t)


def _pair_t_intersecting(fam: Family, t: int) -> bool:
    """The pair loop: members sorted by size, and a pair with
    |A|+|B|-n >= t passes without a popcount."""
    by_size = sorted(fam.members, key=lambda w: w.bit_count())
    sizes = [w.bit_count() for w in by_size]
    if sizes[0] < t:
        return False
    n = fam.n
    for i, wa in enumerate(by_size):
        sa = sizes[i]
        for j in range(i, len(by_size)):
            if sa + sizes[j] - n >= t:
                break
            if (wa & by_size[j]).bit_count() < t:
                return False
    return True


@functools.lru_cache(maxsize=None)
def _cube_masks(n: int) -> tuple[int, ...]:
    """For each element i of [n], the 2^n-bit word whose bit S is set
    exactly when the set S contains i."""
    cube = (1 << (1 << n)) - 1
    out = []
    for i in range(n):
        step = 1 << i
        # blocks of `step` clear bits then `step` set bits, repeated
        out.append(cube // ((1 << 2 * step) - 1) * (((1 << step) - 1) << step))
    return tuple(out)


def _cube_t_intersecting(fam: Family, t: int) -> bool:
    """The cube test: bit S of one 2^n-bit word per layer, over all S in [n].

    Layer 0 is the up-closure of F: every S containing some member.  Layer
    j + 1 adds every S that gains layer j by one more element, so layer j
    holds every S with min over B in F of |B - S| <= j.  As
    |A n B| = |B - (full ^ A)|, F is pairwise t-intersecting iff no
    complement full ^ A of a member lies in layer t - 1.  Every up-closure
    and widening step is one shift, AND and OR per element.
    """
    n = fam.n
    full = (1 << n) - 1
    here = bytearray(((1 << n) + 7) >> 3)
    comps = bytearray(len(here))
    for w in fam.members:
        here[w >> 3] |= 1 << (w & 7)
        c = full ^ w
        comps[c >> 3] |= 1 << (c & 7)
    masks = _cube_masks(n)
    layer = int.from_bytes(here, "little")
    for i, has in enumerate(masks):
        layer |= (layer << (1 << i)) & has
    for _ in range(t - 1):
        wider = layer
        for i, has in enumerate(masks):
            wider |= (layer & has) >> (1 << i)
        layer = wider
    return not layer & int.from_bytes(comps, "little")


def complement_family(fam: Family) -> Family:
    """Member-wise complement in [n]; an involution."""
    full = (1 << fam.n) - 1
    return Family(fam.n, (full ^ w for w in fam.members))
