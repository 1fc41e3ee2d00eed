"""Diversity metrics and coordinate influences.

Four minimization metrics over a family: plain diversity (members missing
the most popular element), s-diversity (members avoiding the best s-set),
cover diversity (members outside the best n-subset of the ground set), and
colex diversity (members outside the best relabeled colex segment).  Plus
Boolean-function influences over the uniform measure on 2^[n].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .families import (
    Family,
    InvariantViolation,
    degree,
    degree_vector,
    elements_of,
    max_degree,
)
from .orders import colex_segment, level_words


@dataclass(frozen=True)
class DiversityValue:
    """A metric value together with the witness attaining it.

    The witness is an element for plain diversity, an element tuple (the
    avoided set R / the covering set X) for the s- and cover variants, and
    a ground-set ordering for the colex variant.
    """

    value: int
    witness: object


def diversity(fam: Family) -> DiversityValue:
    """|F| minus the maximum degree; witness is a max-degree element."""
    element, deg = max_degree(fam)
    return DiversityValue(len(fam) - deg, element)


def s_diversity(fam: Family, s: int) -> DiversityValue:
    """min over s-sets R of the number of members avoiding R; witness R."""
    if not 1 <= s <= fam.n:
        raise ValueError(f"s={s} outside 1..{fam.n}")
    best = None
    best_r = 0
    for r in level_words(fam.n, s):
        cnt = sum(1 for w in fam.members if w & r == 0)
        if best is None or cnt < best:
            best, best_r = cnt, r
            if best == 0:
                break
    return DiversityValue(best, elements_of(best_r))


def kk_diversity(fam: Family, n: int) -> DiversityValue:
    """min over n-subsets X of the ground set of members not inside X; witness X."""
    if fam.k is None:
        raise ValueError("cover diversity needs a uniform family")
    if not 0 <= n <= fam.n:
        raise ValueError(f"n={n} outside 0..{fam.n}")
    best = None
    best_x = 0
    for x in level_words(fam.n, n):
        cnt = sum(1 for w in fam.members if w & ~x)
        if best is None or cnt < best:
            best, best_x = cnt, x
            if best == 0:
                break
    recheck = sum(1 for w in fam.members if w & ~best_x)
    if recheck != best:
        raise InvariantViolation("cover-diversity witness does not reproduce the value")
    return DiversityValue(best, elements_of(best_x))


COLEX_EXACT_LIMIT = 10


def colex_diversity(fam: Family, t: int) -> DiversityValue:
    """Exact min over ground-set orderings of members outside the relabeled
    colex segment of size t; witness is the ordering (images of 1..n).

    Branch and bound over ordering prefixes in lexicographic order, so the
    returned witness is the identity-closest minimizer.  Exact mode only,
    n <= 10.
    """
    if fam.k is None:
        raise ValueError("colex diversity needs a uniform family")
    n, k = fam.n, fam.k
    if n > COLEX_EXACT_LIMIT:
        raise ValueError(f"exact mode handles n <= {COLEX_EXACT_LIMIT}")
    if not 0 <= t <= comb(n, k):
        raise ValueError(f"t={t} outside 0..C({n},{k})")
    segment = frozenset(colex_segment(n, t, k).members)
    members = fam.members

    best: int | None = None
    best_perm: tuple[int, ...] = ()
    # inverse[img-1] = preimage element of img under the partial ordering
    inverse = [0] * n
    prefix: list[int] = []

    def walk(depth: int, used: int) -> None:
        nonlocal best, best_perm
        # members fully inside the assigned image set are decided
        decided_out = 0
        assigned = used
        for w in members:
            if w & ~assigned:
                continue
            pre = 0
            ww = w
            while ww:
                low = ww & -ww
                pre |= 1 << (inverse[low.bit_length() - 1] - 1)
                ww ^= low
            if pre not in segment:
                decided_out += 1
        if best is not None and decided_out >= best:
            return
        if depth == n:
            best = decided_out
            best_perm = tuple(prefix)
            return
        for img in range(1, n + 1):
            bit = 1 << (img - 1)
            if used & bit:
                continue
            inverse[img - 1] = depth + 1
            prefix.append(img)
            walk(depth + 1, used | bit)
            prefix.pop()
        return

    walk(0, 0)
    return DiversityValue(best, best_perm)


def is_up_closed(fam: Family) -> bool:
    """Closed under supersets within [n]."""
    present = fam.member_set()
    full = (1 << fam.n) - 1
    for w in fam.members:
        free = full & ~w
        while free:
            low = free & -free
            if (w | low) not in present:
                return False
            free ^= low
    return True


def _boundary_count(fam: Family, i: int) -> int:
    """Number of pairs (S, S+i) with exactly one side in the family."""
    bit = 1 << (i - 1)
    present = fam.member_set()
    cnt = 0
    for w in fam.members:
        if w & bit:
            if (w ^ bit) not in present:
                cnt += 1
        elif (w | bit) not in present:
            cnt += 1
    return cnt


def influence(fam: Family, i: int) -> float:
    """Influence of coordinate i: twice the measure of the boundary in direction i.

    When the family is up-closed the degree identity
    I_i = 2 mu(i in F) - 2 mu(i not in F) must agree; it is certified here.
    """
    if not 1 <= i <= fam.n:
        raise ValueError(f"element {i} outside 1..{fam.n}")
    cnt = _boundary_count(fam, i)
    if is_up_closed(fam) and cnt != 2 * degree(fam, i) - len(fam):
        raise InvariantViolation("up-set influence identity failed")
    return cnt / (1 << (fam.n - 1))


def total_influence(fam: Family) -> float:
    return sum(influence(fam, i) for i in range(1, fam.n + 1))


def influence_profile(fam: Family) -> list[float]:
    """All coordinate influences, skipping the per-call up-set recheck."""
    scale = 1 << (fam.n - 1)
    return [_boundary_count(fam, i) / scale for i in range(1, fam.n + 1)]
