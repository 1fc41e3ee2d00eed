"""Shifting and compression operators on families.

Covers the single-pair i<-j shift, the set-pair (Daykin) U<-V shift, the
fixed-point iteration to a shifted family, colex compression and the
paired lex shift of cross-intersecting pairs, each with its certificates.
Every compression produces a replayable trace.

One step rule serves every shift on a Family: `_daykin_words` makes the
U<-V step and returns the (old, new) word pairs it moved.  Every
Family-level shift is that step, and the element-sum certificate of
`shift_to_shifted` reads its pairs.  The colex walk `_level_walk` starts
from a level-index mask and carries no Family: each step reads the step
tables that `orders.Level` owns, the words the step moves grouped by how
far their colex index moves, so that the step, its colex-rank change and
the violation search are int operations on the mask.  `_colex_walk` is its
entry from a Family; the compression claim enters it straight from the
mask a numbered space streams, so a scan builds a Family only for an
instance it records.  The walk yields each step as a plain tuple, which
compares equal to its `ShiftStep`, and only `compress_to_colex` makes
ShiftSteps of them.  It and the paired lex walk `_cross_lex_walk` are step
generators that key each state by an int and raise InvariantViolation
where a certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .families import (
    Family,
    InvariantViolation,
    elements_of,
    is_cross_t_intersecting,
    set_repr,
    word_of,
)
from .orders import Level, level, level_words, lex_segment


class ShiftStep(NamedTuple):
    """One recorded shift; it compares equal to the plain tuple of its fields."""

    kind: str          # "ij" or "daykin"
    i: int = 0         # ij form
    j: int = 0
    u: int = 0         # daykin form, set words
    v: int = 0
    moved: int = 0     # number of members that changed

    def to_line(self) -> str:
        if self.kind == "ij":
            return f"ij {self.i} {self.j} moved={self.moved}"
        return f"daykin U={set_repr(self.u)} V={set_repr(self.v)} moved={self.moved}"

    @classmethod
    def from_line(cls, line: str) -> "ShiftStep":
        parts = line.split()
        if not parts:
            raise ValueError("empty trace line")
        if parts[0] == "ij" and len(parts) == 4 and parts[3].startswith("moved="):
            return cls("ij", i=int(parts[1]), j=int(parts[2]), moved=int(parts[3][6:]))
        if parts[0] == "daykin" and len(parts) == 4:
            u = _parse_braced(parts[1], "U")
            v = _parse_braced(parts[2], "V")
            if not parts[3].startswith("moved="):
                raise ValueError(f"bad trace line: {line!r}")
            return cls("daykin", u=u, v=v, moved=int(parts[3][6:]))
        raise ValueError(f"bad trace line: {line!r}")


def _parse_braced(token: str, label: str) -> int:
    prefix = label + "={"
    if not token.startswith(prefix) or not token.endswith("}"):
        raise ValueError(f"bad {label} token: {token!r}")
    body = token[len(prefix):-1]
    if not body:
        return 0
    return word_of(int(t) for t in body.split(","))


@dataclass(frozen=True)
class ShiftTrace:
    """Ordered log of compression steps; replaying it is bit-exact."""

    steps: tuple[ShiftStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        return "".join(step.to_line() + "\n" for step in self.steps)

    @classmethod
    def from_text(cls, text: str) -> "ShiftTrace":
        return cls(tuple(ShiftStep.from_line(ln) for ln in text.splitlines() if ln.strip()))

    def replay(self, fam: Family) -> Family:
        for step in self.steps:
            if step.kind == "ij":
                fam, pairs = _daykin_words(fam, 1 << (step.i - 1), 1 << (step.j - 1))
            else:
                fam, pairs = _daykin_words(fam, step.u, step.v)
            moved = len(pairs)
            if moved != step.moved:
                raise InvariantViolation(
                    f"replay moved {moved} sets at {step.to_line()!r}"
                )
        return fam


def shift_ij(fam: Family, i: int, j: int) -> Family:
    """The i<-j shift: replace j by i in members where the image is free.

    The usual direction is i < j; i != j is required, the same replacement
    rule applies either way.
    """
    if i == j:
        raise ValueError("shift needs i != j")
    for e in (i, j):
        if not 1 <= e <= fam.n:
            raise ValueError(f"element {e} outside 1..{fam.n}")
    return _daykin_words(fam, 1 << (i - 1), 1 << (j - 1))[0]


def is_shifted(fam: Family) -> bool:
    """Closed under pushing any single element down to a free smaller one.

    Only the covering moves are tried: an element j > 1 of a member down to
    a free j - 1.  On sets of one size, a move of j down to any free i < j
    gives a set below in the shifting partial order (the sorted elements
    compared place by place), and the covering relations of that order are
    exactly these moves, one element one step down.  Every predecessor of a
    member is so reached by a chain of covering moves, each from a set the
    closure already holds; the covering moves are themselves moves, so the
    two closures agree.  The immediate predecessors of the shifted filter
    and of the shifted-family enumeration are the same moves.
    """
    present = fam.member_set()
    for w in fam.members:
        movable = w & ~(w << 1) & ~1
        while movable:
            low = movable & -movable
            if w ^ low ^ (low >> 1) not in present:
                return False
            movable ^= low
    return True


def shift_to_shifted(fam: Family) -> tuple[Family, ShiftTrace]:
    """Apply i<-j shifts in sweeps over (i, j), i < j, until a clean sweep.

    Termination certificate: the total element sum strictly drops on every
    recorded step; the drop is summed over the moved (old, new) word pairs,
    each word's element sum taken from the word itself.  Size, uniformity,
    r-wise t-intersection and the matching number survive each step.
    """
    steps = []
    cur = fam
    changed = True
    while changed:
        changed = False
        for i in range(1, cur.n + 1):
            for j in range(i + 1, cur.n + 1):
                nxt, pairs = _daykin_words(cur, 1 << (i - 1), 1 << (j - 1))
                if pairs:
                    delta = sum(sum(elements_of(new)) - sum(elements_of(old)) for old, new in pairs)
                    if delta >= 0:
                        raise InvariantViolation("element-sum potential did not drop")
                    steps.append(ShiftStep("ij", i=i, j=j, moved=len(pairs)))
                    cur = nxt
                    changed = True
    return cur, ShiftTrace(tuple(steps))


def _daykin_words(fam: Family, u: int, v: int) -> tuple[Family, list[tuple[int, int]]]:
    """The U<-V step on a Family and the (old, new) word pairs it moved: each
    member holding V and missing U moves to its image, V replaced by U, when
    that image is not a member.  The family itself when nothing moved."""
    uv, present = u | v, fam.member_set()
    pairs = [(w, g) for w in fam.members if w & uv == v and (g := w ^ uv) not in present]
    if not pairs:
        return fam, pairs
    olds = {old for old, _ in pairs}
    out = [w for w in fam.members if w not in olds]
    out += [new for _, new in pairs]
    res = Family(fam.n, out)
    if len(res) != len(fam):
        raise InvariantViolation("shift changed the family size")
    return res, pairs


def daykin_shift(fam: Family, u: int, v: int) -> Family:
    """The set-pair U<-V shift: rewrite the V-pattern to U where the image is free.

    U and V are disjoint equal-size set words; the singleton case is
    exactly shift_ij.
    """
    if u & v:
        raise ValueError("U and V must be disjoint")
    if u.bit_count() != v.bit_count():
        raise ValueError("U and V must have equal size")
    top = 1 << fam.n
    if u >= top or v >= top:
        raise ValueError("U or V not contained in the ground set")
    return _daykin_words(fam, u, v)[0]


def find_colex_violation(fam: Family) -> tuple[int, int] | None:
    """An inclusion-minimal (U, V) whose U<-V shift moves the family colex-down.

    Returns None exactly when the family is a colex initial segment.
    Among violating pairs the choice is by smallest |U|, then colex rank
    of V, then colex rank of U.  Every violating pair arises as
    (G - F, F - G) for a member F and an absent G < F.

    The search runs on the family's level-index mask (`_mask_violation`),
    as the colex walk does.
    """
    if fam.k is None:
        raise ValueError("colex violation search needs a uniform family")
    lvl = level(fam.n, fam.k)
    return _mask_violation(lvl, lvl.mask(fam.members))


def _mask_violation(lvl: Level, mask: int) -> tuple[int, int] | None:
    """`find_colex_violation` on a level-index mask of the level `lvl`.

    The least |U| is 1 unless the family is shifted, so single elements
    are tried first, in the order of `lvl.singles`: the first {x}<-{y}
    step with a free image is the answer, found as a nonzero
    (mask & H_d) >> -d & ~mask.  Only when none has one is the scan run
    over the (F, G) couples, on the member words decoded from the mask.
    """
    if not mask & (mask + 1):
        return None  # the lowest |F| bits: a colex segment, the empty one included
    tables = lvl.single_tables
    for j, groups in enumerate(tables):
        if groups is None:
            groups = tables[j] = lvl.table(*lvl.singles[j])
        for d, h in groups:
            s = mask & h
            if s and s >> -d & ~mask:
                return lvl.singles[j]
    words = lvl.words
    members = []
    rest = mask
    while rest:
        low = rest & -rest
        members.append(words[low.bit_length() - 1])
        rest ^= low
    # The key's |U| is k - |F & G|, so the least |U| is the most shared.
    most_shared = -1
    best_v = best_u = 0
    absent = ~mask & (1 << mask.bit_length() - 1) - 1  # absent below the top member
    while absent:
        low = absent & -absent
        absent ^= low
        g = words[low.bit_length() - 1]
        for f in members[(mask & low - 1).bit_count():]:
            shared = (f & g).bit_count()
            if shared < most_shared:
                continue
            v = f & ~g
            if shared > most_shared or v < best_v or (v == best_v and g & ~f < best_u):
                most_shared, best_v, best_u = shared, v, g & ~f
    return best_u, best_v


def _colex_walk(fam: Family):
    """`_level_walk` from the level-index mask of `fam`: the Family entry to
    the one step loop behind `compress_to_colex` and the compression claim."""
    if fam.k is None:
        raise ValueError("colex compression needs a uniform family")
    lvl = level(fam.n, fam.k)
    return _level_walk(lvl, lvl.mask(fam.members))


def _level_walk(lvl: Level, mask: int):
    """Colex compression of the family with level-index mask `mask` over the
    level `lvl`, one state at a time; it builds no Family.

    A state is its level-index mask, bit i set when the i-th word of the
    colex-ordered level is a member.  The walk yields (mask, None) for the
    input before it builds anything else, then (mask, step) after each
    certified step, the step as the plain tuple ("daykin", 0, 0, u, v,
    moved), which compares equal to its `ShiftStep`; a caller may stop at
    any yield.  A step that fails a certificate raises InvariantViolation,
    and so does a fixed point whose mask is not the colex segment of the
    family's size, its |F| lowest bits.

    Between steps the walk carries only the mask and one count per
    (k-1)-set of how many members contain it, with the number of nonzero
    counts: the immediate shadow size.  Each step is chosen by the search
    `_mask_violation`, looked up as this module's global when it runs, and
    applied through the level's offset table (`Level.move`), which
    gives the masks of the moved members and of their images and the
    colex-index change.  The step is certified from them:

    - size: the new mask keeps the family's size;
    - shadow: the counts go up at the images' shadows and down at the
      moved members', the size changing as a count leaves or reaches 0;
      it must not grow;
    - rank: the colex indices of the images minus those of the moved
      members must sum below 0, so the colex-rank sum strictly drops.
    """
    yield mask, None
    shadows = lvl.shadows
    size = mask.bit_count()
    counts = [0] * len(level_words(lvl.n, lvl.k - 1))
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        for s in shadows[low.bit_length() - 1]:
            counts[s] += 1
    shadow_size = len(counts) - counts.count(0)
    while (hit := _mask_violation(lvl, mask)) is not None:
        u, v = hit
        sources, images, delta = lvl.move(mask, u, v)
        grown = shadow_size
        rest = images
        while rest:
            low = rest & -rest
            rest ^= low
            for s in shadows[low.bit_length() - 1]:
                if not counts[s]:
                    grown += 1
                counts[s] += 1
        rest = sources
        while rest:
            low = rest & -rest
            rest ^= low
            for s in shadows[low.bit_length() - 1]:
                counts[s] -= 1
                if not counts[s]:
                    grown -= 1
        mask ^= sources | images
        if mask.bit_count() != size:
            raise InvariantViolation("shift changed the family size")
        if grown > shadow_size:
            raise InvariantViolation(
                f"immediate shadow grew {shadow_size} -> {grown} under "
                f"U={set_repr(u)} V={set_repr(v)}"
            )
        if delta >= 0:
            raise InvariantViolation("colex-rank potential did not drop")
        shadow_size = grown
        yield mask, ("daykin", 0, 0, u, v, images.bit_count())
    if mask != (1 << size) - 1:
        raise InvariantViolation("compression fixed point is not the colex segment")


def _cross_lex_walk(a: Family, b: Family):
    """Paired lex shifting of a cross-intersecting pair, one state at a time.

    It yields (key, None) for the input, then (key, step) after each
    `cross_lex_shift_step`, looked up as this module's global when it runs;
    a key is the level-index masks of A and B side by side.  A step that
    changes a size, or a fixed point that is not the pair of lex segments
    of the two sizes, raises InvariantViolation.
    """
    level_a, level_b = level(a.n, a.k), level(b.n, b.k)
    sizes, width, step = (len(a), len(b)), len(level_a.words), None
    while True:
        yield level_a.mask(a.members) | level_b.mask(b.members) << width, step
        if (step := cross_lex_shift_step(a, b)) is None:
            break
        a, b = step[0], step[1]
        if (len(a), len(b)) != sizes:
            raise InvariantViolation("sizes changed along the shift")
    if a != lex_segment(a.n, len(a), a.k) or b != lex_segment(b.n, len(b), b.k):
        raise InvariantViolation("fixed point is not a pair of lex segments")


def compress_to_colex(fam: Family) -> tuple[Family, ShiftTrace]:
    """Apply colex-chosen Daykin shifts until the family is a colex segment.

    The steps and their certificates (size, shadow not grown, colex-rank
    drop, fixed point equal to the segment) are those of `_colex_walk`,
    drained here into the trace, each step tuple made a `ShiftStep`.  The
    result is the one Family the compression builds, the first |F| words
    of the level, and the input itself when no step moved.
    """
    steps = tuple(ShiftStep._make(step) for _, step in _colex_walk(fam) if step is not None)
    if not steps:
        return fam, ShiftTrace()
    return Family(fam.n, level(fam.n, fam.k).words[:len(fam)], k=fam.k), ShiftTrace(steps)


def _lex_violation(fam: Family) -> tuple[int, tuple, tuple, int, int] | None:
    """Minimal lex-violating pair for one family.

    Key is (|U|, elements(V), elements(U)); returns (size, eV, eU, u, v)
    or None when the family is a lex initial segment.  Candidates are
    compared on their words: for equal-size sets x != y, elements(x) <
    elements(y) exactly when x holds the lowest bit of x ^ y.
    """
    present = fam.member_set()
    members = fam.members
    best_size = 0
    best_u = best_v = 0
    for g in level_words(fam.n, fam.k):
        if g in present:
            continue
        for f in members:
            diff = f ^ g
            if not g & (diff & -diff):
                continue  # f precedes g in lex
            u = g & diff
            v = f & diff
            size = u.bit_count()
            if best_size:
                if size > best_size:
                    continue
                if size == best_size:
                    x, d = v, v ^ best_v
                    if not d:
                        x, d = u, u ^ best_u
                    if not x & (d & -d):
                        continue  # (V, U) is not lex-before the best; equal when d == 0
            best_size, best_u, best_v = size, u, v
    if not best_size:
        return None
    return best_size, elements_of(best_v), elements_of(best_u), best_u, best_v


def cross_lex_shift_step(
    a: Family, b: Family
) -> tuple[Family, Family, int, int] | None:
    """One paired lex shift on a cross-intersecting pair.

    Returns None when both families are lex initial segments; otherwise
    picks each family's inclusion-minimal violating pair, takes the one
    with smaller |U| (the first family on ties), applies it to both and
    checks that cross-intersection survived.
    """
    if a.k is None or b.k is None:
        raise ValueError("cross lex shift needs uniform families")
    if a.n != b.n:
        raise ValueError("mismatched ground sizes")
    if a.n < a.k + b.k:
        raise ValueError("ground set smaller than a+b")
    if not is_cross_t_intersecting([a, b], 1):
        raise ValueError("families are not cross-intersecting")
    hit_a = _lex_violation(a)
    hit_b = _lex_violation(b)
    if hit_a is None and hit_b is None:
        return None
    if hit_b is None or (hit_a is not None and hit_a[0] <= hit_b[0]):
        best = hit_a
    else:
        best = hit_b
    u, v = best[3], best[4]
    new_a = _daykin_words(a, u, v)[0]
    new_b = _daykin_words(b, u, v)[0]
    if not is_cross_t_intersecting([new_a, new_b], 1):
        raise InvariantViolation(
            f"cross-intersection lost under U={set_repr(u)} V={set_repr(v)}"
        )
    return new_a, new_b, u, v
