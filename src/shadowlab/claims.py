"""The registered claims: each a named per-instance predicate, hypothesis ->
conclusion, over the instance spaces it lists.

A claim takes only the parameters its ``defaults`` declare, each an integer;
``ClaimSpec.checked_params`` merges them and refuses any other.  ``prepare``
turns a claim, a space and the checked parameters into a check:
a function from one instance to a status, "skip" (hypothesis fails),
"violation", "equality" (a bound met exactly) or "ok", and a detail that is
set only for a violation.  Every check takes one instance shape: claims on
k-uniform families get them through ``_uniform``, which unwraps a grid
point and skips an instance without a uniform family; other family claims
get each Family as streamed; grid-only claims the point (params, family);
pair claims (A, B).  A value is held against its bound through ``_against``.

A prepared check may carry a ``mask_filter`` on the level masks of
all-families and of a uniform random-sample that rejects only instances
the check itself would skip (not shifted, or not pairwise intersecting).
A sample tries it on each mask as a predicate; all-families takes only the
masks its ``masks(lo, hi)`` enumerates.  The verifier's kernels read the
checks' own verdicts (``_shadow_verdict``, ``_graph_verdict``,
``_correlation_verdict``) and hypothesis (``_stability_hypothesis``).  Both
walking claims go through ``_walk_certified``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, log

from .binomials import bound_value, check_gap_monotonicity, check_named_params, gbinom
from .binomials import inv_gbinom, kk_bound
from .constructions import a2_family, l_family
from .diversity import diversity, influence_profile, is_up_closed, kk_diversity, s_diversity
from .families import (
    Family,
    InvariantViolation,
    complement_family,
    degree_vector,
    is_cross_t_intersecting,
    is_r_wise_t_intersecting,
    matching_number,
    set_repr,
    shadow,
    trace,
)
from .orders import level, lex_segment
from .shifting import _colex_walk, _cross_lex_walk, is_shifted, shift_ij
from .spaces import InstanceSpace, _axis_values, _intersecting_filter, _shifted_filter
from .spaces import _with_mask_filter


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    doc: str
    spaces: tuple[str, ...]
    defaults: tuple[tuple[str, object], ...] = ()
    exploratory: object = None   # None | True | callable(space, params) -> bool
    finalize: object = None      # callable(report, space, params) -> None

    def checked_params(self, params: dict | None) -> dict:
        """The defaults updated by `params`; a name they do not declare, or a
        value that is not an integer, is a ValueError, as in a space."""
        merged = dict(self.defaults, **(params or {}))
        check_named_params("claim", self.id, tuple(dict(self.defaults)), merged, integers=True)
        return merged

    def prepare(self, space: InstanceSpace, params: dict):
        return _PREPARE[self.id](space, params)


CLAIMS: dict[str, ClaimSpec] = {}
_PREPARE: dict[str, object] = {}


def _claim(id: str, doc: str, spaces, defaults=(), exploratory=None, finalize=None):
    def register(fn):
        CLAIMS[id] = ClaimSpec(id, doc, tuple(spaces), tuple(defaults), exploratory, finalize)
        _PREPARE[id] = fn
        return fn
    return register


def _against(value, bound, worse: str, detail: str, *args, tol=0) -> tuple[str, str | None]:
    """`value` held against `bound`: a violation when it lies more than tol
    past the bound on the `worse` side ("<" below, ">" above), with the
    detail detail.format(*args), built only then; an equality within tol
    of the bound; else ok."""
    if (value < bound - tol) if worse == "<" else (value > bound + tol):
        return "violation", detail.format(*args)
    if abs(value - bound) <= tol:
        return "equality", None
    return "ok", None


# The most keys a certified set holds.  A walk that misses the set walks on
# to its end, so the cap only makes walks longer and never changes a verdict.
MAX_CERTIFIED = 1 << 16


def _walk_certified(walk, seen: set[int]) -> tuple[str, str | None]:
    """Drive a step generator of (key, step) against the certified keys `seen`.

    The walk stops at the first key in `seen`: the walk from a state depends
    only on the state.  An InvariantViolation certifies nothing; a walk that
    ends ok adds its trail of keys to `seen`, emptied first if it would pass
    MAX_CERTIFIED, unless the trail alone is longer than that.
    """
    trail = []
    try:
        for key, _ in walk:
            if key in seen:
                break
            trail.append(key)
    except InvariantViolation as exc:
        return "violation", str(exc)
    if len(trail) <= MAX_CERTIFIED:
        if len(seen) + len(trail) > MAX_CERTIFIED:
            seen.clear()
        seen.update(trail)
    return "ok", None


def _uniform(check):
    """`check` on the k-uniform family of each instance: a construction-grid
    point (params, family) hands over its family, and an instance without a
    family or with a non-uniform one is skipped."""
    def on_instance(inst):
        fam = inst[1] if isinstance(inst, tuple) else inst
        if fam is None or fam.k is None:
            return "skip", None
        return check(fam)

    return on_instance


@functools.lru_cache(maxsize=None)
def _shadow_verdict(mode: str, n: int, k: int, size: int) -> tuple[int, bool] | None:
    """What a k-uniform family of `size` members over [n] must satisfy under
    the colex or real shadow bound: None when the claim skips it, else the
    least integer shadow size the bound allows and whether meeting it is an
    equality.  The colex bound is an integer; the real bound B gives
    ceil(B - 1e-9), an equality when that is within 1e-9 of B."""
    if k < 1 or (mode == "real" and size == 0):
        return None
    if mode == "colex":
        return level(n, k).colex_shadow_sizes[size], True
    bound = kk_bound(size, k)
    floor = ceil(bound - 1e-9)
    return floor, abs(floor - bound) <= 1e-9


def _shadow_check(mode: str):
    @_uniform
    def check(fam):
        verdict = _shadow_verdict(mode, fam.n, fam.k, len(fam))
        if verdict is None:
            return "skip", None
        floor, tight = verdict
        sh = len(shadow(fam, fam.k - 1))
        status, detail = _against(
            sh, floor, "<", "|shadow|={} < {}, the {} bound rounded up", sh, floor, mode
        )
        # a floor rounded up from a real bound is met without equality
        return ("ok", None) if status == "equality" and not tight else (status, detail)

    return check


@_claim(
    "shadow-colex-lower",
    "the immediate shadow is at least the shadow of the same-size colex segment",
    spaces=("all-families", "all-shifted-families", "random-sample", "constructions-grid"),
)
def _prep_shadow_colex(space, params):
    return _shadow_check("colex")


@_claim(
    "shadow-real-lower",
    "the immediate shadow is at least C(x, k-1) where C(x, k) = |F|",
    spaces=("all-families", "all-shifted-families", "random-sample", "constructions-grid"),
)
def _prep_shadow_real(space, params):
    return _shadow_check("real")


@_claim(
    "cross-unbalanced-size",
    "in a cross-intersecting pair, a star-sized side forces the other side "
    "below the star size",
    spaces=("all-cross-pairs",),
)
def _prep_cross_unbalanced(space, params):
    n, a, b = _cross_theorem_range(space)
    thr_a = comb(n - 1, a - 1)
    cap_b = comb(n - 1, b - 1)

    def check(pair):
        fam_a, fam_b = pair
        if len(fam_a) < thr_a:
            return "skip", None
        return _against(len(fam_b), cap_b, ">", "|B|={} > {}", len(fam_b), cap_b)

    return check


@_claim(
    "cross-shadow-size",
    "in a cross-intersecting pair, |A| >= C(x, n-a) forces |B| <= C(n,b) - C(x,b)",
    spaces=("all-cross-pairs",),
)
def _prep_cross_shadow(space, params):
    n, a, b = _cross_theorem_range(space)

    @functools.cache
    def cap_for(size_a: int) -> float:
        return comb(n, b) - gbinom(inv_gbinom(size_a, n - a), b)

    tol = 1e-9 * max(1.0, comb(n, b))

    def check(pair):
        fam_a, fam_b = pair
        if len(fam_a) < 1 or n == a:
            return "skip", None
        cap = cap_for(len(fam_a))
        return _against(len(fam_b), cap, ">", "|B|={} > {:.9f}", len(fam_b), cap, tol=tol)

    return check


@_claim(
    "cross-lex-segments",
    "replacing both sides of a cross-intersecting pair by same-size lex "
    "segments keeps them cross-intersecting",
    spaces=("all-cross-pairs",),
)
def _prep_cross_lex_segments(space, params):
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    segment = functools.cache(lex_segment)

    @functools.cache
    def verdict(size_a: int, size_b: int) -> tuple[str, str | None]:
        seg_a = segment(n, size_a, a)
        seg_b = segment(n, size_b, b)
        if len(seg_a) == 0 or len(seg_b) == 0:
            return "ok", None
        if not is_cross_t_intersecting([seg_a, seg_b], 1):
            return "violation", "lex segments are not cross-intersecting"
        return "ok", None

    def check(pair):
        fam_a, fam_b = pair
        return verdict(len(fam_a), len(fam_b))

    return check


@_claim(
    "shifted-correlation",
    "shifted families are positively correlated: |F1 n F2| C(n,k) >= |F1||F2|",
    spaces=("all-shifted-families",),
)
def _prep_shifted_correlation(space, params):
    total = comb(space.get("n"), space.get("k"))

    def check(pair):
        f1, f2 = pair
        inter = len(f1.member_set() & f2.member_set())
        return _correlation_verdict(inter, len(f1), len(f2), total)

    return check


def _correlation_verdict(inter: int, s1: int, s2: int, total: int) -> tuple[str, str | None]:
    """The correlation bound on two families of s1 and s2 members of a level
    of `total` sets that share `inter` members: inter * total >= s1 * s2."""
    return _against(inter * total, s1 * s2, "<", "{}*{} < {}*{}", inter, total, s1, s2)


@_claim(
    "compression-shadow-monotone",
    "colex compression never grows the immediate shadow along its trace",
    spaces=("all-families", "random-sample", "constructions-grid"),
)
def _prep_compression_monotone(space, params):
    """Each family's colex walk (`shifting._colex_walk`, which
    `compress_to_colex` drains) through `_walk_certified`, with one
    certified set per (n, k) level for one `verify` call in each worker."""
    certified: defaultdict[tuple[int, int], set[int]] = defaultdict(set)

    @_uniform
    def check(fam):
        return _walk_certified(_colex_walk(fam), certified[fam.n, fam.k])

    return check


@_claim(
    "cross-shift-preserves",
    "paired lex shifts keep a cross-intersecting pair cross-intersecting and "
    "drive it to lex initial segments",
    spaces=("all-cross-pairs",),
)
def _prep_cross_shift(space, params):
    """Each pair's paired lex walk (`shifting._cross_lex_walk`) through
    `_walk_certified`, with one certified set for one `verify` call."""
    certified: set[int] = set()

    def check(pair):
        return _walk_certified(_cross_lex_walk(*pair), certified)

    return check


def _cross_theorem_range(space: InstanceSpace) -> tuple[int, int, int]:
    """(n, a, b) of a cross-pair space, refused when n < a+b: there every
    a-set meets every b-set, outside the cross-pair theorems' range."""
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    if n < a + b:
        raise ValueError("need n >= a+b")
    return n, a, b


def _stability_thresholds(space: InstanceSpace, params: dict):
    """(threshold_a, threshold_b, cap_a, cap_b) of the cross-pair stability
    claim: the size thresholds of its hypothesis and the diversity caps of
    its conclusion."""
    u, v = params["u"], params["v"]
    if u < 3 or v < 3:
        raise ValueError("need u >= 3 and v >= 3")
    n, a, b = _cross_theorem_range(space)
    cap_a = gbinom(n - u - 1, n - a - 1)
    cap_b = gbinom(n - v - 1, n - b - 1)
    thr_a = gbinom(n - 1, a - 1) - gbinom(n - v - 1, a - 1) + cap_a
    thr_b = gbinom(n - 1, b - 1) - gbinom(n - u - 1, b - 1) + cap_b
    return thr_a, thr_b, cap_a, cap_b


def _stability_hypothesis(size_a: int, size_b: int, thr_a: int, thr_b: int) -> bool:
    """The stability claim's hypothesis: both sizes at or above, not both at, the thresholds."""
    return size_a >= thr_a and size_b >= thr_b and (size_a, size_b) != (thr_a, thr_b)


def _stability_finalize(report, space, params) -> None:
    """Replay the boundary pair built from the u=v=2 relaxation and record it
    as expected-boundary, never as a counterexample."""
    n, a, b = space.get("n"), space.get("a"), space.get("b")
    thr_a, thr_b, cap_a, cap_b = _stability_thresholds(space, params)
    if report.exploratory:
        report.notes["outside_theorem_range"] = True
    boundary_a = l_family(n, a, 2, 2)
    boundary_b = l_family(n, b, 2, 2)
    gamma_a = diversity(boundary_a).value
    gamma_b = diversity(boundary_b).value
    report.expected_boundary.append(
        {
            "pair": "size-threshold relaxation at u'=v'=2",
            "size_a": len(boundary_a),
            "size_b": len(boundary_b),
            "meets_size_thresholds": len(boundary_a) >= thr_a and len(boundary_b) >= thr_b,
            "gamma_a": gamma_a,
            "gamma_b": gamma_b,
            "gamma_cap_a": cap_a,
            "gamma_cap_b": cap_b,
            "violates_diversity_conclusion": gamma_a >= cap_a or gamma_b >= cap_b,
        }
    )


@_claim(
    "cross-diversity-stability",
    "a cross-intersecting pair at or above both size thresholds, above at "
    "least one, has both diversities below their caps and one common "
    "unique largest-degree element",
    spaces=("all-cross-pairs",),
    defaults=(("u", 3), ("v", 3)),
    exploratory=lambda space, params: not (
        params["u"] <= space.get("a") and params["v"] <= space.get("b")
    ),
    finalize=_stability_finalize,
)
def _prep_cross_stability(space, params):
    # the boundary pair that finalize builds, l_family(n, a, 2, 2), needs
    # both sides at 2 or more: refused here, before any scan
    a, b = space.get("a"), space.get("b")
    if a < 2 or b < 2:
        raise ValueError(f"need a >= 2 and b >= 2, not a={a}, b={b}")
    thr_a, thr_b, cap_a, cap_b = _stability_thresholds(space, params)

    def check(pair):
        fam_a, fam_b = pair
        size_a, size_b = len(fam_a), len(fam_b)
        if not _stability_hypothesis(size_a, size_b, thr_a, thr_b):
            return "skip", None
        da = diversity(fam_a).value
        db = diversity(fam_b).value
        if da >= cap_a:
            return "violation", f"diversity(A)={da} >= {cap_a}"
        if db >= cap_b:
            return "violation", f"diversity(B)={db} >= {cap_b}"
        degs_a = degree_vector(fam_a)
        degs_b = degree_vector(fam_b)
        if degs_a.count(max(degs_a)) != 1 or degs_b.count(max(degs_b)) != 1:
            return "violation", "largest-degree element is not unique"
        if degs_a.index(max(degs_a)) != degs_b.index(max(degs_b)):
            return "violation", "largest-degree elements differ between the sides"
        return "ok", None

    return check


@_claim(
    "restriction-boost",
    "for shifted r-wise t-intersecting families, restricting away from "
    "element 1 boosts the intersection level to t+r-1",
    spaces=("all-shifted-families", "all-families"),
    defaults=(("r", 2), ("t", 1)),
)
def _prep_restriction_boost(space, params):
    r, t = params["r"], params["t"]

    @_uniform
    def check(fam):
        if not is_shifted(fam) or not is_r_wise_t_intersecting(fam, r, t):
            return "skip", None
        rest = trace(fam, 0, 1)
        if not is_r_wise_t_intersecting(rest, r, t + r - 1):
            return "violation", f"restriction is not {r}-wise {t + r - 1}-intersecting"
        return "ok", None

    return _with_mask_filter(check, space, _shifted_filter)


@_claim(
    "shadow-diversity-stability",
    "size plus cover-diversity hypotheses force the stability shadow bound",
    spaces=("constructions-grid",),
)
def _prep_shadow_stability(space, params):
    def check(point):
        grid, fam = point
        n, k, x, y = (grid.get(key) for key in ("n", "k", "x", "y"))
        # the one grid-only claim on uniform families: it reads x and y
        if fam is None or fam.k is None or None in (n, k, x, y):
            return "skip", None
        try:
            size_floor = bound_value("shadow-stability-size", n=n, k=k, x=x, y=y)
            shadow_floor = bound_value("shadow-stability", n=n, k=k, x=x, y=y)
        except ValueError:
            return "skip", None
        if len(fam) < size_floor:
            return "skip", None
        if kk_diversity(fam, n).value < gbinom(x, k - 1):
            return "skip", None
        sh = len(shadow(fam, fam.k - 1))
        return _against(sh, shadow_floor, "<", "|shadow|={} < stability bound {}", sh, shadow_floor)

    return check


@_claim(
    "ratio-monotone",
    "the weighted binomial gap is monotone on its stated interval with the "
    "exact boundary identity",
    spaces=("constructions-grid",),
)
def _prep_ratio_monotone(space, params):
    def check(point):
        grid, _ = point
        m, t, s = grid.get("m"), grid.get("t"), grid.get("s")
        if None in (m, t, s) or s < 2 or t < 2 or m < s + t - 1:
            return "skip", None
        try:
            check_gap_monotonicity(m, t, s)
        except InvariantViolation as exc:
            return "violation", str(exc)
        return "ok", None

    return check


@functools.lru_cache(maxsize=None)
def _graph_verdict(s: int, avoided: int, cover: int, complete: bool) -> tuple[str, str | None]:
    """The graph-avoidance verdict for a graph with matching number s whose
    best s-set leaves `avoided` edges, on `cover` non-isolated vertices and
    complete on them or not.  The empty graph (s = 0) is skipped; the bound
    is C(s+1,2), met only by complete graphs on 2s+1 vertices, and a graph
    on more than 2s+1 vertices leaves at most C(s,2)+1."""
    if s == 0:
        return "skip", None
    bound = comb(s + 1, 2)
    if avoided > bound:
        return "violation", f"min avoided edges {avoided} > {bound}"
    if avoided == bound:
        if complete and cover == 2 * s + 1:
            return "equality", None
        return "violation", "bound met by a non-complete graph"
    if cover > 2 * s + 1 and avoided > comb(s, 2) + 1:
        return "violation", (
            f"non-clique-bounded graph leaves {avoided} > C(s,2)+1 edges"
        )
    return "ok", None


@_claim(
    "graph-avoidance",
    "a graph with matching number s has an s-set whose removal leaves at "
    "most C(s+1,2) edges; equality only at complete graphs on 2s+1 vertices",
    spaces=("all-graphs",),
)
def _prep_graph_avoidance(space, params):
    def check(fam):
        s = matching_number(fam)
        avoided = s_diversity(fam, s).value if s else len(fam)
        cover = 0
        for w in fam.members:
            cover |= w
        csize = cover.bit_count()
        return _graph_verdict(s, avoided, csize, len(fam) == comb(csize, 2))

    return check


@_claim(
    "rwise-diversity",
    "r-wise t-intersecting k-uniform families have diversity at most "
    "C(n-r-t, k-r-t+1)",
    spaces=("all-families", "all-shifted-families", "random-sample", "constructions-grid"),
    defaults=(("r", 3), ("t", 1)),
    exploratory=lambda space, params: not _rwise_in_range(space, params),
)
def _prep_rwise_diversity(space, params):
    r, t = params["r"], params["t"]

    @_uniform
    def check(fam):
        if len(fam) == 0 or fam.k - r - t + 1 < 0:
            return "skip", None
        if not is_r_wise_t_intersecting(fam, r, t):
            return "skip", None
        bound = gbinom(max(fam.n - r - t, 0), fam.k - r - t + 1)
        gamma = diversity(fam).value
        return _against(gamma, bound, ">", "diversity {} > {}", gamma, bound)

    # r-wise t-intersecting (repetition allowed) implies pairwise intersecting
    # once r >= 2 and t >= 1; other values reach the check's own error
    if r >= 2 and t >= 1:
        return _with_mask_filter(check, space, _intersecting_filter)
    return check


def _rwise_in_range(space: InstanceSpace, params: dict) -> bool:
    """Whether n > max(15, 2(r+t)) k at every point: a grid's least n, largest k."""
    n, k = space.get("n"), space.get("k")
    if n is None or k is None:
        return False
    ns, ks = _axis_values(n), _axis_values(k)
    r, t = params["r"], params["t"]
    return r >= 3 and t >= 1 and bool(ns and ks) and ns[0] > max(15, 2 * (r + t)) * ks[-1]


@_claim(
    "matching-diversity-max",
    "among families with matching number s, the two-of-a-head construction "
    "maximizes s-diversity",
    spaces=("all-families", "random-sample"),
    defaults=(("s", 2),),
    exploratory=True,
)
def _prep_matching_diversity(space, params):
    s = params["s"]
    n, k = space.get("n"), space.get("k")
    if k is None:
        raise ValueError("matching-diversity-max needs a uniform (n, k) space")
    benchmark = s_diversity(a2_family(n, k, s), s).value

    @_uniform
    def check(fam):
        if matching_number(fam) != s:
            return "skip", None
        value = s_diversity(fam, s).value
        return _against(value, benchmark, ">", "s-diversity {} > benchmark {}", value, benchmark)

    return check


@_claim(
    "shift-preserves",
    "each i<-j shift preserves size, uniformity and r-wise t-intersection, "
    "and never raises the matching number",
    spaces=("all-families", "random-sample"),
    defaults=(("r", 2), ("t", 1)),
)
def _prep_shift_preserves(space, params):
    r, t = params["r"], params["t"]

    def check(fam):
        inter = (
            is_r_wise_t_intersecting(fam, r, t) if len(fam) else True
        )
        nu = matching_number(fam)
        for i in range(1, fam.n + 1):
            for j in range(i + 1, fam.n + 1):
                shifted = shift_ij(fam, i, j)
                if len(shifted) != len(fam):
                    return "violation", f"size changed under ({i},{j})"
                if shifted.k != fam.k:
                    return "violation", f"uniformity changed under ({i},{j})"
                if inter and not is_r_wise_t_intersecting(shifted, r, t):
                    return "violation", (
                        f"{r}-wise {t}-intersection lost under ({i},{j})"
                    )
                if matching_number(shifted) > nu:
                    return "violation", f"matching number grew under ({i},{j})"
        return "ok", None

    return check


@_claim(
    "shift-degree-diversity",
    "degree bookkeeping of the i<-j shift: off-pair degrees are untouched, "
    "the receiving degree gains the one-sided flow, and diversity drops by "
    "at most half the two-sided flow",
    spaces=("all-families", "random-sample"),
)
def _prep_shift_degree(space, params):
    def check(fam):
        if fam.n < 2:
            return "skip", None
        degs = degree_vector(fam)
        gamma = diversity(fam).value if fam.n else 0
        for i in range(1, fam.n + 1):
            for j in range(i + 1, fam.n + 1):
                shifted = shift_ij(fam, i, j)
                sdegs = degree_vector(shifted)
                for x in range(1, fam.n + 1):
                    if x in (i, j):
                        continue
                    if sdegs[x - 1] != degs[x - 1]:
                        return "violation", f"degree of {x} changed under ({i},{j})"
                fi = set(trace(fam, 1 << (i - 1), 1 << (j - 1)).members)
                fj = set(trace(fam, 1 << (j - 1), 1 << (i - 1)).members)
                if sdegs[i - 1] != degs[i - 1] + len(fj - fi):
                    return "violation", f"receiving degree wrong under ({i},{j})"
                if sdegs[i - 1] != degs[j - 1] + len(fi - fj):
                    return "violation", f"donor-side identity wrong under ({i},{j})"
                if sdegs[j - 1] > sdegs[i - 1]:
                    return "violation", f"degree order wrong under ({i},{j})"
                flow = len(fi ^ fj)
                sgamma = diversity(shifted).value
                if sgamma < gamma - min(len(fi - fj), len(fj - fi)):
                    return "violation", f"diversity drop too large under ({i},{j})"
                if 2 * sgamma < 2 * gamma - flow:
                    return "violation", f"diversity drop beyond half-flow under ({i},{j})"
        return "ok", None

    return check


@_claim(
    "shifted-structure",
    "shifted families have descending degree sequence and diversity equal "
    "to the count of members avoiding element 1",
    spaces=("all-shifted-families", "all-families"),
)
def _prep_shifted_structure(space, params):
    def check(fam):
        if fam.n < 1 or not is_shifted(fam):
            return "skip", None
        degs = degree_vector(fam)
        if any(degs[i] < degs[i + 1] for i in range(len(degs) - 1)):
            return "violation", "degree sequence is not descending"
        gamma = diversity(fam)
        avoid1 = len(trace(fam, 0, 1))
        if gamma.value != avoid1 or gamma.value != len(fam) - degs[0]:
            return "violation", "diversity != members avoiding 1"
        if len(fam) and gamma.witness != 1:
            return "violation", "max-degree witness is not element 1"
        return "ok", None

    return _with_mask_filter(check, space, _shifted_filter)


@_claim(
    "intersecting-diversity-size",
    "an intersecting family with diversity at least C(n-u-1, n-k-1) has size "
    "at most the near-star threshold",
    spaces=("all-shifted-families", "all-families", "random-sample", "constructions-grid"),
)
def _prep_intersecting_diversity(space, params):
    @_uniform
    def check(fam):
        n, k = fam.n, fam.k
        if len(fam) == 0 or k < 3 or n <= 2 * k:
            return "skip", None
        if not is_r_wise_t_intersecting(fam, 2, 1):
            return "skip", None
        gamma = diversity(fam).value
        matched = equal = False
        for u in (3 + Fraction(i, 2) for i in range(2 * (k - 3) + 1)):
            if gamma < gbinom(_as_number(n - u - 1), n - k - 1):
                continue
            matched = True
            cap = bound_value("intersecting-diversity-size", n=n, k=k, u=_as_number(u))
            # a cap at a half-integer u is a float, held to a relative 1e-9
            real = isinstance(cap, float)
            fmt = "|F|={} > cap {:.9f} at u={}" if real else "|F|={} > cap {} at u={}"
            status, detail = _against(
                len(fam), cap, ">", fmt, len(fam), cap, u, tol=1e-9 * max(1.0, cap) if real else 0
            )
            if status == "violation":
                return status, detail
            equal = equal or status == "equality"
        if not matched:
            return "skip", None
        return ("equality", None) if equal else ("ok", None)

    return _with_mask_filter(check, space, _intersecting_filter)


def _as_number(value: Fraction):
    return int(value) if value.denominator == 1 else float(value)


@_claim(
    "t-intersecting-max",
    "t-intersecting families are no larger than the parity-threshold bound",
    spaces=("all-up-sets",),
    defaults=(("t", 2),),
)
def _prep_t_intersecting_max(space, params):
    t = params["t"]
    n = space.get("n")
    cap = bound_value("t-intersecting-size", n=n, t=t)

    def check(fam):
        if len(fam) == 0:
            return "skip", None
        if not is_r_wise_t_intersecting(fam, 2, t):
            return "skip", None
        return _against(len(fam), cap, ">", "|F|={} > {}", len(fam), cap)

    return check


def _max_union_deficit(fam: Family, r: int, cap: int | None = None) -> int:
    """max over <= r members of |union|; memoized DFS mirror of the
    intersection search.  With a cap, the walk stops at the first union
    larger than cap and returns its size instead."""
    members = fam.members
    best = 0
    searched: dict[tuple[int, int], int] = {}
    cap = fam.n if cap is None else cap

    def walk(start: int, union: int, left: int) -> bool:
        nonlocal best
        if union.bit_count() > best:
            best = union.bit_count()
            if best > cap:
                return True
        if left == 0:
            return False
        key = (union, left)
        prev = searched.get(key)
        if prev is not None and prev <= start:
            return False
        for idx in range(start, len(members)):
            w = union | members[idx]
            if w != union and walk(idx + 1, w, left - 1):
                return True
        searched[key] = start if prev is None else min(prev, start)
        return False

    any(walk(i + 1, members[i], r - 1) for i in range(len(members)))
    return best


def is_r_wise_t_union(fam: Family, r: int, t: int) -> bool:
    """Every r members jointly omit at least t elements of [n]."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(fam) == 0:
        return True
    return _max_union_deficit(fam, r, fam.n - t) <= fam.n - t


@_claim(
    "complement-duality",
    "complementing swaps r-wise t-intersecting with r-wise t-union and "
    "diversity with minimum degree",
    spaces=("all-families", "random-sample"),
    defaults=(("r", 2), ("t", 1)),
)
def _prep_complement_duality(space, params):
    r, t = params["r"], params["t"]

    def check(fam):
        if fam.n < 1:
            return "skip", None
        comp = complement_family(fam)
        lhs = is_r_wise_t_intersecting(fam, r, t) if len(fam) else True
        rhs = is_r_wise_t_union(comp, r, t)
        if lhs != rhs:
            return "violation", "intersecting/union duality failed"
        gamma = diversity(fam).value
        mindeg = min(degree_vector(comp)) if len(comp) else 0
        if len(fam) and gamma != mindeg:
            return "violation", f"diversity {gamma} != min degree {mindeg}"
        return "ok", None

    return check


@_claim(
    "influence-identity",
    "for up-closed families, half the maximum influence plus twice the "
    "normalized diversity equals the measure",
    spaces=("all-up-sets",),
)
def _prep_influence_identity(space, params):
    def check(fam):
        if fam.n < 1 or len(fam) == 0:
            return "skip", None
        if not is_up_closed(fam):
            return "skip", None
        scale = 1 << (fam.n - 1)
        profile = influence_profile(fam)
        bp_max = max(round(v * scale) for v in profile)
        gamma = diversity(fam).value
        if bp_max + 2 * gamma != len(fam):
            return "violation", (
                f"max boundary {bp_max} + 2*{gamma} != |F|={len(fam)}"
            )
        return "ok", None

    return check


def _kalai_finalize(report, space, params) -> None:
    seq = report.notes.get("max_influence", {})
    pairs = sorted((int(n), v) for n, v in seq.items())
    fitted = [v * n / log(n) for n, v in pairs if n >= 5]
    if fitted:
        report.notes["fitted_constant"] = max(fitted)
    drops = all(b[1] <= a[1] + 1e-12 for a, b in zip(pairs, pairs[1:]))
    report.notes["max_influence_nonincreasing"] = drops
    if not drops:
        report.violations += 1
        report.counterexamples.append(
            {"instance": {"params": {"trend": "max-influence"}, "family": None},
             "detail": "max influence increased with n"}
        )


@_claim(
    "kalai-properties",
    "the circle family is complement-antisymmetric, intersecting, up-closed "
    "for odd n, and its max influence shrinks like log n / n",
    spaces=("constructions-grid",),
    exploratory=True,
    finalize=_kalai_finalize,
)
def _prep_kalai_properties(space, params):
    notes = params["_notes"]

    def check(point):
        grid, fam = point
        if fam is None:
            return "skip", None
        n = grid["n"]
        full = (1 << n) - 1
        if len(fam) != 1 << (n - 1):
            return "violation", f"|F|={len(fam)} != 2^{n-1}"
        present = fam.member_set()
        for w in range(1 << n):
            if (w in present) == ((full ^ w) in present):
                return "violation", f"complement pair {set_repr(w)} not split"
        for w in fam.members:
            if (full ^ w) in present:
                return "violation", "family contains a disjoint (complementary) pair"
        if n % 2 == 1:
            if not is_up_closed(fam):
                return "violation", "odd-n circle family is not up-closed"
            if not is_r_wise_t_intersecting(fam, 2, 1):
                return "violation", "circle family is not intersecting"
            profile = influence_profile(fam)
            notes.setdefault("max_influence", {})[str(n)] = max(profile)
        return "ok", None

    return check


@_claim(
    "t-intersecting-diversity",
    "the parity-threshold families are t-intersecting, meet the size bound "
    "with equality, and their diversity obeys the one-element restriction bound",
    spaces=("constructions-grid",),
    exploratory=True,
)
def _prep_t_intersecting_diversity(space, params):
    notes = params["_notes"]

    def check(point):
        grid, fam = point
        n, t = grid.get("n"), grid.get("t")
        if fam is None or None in (n, t):
            return "skip", None
        if not is_r_wise_t_intersecting(fam, 2, t):
            return "violation", f"construction is not {t}-intersecting"
        cap = bound_value("t-intersecting-size", n=n, t=t)
        if len(fam) != cap:
            return "violation", f"|F|={len(fam)} != bound {cap}"
        gamma = diversity(fam).value
        if n - 1 >= t:
            restriction_cap = bound_value("t-intersecting-size", n=n - 1, t=t)
            if gamma > restriction_cap:
                return "violation", (
                    f"diversity {gamma} > restriction bound {restriction_cap}"
                )
        notes.setdefault("gamma", {})[f"{n},{t}"] = gamma
        return "equality", None

    return check

