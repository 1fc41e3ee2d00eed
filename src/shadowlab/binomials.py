"""Generalized binomial coefficients, their inverses, and named closed-form bounds.

C(x, k) for real x is the falling factorial over k!, with C(x, k) = 0 below
the diagonal x < k.  Integer (and Fraction) arguments are evaluated exactly
in arbitrary-precision arithmetic; floats stay floats.  The ``bound_value``
registry names the closed-form thresholds; ``rwise-diversity``,
``cross-shadow-size`` and the stability thresholds are evaluated in their
claims, which also run outside the registry's ranges, as exploratory.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .families import Family, InvariantViolation

Numeric = int | float | Fraction
GAP_SAMPLES = 100  # grid steps across each interval check_gap_monotonicity samples


def gbinom(x: Numeric, k: int) -> Numeric:
    """Generalized binomial C(x, k); exact for int/Fraction x, float otherwise."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("x must be finite")
    if isinstance(x, bool):
        raise ValueError("x must be numeric")
    if isinstance(x, int):
        return math.comb(x, k) if x >= k else 0
    if isinstance(x, Fraction):
        if x < k:
            return Fraction(0)
        num = Fraction(1)
        for i in range(k):
            num *= x - i
        return num / math.factorial(k)
    if x < k:
        return 0.0
    prod = 1.0
    for i in range(k):
        prod *= x - i
    return prod / math.factorial(k)


def inv_gbinom(m: float, k: int) -> float:
    """The unique real x >= k with C(x, k) = m, for m >= 1.

    Bisection on [k, hi], hi doubled from k + 2m until it brackets; the
    residual |C(x,k) - m| is certified below 1e-9 * max(1, m).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    m = float(m)
    lo, hi = float(k), float(k + 2 * m)
    while gbinom(hi, k) < m:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if gbinom(mid, k) < m:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    if abs(gbinom(x, k) - m) > 1e-9 * max(1.0, m):
        raise ArithmeticError(f"inverse binomial did not converge for m={m}, k={k}")
    return x


def kk_bound(m: int, k: int) -> float:
    """Shadow lower bound C(x, k-1) where C(x, k) = m (real x >= k)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(gbinom(inv_gbinom(m, k), k - 1))


# -- named closed-form bounds ----------------------------------------------


def _intersecting_diversity_size(n, k, u):
    _req(n > 2 * k > 0, "need n > 2k > 0")
    _req(3 <= u <= k, "need 3 <= u <= k")
    return gbinom(n - 1, k - 1) + gbinom(_i(n - u - 1), n - k - 1) - gbinom(_i(n - u - 1), k - 1)


def _cross_pair_size(n, a, u, v):
    _req(a >= 1 and n >= 2 * a, "need n >= 2a >= 2")
    _req(u >= 3 and v >= 3, "need u, v >= 3")
    _req(u <= a, "need u <= a")
    return (
        gbinom(n - 1, a - 1)
        - gbinom(_i(n - v - 1), a - 1)
        + gbinom(_i(n - u - 1), n - a - 1)
    )


def _shadow_stability_range(n, k, x, y):
    """The range both Kruskal-Katona stability bounds are stated for."""
    _req(n > k > 0, "need n > k > 0")
    _req(k - 1 <= x <= n - 3, "need k-1 <= x <= n-3")
    _req(n - k <= y <= n - 3, "need n-k <= y <= n-3")


def _shadow_stability(n, k, x, y):
    _shadow_stability_range(n, k, x, y)
    return gbinom(n, k - 1) - gbinom(_i(y), n - k + 1) + gbinom(_i(x), max(k - 2, 0))


def _shadow_stability_size(n, k, x, y):
    _shadow_stability_range(n, k, x, y)
    return gbinom(n, k) - gbinom(_i(y), n - k) + gbinom(_i(x), k - 1)


def _rwise_diversity(n, k, r, t):
    _req(r >= 3 and t >= 1, "need r >= 3 and t >= 1")
    _req(k >= r + t - 1, "need k >= r+t-1")
    _req(n >= r + t, "need n >= r+t")
    return gbinom(n - r - t, k - r - t + 1)


def _shifted_t_diversity(n, k, t):
    _req(t >= 1 and k >= t + 1, "need k > t >= 1")
    _req(n >= 1 + (k - t) * (t + 2), "need n >= 1+(k-t)(t+2)")
    return gbinom(n - t - 2, k - t - 1)


def _shifted_rwise_diversity(n, r, t):
    _req(r >= 3 and 1 <= t <= 2**r - 2 * r, "need r >= 3 and 1 <= t <= 2^r-2r")
    _req(n >= r + t, "need n >= r+t")
    return 2 ** (n - r - t)


def _t_intersecting_size(n, t):
    _req(t >= 1 and n >= t, "need n >= t >= 1")
    if (n + t) % 2 == 0:
        return sum(math.comb(n, i) for i in range((n + t) // 2, n + 1))
    return 2 * sum(math.comb(n - 1, i) for i in range((n + t - 1) // 2, n))


def _cross_t_product(n, k, t):
    """C(n-t, k-t)^2, the cap on |A||B| for cross t-intersecting k-uniform A, B.

    Stated only for n >= max(15, t+1) k and used as a black box there.
    Padding by alpha (``pad_cross_families``) maps (n, k, t) to
    (n+alpha, k+alpha, t+alpha) and raises the threshold by at least
    15 alpha, so a padded instance usually leaves this range.
    """
    _req(k >= t >= 1, "need k >= t >= 1")
    _req(n >= max(15, t + 1) * k, "need n >= max(15, t+1) k")
    return gbinom(n - t, k - t) ** 2


def _cross_shadow(n, a, b, x):
    _req(n >= a + b, "need n >= a+b")
    _req(n - a <= x <= n, "need n-a <= x <= n")
    return gbinom(n, b) - gbinom(_i(x), b)


def _kk(m, k):
    return kk_bound(_int_param(m), _int_param(k))


BOUND_NAMES = {
    "kk": (_kk, ("m", "k")),
    "intersecting-diversity-size": (_intersecting_diversity_size, ("n", "k", "u")),
    "cross-pair-size": (_cross_pair_size, ("n", "a", "u", "v")),
    "shadow-stability": (_shadow_stability, ("n", "k", "x", "y")),
    "shadow-stability-size": (_shadow_stability_size, ("n", "k", "x", "y")),
    "rwise-diversity": (_rwise_diversity, ("n", "k", "r", "t")),
    "shifted-t-diversity": (_shifted_t_diversity, ("n", "k", "t")),
    "shifted-rwise-diversity": (_shifted_rwise_diversity, ("n", "r", "t")),
    "t-intersecting-size": (_t_intersecting_size, ("n", "t")),
    "cross-t-product": (_cross_t_product, ("n", "k", "t")),
    "cross-shadow": (_cross_shadow, ("n", "a", "b", "x")),
}


def bound_value(name: str, **params: Numeric) -> Numeric:
    """Evaluate a named closed-form bound; exact when all arguments are integral."""
    if name not in BOUND_NAMES:
        raise ValueError(f"unknown bound {name!r}; know {sorted(BOUND_NAMES)}")
    fn, wanted = BOUND_NAMES[name]
    check_named_params("bound", name, wanted, params)
    return fn(**params)


def check_named_params(what: str, name: str, wanted, params, integers: bool = False) -> None:
    """Reject missing, extra and, with `integers`, non-integer named parameters."""
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        raise ValueError(
            f"{what} {name!r} takes {wanted}; missing {missing}, extra {extra}"
        )
    for key, val in params.items():
        if integers and not isinstance(val, int):
            raise ValueError(f"{what} {name!r} needs an integer {key}=..., not {val!r}")


def _req(cond: bool, why: str) -> None:
    if not cond:
        raise ValueError(f"parameter out of range: {why}")


def _i(value: Numeric) -> Numeric:
    """Collapse float-typed integral values produced by parameter arithmetic."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _int_param(value: Numeric) -> int:
    value = _i(value)
    if not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


# -- monotone gap analytics --------------------------------------------------


def weighted_binomial_gap(x: Numeric, m: int, t: int, s: int) -> Numeric:
    """C(x,t-1) * C(m-3,s-2)/C(m-3,t-2) - C(x,m-s).

    Monotone increasing for m-s <= x <= m-3 (strictly when m >= s+t), and
    constant in x when m = s+t-1.  Exact rational for int/Fraction x.
    """
    _check_gap_params(m, t, s)
    c1 = gbinom(m - 3, s - 2)
    c2 = gbinom(m - 3, t - 2)
    lead = gbinom(x, t - 1)
    tail = gbinom(x, m - s)
    if isinstance(lead, float):
        return lead * c1 / c2 - tail
    return lead * Fraction(c1, c2) - tail


def stationary_gap(z: Numeric, m: int, t: int, s: int) -> Numeric:
    """C(z,m-s) * (sum_{i=t-1}^{m-s-1} 1/(z-i)) / (sum_{i=0}^{t-2} 1/(z-i)).

    The value of the gap function at its interior stationary points;
    monotone increasing in z beyond m-3.
    """
    _check_gap_params(m, t, s)
    if isinstance(z, int):
        z = Fraction(z)
    for i in range(0, max(t - 1, m - s)):
        if z == i:
            raise ValueError(f"z={z} hits a pole of the harmonic sums")
    one = Fraction(1) if isinstance(z, Fraction) else 1.0
    num = sum((one / (z - i) for i in range(t - 1, m - s)), start=one * 0)
    den = sum((one / (z - i) for i in range(0, t - 1)), start=one * 0)
    return gbinom(z, m - s) * num / den


def check_gap_monotonicity(m: int, t: int, s: int) -> None:
    """Grid-check the monotonicity and boundary identities of the gap function.

    Raises InvariantViolation on any failure: non-monotone step on
    [m-s, m-3], a broken plateau beyond m-3, or the exact equality of the
    gap at m-3 and m-2.
    """
    _check_gap_params(m, t, s)
    lo, hi = m - s, m - 3
    if m == s + t - 1:
        span = Fraction(m - 2 - lo)
        vals = {weighted_binomial_gap(Fraction(lo) + span * j / 10, m, t, s)
                for j in range(11)}
        if len(vals) > 1:
            raise InvariantViolation("gap is not constant at m = s+t-1")
        return
    if hi > lo:
        step = Fraction(hi - lo, GAP_SAMPLES)
        prev = weighted_binomial_gap(Fraction(lo), m, t, s)
        for idx in range(1, GAP_SAMPLES + 1):
            cur = weighted_binomial_gap(Fraction(lo) + idx * step, m, t, s)
            if cur <= prev:
                raise InvariantViolation(
                    f"gap not strictly increasing on [{lo},{hi}] at sample {idx}"
                )
            prev = cur
    at_hi = weighted_binomial_gap(m - 3, m, t, s)
    at_hi2 = weighted_binomial_gap(m - 2, m, t, s)
    if at_hi != at_hi2:
        raise InvariantViolation(f"gap({m-3}) != gap({m-2}): {at_hi} vs {at_hi2}")
    step = Fraction(1, GAP_SAMPLES)
    for idx in range(GAP_SAMPLES + 1):
        y = Fraction(m - 3) + idx * step
        if weighted_binomial_gap(y, m, t, s) < at_hi:
            raise InvariantViolation(f"gap({y}) fell below gap({m-3})")


def _check_gap_params(m: int, t: int, s: int) -> None:
    if s < 2 or t < 2:
        raise ValueError("need s >= 2 and t >= 2")
    if m < s + t - 1:
        raise ValueError("need m >= s+t-1")


# -- ground-set padding ------------------------------------------------------


def pad_cross_families(a: Family, b: Family, alpha: int) -> tuple[Family, Family]:
    """Append the fresh elements [n+1, n+alpha] to every member of both families.

    Sizes are unchanged and every pairwise intersection grows by exactly
    alpha, so a cross t-intersecting pair becomes cross (t+alpha)-intersecting
    (certified at runtime).
    """
    if a.k is None or b.k is None:
        raise ValueError("padding needs uniform families")
    if a.n != b.n:
        raise ValueError("mismatched ground sizes")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n2 = a.n + alpha
    if n2 > 64:
        raise ValueError(f"padded ground set {n2} exceeds 64")
    pad = ((1 << alpha) - 1) << a.n
    pa = Family(n2, (w | pad for w in a.members), k=a.k + alpha if len(a) == 0 else None)
    pb = Family(n2, (w | pad for w in b.members), k=b.k + alpha if len(b) == 0 else None)
    if len(pa) != len(a) or len(pb) != len(b):
        raise ArithmeticError("padding changed a family size")
    before = _min_cross_intersection(a, b)
    after = _min_cross_intersection(pa, pb)
    if before is not None and after != before + alpha:
        raise ArithmeticError("padding did not raise the cross-intersection level")
    return pa, pb


def _min_cross_intersection(a: Family, b: Family) -> int | None:
    if len(a) == 0 or len(b) == 0:
        return None
    return min((wa & wb).bit_count() for wa in a.members for wb in b.members)
