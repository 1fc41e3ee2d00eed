"""Spans around calls into shadowlab's layers, recorded from outside.

Each traced function is replaced by a wrapper in every shadowlab module that
holds it, because `from .families import shadow` copies the function into
`verifier` and `shifting`, where patching `families.shadow` would not reach.
A span's self time is its duration minus the durations of the traced spans
it directly contains.  Spans are summed in memory per name.
"""

from __future__ import annotations

import functools
import sys
import time

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.count = 0  # a per-layer work count, such as compression steps


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []
        self.first_next: dict[str, float] = {}  # space -> time to its first instance
        self.cold = 0.0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def reset(self) -> None:
        for stat in self.stats.values():  # the wrappers hold these objects
            stat.__init__()
        self.first_next.clear()
        self.cold = 0.0

    def _close(self, stat: Stat, start: float) -> float:
        dt = clock() - start
        child = self._stack.pop()
        stat.calls += 1
        stat.total += dt
        stat.self += dt - child
        if self._stack:
            self._stack[-1] += dt
        return dt

    def span(self, name: str, fn, count=None):
        """Wrap `fn`; `count(result)` adds to the span's work count."""
        stat = self.stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stat, start)
            if count is not None:
                stat.count += count(result)
            return result

        return wrapper

    def generator_span(self, name: str, fn, key):
        """Wrap a generator function and time each `next`; the first `next`
        of each call is also kept under `key(*args)`."""
        stat = self.stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = key(*args, **kwargs)
            it = fn(*args, **kwargs)
            first = True
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(stat, start)
                    return
                except BaseException:
                    self._close(stat, start)
                    raise
                dt = self._close(stat, start)
                if first:
                    self.first_next[label] = self.first_next.get(label, 0.0) + dt
                    first = False
                yield item

        return wrapper

    def cached_span(self, name: str, fn):
        """Wrap an lru_cache function; calls that miss the cache add to `cold`."""
        stat = self.stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args):
            misses = fn.cache_info().misses
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                dt = self._close(stat, start)
                if fn.cache_info().misses != misses:
                    self.cold += dt

        return wrapper

    def patch_everywhere(self, original, replacement) -> None:
        """Replace `original` in the namespace of every loaded shadowlab module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "shadowlab" or modname.startswith("shadowlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_item(self, mapping: dict, key, replacement) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


# (module, function) pairs traced by name and self time.
PLAIN = (
    ("verifier", "verify_cross_pair_space"),
    ("families", "shadow"),
    ("families", "is_r_wise_t_intersecting"),
    ("families", "is_cross_t_intersecting"),
    ("families", "degree_vector"),
    ("orders", "colex_rank"),
    ("shifting", "find_colex_violation"),
    ("shifting", "is_shifted"),
    ("shifting", "cross_lex_shift_step"),
    ("diversity", "diversity"),
    ("diversity", "influence_profile"),
    ("binomials", "inv_gbinom"),
    ("binomials", "kk_bound"),
    ("constructions", "build"),
)


def install() -> Tracer:
    """Wrap the traced layer functions of the imported shadowlab package."""
    import importlib

    from shadowlab import families, orders, shifting, verifier

    tracer = Tracer()
    for modname, fname in PLAIN:
        module = importlib.import_module(f"shadowlab.{modname}")
        original = getattr(module, fname)
        tracer.patch_everywhere(original, tracer.span(f"{modname}.{fname}", original))

    original = shifting.compress_to_colex
    tracer.patch_everywhere(original, tracer.span(
        "shifting.compress_to_colex", original, count=lambda result: len(result[1])))

    original = verifier.iter_space
    tracer.patch_everywhere(original, tracer.generator_span(
        "verifier.iter_space", original, key=lambda space, *_a, **_k: space.describe()))

    original = orders.level_words
    tracer.patch_everywhere(original, tracer.cached_span("orders.level_words", original))

    init = families.Family.__init__
    tracer.patch_attr(families.Family, "__init__", tracer.span("families.Family", init))

    prepare = verifier.ClaimSpec.prepare
    check_span = functools.partial(tracer.span, "verifier.check")

    def traced_prepare(self, space, params):
        return check_span(prepare(self, space, params))

    tracer.patch_attr(verifier.ClaimSpec, "prepare", traced_prepare)

    tracer.patch_attr(verifier, "_shadow_kernel",
                      tracer.span("verifier.kernel.shadow", verifier._shadow_kernel))
    for key, kernel in list(verifier.KERNELS.items()):
        if kernel is verifier._graph_kernel:
            tracer.patch_item(verifier.KERNELS, key, tracer.span("verifier.kernel.graph", kernel))
    return tracer
