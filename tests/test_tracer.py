"""The benchmark's tracer still reaches the verifier's layers.

perfbench/tracer.py patches names in shadowlab's modules from outside; a
name it patches that the engine no longer calls would leave its span empty
and the benchmark's per-layer numbers silently at zero."""

import importlib.util
from pathlib import Path

from shadowlab.verifier import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_record_every_engine_path():
    tracer = _load_tracer().install()
    try:
        verify("shadow-colex-lower", "all-families:n=4,k=2")             # shadow kernel
        verify("graph-avoidance", "all-graphs:n=4")                      # graph kernel
        verify("shifted-structure", "all-families:n=4,k=2", jobs=1)      # numbered scan
        verify("shifted-structure", "all-shifted-families:n=5,k=2")      # streamed scan
        stats = tracer.stats
        for span in ("verifier.kernel.shadow", "verifier.kernel.graph",
                     "verifier.check", "verifier.iter_space"):
            assert span in stats and stats[span].calls > 0, span
    finally:
        tracer.uninstall()


def test_traced_pair_kernels_give_the_untraced_reports():
    # both kernels check pairs through the claim's prepared check, which
    # the tracer wraps
    runs = (("cross-diversity-stability", "all-cross-pairs:n=5,a=2,b=2"),
            ("shifted-correlation", "all-shifted-families:n=5,k=2"))
    plain = [verify(*run).canonical_json() for run in runs]
    tracer = _load_tracer().install()
    try:
        traced = [verify(*run).canonical_json() for run in runs]
        assert tracer.stats["verifier.check"].calls > 0
    finally:
        tracer.uninstall()
    assert traced == plain


def test_traced_cross_shift_and_circle_builds_give_the_untraced_reports():
    # the cross-shift check looks the paired shift step up when it runs,
    # and the grid builds its circle families through constructions.build
    runs = (("cross-shift-preserves", "all-cross-pairs:n=4,a=2,b=2"),
            ("kalai-properties", "constructions-grid:n=3..9,name=kalai_circle"))
    plain = [verify(*run).canonical_json() for run in runs]
    tracer = _load_tracer().install()
    try:
        traced = [verify(*run).canonical_json() for run in runs]
        for span in ("shifting.cross_lex_shift_step", "constructions.build"):
            assert tracer.stats[span].calls > 0, span
    finally:
        tracer.uninstall()
    assert traced == plain
