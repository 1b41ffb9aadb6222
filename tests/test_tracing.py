"""The benchmark's trace points (perfbench/tracing.py) must name functions
that exist where their callers look them up, and ``restore`` must put every
original back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_every_original_back():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        # an AttributeError here means a traced function was renamed or removed
        tracing.install(tracer)
        patched = [(owner, attr, original, getattr(owner, attr))
                   for owner, attr, original in tracer._patched]
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original, wrapper in patched:
        assert wrapper.__wrapped__ is original, attr
        assert getattr(owner, attr) is original, attr
