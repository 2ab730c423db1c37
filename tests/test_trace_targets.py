"""The benchmark's traced run (``bench/run.py --trace 1``) wraps the
functions named in ``bench/spans.py`` ``TARGETS`` at the module attributes
where their callers look them up; each must still exist there."""

import importlib.util
import inspect
import os

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py"
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_contract", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for owner, attr, span in targets:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({span})")
    assert missing == []
