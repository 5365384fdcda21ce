"""The benchmark's trace pass wraps package functions by name; each
target it names must still exist where perfbench/tracer.py looks it up."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.SPANS
               if not callable(owner.__dict__.get(attr))]
    assert not missing, missing
