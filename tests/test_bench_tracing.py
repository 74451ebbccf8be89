"""bench/tracing.py finds every function it wraps.

The tracer looks its spans and leaves up by module and function name, so a
rename under src/ would silently drop a layer from `bench/run.py --trace 1`.
The tracer is loaded by path, as the benchmark runs it, not imported as a
package.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = sorted(
    {(module, attr) for module, attr, *_ in tracing.SPANS}
    | {(module, attr) for module, attr, _ in tracing.LEAVES}
)


@pytest.mark.parametrize("module, attr", TARGETS)
def test_target_resolves(module, attr):
    assert module.partition(".")[0] == "sgedr"
    assert callable(getattr(importlib.import_module(module), attr, None))
