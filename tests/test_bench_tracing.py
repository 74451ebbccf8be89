"""bench/tracing.py finds every function it wraps.

The tracer looks its spans and leaves up by module and function name, so a
rename under src/ would silently drop a layer from `bench/run.py --trace 1`.
The tracer is loaded by path, as the benchmark runs it, not imported as a
package.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


def test_installs_after_importing_the_cli_alone():
    # bench/run.py imports sgedr.cli and nothing else before install(), which
    # looks every wrapped module up in sys.modules; the test above imports
    # each module itself, so it cannot see one the cli no longer loads
    code = (
        "import importlib.util, sgedr.cli\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.begin_pass()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
