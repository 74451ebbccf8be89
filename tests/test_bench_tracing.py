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


# (argv, exit code): a replay that calls every wrapped function through the
# CLI; experiment exits 2 on the default setup's known reference mismatches
REPLAY = [
    (["experiment"], 2),
    (["lw", "--steps", "3"], 0),
    (["region", "--steps", "2"], 0),
    (["validate", "--grid-n", "512"], 0),
    (["tau-opt", "--steps", "3"], 0),
]


def test_traced_replay_fires_every_span_and_leaf(capsys):
    # a signature change under src/ that the wrappers or their callers miss
    # fails here rather than first in `bench/run.py --trace 1`
    from sgedr.cli import main

    tracer = tracing.Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        codes = [main(argv) for argv, _ in REPLAY]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [code for _, code in REPLAY]
    assert {span[0] for span in tracer.spans} == {name for _, _, name, _ in tracing.SPANS}
    assert {name for _, _, name in tracing.LEAVES} <= set(tracer.leaves[-1])
    # validate's 8 default cases each read eps^2 and eta^2 in a gridsim.measure
    # span, and no other replayed command reads either; a readout renamed
    # away from SPANS would drop out of that layer figure silently
    assert [span[0] for span in tracer.spans].count("gridsim.measure") == 16
