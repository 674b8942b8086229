"""The benchmark's traced runs rebind package attributes by name
(`perfbench/run.py --trace 1`); every name they rebind must exist, or an
API trim breaks them only when the benchmark is run with tracing."""

import importlib.util
from pathlib import Path

import casimir_laurent
import casimir_laurent.cli  # noqa: F401  (trace_bindings reads pkg.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_bindings_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # run.py imports hostspeed
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    bindings = run.trace_bindings(casimir_laurent)
    assert bindings
    assert [(module.__name__, attr) for module, attr, *_ in bindings
            if not hasattr(module, attr)] == []
