"""The benchmark's tracer still finds every name it wraps.

``perfbench/layers.py`` imports and wraps public callables of every
layer by name (``Simulator.run``, ``ScalarKernel.execute_one``,
``kernels.execute_specs``, the backends' and the results store's
methods, ...).  Deleting or renaming one breaks every traced benchmark
run; this test instruments the whole program once, restores it, and
checks that no wrapper is left behind.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_instrument_and_restore_leave_no_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import tracer

    traced = tracer.Tracer()
    try:
        layers.instrument(traced)
        assert tracer.leftover_wrappers() != []
    finally:
        traced.patcher.restore()
    assert tracer.leftover_wrappers() == []
