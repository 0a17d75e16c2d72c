"""Shared fixtures: small graphs, partitions and workloads used across tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.composites import dumbbell_graph, two_expanders
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.topologies import complete_graph

from oracles import cycle_graph, path_graph


@pytest.fixture
def triangle() -> Graph:
    """The smallest interesting graph: K3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_path() -> Graph:
    """P4: 0-1-2-3."""
    return path_graph(4)


@pytest.fixture
def k6() -> Graph:
    """K6."""
    return complete_graph(6)


@pytest.fixture
def c8() -> Graph:
    """C8."""
    return cycle_graph(8)


@pytest.fixture
def small_dumbbell():
    """Dumbbell with two K8 halves (BridgedPair)."""
    return dumbbell_graph(16)


@pytest.fixture
def medium_dumbbell():
    """Dumbbell with two K16 halves (BridgedPair)."""
    return dumbbell_graph(32)


@pytest.fixture
def small_expander_pair():
    """Two 4-regular expanders on 12 vertices each, one bridge."""
    return two_expanders(12, 12, degree=4, n_bridges=1, seed=42)


@pytest.fixture
def unbalanced_partition() -> Partition:
    """A 2-vs-4 partition of K6 (cut size 8)."""
    return Partition(complete_graph(6), [0, 0, 1, 1, 1, 1])


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture(
    params=[
        "serial",
        pytest.param("process", marks=pytest.mark.slow),
    ]
)
def backend(request):
    """One :class:`ExecutionBackend` per flavor — the cross-backend matrix.

    Tests taking this fixture run once per backend (serial and a 2-worker
    process pool), which is what makes serial/process bit-identity one
    parametrized suite instead of two copy-pasted ones.  The process
    param carries the ``slow`` marker; teardown releases its workers.
    """
    if request.param == "serial":
        from repro.engine.backends import SerialBackend

        yield SerialBackend()
        return
    from repro.engine.backends import ProcessPoolBackend

    pool = ProcessPoolBackend(2)
    yield pool
    pool.shutdown()
