"""Memoized builders hand out shared, immutable instances.

The seeded sparse-cut builders return the same :class:`BridgedPair` for
the same canonical arguments and integer seed, and partitions cache their
induced subgraphs.  These tests pin the contract that makes that safe:
shared arrays are read-only, caches never reach a pickle, and a warm memo
never changes a report.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.experiments.specs import run_experiment
from repro.graphs import spectral
from repro.graphs.clustering import ClusterPartition, chain_of_cliques
from repro.graphs.composites import (
    dumbbell_graph,
    two_cliques,
    two_erdos_renyi,
    two_expanders,
    two_grids,
)
from repro.graphs.partition import Partition
from repro.graphs.topologies import complete_graph

MEMOIZED = (two_cliques, two_expanders, two_grids, two_erdos_renyi)


def clear_memos() -> None:
    """Forget every memoized instance and cached spectrum (a cold process)."""
    for builder in MEMOIZED:
        builder.cache_clear()
    spectral.laplacian_spectrum.cache_clear()
    spectral._fiedler_cached.cache_clear()


class TestMemo:
    def test_int_seed_returns_the_same_instance(self):
        first = two_expanders(10, degree=4, seed=3)
        assert two_expanders(10, None, degree=4, n_bridges=1, seed=3) is first
        assert two_expanders(n1=10, seed=3, degree=4) is first
        assert two_expanders(10, degree=4, seed=np.int64(3)).graph == first.graph
        assert two_expanders(10, degree=4, seed=4) is not first

    def test_generator_seed_bypasses_the_memo(self):
        built = [
            two_expanders(10, degree=4, seed=np.random.default_rng(3))
            for _ in range(2)
        ]
        assert built[0] is not built[1]
        assert built[0].graph == built[1].graph
        assert built[0].graph == two_expanders(10, degree=4, seed=3).graph

    def test_entropy_seed_bypasses_the_memo(self):
        assert two_expanders(10, degree=4) is not two_expanders(10, degree=4)
        assert two_erdos_renyi(8) is not two_erdos_renyi(8)

    def test_fixed_builders_memoize_without_a_seed(self):
        assert dumbbell_graph(8) is dumbbell_graph(8)
        assert two_grids(2, 3) is two_grids(2, 3)

    def test_bad_arguments_still_raise_the_builders_errors(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            two_cliques(4, colour="red")
        with pytest.raises(ValueError):
            two_expanders(10, degree=4, seed=-1)


class TestReadOnlySharedArrays:
    def test_bridge_ids_and_cluster_arrays_reject_writes(self):
        pair = two_expanders(10, degree=4, n_bridges=2, seed=5)
        _, clusters = chain_of_cliques(4, 3)
        arrays = [
            pair.bridge_edge_ids,
            *(clusters.members(c) for c in range(clusters.k)),
            *(clusters.internal_edge_ids(c) for c in range(clusters.k)),
            clusters.cut_edge_ids(0, 1),
            clusters.cut_edge_ids(0, 2),  # not adjacent: the empty array
            clusters.subgraph(1)[1],
            pair.partition.subgraphs()[1],
            pair.partition.subgraphs()[3],
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_constructors_freeze_their_own_copy_of_the_labels(self):
        graph = complete_graph(6)
        side = np.array([0, 0, 1, 1, 1, 1])
        labels = np.array([0, 0, 1, 1, 2, 2])
        Partition(graph, side)
        ClusterPartition(graph, labels)
        assert side.flags.writeable and labels.flags.writeable


class TestCachesStayOutOfPickles:
    def test_partition_pickle_ignores_subgraph_cache(self):
        partition = two_cliques(5, 6, n_bridges=2, seed=1).partition
        fresh = pickle.loads(pickle.dumps(partition))
        before = pickle.dumps(fresh)
        g1, map1, g2, map2 = fresh.subgraphs()
        assert fresh.subgraphs()[0] is g1
        fresh.sides_connected()
        assert pickle.dumps(fresh) == before
        restored = pickle.loads(before)
        assert restored.subgraphs()[0] == g1
        assert restored.subgraphs()[3].tolist() == map2.tolist()

    def test_cluster_partition_pickle_ignores_subgraph_cache(self):
        _, clusters = chain_of_cliques(4, 3)
        before = pickle.dumps(clusters)
        subgraph, mapping = clusters.subgraph(2)
        assert clusters.subgraph(2)[0] is subgraph
        assert clusters.clusters_connected() == [True, True, True]
        assert pickle.dumps(clusters) == before
        restored = pickle.loads(before)
        assert restored.subgraph(2)[0] == subgraph
        assert restored.subgraph(2)[1].tolist() == mapping.tolist()
        assert restored.clusters_connected() == [True, True, True]


def test_warm_memo_never_changes_a_report():
    """E2 cold, then E2 after E1 built the same expander pairs."""
    clear_memos()
    cold = run_experiment("E2", scale="smoke").to_dict()
    clear_memos()
    # E1 and E2 key their pairs on seed + n, so E1 at E2's seed (11)
    # builds exactly the instances E2 then finds in the memo.
    run_experiment("E1", scale="smoke", seed=11)
    misses = two_expanders.cache_info().misses
    warm = run_experiment("E2", scale="smoke").to_dict()
    assert two_expanders.cache_info().misses == misses
    assert warm == cold
