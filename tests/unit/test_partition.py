"""Unit tests for the Partition class."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import PartitionError
from repro.graphs.partition import Partition
from repro.graphs.topologies import complete_graph

from oracles import path_graph


class TestConstruction:
    def test_sides_normalized_smaller_first(self):
        partition = Partition(complete_graph(6), [1, 1, 1, 1, 0, 0])
        assert partition.n1 == 2
        assert partition.n2 == 4
        assert partition.n1 <= partition.n2

    def test_side_labels_validated(self):
        with pytest.raises(PartitionError, match="0 or 1"):
            Partition(complete_graph(3), [0, 1, 2])

    def test_both_sides_required(self):
        with pytest.raises(PartitionError, match="non-empty"):
            Partition(complete_graph(3), [0, 0, 0])

    def test_length_validated(self):
        with pytest.raises(PartitionError, match="length"):
            Partition(complete_graph(3), [0, 1])

    def test_from_vertex_set(self):
        partition = Partition.from_vertex_set(complete_graph(5), [0, 1])
        assert partition.n1 == 2
        assert set(partition.vertices_1.tolist()) == {0, 1}

    def test_from_vertex_set_rejects_improper(self):
        with pytest.raises(PartitionError):
            Partition.from_vertex_set(complete_graph(3), [])
        with pytest.raises(PartitionError):
            Partition.from_vertex_set(complete_graph(3), [0, 1, 2])


class TestCutStructure:
    def test_cut_edges_of_path_split(self):
        partition = Partition(path_graph(4), [0, 0, 1, 1])
        assert partition.cut_size == 1
        edge = partition.graph.edge_endpoints(int(partition.cut_edge_ids[0]))
        assert edge == (1, 2)

    def test_internal_edges_partitioned(self, small_dumbbell):
        partition = small_dumbbell.partition
        total = (
            len(partition.internal_edge_ids(0))
            + len(partition.internal_edge_ids(1))
            + partition.cut_size
        )
        assert total == partition.graph.n_edges

    def test_internal_edges_bad_side(self, small_dumbbell):
        with pytest.raises(PartitionError):
            small_dumbbell.partition.internal_edge_ids(2)

    def test_side_of(self, small_dumbbell):
        partition = small_dumbbell.partition
        for v in partition.vertices_1:
            assert partition.side_of(int(v)) == 0
        with pytest.raises(PartitionError):
            partition.side_of(999)

    def test_cut_edge_endpoints_oriented(self, small_dumbbell):
        partition = small_dumbbell.partition
        pairs = partition.cut_edge_endpoints()
        for v1_end, v2_end in pairs:
            assert partition.side_of(int(v1_end)) == 0
            assert partition.side_of(int(v2_end)) == 1


class TestMeasures:
    def test_sparsity_of_dumbbell(self, small_dumbbell):
        partition = small_dumbbell.partition
        assert partition.sparsity == pytest.approx(1 / 8)

    def test_conductance_uses_volume(self):
        partition = Partition(complete_graph(6), [0, 0, 0, 1, 1, 1])
        # cut = 9, volume each side = 15.
        assert partition.conductance == pytest.approx(9 / 15)

    def test_balance(self, unbalanced_partition):
        assert unbalanced_partition.balance == pytest.approx(2 / 6)


class TestSubgraphs:
    def test_subgraphs_structure(self, small_dumbbell):
        g1, map1, g2, map2 = small_dumbbell.partition.subgraphs()
        assert g1.n_vertices == 8 and g2.n_vertices == 8
        assert g1.n_edges == 28 and g2.n_edges == 28
        assert len(map1) == 8 and len(map2) == 8

    def test_sides_connected_detection(self):
        # Path 0-1-2-3 split as {0, 2} vs {1, 3}: both sides disconnected...
        # actually singletons within the induced graph, so side {0,2} has
        # no internal edge and is disconnected.
        partition = Partition(path_graph(4), [0, 1, 0, 1])
        ok1, ok2 = partition.sides_connected()
        assert not ok1 and not ok2
        with pytest.raises(PartitionError, match="not internally connected"):
            partition.require_connected_sides()

    def test_require_connected_sides_passes(self, small_dumbbell):
        small_dumbbell.partition.require_connected_sides()

    def test_connectivity_cached_but_never_pickled(self, small_dumbbell):
        partition = small_dumbbell.partition
        before = pickle.dumps(partition)
        assert partition.sides_connected() == (True, True)
        assert partition.sides_connected() is partition.sides_connected()
        assert pickle.dumps(partition) == before
        restored = pickle.loads(before)
        assert restored.sides_connected() == (True, True)
        assert restored.cut_size == partition.cut_size

    def test_repr(self, small_dumbbell):
        assert "cut_size=1" in repr(small_dumbbell.partition)
