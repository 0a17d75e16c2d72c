"""Property-based tests for the graph layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EdgeError, VertexError
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.spectral import laplacian_matrix

from oracles import connected_components, graph_from_adjacency_matrix, relabel_graph


@st.composite
def random_graphs(draw, min_vertices: int = 2, max_vertices: int = 12):
    """A random simple graph as (n, edge set)."""
    n = draw(st.integers(min_vertices, max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    ) if possible else []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_vertices: int = 2, max_vertices: int = 12):
    """A random connected graph (random spanning tree + extra edges)."""
    n = draw(st.integers(min_vertices, max_vertices))
    # Random spanning tree: attach each vertex to a random earlier one.
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=2 * n))
    edges.update(extra)
    return Graph(n, sorted(edges))


class TestGraphInvariants:
    @given(random_graphs())
    def test_handshake_lemma(self, graph):
        assert int(graph.degrees.sum()) == 2 * graph.n_edges

    @given(random_graphs())
    def test_adjacency_roundtrip(self, graph):
        assert graph_from_adjacency_matrix(graph.adjacency_matrix()) == graph

    @given(random_graphs())
    def test_neighbor_symmetry(self, graph):
        for u in graph:
            for v in graph.neighbors(u):
                assert u in graph.neighbors(int(v))

    @given(random_graphs())
    def test_components_partition_vertices(self, graph):
        components = connected_components(graph)
        combined = sorted(int(v) for c in components for v in c)
        assert combined == list(range(graph.n_vertices))

    @given(random_graphs(min_vertices=3))
    def test_laplacian_psd(self, graph):
        values = np.linalg.eigvalsh(laplacian_matrix(graph))
        assert values.min() > -1e-9

    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_relabel_preserves_degree_multiset(self, graph, pyrandom):
        mapping = list(range(graph.n_vertices))
        pyrandom.shuffle(mapping)
        relabeled = relabel_graph(graph, mapping)
        assert sorted(relabeled.degrees.tolist()) == sorted(
            graph.degrees.tolist()
        )

    @given(connected_graphs())
    def test_connected_detector_agrees_with_components(self, graph):
        assert graph.is_connected()
        assert len(connected_components(graph)) == 1


class TestPartitionInvariants:
    @given(connected_graphs(min_vertices=2), st.data())
    def test_partition_edge_accounting(self, graph, data):
        side = data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=graph.n_vertices,
                max_size=graph.n_vertices,
            ).filter(lambda s: 0 < sum(s) < len(s))
        )
        partition = Partition(graph, side)
        assert partition.n1 + partition.n2 == graph.n_vertices
        assert partition.n1 <= partition.n2
        total = (
            partition.cut_size
            + len(partition.internal_edge_ids(0))
            + len(partition.internal_edge_ids(1))
        )
        assert total == graph.n_edges

    @given(connected_graphs(min_vertices=2), st.data())
    def test_cut_edges_cross_and_internals_do_not(self, graph, data):
        side = data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=graph.n_vertices,
                max_size=graph.n_vertices,
            ).filter(lambda s: 0 < sum(s) < len(s))
        )
        partition = Partition(graph, side)
        for edge_id in partition.cut_edge_ids:
            u, v = graph.edge_endpoints(int(edge_id))
            assert partition.side_of(u) != partition.side_of(v)
        for side_index in (0, 1):
            for edge_id in partition.internal_edge_ids(side_index):
                u, v = graph.edge_endpoints(int(edge_id))
                assert partition.side_of(u) == partition.side_of(v) == side_index

    @given(connected_graphs(min_vertices=3), st.data())
    def test_subgraph_maps_are_inverse(self, graph, data):
        side = data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=graph.n_vertices,
                max_size=graph.n_vertices,
            ).filter(lambda s: 0 < sum(s) < len(s))
        )
        partition = Partition(graph, side)
        g1, map1, g2, map2 = partition.subgraphs()
        assert sorted(map1.tolist()) == partition.vertices_1.tolist()
        assert sorted(map2.tolist()) == partition.vertices_2.tolist()
        # Every internal edge appears in the corresponding subgraph.
        assert g1.n_edges == len(partition.internal_edge_ids(0))
        assert g2.n_edges == len(partition.internal_edge_ids(1))


# ----------------------------------------------------------------------
# Graph's array code against a per-edge reference loop
# ----------------------------------------------------------------------


def reference_graph(n: int, edges) -> dict:
    """Build every array of a :class:`Graph` one edge at a time.

    This is the plain reading of the class contract: rows normalized to
    ``u < v`` and sorted; each vertex lists its neighbours in edge-id
    order; the first bad pair (in input order) raises, and duplicates are
    reported at their first position in sorted order.
    """
    rows = []
    for pair in edges:
        try:
            u, v = int(pair[0]), int(pair[1])
        except (TypeError, IndexError, ValueError) as exc:
            raise EdgeError(
                f"malformed edge {pair!r}; expected a (u, v) pair"
            ) from exc
        if u == v:
            raise EdgeError(f"self-loop ({u}, {v}) is not allowed")
        for endpoint in (u, v):
            if not 0 <= endpoint < n:
                raise VertexError(endpoint, n)
        rows.append((min(u, v), max(u, v)))
    rows.sort()
    for first, second in zip(rows, rows[1:]):
        if first == second:
            raise EdgeError(f"duplicate edge ({first[0]}, {first[1]})")
    adjacency: "list[list[tuple[int, int]]]" = [[] for _ in range(n)]
    for edge_id, (u, v) in enumerate(rows):
        adjacency[u].append((v, edge_id))
        adjacency[v].append((u, edge_id))
    indptr = [0]
    for entries in adjacency:
        indptr.append(indptr[-1] + len(entries))
    return {
        "edges": rows,
        "indptr": indptr,
        "adj_vertices": [w for entries in adjacency for w, _ in entries],
        "adj_edges": [e for entries in adjacency for _, e in entries],
        "degrees": [len(entries) for entries in adjacency],
        "lookup": {row: i for i, row in enumerate(rows)},
    }


def reference_subgraph(n: int, rows, vertices) -> "tuple[dict, list[int]]":
    keep = sorted(int(v) for v in vertices)
    if len(set(keep)) != len(keep):
        raise VertexError(keep[0], n)
    for v in keep:
        if not 0 <= v < n:
            raise VertexError(v, n)
    new_id = {old: new for new, old in enumerate(keep)}
    sub_edges = [
        (new_id[u], new_id[v]) for u, v in rows if u in new_id and v in new_id
    ]
    return reference_graph(len(keep), sub_edges), keep


def assert_matches_reference(graph: Graph, expected: dict) -> None:
    n = len(expected["degrees"])
    assert graph.n_vertices == n
    assert graph.edges.dtype == np.int64
    assert graph.edges.shape == (len(expected["edges"]), 2)
    assert [tuple(row) for row in graph.edges.tolist()] == expected["edges"]
    assert graph._indptr.tolist() == expected["indptr"]
    assert graph._adj_vertices.tolist() == expected["adj_vertices"]
    assert graph._adj_edges.tolist() == expected["adj_edges"]
    assert graph.degrees.tolist() == expected["degrees"]
    for array in (
        graph.edges, graph._indptr, graph._adj_vertices, graph._adj_edges,
        graph.degrees,
    ):
        assert array.dtype == np.int64 and not array.flags.writeable
    for (u, v), edge_id in expected["lookup"].items():
        assert graph.edge_id(u, v) == graph.edge_id(v, u) == edge_id
    for u in range(n):
        for v in range(n):
            expected_edge = (min(u, v), max(u, v)) in expected["lookup"]
            assert graph.has_edge(u, v) == expected_edge


def outcome(build):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", build())
    except Exception as exc:
        return ("raised", type(exc), str(exc))


@st.composite
def valid_edge_lists(draw):
    """(n, pairs): a simple graph, each pair in a random orientation, shuffled."""
    n = draw(st.integers(0, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    ) if possible else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    return n, draw(st.permutations(pairs))


def as_input(pairs, form: str):
    """The same pairs as a list of tuples, list of lists, array or iterator."""
    if form == "lists":
        return [list(pair) for pair in pairs]
    if form == "array":
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if form == "iterator":
        return iter(pairs)
    return list(pairs)


INPUT_FORMS = st.sampled_from(["tuples", "lists", "array", "iterator"])

#: Pair shapes the per-edge loop accepts, rejects, or reads only partly.
ODD_PAIRS = st.one_of(
    st.tuples(st.integers(-2, 14), st.integers(-2, 14)),
    st.tuples(st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.sampled_from([0.0, 1.0, 2.5]), st.integers(0, 5)),
    st.sampled_from([None, "01", "x", (0, "1"), (0, "a"), (True, False)]),
)


OUT_OF_RANGE = "out of range for graph with 3 vertices"


class TestGraphMatchesReferenceLoop:
    @given(valid_edge_lists(), INPUT_FORMS)
    def test_arrays_and_lookup_match(self, case, form):
        n, pairs = case
        graph = Graph(n, as_input(pairs, form))
        assert_matches_reference(graph, reference_graph(n, pairs))

    @given(valid_edge_lists(), st.data())
    def test_subgraph_matches(self, case, data):
        n, pairs = case
        graph = Graph(n, pairs)
        expected_rows = reference_graph(n, pairs)["edges"]
        vertices = data.draw(
            st.lists(st.integers(-1, n), max_size=n + 2)
            | st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n)
        )
        form = data.draw(st.sampled_from(["list", "array", "range"]))
        if form == "array":
            vertices = np.array(vertices, dtype=np.int64)
        elif form == "range":
            vertices = range(0, n, data.draw(st.integers(1, 3)))
        got = outcome(lambda: graph.subgraph(vertices))
        want = outcome(lambda: reference_subgraph(n, expected_rows, vertices))
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1:] == want[1:]
            return
        (sub, mapping), (expected_sub, keep) = got[1], want[1]
        assert_matches_reference(sub, expected_sub)
        assert mapping.dtype == np.int64 and mapping.tolist() == keep

    @given(
        st.integers(0, 12),
        st.lists(ODD_PAIRS, max_size=8),
        st.sampled_from(["list", "array", "iterator"]),
    )
    def test_bad_input_raises_like_the_reference(self, n, pairs, form):
        def edges():
            if form == "iterator":
                return iter(pairs)
            if form == "array":
                try:
                    return np.array(pairs)
                except ValueError:  # ragged pairs make no array
                    pass
            return list(pairs)

        got = outcome(lambda: Graph(n, edges()))
        want = outcome(lambda: reference_graph(n, edges()))
        assert got[0] == want[0], (got, want)
        if got[0] == "raised":
            assert got[1:] == want[1:]
        else:
            assert_matches_reference(got[1], want[1])

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            (np.array([[0, 1], [1, 0]]), EdgeError, "duplicate edge (0, 1)"),
            (np.array([[2, 2]]), EdgeError, "self-loop (2, 2) is not allowed"),
            (np.array([[0, 3]]), VertexError, f"vertex 3 {OUT_OF_RANGE}"),
            (np.array([[0, -1]]), VertexError, f"vertex -1 {OUT_OF_RANGE}"),
            (
                np.array([[2**63, 1]], dtype=np.uint64),
                VertexError,
                f"vertex {2**63} {OUT_OF_RANGE}",
            ),
            ([(0,)], EdgeError, "malformed edge (0,); expected a (u, v) pair"),
        ],
    )
    def test_errors_keep_type_and_message(self, edges, error, message):
        with pytest.raises(error) as raised:
            Graph(3, edges)
        assert str(raised.value) == message
