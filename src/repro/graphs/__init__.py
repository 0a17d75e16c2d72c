"""Graph substrate: core structure, topologies, partitions, spectra, cuts."""

from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.topologies import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    random_regular_graph,
)
from repro.graphs.composites import (
    BridgedPair,
    dumbbell_graph,
    join_graphs,
    two_cliques,
    two_erdos_renyi,
    two_expanders,
    two_grids,
)
from repro.graphs.spectral import (
    algebraic_connectivity,
    fiedler_vector,
    laplacian_matrix,
    laplacian_spectrum,
)
from repro.graphs.cuts import (
    CutResult,
    brute_force_min_conductance_cut,
    fiedler_sweep_cut,
)
from repro.graphs.properties import diameter, is_connected
from repro.graphs.clustering import (
    ClusterPartition,
    chain_of_cliques,
    spectral_clusters,
)
from repro.graphs.geometric import GeometricNetwork, random_geometric_network

__all__ = [
    "Graph",
    "Partition",
    "complete_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "random_regular_graph",
    "BridgedPair",
    "dumbbell_graph",
    "join_graphs",
    "two_cliques",
    "two_erdos_renyi",
    "two_expanders",
    "two_grids",
    "algebraic_connectivity",
    "fiedler_vector",
    "laplacian_matrix",
    "laplacian_spectrum",
    "CutResult",
    "brute_force_min_conductance_cut",
    "fiedler_sweep_cut",
    "diameter",
    "is_connected",
    "ClusterPartition",
    "chain_of_cliques",
    "spectral_clusters",
    "GeometricNetwork",
    "random_geometric_network",
]
