"""repro — reproduction of Narayanan, "Distributed averaging in the
presence of a sparse cut" (PODC 2008).

The package implements the paper's model (i.i.d. rate-1 Poisson clocks on
edges), its contribution (Algorithm A, non-convex gossip across a sparse
cut), the convex class ``C`` it lower-bounds, the related-work baselines
it cites, and an experiment harness regenerating every claim.

Quick start
-----------
>>> from repro import SparseCutAveraging, dumbbell_graph
>>> pair = dumbbell_graph(64)
>>> sca = SparseCutAveraging(pair.graph, partition=pair.partition)
>>> result = sca.run(list(range(64)), seed=0, target_ratio=1e-4)
>>> bool(round(result.values.mean(), 6) == 31.5)
True

See README.md for the guided tour and DESIGN.md for the system inventory.
"""

from repro.core import (
    AlgorithmAConfig,
    SparseCutAveraging,
    epoch_length_ticks,
    vanilla_time_empirical,
    vanilla_time_spectral,
)
from repro.engine import (
    AlgorithmFactory,
    AveragingTimeEstimate,
    ExecutionBackend,
    MonteCarloRunner,
    PointConfig,
    ProcessPoolBackend,
    ReplicateBudget,
    RunResult,
    SerialBackend,
    Simulator,
    SweepAxis,
    SweepResult,
    SweepRunner,
    SweepSpec,
    TraceRecorder,
    epsilon_averaging_time,
    estimate_averaging_time,
    run_sweep,
    shutdown_shared_backends,
    simulate,
)
from repro.algorithms import (
    ConvexGossip,
    GossipAlgorithm,
    NonConvexSparseCutGossip,
    PushSumGossip,
    SecondOrderDiffusionSync,
    TwoTimescaleGossip,
    VanillaGossip,
    available_algorithms,
    make_algorithm,
)
from repro.graphs import (
    BridgedPair,
    Graph,
    Partition,
    complete_graph,
    dumbbell_graph,
    fiedler_sweep_cut,
    two_cliques,
    two_expanders,
)
from repro.analysis import (
    decompose,
    dumbbell_predictions,
    theorem1_lower_bound,
    theorem2_upper_bound,
)
from repro.experiments import run_experiment

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AlgorithmAConfig",
    "SparseCutAveraging",
    "epoch_length_ticks",
    "vanilla_time_empirical",
    "vanilla_time_spectral",
    # engine
    "AlgorithmFactory",
    "AveragingTimeEstimate",
    "ExecutionBackend",
    "MonteCarloRunner",
    "PointConfig",
    "ProcessPoolBackend",
    "ReplicateBudget",
    "RunResult",
    "SerialBackend",
    "Simulator",
    "SweepAxis",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "TraceRecorder",
    "epsilon_averaging_time",
    "run_sweep",
    "estimate_averaging_time",
    "shutdown_shared_backends",
    "simulate",
    # algorithms
    "ConvexGossip",
    "GossipAlgorithm",
    "NonConvexSparseCutGossip",
    "PushSumGossip",
    "SecondOrderDiffusionSync",
    "TwoTimescaleGossip",
    "VanillaGossip",
    "available_algorithms",
    "make_algorithm",
    # graphs
    "BridgedPair",
    "Graph",
    "Partition",
    "complete_graph",
    "dumbbell_graph",
    "fiedler_sweep_cut",
    "two_cliques",
    "two_expanders",
    # analysis
    "decompose",
    "dumbbell_predictions",
    "theorem1_lower_bound",
    "theorem2_upper_bound",
    # experiments
    "run_experiment",
]
