"""The simulator's declared-rule loop against its generic loop.

``Simulator.run`` runs every algorithm that declares a pairwise rule
(:mod:`repro.algorithms.rules`) through its compiled loop.  Every
result must be bit-identical to the generic ``on_tick`` loop.  The
generic loop is forced with exact-type subclasses: a declaration binds
only the class that defines it, so a subclass that changes nothing runs
the generic loop on the very same arithmetic.

Drawn for vanilla, convex and Algorithm A: random sparse-cut graphs and
seeds, one or several thresholds, every stop rule (target, max time, max
events, a diverging swap gain, an exhausted scripted clock), tiny
recompute and batch sizes, the lossy, failing and scheduled clocks, and
values whose running statistics cancel, so the variance carries the
rounding of every running-sum update (also checked on fixed seeds).

Drawn for push-sum, random convex, async second-order, both two-timescale
schedules and multi-cut: the default clock sharing one generator with
the algorithm (from an int seed or a caller's ``Generator``) or a clock
on its own stream, tiny batch sizes, and stops in the middle of a clock
batch.  Push-sum and random convex draw their per-tick values in blocks,
so the generator's state after the run is compared too, along with the
per-run state each algorithm keeps.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.convex import ConvexGossip, RandomConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.push_sum import PushSumGossip
from repro.algorithms.rules import declared_rule
from repro.algorithms.second_order import AsyncSecondOrderGossip
from repro.algorithms.two_timescale import TwoTimescaleGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.clocks.schedule import ScriptedSchedule
from repro.clocks.unreliable import FailingEdgeClocks, LossyClocks
from repro.core.multi_cut import MultiCutGossip
from repro.engine.results import results_identical
from repro.engine.simulator import Simulator
from repro.graphs.clustering import ClusterPartition, chain_of_cliques
from repro.graphs.graph import Graph

from oracles import RoundRobinSchedule, bridged_pair


class GenericVanilla(VanillaGossip):
    """Declares no rule of its own, so it runs the generic loop."""


class GenericConvex(ConvexGossip):
    """Declares no rule of its own, so it runs the generic loop."""


class GenericAlgorithmA(NonConvexSparseCutGossip):
    """Declares no rule of its own, so it runs the generic loop."""


def make_clock(kind: str, n_edges: int, seed: int, stop_after: int):
    """A fresh clock of ``kind``; equal arguments give equal tick streams."""
    rng = np.random.default_rng(seed)
    if kind == "poisson":
        return PoissonEdgeClocks(n_edges, seed=rng)
    if kind == "lossy":
        return LossyClocks(PoissonEdgeClocks(n_edges, seed=rng), 0.3, seed=seed + 1)
    if kind == "failing":
        return FailingEdgeClocks(
            PoissonEdgeClocks(n_edges, seed=rng), 0.2, seed=seed + 1
        )
    if kind == "round-robin":
        return RoundRobinSchedule(n_edges, spacing=0.25)
    edges = rng.integers(0, n_edges, size=stop_after)
    return ScriptedSchedule.uniform_times(edges, spacing=0.5, n_edges=n_edges)


@st.composite
def configurations(draw):
    family = draw(st.sampled_from(["clique", "er"]))
    n1 = draw(st.integers(2, 6) if family == "clique" else st.integers(6, 9))
    n2 = draw(st.integers(n1, n1 + 4))
    pair = bridged_pair(
        family,
        n1,
        n2,
        n_bridges=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    rule = draw(st.sampled_from(["vanilla", "convex", "algorithm_a"]))
    params = {}
    if rule == "convex":
        params["alpha"] = draw(st.floats(0.0, 1.0))
    elif rule == "algorithm_a":
        cut = pair.partition.cut_edge_ids
        params["designated_edge"] = int(cut[draw(st.integers(0, len(cut) - 1))])
        params["epoch_length"] = draw(st.integers(1, 6))
        params["gain"] = draw(
            st.sampled_from(["exact", "paper", 0.7, -3.0, 1e120])
        )
    thresholds = draw(
        st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=4, unique=True)
    )
    run_kwargs = {
        "thresholds": tuple(thresholds),
        "target_ratio": draw(st.none() | st.floats(1e-6, 1.5)),
        "max_time": draw(st.none() | st.floats(0.5, 40.0)),
        "max_events": draw(st.none() | st.integers(1, 3000)),
        "divergence_ratio": draw(st.sampled_from([1e9, None, 3.0])),
    }
    if run_kwargs["max_time"] is None:
        # Keep every run short: a target alone may never be reached.
        run_kwargs["max_events"] = run_kwargs["max_events"] or 2000
    knobs = {
        "batch_size": draw(st.sampled_from([1, 2, 5, 64, 8192])),
        "recompute_every": draw(st.sampled_from([1, 2, 3, 7, 65536])),
    }
    clock = draw(
        st.sampled_from(["poisson", "lossy", "failing", "round-robin", "script"])
    )
    seed = draw(st.integers(0, 2**31 - 1))
    # An offset whose squares overflow turns the running square-sum into
    # inf - inf = NaN on the first update: the divergence guard's NaN arm.
    # A large offset under unit noise makes ``S/n - (T/n)^2`` cancel, so
    # the variance, and the crossings and stops it decides, carry the
    # rounding of every running-sum update.
    offset = draw(
        st.sampled_from([(0.0, 1.0), (0.0, 1.0), (2e154, 1e140), (1e8, 1.0)])
    )
    return pair, rule, params, run_kwargs, knobs, clock, seed, offset


def build(rule: str, generic: bool, pair, params):
    if rule == "vanilla":
        return (GenericVanilla if generic else VanillaGossip)()
    if rule == "convex":
        return (GenericConvex if generic else ConvexGossip)(params["alpha"])
    cls = GenericAlgorithmA if generic else NonConvexSparseCutGossip
    return cls(pair.partition, **params)


def run_once(config, generic: bool):
    pair, rule, params, run_kwargs, knobs, clock, seed, (offset, scale) = config
    algorithm = build(rule, generic, pair, params)
    noise = np.random.default_rng(seed).normal(size=pair.graph.n_vertices)
    values = offset + noise * scale
    simulator = Simulator(
        pair.graph,
        algorithm,
        values,
        clock=make_clock(clock, pair.graph.n_edges, seed, stop_after=400),
        seed=seed,
        **knobs,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        return algorithm, simulator.run(**run_kwargs)


class TestDeclaredRuleLoop:
    @given(configurations())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_generic_loop(self, config):
        fast_algorithm, fast = run_once(config, generic=False)
        generic_algorithm, generic = run_once(config, generic=True)
        assert declared_rule(fast_algorithm) is not None
        assert declared_rule(generic_algorithm) is None
        assert results_identical(fast, generic)
        assert fast.values.tobytes() == generic.values.tobytes()
        assert getattr(fast_algorithm, "swap_count", None) == getattr(
            generic_algorithm, "swap_count", None
        )

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 8192]))
    @settings(max_examples=20, deadline=None)
    def test_clock_exhaustion_and_budget_stops_agree(self, seed, batch_size):
        pair = bridged_pair("clique", 4, 5)
        results = []
        for cls in (NonConvexSparseCutGossip, GenericAlgorithmA):
            algorithm = cls(pair.partition, epoch_length=2)
            clock = make_clock("script", pair.graph.n_edges, seed, stop_after=50)
            results.append(
                Simulator(
                    pair.graph,
                    algorithm,
                    np.arange(pair.graph.n_vertices, dtype=float),
                    clock=clock,
                    batch_size=batch_size,
                ).run(max_events=10_000, thresholds=(0.9, 0.5, 0.1))
            )
        assert results[0].stopped_by == "clock_exhausted"
        assert results_identical(results[0], results[1])


class TestCancellingSums:
    """A large offset under unit noise makes ``S/n - (T/n)^2`` cancel: the
    variance is then mostly the rounding of the running-sum updates, so
    any change to their float expressions moves the crossings.  Fixed
    seeds, so the check never depends on what Hypothesis happens to draw.
    Convex gossip, because a mean update hides a reassociation there: its
    two new values are equal, and the differences of squares are exact."""

    def test_convex_bit_identical_to_generic_loop(self):
        run_kwargs = {
            "thresholds": (1.0, 0.5, 0.2, 0.05),
            "max_events": 2000,
            "divergence_ratio": None,
        }
        knobs = {"batch_size": 8192, "recompute_every": 65536}
        for seed in range(20):
            pair = bridged_pair("clique", 5, 7, n_bridges=2, seed=seed)
            config = (
                pair,
                "convex",
                {"alpha": 0.3},
                run_kwargs,
                knobs,
                "poisson",
                seed,
                (1e8, 1.0),
            )
            _, fast = run_once(config, generic=False)
            _, generic = run_once(config, generic=True)
            assert results_identical(fast, generic), seed


STATEFUL = {
    "push-sum": PushSumGossip,
    "random-convex": RandomConvexGossip,
    "second-order": AsyncSecondOrderGossip,
    "two-timescale": TwoTimescaleGossip,
    "multi-cut": MultiCutGossip,
}
GENERIC_STATEFUL = {
    name: type(f"Generic{cls.__name__}", (cls,), {})
    for name, cls in STATEFUL.items()
}


@st.composite
def clustered_graphs(draw):
    """A chain of cliques, plus random extra edges between clusters."""
    size = draw(st.integers(2, 5))
    k = draw(st.integers(2, 4))
    chain, clusters = chain_of_cliques(size, k)
    labels = clusters.labels
    edges = {tuple(int(i) for i in edge) for edge in chain.edges}
    n = size * k
    for u, v in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5)
    ):
        if labels[u] != labels[v]:
            edges.add((min(u, v), max(u, v)))
    graph = Graph(n, sorted(edges))
    return graph, ClusterPartition(graph, labels)


@st.composite
def stateful_configurations(draw):
    name = draw(st.sampled_from(sorted(STATEFUL)))
    params: dict = {}
    if name == "multi-cut":
        graph, clusters = draw(clustered_graphs())
        params["clusters"] = clusters
        pairs = clusters.adjacent_cluster_pairs
        params["epoch_lengths"] = draw(
            st.integers(1, 6)
            | st.fixed_dictionaries({pair: st.integers(1, 6) for pair in pairs})
        )
    else:
        pair = bridged_pair(
            "clique",
            draw(st.integers(2, 6)),
            draw(st.integers(2, 8)),
            n_bridges=draw(st.integers(1, 3)),
        )
        graph = pair.graph
        if name == "random-convex":
            low = draw(st.floats(0.0, 1.0))
            params.update(low=low, high=draw(st.floats(low, 1.0)))
        elif name == "second-order":
            params["beta"] = draw(st.floats(0.05, 1.95))
        elif name == "two-timescale":
            params.update(
                partition=pair.partition,
                slow_step=draw(st.floats(0.01, 0.5)),
                schedule=draw(st.sampled_from(["constant", "harmonic"])),
                tau=draw(st.floats(0.5, 50.0)),
            )
    thresholds = draw(
        st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=3, unique=True)
    )
    run_kwargs = {
        "thresholds": tuple(thresholds),
        "target_ratio": draw(st.none() | st.floats(1e-4, 1.5)),
        "max_time": draw(st.none() | st.floats(0.5, 40.0)),
        "max_events": draw(st.none() | st.integers(1, 3000)),
        # Push-sum estimates and the second-order momentum can raise the
        # variance, so a ratio just above 1 stops runs mid-batch.
        "divergence_ratio": draw(st.sampled_from([1e9, None, 1.02, 1.5])),
    }
    if run_kwargs["max_time"] is None:
        run_kwargs["max_events"] = run_kwargs["max_events"] or 2000
    knobs = {
        "batch_size": draw(st.sampled_from([1, 2, 5, 97, 8192])),
        "recompute_every": draw(st.sampled_from([1, 3, 65536])),
    }
    # "int" and "generator": the default clock shares the algorithm's
    # generator; "own-clock": the clock draws from a stream of its own.
    stream = draw(st.sampled_from(["int", "generator", "own-clock"]))
    seed = draw(st.integers(0, 2**31 - 1))
    return name, graph, params, run_kwargs, knobs, stream, seed


def run_stateful(config, generic: bool):
    name, graph, params, run_kwargs, knobs, stream, seed = config
    cls = (GENERIC_STATEFUL if generic else STATEFUL)[name]
    algorithm = cls(**params)
    values = np.random.default_rng(seed).normal(size=graph.n_vertices)
    clock = None
    if stream == "int":
        rng_arg = seed
    else:
        rng_arg = np.random.default_rng(seed)
        if stream == "own-clock":
            clock = PoissonEdgeClocks(graph.n_edges, seed=seed + 1)
    simulator = Simulator(graph, algorithm, values, clock=clock, seed=rng_arg, **knobs)
    with np.errstate(over="ignore", invalid="ignore"):
        result = simulator.run(**run_kwargs)
    return algorithm, result, simulator._algorithm_rng.bit_generator.state


def kept_state(name: str, algorithm) -> object:
    """The per-run state each algorithm reports or keeps, for comparison
    (floats as bytes, so NaN compares equal to itself)."""
    if name == "push-sum":
        floats = [algorithm.total_mass(), *algorithm._mass, *algorithm._weight]
        return np.asarray(floats).tobytes()
    if name == "second-order":
        return np.asarray(algorithm._previous).tobytes()
    if name == "two-timescale":
        return algorithm._cut_ticks
    if name == "multi-cut":
        return [algorithm.swap_count(edge) for edge in algorithm.designated_edges]
    return None


class TestStatefulAndDrawingRules:
    @given(stateful_configurations())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_generic_loop(self, config):
        name = config[0]
        fast_algorithm, fast, fast_state = run_stateful(config, generic=False)
        generic_algorithm, generic, generic_state = run_stateful(config, generic=True)
        assert declared_rule(fast_algorithm) is not None
        assert declared_rule(generic_algorithm) is None
        assert results_identical(fast, generic)
        assert fast.values.tobytes() == generic.values.tobytes()
        assert fast_state == generic_state
        assert kept_state(name, fast_algorithm) == kept_state(name, generic_algorithm)


def reference_push_sum_tick(mass, weight, rng, u, v):
    """Push-sum's tick on numpy state, as the algorithm computed it before
    its state moved to Python lists."""
    if rng.random() < 0.5:
        sender, receiver = u, v
    else:
        sender, receiver = v, u
    half_mass = 0.5 * mass[sender]
    half_weight = 0.5 * weight[sender]
    mass[sender] = half_mass
    weight[sender] = half_weight
    mass[receiver] += half_mass
    weight[receiver] += half_weight
    return float(mass[u] / weight[u]), float(mass[v] / weight[v])


class TestPushSumTick:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(0, 14), min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_reference(self, initial, seed, edge_ids):
        pair = bridged_pair("clique", 3, 3)
        graph = pair.graph
        values = np.asarray(initial, dtype=np.float64)
        algorithm = PushSumGossip()
        algorithm.setup(graph, values, np.random.default_rng(seed))
        mass = values.copy()
        weight = np.ones(graph.n_vertices)
        rng = np.random.default_rng(seed)
        for count, edge in enumerate(edge_ids, start=1):
            e = edge % graph.n_edges
            u, v = graph.edge_endpoints(e)
            got = algorithm.on_tick(e, u, v, float(count), count, values)
            want = reference_push_sum_tick(mass, weight, rng, u, v)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert algorithm.total_mass() == float(mass.sum())
