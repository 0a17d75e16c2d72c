"""The simulator's declared-rule loop against its generic loop.

``Simulator.run`` runs vanilla, fixed-alpha convex and Algorithm A
through a loop specialized to their declared pairwise rule
(:mod:`repro.algorithms.rules`).  Every result must be bit-identical to
the generic ``on_tick`` loop.  The generic loop is forced with
exact-type subclasses: a declaration binds only the class that defines
it, so a subclass that changes nothing runs the generic loop on the very
same arithmetic.

Drawn here: random sparse-cut graphs and seeds, all three rules, one or
several thresholds, every stop rule (target, max time, max events, a
diverging swap gain, an exhausted scripted clock), tiny recompute and
batch sizes, and the lossy, failing and scheduled clocks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.convex import ConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.push_sum import PushSumGossip
from repro.algorithms.rules import declared_rule
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.clocks.schedule import RoundRobinSchedule, ScriptedSchedule
from repro.clocks.unreliable import FailingEdgeClocks, LossyClocks
from repro.engine.results import results_identical
from repro.engine.simulator import Simulator
from repro.graphs.composites import bridged_pair


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
    offset = draw(st.sampled_from([0.0, 0.0, 2e154]))
    return pair, rule, params, run_kwargs, knobs, clock, seed, offset


def build(rule: str, generic: bool, pair, params):
    if rule == "vanilla":
        return (GenericVanilla if generic else VanillaGossip)()
    if rule == "convex":
        return (GenericConvex if generic else ConvexGossip)(params["alpha"])
    cls = GenericAlgorithmA if generic else NonConvexSparseCutGossip
    return cls(pair.partition, **params)


def run_once(config, generic: bool):
    pair, rule, params, run_kwargs, knobs, clock, seed, offset = config
    algorithm = build(rule, generic, pair, params)
    noise = np.random.default_rng(seed).normal(size=pair.graph.n_vertices)
    values = offset + noise * (1e140 if offset else 1.0)
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
