"""Unit tests for shared-state shipping.

The contract under test has two halves.  Correctness: a slim replicate
spec resolved against a shared-state mapping must produce **bit-identical**
results whether the state is inlined into every spec, resolved in-process
by the serial backend, or shipped to pool workers through the executor
initializer.  Economy: one sweep must ship each distinct configuration's
payload **at most once per worker** — never once per replicate — which the
pickle-counting regression below pins down.

Everything here lives at module level so it survives pickling to worker
processes.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms.vanilla import VanillaGossip
from repro.engine.backends import (
    ProcessPoolBackend,
    SerialBackend,
    SharedStateRef,
    execute_replicate,
    resolve_replicate_spec,
    shutdown_shared_backends,
    spec_has_refs,
)
from repro.engine.results import results_identical
from repro.engine.runner import MonteCarloRunner
from repro.engine.sweeps import (
    PointConfig,
    ReplicateBudget,
    SweepAxis,
    SweepRunner,
    SweepSpec,
)
from repro.errors import SimulationError
from repro.graphs.topologies import complete_graph


@pytest.fixture(autouse=True)
def _release_shared_pools():
    yield
    shutdown_shared_backends()


class CountingWorkload:
    """A picklable workload sampler that counts parent-side pickles.

    ``__getstate__`` runs in whichever process serializes the object, so
    incrementing a class attribute observes exactly how many times the
    payload crossed (or was staged to cross) the process boundary from
    the parent.  Worker-side unpickling never touches the parent's count.
    """

    pickled = 0

    def __init__(self, n: int) -> None:
        self.n = n

    def __getstate__(self) -> dict:
        type(self).pickled += 1
        return {"n": self.n}

    def __setstate__(self, state: dict) -> None:
        self.n = state["n"]

    def __call__(self, rng) -> list:
        values = [float(rng.uniform(-1.0, 1.0)) for _ in range(self.n)]
        mean = sum(values) / len(values)
        return [v - mean for v in values]


def build_counting_point(*, n: int) -> PointConfig:
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=VanillaGossip,
        initial_values=CountingWorkload(int(n)),
        max_time=50.0,
        max_events=100_000,
    )


def counting_spec() -> SweepSpec:
    return SweepSpec(
        name="counting",
        axes=(SweepAxis("n", (5, 6)),),
        builder=build_counting_point,
    )


def make_runner(seed: int = 3) -> MonteCarloRunner:
    graph = complete_graph(6)
    x0 = [float(i) for i in range(6)]
    return MonteCarloRunner(graph, VanillaGossip, x0, seed=seed)


def sweep_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestSlimSpecs:
    def test_shared_key_builds_refs_and_identical_seeds(self):
        runner = make_runner()
        inline = runner.build_specs(3, max_events=200)
        slim = runner.build_specs(3, shared_key="k", max_events=200)
        for full, ref in zip(inline, slim):
            assert not spec_has_refs(full)
            assert spec_has_refs(ref)
            assert ref.graph == SharedStateRef("k", "graph")
            assert ref.clock_factory is None  # None stays inline
            # Seed derivation must not depend on the shipping mode.
            assert ref.seed_sequence.entropy == full.seed_sequence.entropy
            assert ref.seed_sequence.spawn_key == full.seed_sequence.spawn_key

    def test_resolution_returns_the_callers_objects(self):
        runner = make_runner()
        (slim,) = runner.build_specs(1, shared_key="k", max_events=200)
        resolved = resolve_replicate_spec(slim, {"k": runner.shared_state()})
        assert resolved.graph is runner.graph
        assert resolved.algorithm_factory is runner.algorithm_factory
        assert resolved.initial_values is runner.initial_values

    def test_resolution_is_a_no_op_without_refs(self):
        runner = make_runner()
        (full,) = runner.build_specs(1, max_events=200)
        assert resolve_replicate_spec(full, {}) is full

    def test_missing_key_and_missing_item_raise(self):
        runner = make_runner()
        (slim,) = runner.build_specs(1, shared_key="k", max_events=200)
        with pytest.raises(SimulationError, match="not in the installed"):
            resolve_replicate_spec(slim, {})
        with pytest.raises(SimulationError, match="has no item"):
            resolve_replicate_spec(slim, {"k": {"graph": runner.graph}})

    def test_execute_replicate_refuses_unresolved_refs(self):
        runner = make_runner()
        (slim,) = runner.build_specs(1, shared_key="k", max_events=200)
        with pytest.raises(SimulationError, match="SharedStateRef"):
            execute_replicate(slim)

    def test_execute_shared_matches_inline_execute(self, backend):
        """One matrix over serial/process: slim specs resolved
        against the shared mapping must equal inlined execution."""
        runner = make_runner()
        inline = runner.build_specs(4, max_events=300)
        slim = runner.build_specs(4, shared_key="k", max_events=300)
        reference = SerialBackend().execute(inline)
        shared = backend.execute_shared(slim, {"k": runner.shared_state()})
        assert len(reference) == len(shared)
        for a, b in zip(reference, shared):
            assert results_identical(a, b)


class TestSweepShipping:
    BUDGET = ReplicateBudget.adaptive(
        target_ci=0.6,
        min_replicates=3,
        max_replicates=12,
        round_size=2,
    )

    def test_serial_sweep_never_pickles_shared_state(self):
        CountingWorkload.pickled = 0
        SweepRunner(spec := counting_spec(), seed=7, budget=self.BUDGET).run()
        assert spec.n_points == 2
        assert CountingWorkload.pickled == 0

    def test_sweep_identical_across_shipping_modes(self, backend):
        """Every backend x both shipping modes, one matrix: the reported
        sweep must be byte-identical to the serial reference."""
        spec = counting_spec()
        serial = SweepRunner(spec, seed=7, budget=self.BUDGET).run()
        for share_state in (True, False):
            swept = SweepRunner(
                spec,
                seed=7,
                budget=self.BUDGET,
                backend=backend,
                share_state=share_state,
            ).run()
            assert sweep_json(swept) == sweep_json(serial), (
                f"share_state={share_state} diverged from serial"
            )

    @pytest.mark.slow
    def test_state_ships_at_most_once_per_worker(self):
        """The economy regression: a multi-round sweep stages each
        configuration's payload for shipping exactly once (one pool
        build with one initializer blob), while inline pickling pays
        again on every round's pool crossing (once per dispatched
        chunk that references the payload — chunk-level pickling
        memoizes within a chunk, so the bound is per chunk rather
        than per replicate)."""
        n_workers = 2
        spec = counting_spec()

        CountingWorkload.pickled = 0
        backend = ProcessPoolBackend(n_workers)
        runner = SweepRunner(spec, seed=7, budget=self.BUDGET, backend=backend)
        result = runner.run()
        backend.shutdown()
        assert runner.stats["rounds"] > 1, "need a multi-round sweep"
        assert backend.shared_installs == 1
        # The mapping is pickled once into the initializer blob; the
        # blob (bytes) then reaches each worker at spawn, so the
        # parent-side pickle count is bounded by the worker count.
        assert CountingWorkload.pickled <= n_workers
        shared_pickles = CountingWorkload.pickled

        CountingWorkload.pickled = 0
        backend = ProcessPoolBackend(n_workers)
        inline_runner = SweepRunner(
            spec,
            seed=7,
            budget=self.BUDGET,
            backend=backend,
            share_state=False,
        )
        inline = inline_runner.run()
        backend.shutdown()
        assert sweep_json(inline) == sweep_json(result)
        # Inline shipping re-pickles the payload on every round: each
        # configuration's window crosses the pool again (at least one
        # chunk per unsettled configuration per round), where shared
        # shipping paid once per worker for the whole sweep.
        assert CountingWorkload.pickled >= inline_runner.stats["rounds"]
        assert shared_pickles < CountingWorkload.pickled

    @pytest.mark.slow
    def test_pool_reuses_workers_across_rounds_and_sweeps(self):
        """Re-running with the same mapping content must not rebuild the
        pool: identity hits first, then the content digest."""
        spec = counting_spec()
        backend = ProcessPoolBackend(2)
        SweepRunner(spec, seed=7, budget=self.BUDGET, backend=backend).run()
        assert backend.shared_installs == 1
        # A second sweep builds an equal-but-distinct mapping: the digest
        # check must recognize it and keep the warm pool.
        SweepRunner(spec, seed=7, budget=self.BUDGET, backend=backend).run()
        assert backend.shared_installs == 1
        backend.shutdown()

    def test_unpicklable_shared_state_fails_fast(self):
        backend = ProcessPoolBackend(2)
        runner = make_runner()
        slim = runner.build_specs(4, shared_key="k", max_events=200)
        state = dict(runner.shared_state())
        state["algorithm_factory"] = lambda: VanillaGossip()
        try:
            with pytest.raises(SimulationError, match="AlgorithmFactory"):
                backend.execute_shared(slim, {"k": state})
        finally:
            backend.shutdown()
