"""Epoch operators ``A_k`` and their norms (the paper's Lemma 1 / Eq. 12).

The paper composes all linear updates between consecutive swap instants
``T_k^+ -> T_{k+1}^+`` into a random operator ``A_k`` and shows

* ``P[ ||A_k||^2 >= n^{-3} ] <= 1/2``  (Lemma 1, for large enough C), and
* ``||A_k|| <= n`` always (Eq. 12),

which together drive the dominating-random-walk argument.  Every update of
Algorithm A is *value-independent* and linear (vanilla ticks replace two
rows by their mean; the swap applies fixed coefficients), so an epoch
operator can be materialized exactly by pushing the identity matrix
through one epoch's tick sequence.  :func:`sample_epoch_operators` does
exactly that, drawing tick sequences from the same Poisson model the
simulator uses.

Note the operators act on the *zero-mean subspace* in the relevant sense:
``A_k`` always fixes the all-ones vector (every update conserves each
side's... in fact the global sum), so norms are reported both on the full
space and restricted to the subspace orthogonal to ``1`` — the latter is
the one that controls variance contraction and the one Lemma 1 is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.errors import AnalysisError
from repro.graphs.partition import Partition
from repro.util.rng import as_generator


def operator_norm(matrix: np.ndarray, *, zero_mean_subspace: bool = False) -> float:
    """Spectral norm; optionally restricted orthogonal to the ones vector.

    The restriction projects both sides with ``P = I - J/n`` and takes the
    largest singular value of ``P A P`` — the contraction factor relevant
    to variance dynamics (the ones direction is conserved and carries no
    variance).
    """
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise AnalysisError(f"operator must be square, got shape {array.shape}")
    if zero_mean_subspace:
        n = array.shape[0]
        projector = np.eye(n) - np.full((n, n), 1.0 / n)
        array = projector @ array @ projector
    return float(np.linalg.norm(array, ord=2))


@dataclass(frozen=True)
class EpochOperatorSample:
    """One sampled epoch operator and its summary statistics."""

    matrix: np.ndarray
    norm: float
    norm_zero_mean: float
    n_ticks: int
    duration: float

    @property
    def log_norm_zero_mean(self) -> float:
        """``log ||A_k||`` on the variance-carrying subspace (floored)."""
        return math.log(max(self.norm_zero_mean, 1e-300))


def sample_epoch_operators(
    partition: Partition,
    *,
    epoch_length: int,
    n_epochs: int,
    gain: "str | float" = "exact",
    seed: "int | np.random.Generator | None" = None,
) -> list[EpochOperatorSample]:
    """Sample ``n_epochs`` i.i.d. epoch operators of Algorithm A.

    Each epoch runs from just after one swap to just after the next
    (the paper's ``T_k^+ -> T_{k+1}^+``): ticks are drawn from the Poisson
    edge-clock model, vanilla row-averages are applied for internal edges,
    non-designated cut ticks are skipped, and the epoch ends with the
    non-convex swap row operation.  The identity matrix is pushed through
    the whole sequence, so ``matrix`` is exactly ``A_k``.
    """
    if n_epochs < 1:
        raise AnalysisError(f"n_epochs must be positive, got {n_epochs}")
    algorithm = NonConvexSparseCutGossip(
        partition, epoch_length=epoch_length, gain=gain
    )
    graph = partition.graph
    n = graph.n_vertices
    rng = as_generator(seed)
    clocks = PoissonEdgeClocks(graph.n_edges, seed=rng)
    edges_u = graph.edges[:, 0]
    edges_v = graph.edges[:, 1]
    designated = algorithm.designated_edge
    is_cut = np.zeros(graph.n_edges, dtype=bool)
    is_cut[partition.cut_edge_ids] = True
    a, b = algorithm._endpoint_v1, algorithm._endpoint_v2
    g = algorithm.gain

    samples: list[EpochOperatorSample] = []
    matrix = np.eye(n)
    ticks_in_epoch = 0
    designated_ticks = 0
    epoch_start_time = 0.0
    last_time = 0.0
    while len(samples) < n_epochs:
        times, edge_ids = clocks.next_batch(4096)
        for t, e in zip(times.tolist(), edge_ids.tolist()):
            last_time = t
            ticks_in_epoch += 1
            if not is_cut[e]:
                u, v = int(edges_u[e]), int(edges_v[e])
                mean_row = 0.5 * (matrix[u] + matrix[v])
                matrix[u] = mean_row
                matrix[v] = mean_row
                continue
            if e != designated:
                continue
            designated_ticks += 1
            if designated_ticks % epoch_length != 0:
                continue
            # The swap closes the epoch: x_a += g * (x_b - x_a), mirrored.
            row_a = matrix[a].copy()
            row_b = matrix[b].copy()
            matrix[a] = row_a + g * (row_b - row_a)
            matrix[b] = row_b - g * (row_b - row_a)
            samples.append(
                EpochOperatorSample(
                    matrix=matrix,
                    norm=operator_norm(matrix),
                    norm_zero_mean=operator_norm(matrix, zero_mean_subspace=True),
                    n_ticks=ticks_in_epoch,
                    duration=last_time - epoch_start_time,
                )
            )
            matrix = np.eye(n)
            ticks_in_epoch = 0
            epoch_start_time = last_time
            if len(samples) >= n_epochs:
                break
    return samples


def lemma1_empirical_probability(
    samples: "list[EpochOperatorSample]", *, threshold_exponent: float = -3.0
) -> float:
    """Fraction of epochs with ``||A_k||^2 >= n^threshold_exponent``.

    Lemma 1 claims this is at most 1/2 for large enough ``C``.
    """
    if not samples:
        raise AnalysisError("no samples")
    n = samples[0].matrix.shape[0]
    threshold = n**threshold_exponent
    hits = sum(1 for s in samples if s.norm_zero_mean**2 >= threshold)
    return hits / len(samples)
