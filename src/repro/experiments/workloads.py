"""Initial-value workloads for averaging experiments.

All workloads are zero-mean by default so the target consensus value is 0
and variance ratios are directly comparable across instances.  The
central one is :func:`cut_aligned` — the adversarial vector from the
paper's own Theorem-1 proof (+1 on ``V1``, ``-n1/n2`` on ``V2``), which
maximally loads the cut and stands in for the definition's ``sup_x``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExperimentError
from repro.graphs.partition import Partition
from repro.util.rng import as_generator


def cut_aligned(partition: Partition) -> np.ndarray:
    """The paper's worst case: ``+1`` on ``V1``, ``-n1/n2`` on ``V2``.

    Zero-mean by construction; all initial variance sits across the cut.
    """
    values = np.empty(partition.graph.n_vertices, dtype=np.float64)
    values[partition.vertices_1] = 1.0
    values[partition.vertices_2] = -partition.n1 / partition.n2
    return values


def spike(n: int, *, vertex: int = 0, zero_mean: bool = True) -> np.ndarray:
    """A single loaded node (the load-balancing "hot spot" scenario)."""
    if n < 1:
        raise ExperimentError(f"n must be positive, got {n}")
    if not 0 <= vertex < n:
        raise ExperimentError(f"vertex {vertex} out of range for n={n}")
    values = np.zeros(n, dtype=np.float64)
    values[vertex] = float(n)
    if zero_mean:
        values = values - values.mean()
    return values


def bimodal_noise(
    partition: Partition,
    *,
    rng: "np.random.Generator | int | None" = None,
    noise: float = 0.1,
) -> np.ndarray:
    """Cut-aligned signal plus i.i.d. Gaussian noise (realistic sensors).

    Models two instrument clusters whose readings differ systematically
    across the cut and fluctuate within each side.
    """
    if noise < 0:
        raise ExperimentError(f"noise must be non-negative, got {noise}")
    generator = as_generator(rng)
    values = cut_aligned(partition)
    values = values + generator.normal(0.0, noise, size=values.shape)
    return values - values.mean()
