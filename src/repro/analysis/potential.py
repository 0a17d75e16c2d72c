"""The paper's Section-3 potential decomposition ``(mu1, mu2, sigma)``.

For a partition ``(V1, V2)`` and value vector ``x`` with global average
``x_av``, the squared deviation splits *exactly* as

    ``var X = sigma^2 + (n1 (mu1 - x_av)^2 + n2 (mu2 - x_av)^2) / n``

where ``mu_i`` is the mean of side ``i`` and ``sigma^2`` is the
within-side variance (the paper's ``sigma(t)``).  The paper writes
``var X(t) = mu(t)^2 + sigma(t)^2`` with ``mu = |mu1| + |mu2|`` (for
``x_av = 0``); that is an upper bound, not an identity — this module
exposes both the exact split and the paper's ``mu`` so the analysis
benchmarks can show the (bounded) gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.partition import Partition


@dataclass(frozen=True)
class PotentialDecomposition:
    """The decomposition of ``var X`` induced by a partition.

    Attributes
    ----------
    mu1, mu2:
        Side means.
    global_mean:
        ``x_av``.
    sigma:
        Within-side root-mean-square deviation (the paper's ``sigma``).
    imbalance:
        The cross-cut term ``(n1 (mu1-x_av)^2 + n2 (mu2-x_av)^2) / n``.
    variance:
        Total population variance; equals ``sigma^2 + imbalance`` exactly.
    """

    mu1: float
    mu2: float
    global_mean: float
    sigma: float
    imbalance: float
    variance: float

    @property
    def paper_mu(self) -> float:
        """The paper's ``mu = |mu1 - x_av| + |mu2 - x_av|``."""
        return abs(self.mu1 - self.global_mean) + abs(self.mu2 - self.global_mean)

    @property
    def paper_upper_bound(self) -> float:
        """The paper's claimed envelope ``mu^2 + sigma^2`` (>= variance)."""
        return self.paper_mu**2 + self.sigma**2

    def to_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {
            "mu1": self.mu1,
            "mu2": self.mu2,
            "global_mean": self.global_mean,
            "sigma": self.sigma,
            "imbalance": self.imbalance,
            "variance": self.variance,
            "paper_mu": self.paper_mu,
        }


def decompose(
    values: "Sequence[float]", partition: Partition
) -> PotentialDecomposition:
    """Compute the exact potential decomposition of ``values``."""
    array = np.asarray(values, dtype=np.float64)
    n = partition.graph.n_vertices
    if array.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {array.shape}")
    side_1 = array[partition.vertices_1]
    side_2 = array[partition.vertices_2]
    mu1 = float(side_1.mean())
    mu2 = float(side_2.mean())
    global_mean = float(array.mean())
    within = float(np.sum((side_1 - mu1) ** 2) + np.sum((side_2 - mu2) ** 2)) / n
    sigma = float(np.sqrt(within))
    imbalance = (
        partition.n1 * (mu1 - global_mean) ** 2
        + partition.n2 * (mu2 - global_mean) ** 2
    ) / n
    variance = float(np.var(array))
    return PotentialDecomposition(
        mu1=mu1,
        mu2=mu2,
        global_mean=global_mean,
        sigma=sigma,
        imbalance=imbalance,
        variance=variance,
    )
