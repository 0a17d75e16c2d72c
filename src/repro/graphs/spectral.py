"""Spectral graph toolkit: Laplacians, algebraic connectivity, Fiedler vectors.

The paper's quantities reduce to Laplacian spectra twice over:

* ``Tvan(G)`` — the vanilla-gossip averaging time — is governed by
  ``lambda_2(L)``: with rate-1 clocks per edge each tick of ``(i, j)``
  removes ``(x_i - x_j)^2 / 2`` from the squared deviation, so
  ``E[var X(t)] <= var X(0) * exp(-lambda_2 t / 2)`` (Dirichlet form).
* Sparse cuts are found by sweeping the Fiedler vector (Cheeger).

Spectra are computed densely (all experiment graphs fit comfortably) and
cached per graph — :class:`~repro.graphs.graph.Graph` is immutable and
hashable, which makes ``lru_cache`` safe.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs.graph import Graph

#: Relative tolerance used when deciding an eigenvalue is "zero".
_ZERO_EIGENVALUE_TOL = 1e-9


def laplacian_matrix(graph: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian ``L = D - A``."""
    adjacency = graph.adjacency_matrix()
    return np.diag(graph.degrees.astype(np.float64)) - adjacency


@lru_cache(maxsize=256)
def laplacian_spectrum(graph: Graph) -> np.ndarray:
    """All Laplacian eigenvalues in ascending order (cached, read-only)."""
    if graph.n_vertices == 0:
        raise GraphError("spectrum of the empty graph is undefined")
    import scipy.linalg  # deferred: it dominates the package import time

    values = scipy.linalg.eigvalsh(laplacian_matrix(graph))
    values.setflags(write=False)
    return values


def algebraic_connectivity(graph: Graph) -> float:
    """``lambda_2(L)``, the algebraic connectivity (0 iff disconnected)."""
    if graph.n_vertices < 2:
        raise GraphError("algebraic connectivity needs at least two vertices")
    spectrum = laplacian_spectrum(graph)
    return float(max(spectrum[1], 0.0))


@lru_cache(maxsize=256)
def _fiedler_cached(graph: Graph) -> np.ndarray:
    import scipy.linalg  # deferred: it dominates the package import time

    matrix = laplacian_matrix(graph)
    _, vectors = scipy.linalg.eigh(matrix, subset_by_index=(0, 1))
    vector = vectors[:, 1].copy()
    # Fix the sign deterministically: first non-zero entry positive.
    for value in vector:
        if abs(value) > _ZERO_EIGENVALUE_TOL:
            if value < 0:
                vector = -vector
            break
    vector.setflags(write=False)
    return vector


def fiedler_vector(graph: Graph) -> np.ndarray:
    """Unit eigenvector of ``lambda_2(L)`` with a deterministic sign.

    Raises :class:`DisconnectedGraphError` for disconnected graphs, whose
    "Fiedler vector" is just an indicator of a component and carries no cut
    information beyond the components themselves.
    """
    if graph.n_vertices < 2:
        raise GraphError("Fiedler vector needs at least two vertices")
    if algebraic_connectivity(graph) <= _ZERO_EIGENVALUE_TOL:
        raise DisconnectedGraphError(
            "Fiedler vector undefined: graph is disconnected (lambda_2 ~ 0)"
        )
    return _fiedler_cached(graph)


def spectral_mixing_time(graph: Graph, *, variance_ratio: float = np.e**-2) -> float:
    """Time for vanilla gossip's *expected* variance to decay to the ratio.

    Solves ``exp(-lambda_2 t / 2) = variance_ratio``, i.e.
    ``t = 2 ln(1 / ratio) / lambda_2``; the default ratio ``e^{-2}`` (the
    paper's Definition 1 threshold) gives ``t = 4 / lambda_2``.  This is
    the library's spectral proxy for ``Tvan(G)`` (fidelity note F2 in
    docs/reports.md).
    """
    if not 0 < variance_ratio < 1:
        raise GraphError(
            f"variance_ratio must be in (0, 1), got {variance_ratio}"
        )
    gap = algebraic_connectivity(graph)
    if gap <= _ZERO_EIGENVALUE_TOL:
        raise DisconnectedGraphError(
            "spectral mixing time is infinite: graph is disconnected"
        )
    return 2.0 * float(np.log(1.0 / variance_ratio)) / gap
