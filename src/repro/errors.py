"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch one type.  Subclasses mirror the major
subsystems; they carry plain messages and, where useful, structured
attributes (for example the offending vertex or edge).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph construction or query (bad vertex, duplicate edge...)."""


class VertexError(GraphError):
    """A vertex id is out of range or otherwise invalid."""

    def __init__(self, vertex: int, n_vertices: int) -> None:
        self.vertex = vertex
        self.n_vertices = n_vertices
        super().__init__(
            f"vertex {vertex} out of range for graph with {n_vertices} vertices"
        )


class EdgeError(GraphError):
    """An edge is invalid (self-loop, duplicate, unknown endpoint...)."""


class PartitionError(ReproError):
    """A partition does not cover the vertex set, overlaps, or is disconnected."""


class DisconnectedGraphError(GraphError):
    """An operation requires a connected graph but the graph is not connected."""


class AlgorithmError(ReproError):
    """An averaging algorithm was configured or used incorrectly."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class SweepError(SimulationError):
    """A parameter sweep was specified or resumed incorrectly."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class ExperimentError(ReproError):
    """An experiment specification is invalid or failed to execute."""


class SerializationError(ReproError):
    """A result object could not be serialized or deserialized."""


class StoreError(ReproError):
    """The persistent results store rejected an operation.

    Raised for schema mismatches, unknown run ids, and database-level
    corruption; messages carry recovery guidance (the store is a pure
    cache of recomputable results, so deleting a damaged database file
    is always safe).
    """
