"""Edge-clock processes: Poisson clocks (the paper's model) and test schedules."""

from repro.clocks.poisson import PoissonClockFactory, PoissonEdgeClocks
from repro.clocks.schedule import ScriptedSchedule
from repro.clocks.unreliable import (
    FailingEdgeClocks,
    FailingPoissonClockFactory,
    LossyClocks,
    LossyPoissonClockFactory,
)

__all__ = [
    "PoissonClockFactory",
    "PoissonEdgeClocks",
    "ScriptedSchedule",
    "FailingEdgeClocks",
    "FailingPoissonClockFactory",
    "LossyClocks",
    "LossyPoissonClockFactory",
]
