"""Executable proof machinery: potentials, epoch operators, walks, bounds."""

from repro.analysis.potential import PotentialDecomposition, decompose
from repro.analysis.operators import (
    EpochOperatorSample,
    operator_norm,
    sample_epoch_operators,
)
from repro.analysis.random_walk import (
    dominating_walk_increments,
    dominating_walk_paths,
    simple_random_walk_paths,
    tail_probability_estimate,
    theorem3_tail_bound,
    time_to_stay_below,
)
from repro.analysis.dominance import couple_with_dominating_walk
from repro.analysis.bounds import (
    dumbbell_predictions,
    theorem1_lower_bound,
    theorem2_upper_bound,
)
from repro.analysis.epoch_trace import EpochRecord, epoch_potential_trace

__all__ = [
    "PotentialDecomposition",
    "decompose",
    "EpochOperatorSample",
    "operator_norm",
    "sample_epoch_operators",
    "dominating_walk_increments",
    "dominating_walk_paths",
    "simple_random_walk_paths",
    "tail_probability_estimate",
    "theorem3_tail_bound",
    "time_to_stay_below",
    "couple_with_dominating_walk",
    "dumbbell_predictions",
    "theorem1_lower_bound",
    "theorem2_upper_bound",
    "EpochRecord",
    "epoch_potential_trace",
]
