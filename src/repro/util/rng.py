"""Seeded random-number-generator management.

All stochastic code in the library takes either an integer seed or a
:class:`numpy.random.Generator`.  This module centralizes the coercion
(:func:`as_generator`) and the creation of independent child streams
(:func:`spawn_generators`, :class:`RngFactory`), so replicated experiments
get reproducible yet statistically independent randomness.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(
    seed: "int | np.random.Generator | np.random.SeedSequence | None",
) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, a
    :class:`numpy.random.SeedSequence`, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot build a Generator from {type(seed).__name__}")


def derive_child(
    sequence: np.random.SeedSequence, key: int
) -> np.random.SeedSequence:
    """The child ``sequence.spawn()`` would yield at ``key`` — without
    mutating ``sequence``'s child counter.

    Reproducibility-critical: the Monte-Carlo runner's replicate roots
    and the execution backends' per-replicate substreams both derive
    through this one function, so the scheme cannot drift between them.
    """
    return np.random.SeedSequence(
        entropy=sequence.entropy,
        spawn_key=(*sequence.spawn_key, key),
        pool_size=sequence.pool_size,
    )


def spawn_generators(
    seed: "int | np.random.SeedSequence | None", count: int
) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, the supported mechanism
    for building parallel streams, so replicate ``i`` is reproducible
    regardless of how many replicates run.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


class RngFactory:
    """A reproducible source of named, independent random streams.

    Each distinct ``name`` passed to :meth:`stream` yields a generator
    seeded from the root seed and the name, so adding a new consumer of
    randomness never perturbs existing streams.

    >>> factory = RngFactory(seed=7)
    >>> a = factory.stream("clocks")
    >>> b = factory.stream("workload")
    >>> a is not b
    True
    """

    def __init__(self, seed: "int | None" = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self._seed = seed
        self._counters: dict[str, int] = {}

    @property
    def seed(self) -> "int | None":
        """The root integer seed this factory was built from (may be None)."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for stream ``name``.

        Repeated calls with the same name return *new* generators continuing
        a per-name counter, so each call site gets an independent stream
        while remaining reproducible run-to-run.
        """
        index = self._counters.get(name, 0)
        self._counters[name] = index + 1
        entropy = self._root.entropy
        if entropy is None:
            entropy = 0
        child = np.random.SeedSequence(
            entropy=entropy,
            spawn_key=(_stable_name_key(name), index),
        )
        return np.random.default_rng(child)

    def replicate_streams(self, name: str, count: int) -> list[np.random.Generator]:
        """Return ``count`` independent generators for replicated runs."""
        return [self.stream(f"{name}[{i}]") for i in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RngFactory(seed={self._seed!r})"


def _stable_name_key(name: str) -> int:
    """Hash a stream name to a stable 32-bit key (Python's hash is salted)."""
    acc = 2166136261
    for byte in name.encode("utf-8"):
        acc = (acc ^ byte) * 16777619 % (1 << 32)
    return acc
