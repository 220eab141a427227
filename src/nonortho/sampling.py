"""Seeded random valid states for verification sweeps and tests.

Amplitude ratios are drawn uniformly on the complex 2-sphere, overlap
magnitudes uniformly on [0, 0.95] (the cap keeps the embedding normalizers
away from zero), overlap phases uniformly on [-pi, pi); the pair is then
rescaled to unit norm.  Everything is driven by a numpy Generator so runs
are reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .state import NonorthogonalState, make_state

DEFAULT_SEED = 1729   # fixed default; override via --seed

OVERLAP_CAP = 0.95


def random_state(rng: np.random.Generator) -> NonorthogonalState:
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps = amps / np.linalg.norm(amps)
    mags = rng.uniform(0.0, OVERLAP_CAP, 2)
    phases = rng.uniform(-np.pi, np.pi, 2)
    x = mags[0] * np.exp(1j * phases[0])
    y = mags[1] * np.exp(1j * phases[1])
    return make_state(amps[0], amps[1], x, y, auto_normalize=True)


def random_states(count: int, seed: int = DEFAULT_SEED) -> Iterator[NonorthogonalState]:
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_state(rng)
