"""Shared utilities: RNG handling and small numeric helpers."""

from repro.util.rng import as_rng, spawn_rngs, derive_seed
from repro.util.stats import mean, stddev, coefficient_of_variation, geometric_mean

__all__ = [
    "as_rng",
    "spawn_rngs",
    "derive_seed",
    "mean",
    "stddev",
    "coefficient_of_variation",
    "geometric_mean",
]
