"""Shared utilities: RNG handling and small numeric helpers."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.rng": ("as_rng", "spawn_rngs", "derive_seed"),
    "repro.util.stats": (
        "mean",
        "stddev",
        "coefficient_of_variation",
        "geometric_mean",
    ),
})

__all__ = [
    "as_rng",
    "spawn_rngs",
    "derive_seed",
    "mean",
    "stddev",
    "coefficient_of_variation",
    "geometric_mean",
]
