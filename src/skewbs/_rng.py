"""The deprecation check for the Monte Carlo arguments of the exact routines."""

from __future__ import annotations

import warnings


def deprecated_draws(mc_draws, rng, minimum: int) -> None:
    """Reject mc_draws < minimum; warn the caller of an exact routine that both are ignored."""
    if mc_draws is None and rng is None:
        return
    if mc_draws is not None and mc_draws < minimum:
        raise ValueError(f"mc_draws must be at least {minimum}")
    warnings.warn("mc_draws and rng are deprecated and ignored", DeprecationWarning, stacklevel=3)
