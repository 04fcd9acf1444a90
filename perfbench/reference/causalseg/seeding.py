"""Deterministic seed derivation.

Every random draw in the library flows from one user seed through
``mix64``, a splitmix64 step over (seed, tag). Identical (seed, tag)
pairs give identical streams on any platform.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def mix64(seed: int, tag: int) -> int:
    """Mix a base seed with a stream tag into a new 64-bit seed."""
    z = (int(seed) * 0x9E3779B97F4A7C15 + int(tag) + 0x632BE59BD9B4E019) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def generator(seed: int, tag: int = 0) -> np.random.Generator:
    return np.random.default_rng(mix64(seed, tag))
