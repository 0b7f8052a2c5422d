"""Seeded, splittable random streams.

Every randomized routine takes an explicit ``numpy.random.Generator``.  The
helpers here derive independent substreams from a ``(seed, key...)`` pair via
the counter-based Philox generator, so replicate r of a Monte Carlo run is
reproducible regardless of scheduling.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["stream", "as_fraction", "parse_alpha"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for ``(seed, key...)``; equal arguments give equal streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, or string ('3/4' or '0.75').

    Floats are rejected: a binary float silently misrepresents most decimal
    inputs and the exact suites would inherit the error.
    """
    if type(x) is Fraction:  # immutable: nothing to convert
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"pass {x!r} as a string or Fraction to keep arithmetic exact")
    return Fraction(x)


def parse_alpha(x) -> Fraction:
    """Exact alpha in [0, 1]."""
    alpha = as_fraction(x)
    if not 0 <= alpha.numerator <= alpha.denominator:  # the denominator is positive
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha
