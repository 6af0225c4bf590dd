"""Deterministic RNG fan-out: one master seed, named substreams.

Every stochastic component draws from its own named child of the master
seed, so runs are bit-reproducible and adding a consumer never perturbs
the streams of existing ones.
"""
from __future__ import annotations

import itertools
import zlib

import numpy as np

__all__ = ["child_seed", "substream", "UniformBlocks"]


def _sequence(master_seed: int, name: str) -> np.random.SeedSequence:
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.SeedSequence([master_seed, tag])


def child_seed(master_seed: int, name: str) -> int:
    """Derive a stable integer seed for the named substream."""
    state = _sequence(master_seed, name).generate_state(1, np.uint64)
    return int(state[0])


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream of ``master_seed``."""
    return np.random.default_rng(_sequence(master_seed, name))


# Uniforms per numpy call in UniformBlocks.
_UNIFORM_BLOCK = 256


class UniformBlocks:
    """Serves a generator's uniforms through ``random()``, drawn in blocks.

    ``random()`` returns the values of ``rng.random(256)`` in order,
    drawing the next block when one runs out: the same floats, in the
    same order, as one ``rng.random()`` call each, without the cost of
    a numpy call per value. The generator runs up to 255 values ahead
    of the values served, so nothing else may draw from it.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__
