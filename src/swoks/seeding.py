"""Deterministic RNG fan-out: one master seed, named substreams.

Every stochastic component draws from its own named child of the master
seed, so runs are bit-reproducible and adding a consumer never perturbs
the streams of existing ones.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["child_seed", "substream"]


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

