"""Deterministic RNG stream derivation.

Every run draws all of its randomness from a single master seed. Named
substreams are derived through ``numpy.random.SeedSequence`` spawn keys so
that any component (environment sampling, network init, batch selection,
noise, per-task data) can be re-executed in isolation and still produce
bit-identical values, serial or parallel.
"""

from __future__ import annotations

import numpy as np

# Frozen substream identifiers. Changing a value changes every dataset
# derived from it, so treat these as part of the on-disk format.
STREAM_ENV = 1
STREAM_NET_INIT = 2
STREAM_BATCH = 3
STREAM_TASK_DATA = 4
STREAM_COVARIANCE = 5
STREAM_TARGET_DATA = 6
STREAM_PROBE = 7
# ``csitransfer gen`` datasets, and the three probes of ``csitransfer gradcheck``.
STREAM_CLI_GEN = 100
STREAM_GRADCHECK_BACKWARD = 200
STREAM_GRADCHECK_HVP = 201
STREAM_GRADCHECK_META = 202


def _sequence(master_seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=tuple(int(k) for k in key))


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Fresh generator for the (master_seed, *key) substream."""
    return np.random.default_rng(_sequence(master_seed, key))


def stream_and_seed(master_seed: int, *key: int) -> tuple[np.random.Generator, int]:
    """:func:`stream` of the (master_seed, *key) substream plus a stable
    64-bit child seed from the same sequence, which is hashed once."""
    ss = _sequence(master_seed, key)
    return np.random.default_rng(ss), int(ss.generate_state(1, np.uint64)[0])
