"""Deterministic RNG derivation.

All randomness in the package flows from a single 64-bit experiment seed.
Sub-streams are derived by hashing the seed together with an integer key
path (stream tag, round index, piece or attempt index, ...) through numpy's
SeedSequence, so the stream consumed by one Monte Carlo event does not
depend on how many draws other events made, nor on the order in which
events are evaluated.  Phase-1 growth derives one stream per round and
draws one block of uniforms from it, a row of five per pair, so each pair
reads its own row whatever the scan order.  That makes serial and
(hypothetically reordered / parallel) execution agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return an independent Generator for the (seed, *key) counter path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))))
