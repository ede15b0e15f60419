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

The first key of a path is the stream tag of its kind of decision: PHASE1,
REALIGN, JOIN, PAIRING and JOIN_REALIGN in growth, VERIFY_PROCEDURES and
VERIFY_CANONICALIZATION in verify.  Paths are not independent by construction:
SeedSequence hashes the flat list of 32-bit words of seed and keys, so a
trailing zero key vanishes (derive_rng(s, 2, 7) is derive_rng(s, 2, 7, 0)) and
a seed of 2^32 or more spills into the tag's word (PHASE1 round r of seed
s + 2 * 2^32 is the REALIGN stream of piece 1, attempt r, of seed s).
"""

from __future__ import annotations

import numpy as np

PHASE1, REALIGN, JOIN, PAIRING, JOIN_REALIGN = 1, 2, 3, 4, 5
VERIFY_PROCEDURES, VERIFY_CANONICALIZATION = 7, 8


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return the Generator of the (seed, *key) counter path (some paths alias)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))))
