"""Deterministic seed fan-out.

One master seed is stretched into independent named streams so that
adding a query or a sweep cell never shifts the randomness of another.
A stream's `sample` of many positions out of a large range, as a random
flip pattern draws, is also drawn in numpy (`sample_positions`), with
the stream's own words: the same positions, and the stream left where
`sample` leaves it.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np


def derive_seed(label: str, *parts) -> int:
    """A 64-bit seed determined by the label and the parts."""
    text = repr((label,) + tuple(parts)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def stream(label: str, *parts) -> random.Random:
    """A fresh stdlib RNG on the derived seed."""
    return random.Random(derive_seed(label, *parts))


def sample_positions(rng: random.Random, n: int, k: int) -> np.ndarray:
    """rng.sample(range(1, n + 1), k) as an int64 array, rng left in the
    state that call leaves it in.

    Where sample keeps its draws in a set (n above its `setsize`), each
    draw is the top n.bit_length() bits of one Mersenne Twister word,
    drawn again while it is n or more or already drawn, so the sample is
    the first k distinct values below n among rng's next words, plus 1.
    Those words come from numpy's MT19937 loaded with rng's state, and
    rng is then set past the last word used.  Otherwise (sample's pool
    branch, n past 32 bits, a subclass of Random, or the rare draw that
    needs more words than the expected count and its margin) this is the
    stdlib call.
    """
    setsize = 21  # as sample computes it
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if k < 1 or n <= setsize or n.bit_length() > 32 or type(rng) is not random.Random:
        return np.array(rng.sample(range(1, n + 1), k), dtype=np.int64)
    # imported only here: numpy.random costs an ecds process 8-10 ms
    from numpy.random import MT19937

    version, state, gauss = rng.getstate()
    start = {"bit_generator": "MT19937", "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    mt = MT19937()
    mt.state = start
    bits = n.bit_length()
    # the words k distinct draws below n take on average, and a margin
    words = mt.random_raw(math.ceil(-math.log1p(-k / n) * (1 << bits) * 1.02) + 64) >> (32 - bits)
    # each draw below n beside its word's place, sorted, so that a
    # value's first key is its first draw
    drawn = np.flatnonzero(words < n).astype(np.uint64)
    keys = np.sort(words[drawn] << 32 | drawn)
    value = keys >> 32
    first = keys[np.concatenate(([True], value[1:] != value[:-1]))] & 0xFFFFFFFF
    if len(first) < k:  # rng is untouched so far
        return np.array(rng.sample(range(1, n + 1), k), dtype=np.int64)
    first.sort()
    first = first[:k]
    mt.state = start
    mt.random_raw(int(first[-1]) + 1, output=False)
    end = mt.state["state"]
    rng.setstate((version, tuple(end["key"].tolist()) + (end["pos"],), gauss))
    return words[first].astype(np.int64) + 1
