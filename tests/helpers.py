"""Test-only references: an oracle that records its reads, and the
substring a query selects."""

from typing import List

from ecds.bits import BitString
from ecds.oracle import ProbeOracle


class RecordingOracle(ProbeOracle):
    """ProbeOracle that also records the sequence of positions read."""

    __slots__ = ("trace",)

    def __init__(self, codeword, pattern, budget):
        super().__init__(codeword, pattern, budget)
        self.trace: List[int] = []

    def probe(self, j: int) -> int:
        out = super().probe(j)
        self.trace.append(j)
        return out


def extract_substring(x: BitString, mask: BitString) -> BitString:
    """Bits of x at the one-positions of mask, in index order."""
    if x.n != mask.n:
        raise ValueError("length mismatch")
    sup = mask.support()
    v = 0
    for i in sup:
        v = (v << 1) | x.bit(i)
    return BitString.from_int(len(sup), v)
