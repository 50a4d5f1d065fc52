"""Evaluable lower bounds and impossibility thresholds, plus numeric
verification of the sign-matrix discrepancy argument behind them.

Values are exact rationals whenever the formula permits; otherwise
floats with the exact ingredients (ball sizes, entropies) recorded in
the inputs, so every report can be recomputed from its own fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .bits import BoundedWeightSpace, ball_size
from .errors import InfeasibleSizeError, ParameterError, desk_scale, integer
from .seeding import derive_seed

MATRIX_MAX_N = 12
MATRIX_MAX_COLS = 4096

# rectangles `discrepancy_verify` checks all of, at most; past it, a sample
EXHAUSTIVE_RECTANGLES = 1 << 20

# matrix entries `discrepancy_verify` holds per block of Gram rows or of
# sampled rectangles, so its memory stays flat in the sample count
BLOCK_ENTRIES = 1 << 20

# an exact ball sum takes about a second at 2^24 bit-binomials (B(4095,
# 4095): 0.8-1.4 s on a shared 2-vCPU host), a quarter of the desk scale:
# `_ball` counts each as 2^BALL_WORK_SHIFT
BALL_WORK_SHIFT = 2


@dataclass(frozen=True)
class BoundReport:
    """One evaluated formula: inputs, float value, exact form if any."""

    formula: str
    inputs: Dict[str, object]
    value: float
    exact: Optional[Fraction] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "formula": self.formula,
            "inputs": {k: _plain(v) for k, v in self.inputs.items()},
            "value": self.value,
            "exact": None if self.exact is None else str(self.exact),
            "provenance": "formula",
        }


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def binary_entropy(x: float) -> float:
    """H(x) in bits, with H(0) = H(1) = 0 by continuity."""
    if not 0 <= x <= 1:
        raise ParameterError("entropy argument outside [0,1]")
    if x in (0, 1):
        return 0.0
    x = float(x)
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _ball(n: int, r: int, name: str = "r") -> int:
    """B(n, r), summed exactly, for 0 <= r <= n (r called `name` in the
    refusal).  Refused with InfeasibleSizeError, before summing, when an
    upper bound on the work passes BALL_WORK_SHIFT's limit: r + 1
    binomials of at most min(n, k log2(e n / k)) bits each, the largest
    being at k = min(r, n // 2)."""
    integer(n, "n >= 0", 0)
    integer(r, "0 <= %s <= n" % name, 0, n)
    k = min(r, n // 2)
    bits = min(n, math.ceil(k * (math.log2(n) - math.log2(k) + math.log2(math.e)))) if k else 1
    desk_scale("the exact sum B(%d, %d), in bit-binomials," % (n, r), (r + 1) * bits, BALL_WORK_SHIFT)
    return ball_size(n, r)


def ip_comm_lower_bound(n: int, r: int, beta) -> BoundReport:
    """Bits of one-way communication needed to compute x.y (weight(y)<=r)
    with success 1/2 + beta: log2 B(n,r) - 2 log2(1/(2 beta))."""
    beta = Fraction(beta)
    if not 0 < beta <= Fraction(1, 2):
        raise ParameterError("need 0 < beta <= 1/2")
    b = _ball(n, r)
    value = math.log2(b) - 2 * math.log2(1 / (2 * beta))
    return BoundReport(
        formula="ip-communication",
        inputs={"n": n, "r": r, "beta": beta, "ball": b},
        value=value,
    )


def ip_ds_lower_bound(n: int, r: int, eps, p: int) -> BoundReport:
    """Minimum length of a p-probe structure answering x.y with error eps:
    (1/2) * 2^((log2 B(n,r) - 2 log2(1/(1-2 eps)) - 1)/p).

    At p = 1 the value is exactly B(n,r) (1-2 eps)^2 / 4.  A value past
    the float range is refused with InfeasibleSizeError.
    """
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise ParameterError("need 0 <= eps < 1/2")
    integer(p, "p >= 1", 1)
    b = _ball(n, r)
    gap = 1 - 2 * eps
    exact = Fraction(b) * gap**2 / 4 if p == 1 else None
    try:
        value = float(exact) if p == 1 else 0.5 * 2.0 ** ((math.log2(b) - 2 * math.log2(1 / gap) - 1) / p)
    except OverflowError:
        raise InfeasibleSizeError(
            "the %d-probe length bound for B(%d, %d) is past the float range" % (p, n, r)
        ) from None
    return BoundReport(
        formula="ip-structure-length",
        inputs={"n": n, "r": r, "eps": eps, "p": p, "ball": b},
        value=value,
        exact=exact,
    )


def one_probe_noise_threshold(delta: float, eps: float) -> BoundReport:
    """Universe size beyond which no one-probe membership structure can
    tolerate noise rate delta with error eps: 1/(delta (1 - H(eps)))."""
    if not 0 < delta <= 1:
        raise ParameterError("need 0 < delta <= 1")
    if not 0 <= eps < 0.5:
        raise ParameterError("need 0 <= eps < 1/2 (threshold diverges at 1/2)")
    h = binary_entropy(eps)
    value = 1.0 / (delta * (1.0 - h))
    return BoundReport(
        formula="one-probe-noise-threshold",
        inputs={"delta": delta, "eps": eps, "entropy": h},
        value=value,
    )


def membership_trivial_lb(n: int, s: int) -> BoundReport:
    """Information floor for membership structures: log2 B(n,s) bits."""
    b = _ball(n, s, "s")
    value = math.log2(b)
    exact = Fraction(value) if b & (b - 1) == 0 else None
    return BoundReport(
        formula="membership-information",
        inputs={"n": n, "s": s, "ball": b},
        value=value,
        exact=exact,
    )


# -- discrepancy verification -----------------------------------------


def signed_ip_matrix(n: int, r: int) -> np.ndarray:
    """The 2^n x B(n,r) sign matrix with (x,y)-entry (-1)^(x.y), columns
    ordered lexicographically by y, as int8: each caller casts it once
    to the type its products need.  x and y fit in uint16 (n <= 12), so
    no temporary is wider than two bytes an entry."""
    if n > MATRIX_MAX_N:
        raise InfeasibleSizeError("sign matrix limited to n <= %d" % MATRIX_MAX_N)
    cols = _ball(n, r)
    if cols > MATRIX_MAX_COLS:
        raise InfeasibleSizeError(
            "sign matrix limited to %d columns" % MATRIX_MAX_COLS
        )
    ys = np.fromiter((v.value for v in BoundedWeightSpace(n, r)), dtype=np.uint16, count=cols)
    signs = np.bitwise_count(np.arange(1 << n, dtype=np.uint16)[:, None] & ys).view(np.int8)
    signs &= 1
    signs *= -2
    signs += 1
    return signs


def check_orthogonality(n: int, r: int) -> bool:
    """Exact check that the sign matrix satisfies M^T M = 2^n I, in int64:
    the reference for discrepancy_verify's float64 check."""
    m = signed_ip_matrix(n, r).astype(np.int64)
    g = m.T @ m
    want = (1 << n) * np.eye(g.shape[0], dtype=np.int64)
    return bool((g == want).all())


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    r: int
    orthogonal: bool
    mode: str  # exhaustive | sample
    checked: int
    violations: int
    max_ratio: float
    seed: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "formula": "rectangle-discrepancy",
            "inputs": {"n": self.n, "r": self.r, "seed": self.seed},
            "orthogonal": self.orthogonal,
            "mode": self.mode,
            "checked": self.checked,
            "violations": self.violations,
            "max_ratio": self.max_ratio,
            "provenance": "verified",
        }


def rectangle_sum(m: np.ndarray, va: np.ndarray, vb: np.ndarray) -> int:
    """Exact integer sum of sign-matrix entries over the rectangle A x B."""
    return int(va.astype(np.int64) @ m @ vb.astype(np.int64))


def rectangle_within_bound(m: np.ndarray, n: int, va, vb) -> Tuple[bool, int]:
    """The rectangle bound as an integer inequality: (sum over R)^2 <= |A| |B| 2^n."""
    s = rectangle_sum(m, va, vb)
    lhs = s * s
    rhs = int(va.sum()) * int(vb.sum()) * (1 << n)
    return lhs <= rhs, s

def discrepancy_verify(
    n: int,
    r: int,
    samples: int = 10_000,
    seed: int = 0,
) -> DiscrepancyReport:
    """Verify the rectangle-discrepancy bound on the sign matrix.

    Checks M^T M = 2^n I exactly, then the integer inequality
    (sum_R M)^2 <= |A| |B| 2^n over rectangles: all 2^(2^n) * 2^B of them
    when that count is at most EXHAUSTIVE_RECTANGLES, else `samples` random
    ones.  max_ratio reports the largest observed |sum| / sqrt(|A||B|2^n).

    The matrix products run in float64, through BLAS, and are exact: every
    partial sum is an integer of magnitude at most 2^n B(n,r) <= 2^24.
    """
    m = signed_ip_matrix(n, r).astype(np.float64)
    rows, cols = m.shape
    step = max(1, BLOCK_ENTRIES // cols)
    ortho = all(
        (m[:, start : start + step].T @ m == np.eye(min(step, cols - start), cols, start) * (1 << n)).all()
        for start in range(0, cols, step)
    )
    total = 2 ** (rows + cols) if rows + cols < 64 else None
    exhaustive = total is not None and total <= EXHAUSTIVE_RECTANGLES
    if exhaustive:
        va = (np.arange(1 << rows)[:, None] >> np.arange(rows)) & 1
        vb = (np.arange(1 << cols)[:, None] >> np.arange(cols)) & 1
        sums = (va @ m @ vb.T).ravel()
        area = np.outer(va.sum(axis=1), vb.sum(axis=1)).ravel()
    else:
        desk_scale("sampled rectangle entries", integer(samples, "samples >= 1", 1) * (rows + cols))
        rng = np.random.default_rng(derive_seed("discrepancy", seed, n, r))
        sums, area = np.empty(samples), np.empty(samples, dtype=np.int64)
        step = max(1, BLOCK_ENTRIES // (rows + cols))
        for start in range(0, samples, step):
            # blocks of rows, drawn in turn, are the rows one draw would give
            va, vb = np.hsplit(rng.integers(0, 2, size=(min(step, samples - start), rows + cols)), [rows])
            sums[start : start + step] = ((va @ m) * vb).sum(axis=1)
            area[start : start + step] = va.sum(axis=1) * vb.sum(axis=1)
    nonempty = area > 0
    ratios = np.abs(sums[nonempty]) / np.sqrt((area[nonempty] << n).astype(np.float64))
    return DiscrepancyReport(
        n=n,
        r=r,
        orthogonal=ortho,
        mode="exhaustive" if exhaustive else "sample",
        checked=len(sums),
        # the rectangle bound as an integer inequality, sum^2 <= |A| |B| 2^n
        violations=int(np.count_nonzero(sums * sums > area << n)),
        max_ratio=float(ratios.max(initial=0.0)),
        seed=seed,
    )
