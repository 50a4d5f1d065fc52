"""Bound formulas and the sign-matrix discrepancy verification.

The 4x4 sign matrix is frozen entry by entry; rectangle sums are
recomputed with bare python loops as the independent route.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ecds.bits import ball_size
from ecds.bounds import (
    BoundReport,
    DiscrepancyReport,
    binary_entropy,
    check_orthogonality,
    discrepancy_verify,
    ip_comm_lower_bound,
    ip_ds_lower_bound,
    membership_trivial_lb,
    one_probe_noise_threshold,
    rectangle_sum,
    rectangle_within_bound,
    signed_ip_matrix,
)
from ecds.errors import InfeasibleSizeError, ParameterError


def test_entropy_values():
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    for x in (0.1, 0.3, 0.42):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))
    with pytest.raises(ParameterError):
        binary_entropy(1.2)


def test_structure_length_bound_exact_at_one_probe():
    rep = ip_ds_lower_bound(4, 2, Fraction(1, 4), 1)
    assert rep.exact == Fraction(11, 16)
    assert rep.value == float(Fraction(11, 16))
    assert rep.inputs["ball"] == 11
    rep = ip_ds_lower_bound(4, 2, Fraction(1, 4), 2)
    assert rep.exact is None
    # halving the exponent: value = sqrt(2 * exact_at_p1) / 2
    assert rep.value == pytest.approx(math.sqrt(2 * 11 / 16) / 2)


def test_structure_length_bound_monotone_in_eps():
    vals = [
        ip_ds_lower_bound(8, 4, Fraction(k, 10), 1).value for k in range(0, 5)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        ip_ds_lower_bound(8, 4, Fraction(1, 2), 1)


def test_comm_bound_frozen():
    rep = ip_comm_lower_bound(10, 10, Fraction(1, 2))
    assert rep.value == pytest.approx(10.0)
    assert rep.inputs["ball"] == 1024
    rep = ip_comm_lower_bound(4, 2, Fraction(1, 4))
    assert rep.value == pytest.approx(math.log2(11) - 2.0)
    with pytest.raises(ParameterError):
        ip_comm_lower_bound(4, 2, Fraction(3, 4))


@pytest.mark.parametrize("r", [-1, 5, 9])
def test_ip_bounds_refuse_radius_outside_length(r):
    """A radius outside [0, n] is refused, not clamped into the ball or
    left to a bare math domain error."""
    with pytest.raises(ParameterError, match="need 0 <= r <= n"):
        ip_ds_lower_bound(4, r, Fraction(1, 4), 1)
    with pytest.raises(ParameterError, match="need 0 <= r <= n"):
        ip_comm_lower_bound(4, r, Fraction(1, 4))
    with pytest.raises(ParameterError, match="need 0 <= r <= n"):
        signed_ip_matrix(4, r)
    assert ip_ds_lower_bound(4, 0, 0, 1).inputs["ball"] == 1
    assert ip_comm_lower_bound(4, 4, Fraction(1, 2)).value == pytest.approx(4.0)


def test_length_bound_past_float_range_is_refused():
    """A length bound past the float range is refused, at p = 1 (the
    exact value) and at p > 1 (2^exponent), where both overflowed; one
    just inside it is still evaluated."""
    with pytest.raises(InfeasibleSizeError, match="float range"):
        ip_ds_lower_bound(2000, 2000, 0, 1)
    with pytest.raises(InfeasibleSizeError, match="float range"):
        ip_ds_lower_bound(2100, 2100, 0, 2)
    assert ip_ds_lower_bound(2000, 2000, 0, 2).value == pytest.approx(2.0**998.5)
    assert ip_ds_lower_bound(1000, 1000, 0, 1).value == 2.0**998


def test_ball_refusal_names_a_negative_length():
    with pytest.raises(ParameterError, match="need n >= 0, got -1"):
        ip_ds_lower_bound(-1, 0, 0, 1)
    with pytest.raises(ParameterError, match="need n >= 0, got -1"):
        ip_comm_lower_bound(-1, 0, Fraction(1, 4))
    with pytest.raises(ParameterError, match="need n >= 0, got -1"):
        membership_trivial_lb(-1, 0)


def test_ball_sum_refused_past_desk_time(monkeypatch):
    """A ball is summed only while r + 1 binomials times the largest's bit
    length stays within 2^24, about a second: B(4095, 4095) is summed,
    B(4096, 4096) refused before summing, whatever the formula; a small
    radius over a huge length is still summed."""
    assert membership_trivial_lb(10**400, 1).inputs["ball"] == 10**400 + 1
    import ecds.bounds as bounds

    monkeypatch.setattr(bounds, "ball_size", lambda n, r: 2)
    assert membership_trivial_lb(4095, 4095).inputs["ball"] == 2
    assert ip_comm_lower_bound(200_000, 300, Fraction(1, 4)).inputs["ball"] == 2
    with pytest.raises(InfeasibleSizeError, match=r"B\(4096, 4096\)"):
        membership_trivial_lb(4096, 4096)
    with pytest.raises(InfeasibleSizeError):
        ip_ds_lower_bound(4096, 4096, 0, 2)
    with pytest.raises(InfeasibleSizeError):
        ip_comm_lower_bound(200_000, 100_000, Fraction(1, 4))


def test_noise_threshold_frozen():
    rep = one_probe_noise_threshold(0.01, 0.25)
    assert rep.value == pytest.approx(529.88028, abs=1e-4)
    assert rep.inputs["entropy"] == pytest.approx(binary_entropy(0.25))
    # scale-free in delta
    assert one_probe_noise_threshold(0.02, 0.25).value == pytest.approx(
        rep.value / 2
    )
    with pytest.raises(ParameterError):
        one_probe_noise_threshold(0.0, 0.25)
    with pytest.raises(ParameterError):
        one_probe_noise_threshold(0.01, 0.5)


def test_membership_floor():
    rep = membership_trivial_lb(3, 3)
    assert rep.value == 3.0
    assert rep.exact == Fraction(3)
    rep = membership_trivial_lb(4, 1)
    assert rep.value == pytest.approx(math.log2(5))
    assert rep.exact is None


def test_bound_report_serialization():
    rep = ip_ds_lower_bound(4, 2, Fraction(1, 4), 1)
    d = rep.to_dict()
    assert d["exact"] == "11/16"
    assert d["inputs"]["eps"] == "1/4"
    assert d["provenance"] == "formula"


def test_sign_matrix_frozen_4x4():
    m = signed_ip_matrix(2, 2)
    expect = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
    )
    assert (m == expect).all()


def test_sign_matrix_selects_low_weight_columns():
    full = signed_ip_matrix(3, 3)
    part = signed_ip_matrix(3, 1)
    assert part.shape == (8, 4)
    # weight <= 1 queries have values 0, 1, 2, 4 in lexicographic order
    assert (part == full[:, [0, 1, 2, 4]]).all()


def test_orthogonality_exact():
    for n in range(1, 7):
        assert check_orthogonality(n, n)
    assert check_orthogonality(5, 2)


def test_sign_matrix_size_guard():
    with pytest.raises(InfeasibleSizeError):
        signed_ip_matrix(13, 1)


def test_rectangle_sum_against_loops():
    m = signed_ip_matrix(3, 2)
    rng = random.Random(31)
    rows, cols = m.shape
    for _ in range(20):
        va = np.array([rng.randrange(2) for _ in range(rows)])
        vb = np.array([rng.randrange(2) for _ in range(cols)])
        brute = sum(
            int(m[i, j]) for i in range(rows) for j in range(cols) if va[i] and vb[j]
        )
        assert rectangle_sum(m, va, vb) == brute


def test_rectangle_bound_edge_cases():
    n = 3
    m = signed_ip_matrix(n, n)
    all_rows = np.ones(m.shape[0], dtype=np.int64)
    first_col = np.zeros(m.shape[1], dtype=np.int64)
    first_col[0] = 1
    ok, s = rectangle_within_bound(m, n, all_rows, first_col)
    assert ok and s == 8  # the all-ones column meets the bound exactly
    empty = np.zeros(m.shape[1], dtype=np.int64)
    ok, s = rectangle_within_bound(m, n, all_rows, empty)
    assert ok and s == 0


def test_discrepancy_exhaustive_small():
    rep = discrepancy_verify(2, 1)
    assert rep.mode == "exhaustive"
    assert rep.checked == 2 ** (4 + 3)
    assert rep.violations == 0
    assert rep.orthogonal
    assert 0 < rep.max_ratio <= 1.0


def test_discrepancy_sampled_reproducible():
    a = discrepancy_verify(4, 2, samples=400, seed=5)
    b = discrepancy_verify(4, 2, samples=400, seed=5)
    assert a == b
    assert a.mode == "sample"
    assert a.checked == 400
    assert a.violations == 0
    c = discrepancy_verify(4, 2, samples=400, seed=6)
    assert c.max_ratio != a.max_ratio


def loop_discrepancy(m, n, rectangles):
    """checked, violations and max_ratio one rectangle at a time."""
    checked = violations = 0
    max_ratio = 0.0
    for va, vb in rectangles:
        ok, s = rectangle_within_bound(m, n, va, vb)
        checked += 1
        violations += not ok
        area = int(va.sum()) * int(vb.sum())
        if area:
            max_ratio = max(max_ratio, abs(s) / math.sqrt(area * (1 << n)))
    return checked, violations, max_ratio


@pytest.mark.parametrize("scale", [1, 3])
@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (2, 2), (3, 1), (4, 2)])
def test_discrepancy_verify_matches_rectangle_loop(monkeypatch, scale, n, r):
    """The batched rectangle sums equal the per-rectangle route, with
    violations forced by scaling the matrix past the bound."""
    import ecds.bounds as bounds

    m = scale * signed_ip_matrix(n, r)
    monkeypatch.setattr(bounds, "signed_ip_matrix", lambda n, r: m)
    rows, cols = m.shape
    rep = discrepancy_verify(n, r, samples=300, seed=2)
    if rep.mode == "exhaustive":
        rectangles = [
            ((a >> np.arange(rows)) & 1, (b >> np.arange(cols)) & 1)
            for a in range(1 << rows)
            for b in range(1 << cols)
        ]
    else:
        rng = np.random.default_rng(bounds.derive_seed("discrepancy", 2, n, r))
        rectangles = [
            (
                rng.integers(0, 2, size=rows, dtype=np.int64),
                rng.integers(0, 2, size=cols, dtype=np.int64),
            )
            for _ in range(300)
        ]
    assert rep.mode == ("sample" if n == 4 else "exhaustive")
    assert (rep.checked, rep.violations, rep.max_ratio) == loop_discrepancy(m, n, rectangles)
    assert (rep.violations > 0) == (scale > 1)
    assert rep.orthogonal == check_orthogonality(n, r) == (scale == 1)


@pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 4)])
def test_discrepancy_orthogonality_matches_integer_gram(monkeypatch, n, r):
    """The float64 Gram check, a block of columns at a time, refuses a
    matrix with one entry negated as the int64 M^T M check does."""
    import ecds.bounds as bounds

    m = signed_ip_matrix(n, r)
    m[-1, -1] *= -1
    monkeypatch.setattr(bounds, "signed_ip_matrix", lambda n, r: m)
    monkeypatch.setattr(bounds, "BLOCK_ENTRIES", 2 * m.shape[1])
    assert not check_orthogonality(n, r)
    assert not discrepancy_verify(n, r, samples=10).orthogonal


def test_discrepancy_blocks_leave_the_report_unchanged(monkeypatch):
    """Sampled rectangles and Gram rows taken a few at a time give the
    report that one block gives."""
    import ecds.bounds as bounds

    whole = discrepancy_verify(5, 3, samples=301, seed=3)
    monkeypatch.setattr(bounds, "BLOCK_ENTRIES", 3 * 58)
    assert discrepancy_verify(5, 3, samples=301, seed=3) == whole


def test_discrepancy_sampling_needs_samples():
    for samples in (0, -5):
        with pytest.raises(ParameterError):
            discrepancy_verify(4, 2, samples=samples)
    # exhaustive mode draws nothing, so the sample count does not matter
    assert discrepancy_verify(2, 1, samples=0).checked == 2 ** (4 + 3)


def test_discrepancy_report_dict():
    d = discrepancy_verify(2, 2).to_dict()
    assert d["formula"] == "rectangle-discrepancy"
    assert d["provenance"] == "verified"
    assert d["violations"] == 0
