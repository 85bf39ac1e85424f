"""Density floor: closed form, brute-force oracle, extremal witnesses.

The exhaustive scan counts each candidate with one AND and one bit count
against a table of one-hot ints; reference_scan below is the scan it
replaced, which counted every candidate's zeros through
commpoly.zero_counter.  The two must give the same (least count, its
first index, violations) on every range.
"""

import os
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import bound
from fqidtest.bound import (
    TABLE_BITS,
    FloorDecomposition,
    POLY_CAP,
    _monomials_for,
    _scan_range,
    _terms_at,
    chunk_ranges,
    exhaustive_min,
    extremal_poly,
    floor_fraction,
    minimize_sequences,
)
from fqidtest.commpoly import CommPoly, zero_counter
from fqidtest.errors import (
    BudgetExceeded,
    NotEnoughVariables,
    NotPrime,
    SearchSpaceTooLarge,
    TheoremViolation,
)
from fqidtest.gf import field_of_order


def count_nonzeros(p):
    """The points of F^nvars where p is nonzero, by zero_counter."""
    return p.field.q**p.nvars - zero_counter(p.field, p.nvars, p.field.q**p.nvars)([p.monomials])


def test_floor_spot_values():
    assert floor_fraction(2, 3).value == Fraction(1, 8)
    assert floor_fraction(3, 3).value == Fraction(2, 9)
    assert floor_fraction(5, 6).value == Fraction(3, 25)
    assert floor_fraction(4, 1).value == Fraction(3, 4)
    assert floor_fraction(2, 0).value == 1


def test_floor_decomposition():
    fd = floor_fraction(5, 6)
    assert fd == FloorDecomposition(5, 6, 1, 2, Fraction(3, 25))
    assert fd.d == fd.m * (fd.q - 1) + fd.r
    assert 0 <= fd.r < fd.q - 1


def test_floor_rejects_bad_input():
    with pytest.raises(NotPrime):
        floor_fraction(6, 2)
    with pytest.raises(ValueError):
        floor_fraction(2, -1)
    # floors are memoised, yet a float degree equal to a memoised one is
    # refused as before
    assert floor_fraction(2, 3) is floor_fraction(2, 3)
    with pytest.raises(TypeError):
        floor_fraction(2, 3.0)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_floor_equals_sequence_minimum(q):
    for d in range(0, 13):
        got = minimize_sequences(q, d)
        assert got.minimum == floor_fraction(q, d).value
        assert sum(got.witness) == d
        assert all(1 <= x <= q - 1 for x in got.witness)
        assert got.witness == tuple(sorted(got.witness, reverse=True))


def test_sequence_witness_values():
    assert minimize_sequences(3, 3).witness == (2, 1)
    assert minimize_sequences(2, 4).witness == (1, 1, 1, 1)
    assert minimize_sequences(5, 6).witness == (4, 2)
    assert minimize_sequences(4, 0).witness == ()


def test_sequence_budget():
    with pytest.raises(BudgetExceeded):
        minimize_sequences(2, 16)
    assert minimize_sequences(2, 16, budget=16).minimum == Fraction(1, 2**16)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_halving_lemma(q):
    # multiplying by one factor of degree k <= q-1 costs at most (q-k)/q
    for d in range(0, 13):
        fd = floor_fraction(q, d).value
        for k in range(1, min(q - 1, d) + 1):
            assert fd <= Fraction(q - k, q) * floor_fraction(q, d - k).value


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_two_power_lower_bound(q):
    for d in range(0, 13):
        fd = floor_fraction(q, d).value
        assert fd >= Fraction(1, 2**d)
        if q == 2 or d == 0:
            assert fd == Fraction(1, 2**d)
        else:
            assert fd > Fraction(1, 2**d)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_step_ratio(q):
    for d in range(0, 13):
        r = floor_fraction(q, d).r
        ratio = floor_fraction(q, d + 1).value / floor_fraction(q, d).value
        assert ratio == Fraction(q - r - 1, q - r)
        assert ratio >= Fraction(1, 2)
        assert floor_fraction(q, d + 1).value <= floor_fraction(q, d).value


@pytest.mark.parametrize(
    "q,n,d",
    [(2, 1, 1), (2, 2, 2), (2, 3, 2), (3, 1, 1), (3, 2, 2), (3, 2, 3), (4, 2, 4), (5, 2, 6)],
)
def test_extremal_poly_attains_floor(q, n, d):
    p = extremal_poly(q, n, d)
    assert p.reduce() == p
    if d > 0:
        assert p.degree == d
    count = count_nonzeros(p)
    assert Fraction(count, q**n) == floor_fraction(q, d).value


def test_extremal_poly_shape():
    p = extremal_poly(3, 1, 1)
    # x1 - 1 up to sign convention: nonzero away from one point
    assert count_nonzeros(p) == 2
    with pytest.raises(NotEnoughVariables):
        extremal_poly(2, 1, 2)
    with pytest.raises(NotEnoughVariables):
        extremal_poly(3, 1, 3)


def test_exhaustive_min_smallest_cases():
    got = exhaustive_min(2, 2, 2)
    assert got.minimum == 1
    assert got.witness.monomials == {(1, 1): 1}  # x1*x2
    assert got.bound == 1
    assert got.candidates == 2**4 - 1

    got = exhaustive_min(3, 2, 3)
    assert got.minimum == 2
    assert Fraction(got.minimum) == got.bound


def test_exhaustive_min_matches_floor_on_grid():
    for q, n, d in [(2, 2, 1), (2, 3, 2), (3, 2, 2)]:
        got = exhaustive_min(q, n, d)
        assert Fraction(got.minimum) == floor_fraction(q, d).value * q**n


def test_exhaustive_min_cap():
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_min(3, 3, 6, cap=10**4)
    # the cap bounds candidates times points: one candidate on 4,096
    # points (refused at 2^10 of them), 15 candidates on 4 points
    with pytest.raises(SearchSpaceTooLarge, match="size 1024 exceeds cap 1000"):
        exhaustive_min(2, 12, 0, cap=1000)
    with pytest.raises(SearchSpaceTooLarge, match="size 60 exceeds cap 59"):
        exhaustive_min(2, 2, 2, cap=59)
    assert exhaustive_min(2, 2, 2, cap=60).candidates == 15
    # a huge variable count is refused without building q^n
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_min(3, 10**9, 0)
    with pytest.raises(ValueError, match="variable count must be >= 0"):
        exhaustive_min(2, -1, 1)


def test_exhaustive_min_workers_agree():
    lone = exhaustive_min(3, 2, 2, workers=1)
    multi = exhaustive_min(3, 2, 2, workers=3)
    assert lone == multi


def test_reported_witness_is_first_minimizer():
    # coefficient vectors scan ascending, so the first candidate is the one
    # supported on the last monomial in lex order; for (2,2,1) that is x1,
    # which already attains the bound 1/2 * 4 = 2
    got = exhaustive_min(2, 2, 1)
    assert got.minimum == 2
    assert got.witness.monomials == {(1, 0): 1}


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    data=st.data(),
)
def test_random_polynomials_respect_the_floor(q, data):
    field = field_of_order(q)
    n = data.draw(st.integers(min_value=1, max_value=2))
    nmon = data.draw(st.integers(min_value=1, max_value=4))
    monomials = {}
    for _ in range(nmon):
        exps = tuple(
            data.draw(st.integers(min_value=0, max_value=2 * q), label="exp") for _ in range(n)
        )
        coeff = data.draw(st.integers(min_value=1, max_value=q - 1), label="coeff")
        monomials[exps] = coeff
    p = CommPoly(field, n, monomials)
    r = p.reduce()
    if r.is_zero:
        assert count_nonzeros(p) == 0
    else:
        floor = floor_fraction(q, r.degree).value
        assert Fraction(count_nonzeros(p), q**n) >= floor


def test_theorem_violation_artifact():
    # a fake floor bigger than 1 must trip the violation detector
    from fqidtest.bound import _scan_range, _monomials_for

    monomials = _monomials_for(2, 1, 1)
    best, index, violations = _scan_range((2, 1, monomials, 1, 4, 3, 1))
    assert violations  # every poly fails a floor of 3


# ---------------------------------------------------------------------------
# the one-hot scan against the zero_counter scan it replaced

# perfbench's SWEEP_GRID: (q, n, d) -> minimum, with the witness the
# zero_counter scan reported
SWEEP_GRID = {
    (2, 2, 1): (2, "x1"),
    (2, 2, 2): (1, "x1*x2"),
    (2, 3, 2): (2, "x1*x2"),
    (3, 2, 2): (3, "x1^2 + x1"),
    (3, 2, 3): (2, "x1^2*x2 + x1*x2^2"),
    (3, 2, 4): (1, "x1^2*x2^2 + x1^2*x2 + x1*x2^2 + x1*x2"),
}
# larger scans, no variables, and the extension fields, whose coefficient
# codes the scan splits into base-p digits.  Over GF(4) reversing those
# digits is g times the Frobenius map, which keeps every count, and on
# affine polynomials any bijection of the coefficients does; so GF(8) and
# GF(9) are scanned at degree 2, where the order of the digits shows.
SCAN_CASES = [
    *SWEEP_GRID,
    (4, 2, 2),
    (5, 2, 2),
    (2, 0, 0),
    (3, 0, 2),
    (5, 0, 1),
    (8, 1, 2),
    (9, 1, 2),
    (16, 1, 1),
    (27, 1, 0),
    (251, 1, 0),  # the high part is the constant alone, walked by shifts
]


@lru_cache(maxsize=None)
def _reference_counts(q, n, monomials):
    """The nonzero count of every candidate index, zero_counter on its terms."""
    points = q**n
    zeros = zero_counter(field_of_order(q), n, points)
    indices = range(q ** len(monomials))
    return [points - zeros([_terms_at(index, q, monomials)]) for index in indices]


def reference_scan(payload):
    """The scan before the one-hot tables: each candidate's terms counted
    by zero_counter (memoised per index here, so that many ranges of one
    scan pay for its counts once)."""
    q, n, monomials, start, stop, floor_num, floor_den = payload
    points = q**n
    counts = _reference_counts(q, n, tuple(monomials))
    best = None
    best_index = None
    violations = []
    for index in range(start, stop):
        count = counts[index]
        # count * floor_den >= floor_num * q^n, kept in integers
        if count * floor_den < floor_num * points:
            violations.append(index)
        if best is None or count < best:
            best = count
            best_index = index
    return best, best_index, violations


def _payloads(q, n, d, floor=None, workers=1):
    monomials = _monomials_for(q, n, d)
    floor = floor_fraction(q, d).value if floor is None else floor
    return [
        (q, n, monomials, start, stop, floor.numerator, floor.denominator)
        for start, stop in chunk_ranges(1, q ** len(monomials), workers)
    ]


@pytest.mark.parametrize("q,n,d", SCAN_CASES)
def test_scan_matches_the_reference_on_every_split(q, n, d, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    (whole,) = _payloads(q, n, d)
    assert _scan_range(whole) == reference_scan(whole)
    for workers in (2, 3, 4):
        chunks = _payloads(q, n, d, workers=workers)
        bounds = [(payload[3], payload[4]) for payload in chunks]
        assert [a for a, _ in bounds] == [1] + [b for _, b in bounds[:-1]]
        assert bounds[-1][1] == whole[4] and (len(bounds) > 1 or whole[4] == 2)
        for payload in chunks:
            assert _scan_range(payload) == reference_scan(payload)


@pytest.mark.parametrize("q,n,d", SCAN_CASES)
def test_scan_finds_the_reference_violations(q, n, d, monkeypatch):
    # fake floors: one put the minimum and every count up to one above it
    # under the floor, one every count short of all points, one every count
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    points = q**n
    least = reference_scan(_payloads(q, n, d)[0])[0]
    for floor in (Fraction(least + 2, points), Fraction(1), Fraction(3)):
        for workers in (1, 3):
            for payload in _payloads(q, n, d, floor, workers):
                got = _scan_range(payload)
                assert got == reference_scan(payload)
                if floor > 1:
                    assert got[2] == list(range(payload[3], payload[4]))


@pytest.mark.parametrize("grid", sorted(SWEEP_GRID))
def test_exhaustive_min_on_the_sweep_grid(grid):
    q, n, d = grid
    minimum, witness = SWEEP_GRID[grid]
    got = exhaustive_min(q, n, d)
    assert (got.minimum, got.witness.to_text()) == (minimum, witness)
    assert got.candidates == q ** len(_monomials_for(q, n, d)) - 1
    assert got.bound == floor_fraction(q, d).value * q**n == minimum


def test_exhaustive_min_reports_the_first_violation(monkeypatch):
    # with a floor of 1 every polynomial with a zero undercuts it
    one = lambda q, d: FloorDecomposition(q, d, 0, 0, Fraction(1))
    monkeypatch.setattr(bound, "floor_fraction", one)
    (payload,) = _payloads(3, 2, 2, Fraction(1))
    first = reference_scan(payload)[2][0]
    with pytest.raises(TheoremViolation) as err:
        exhaustive_min(3, 2, 2)
    poly = bound._poly_at(first, field_of_order(3), payload[2], 2).to_text()
    assert err.value.witness == {"check": "bound", "q": 3, "n": 2, "d": 2, "candidate": first, "poly": poly}


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), n=st.integers(0, 3), data=st.data())
def test_scan_matches_the_reference_on_random_ranges(q, n, data):
    in_cap = [
        d for d in range(n * (q - 1) + 1)
        if (q ** len(_monomials_for(q, n, d)) - 1) * q**n <= 1 << 13
    ]
    d = data.draw(st.sampled_from(in_cap), label="d")
    total = q ** len(_monomials_for(q, n, d))
    start = data.draw(st.integers(1, total - 1), label="start")
    stop = data.draw(st.integers(start + 1, total), label="stop")
    num = data.draw(st.integers(0, 2 * q**n), label="floor_num")
    den = data.draw(st.integers(1, q**n), label="floor_den")
    payload = (q, n, _monomials_for(q, n, d), start, stop, num, den)
    assert _scan_range(payload) == reference_scan(payload)


def test_constant_high_parts_are_shifted_one_hot_ints():
    # exhaustive_min(1021, 1, 0) scans the 1,020 nonzero constants on 1,021
    # points: each high part's one-hot int is the zero vector's shifted by
    # its code, where joining 1,021 lane strings per constant took 3.2 s
    got = exhaustive_min(1021, 1, 0)
    assert (got.minimum, got.witness.to_text(), got.candidates, got.bound) == (1021, "1", 1020, 1021)
    (payload,) = _payloads(1021, 1, 0)
    # every count is all 1,021 points: on a floor of 1, then under one of 3
    assert _scan_range((*payload[:3], 500, 1021, 1, 1)) == (1021, 500, [])
    assert _scan_range((*payload[:3], 500, 1021, 3, 1)) == (1021, 500, list(range(500, 1021)))


def test_scan_memory_stays_within_the_table_budget():
    # at half its one monomial, the table of exhaustive_min(65521, 0, 0)
    # would hold 65,521 ints of 65,521 bits; the budget cuts it to the
    # zero combination, and the constants are walked
    got = exhaustive_min(65521, 0, 0)
    assert (got.minimum, got.witness.to_text(), got.candidates, got.bound) == (1, "1", 65520, 1)
    tracemalloc.start()
    try:
        best, index, violations = _scan_range((65521, 0, [()], 63000, 65521, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (best, index, violations) == (1, 63000, [])
    assert peak < TABLE_BITS // 8
