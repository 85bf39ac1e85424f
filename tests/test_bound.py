"""Density floor: closed form, brute-force oracle, extremal witnesses."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest.bound import (
    FloorDecomposition,
    POLY_CAP,
    exhaustive_min,
    extremal_poly,
    floor_fraction,
    minimize_sequences,
)
from fqidtest.commpoly import CommPoly
from fqidtest.errors import (
    BudgetExceeded,
    NotEnoughVariables,
    NotPrime,
    SearchSpaceTooLarge,
    TheoremViolation,
)
from fqidtest.gf import field_of_order


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
    count = p.count_nonzeros()
    assert Fraction(count, q**n) == floor_fraction(q, d).value


def test_extremal_poly_shape():
    p = extremal_poly(3, 1, 1)
    # x1 - 1 up to sign convention: nonzero away from one point
    assert p.count_nonzeros() == 2
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
        assert p.count_nonzeros() == 0
    else:
        floor = floor_fraction(q, r.degree).value
        assert Fraction(p.count_nonzeros(), q**n) >= floor


def test_theorem_violation_artifact():
    # a fake floor bigger than 1 must trip the violation detector
    from fqidtest.bound import _scan_range, _monomials_for

    monomials = _monomials_for(2, 1, 1)
    best, index, violations = _scan_range((2, 1, monomials, 1, 4, 3, 1))
    assert violations  # every poly fails a floor of 3
