"""Commutative polynomials: reduction, counting, parsing, symbolic coordinates."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest.algebra import heisenberg, truncated
from fqidtest.commpoly import CommPoly, parse_comm, symbolic_coordinates, zero_counter
from fqidtest.errors import (
    DimensionMismatch,
    FieldMismatch,
    ParseError,
    SearchSpaceTooLarge,
    UnknownVariable,
    ZeroPolynomial,
)
from fqidtest.freepoly import Flavor, parse
from fqidtest.gf import Field, field_of_order
from fqidtest.idtest import EXACT_CAP

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


def test_construction_normalizes():
    p = CommPoly(F3, 2, {(1, 0): 2, (0, 1): 0})
    assert p.monomials == {(1, 0): 2}
    with pytest.raises(DimensionMismatch):
        CommPoly(F3, 2, {(1,): 1})
    with pytest.raises(ValueError):
        CommPoly(F3, 1, {(-1,): 1})
    with pytest.raises(ValueError):
        CommPoly(F3, 1, {(1,): 7})


def test_arithmetic():
    x1 = CommPoly.variable(F3, 2, 1)
    x2 = CommPoly.variable(F3, 2, 2)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1 - x1).is_zero
    assert x1.pow(3).monomials == {(3, 0): 1}


def test_pow_takes_one_product_per_bit():
    # e products would take minutes at this exponent
    assert parse_comm("x1^1000000000", F2).monomials == {(1000000000,): 1}
    assert parse_comm("(x1 + x2)^0", F3) == CommPoly.constant(F3, 2, 1)


@st.composite
def powers(draw):
    F = field_of_order(draw(st.sampled_from([2, 3, 4])))
    nvars = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    p = CommPoly(F, nvars, draw(st.dictionaries(exps, st.integers(0, F.q - 1), max_size=4)))
    return p, draw(st.integers(0, 9))


@settings(max_examples=80, deadline=None)
@given(powers())
def test_pow_is_repeated_multiplication(case):
    p, e = case
    expected = CommPoly.constant(p.field, p.nvars, 1)
    for _ in range(e):
        expected = expected * p
    assert p.pow(e) == expected


def test_degree_and_per_variable():
    p = parse_comm("x1^2*x2 + x2^2", F3)
    assert p.degree == 3
    with pytest.raises(ZeroPolynomial):
        _ = CommPoly.zero(F3, 1).degree


def test_reduce_folds_exponents():
    # x^5 over GF(4): 5 -> ((5-1) mod 3) + 1 = 2
    p = CommPoly(F4, 1, {(5,): 1})
    assert p.reduce().monomials == {(2,): 1}
    # x^2 over GF(2) folds to x
    assert CommPoly(F2, 1, {(2,): 1}).reduce().monomials == {(1,): 1}
    # zero exponents stay put
    assert CommPoly(F3, 2, {(0, 3): 1}).reduce().monomials == {(0, 1): 1}


def test_reduce_can_cancel():
    # x + x^3 = 2x after folding over GF(3): coefficients merge
    p = CommPoly(F3, 1, {(1,): 1, (3,): 1})
    assert p.reduce().monomials == {(1,): 2}
    # x + x^2 over GF(2) folds to zero
    z = CommPoly(F2, 1, {(1,): 1, (2,): 1})
    assert z.reduce().is_zero


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_reduce_preserves_the_function(field):
    import random

    rng = random.Random(field.q)
    for _ in range(25):
        n = rng.randint(1, 2)
        monomials = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 2 * field.q) for _ in range(n))
            monomials[exps] = rng.randint(1, field.q - 1)
        p = CommPoly(field, n, monomials)
        r = p.reduce()
        assert r.reduce() == r  # idempotent
        assert all(e <= field.q - 1 for exps in r.monomials for e in exps)
        for point in product(field.elements(), repeat=n):
            assert p.eval(point) == r.eval(point)


def test_eval_gf4():
    p = parse_comm("g*x1", F4)
    assert p.eval((2,)) == 3  # g * g = g + 1


def count_nonzeros(p, cap=EXACT_CAP):
    """The points of F^nvars where p is nonzero, by zero_counter."""
    return p.field.q**p.nvars - zero_counter(p.field, p.nvars, cap)([p.monomials])


def test_count_nonzeros():
    p = parse_comm("x1^2 + x2", F2)
    assert count_nonzeros(p) == 2
    assert count_nonzeros(CommPoly.constant(F3, 1, 1)) == 3
    assert count_nonzeros(CommPoly.zero(F3, 1)) == 0
    with pytest.raises(SearchSpaceTooLarge):
        count_nonzeros(parse_comm("x1", F2, nvars=30), cap=100)


def test_point_counts_power_only_the_exponents_they_use(monkeypatch):
    # a q x q table of powers took 5 s to build at q = 1021; the count
    # needs the powers of each element for the reduced exponents that occur
    calls = []
    pow_ = Field.pow
    monkeypatch.setattr(Field, "pow", lambda self, a, e: calls.append(e) or pow_(self, a, e))
    F = Field(1021)
    assert count_nonzeros(parse_comm("x1^2 - 1", F)) == 1019
    assert sorted(set(calls)) == [2] and len(calls) == 1021
    calls.clear()
    # x^1021 = x and x^2040 = x^1020 as functions on F_1021, so the
    # exponents fold before any power is taken; x + 3*x^1020 vanishes at
    # 0 and -3
    assert count_nonzeros(parse_comm("x1^1021 + 3*x1^2040", F)) == 1019
    assert sorted(set(calls)) == [1, 1020] and len(calls) == 2 * 1021


def test_parse_comm():
    p = parse_comm("1 + x1^2*x2", F3)
    assert p.monomials == {(0, 0): 1, (2, 1): 1}
    q = parse_comm("(x1+x2)^2", F3)
    assert q.monomials == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    r = parse_comm("2x1 - x1", F3)
    assert r.monomials == {(1,): 1}
    s = parse_comm("(g+1)*x1 + g^2", F4)
    assert s.monomials == {(1,): 3, (0,): 3}  # g^2 = g+1
    # leading signs, scalars to the right, powers of groups after a scalar
    assert parse_comm("-x1", F3).monomials == {(1,): 2}
    assert parse_comm("+x1 - 1", F3).monomials == {(1,): 1, (0,): 2}
    assert parse_comm("x1*2", F3).monomials == {(1,): 2}
    assert parse_comm("2(x1+x2)^2", F3).monomials == {(2, 0): 2, (1, 1): 1, (0, 2): 2}
    assert parse_comm("g^0x1", F4).monomials == {(1,): 1}


def test_parse_comm_errors():
    # (text, field, nvars, exception, message, position); the position of
    # an UnknownVariable found only against nvars is -1
    exponent = "exponent must be a nonnegative integer"
    expected = "expected a variable, coefficient, or group"
    table = [
        ("x2", F2, 1, UnknownVariable, "unknown variable 'x2'", -1),
        ("x0", F2, None, UnknownVariable, "unknown variable 'x0'", 0),
        ("z", F2, None, UnknownVariable, "unknown variable 'z'", 0),
        ("x1 + %", F2, None, ParseError, "unexpected character '%'", 5),
        ("x1^", F2, None, ParseError, exponent, 3),
        ("x1^x2", F2, None, ParseError, exponent, 3),
        ("(x1)^g", F4, None, ParseError, exponent, 5),
        ("g^x1", F4, None, ParseError, exponent, 2),
        ("g", F3, None, ParseError, "no generator symbol in GF(3)", 0),
        ("", F2, None, ParseError, expected, 0),
        ("-", F2, None, ParseError, expected, 1),
        ("x1**2", F2, None, ParseError, expected, 3),
        ("(x1", F3, None, ParseError, "expected ')'", 3),
        ("x1)", F3, None, ParseError, "unexpected ')'", 2),
        ("x1 x2", F3, None, ParseError, "unexpected 2", 3),
        ("x1*2^3", F3, None, ParseError, "unexpected '^'", 4),
        ("[x1,x2]", F2, None, ParseError,
         "brackets are not part of commutative polynomials", 0),
        ("2[x1,x2]", F3, None, ParseError, "unexpected '['", 1),
    ]
    for text, field, nvars, exc, message, position in table:
        with pytest.raises(exc) as info:
            parse_comm(text, field, nvars=nvars)
        assert type(info.value) is exc, text
        if exc is ParseError:
            message = f"{message} (at position {position})"
        assert str(info.value) == message, text
        assert info.value.position == position, text


def test_text_round_trip():
    import random

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        monomials = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
            monomials[exps] = rng.randint(1, F4.q - 1)
        p = CommPoly(F4, n, monomials)
        assert parse_comm(p.to_text(), F4, nvars=n) == p


def test_symbolic_coordinates_square_on_truncated():
    A = truncated(2, 3)
    Q = parse("x1*x1", Flavor.FREE, F2)
    coords = symbolic_coordinates(Q, A)
    assert len(coords) == 2
    assert coords[0].is_zero
    assert coords[1].monomials == {(2, 0): 1}  # first coordinate of x, squared
    assert coords[1].reduce().monomials == {(1, 0): 1}


def test_symbolic_coordinates_match_direct_evaluation():
    from fqidtest.idtest import evaluate

    A = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    coords = symbolic_coordinates(Q, A)
    assert all(p.degree <= Q.degree for p in coords if not p.is_zero)
    for a1 in A.elements():
        for a2 in A.elements():
            point = a1 + a2
            direct = evaluate(Q, A, (a1, a2))
            assert tuple(p.eval(point) for p in coords) == direct


def test_symbolic_coordinates_commutator_flag():
    # [x1,x2] on the full matrix algebra needs the commutator interpretation
    from fqidtest.algebra import matrix_algebra
    from fqidtest.idtest import evaluate

    A = matrix_algebra(2, 2)
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    coords = symbolic_coordinates(Q, A, commutator=True)
    els = list(A.elements())[:16]
    for a1 in els:
        for a2 in els:
            point = a1 + a2
            direct = evaluate(Q, A, (a1, a2), commutator=True)
            assert tuple(p.eval(point) for p in coords) == direct


def test_symbolic_coordinates_field_mismatch():
    A = truncated(3, 3)
    Q = parse("x1*x1", Flavor.FREE, F2)
    with pytest.raises(FieldMismatch):
        symbolic_coordinates(Q, A)
