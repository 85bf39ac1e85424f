"""Parser, printer, and structure checks for the noncommutative polynomials."""

import pickle
import random

import pytest

from fqidtest.errors import (
    ConstantTermForbidden,
    FlavorMismatch,
    ParseError,
    UnknownVariable,
    ZeroPolynomial,
)
from fqidtest.freepoly import (
    Flavor,
    FreePoly,
    engel,
    parse,
    power_word,
    term_degree,
    variable,
    zero,
)
from fqidtest.gf import Field

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


def test_parse_commutator():
    p = parse("x1*x2 - x2*x1", Flavor.FREE, F3)
    assert p.terms == {(1, 2): 1, (2, 1): 2}
    assert p.n == 2


def test_char_two_folds_minus():
    p = parse("x1*x2 - x2*x1", Flavor.FREE, F2)
    assert p.terms == {(1, 2): 1, (2, 1): 1}


def test_assoc_flattens_and_free_keeps_trees():
    a = parse("x1*x2*x3", Flavor.ASSOC, F2)
    assert a.terms == {(1, 2, 3): 1}
    left = parse("x1*x2*x3", Flavor.FREE, F2)
    right = parse("x1*(x2*x3)", Flavor.FREE, F2)
    assert left.terms == {((1, 2), 3): 1}
    assert right.terms == {(1, (2, 3)): 1}
    assert left != right
    assert parse("x1*x2*x3", Flavor.ASSOC, F2) == parse("x1*(x2*x3)", Flavor.ASSOC, F2)


def test_left_normed_bracket():
    p = parse("[x1,x2,x2]", Flavor.LIE, F2)
    assert p.terms == {((1, 2), 2): 1}
    assert p == engel(2, F2)


def test_bracket_nesting():
    p = parse("[[x1,x2],[x3,x4]]", Flavor.LIE, F3)
    assert p.terms == {((1, 2), (3, 4)): 1}
    assert p.n == 4


def test_brackets_rejected_outside_lie():
    with pytest.raises(ParseError):
        parse("[x1,x2]", Flavor.FREE, F2)
    with pytest.raises(ParseError):
        parse("[x1,x2]", Flavor.ASSOC, F2)


def test_lie_star_is_a_formal_bracket():
    assert parse("x1*x2", Flavor.LIE, F2).terms == {(1, 2): 1}


def test_coefficient_literals():
    p = parse("(g+1)*x1", Flavor.FREE, F4)
    assert p.terms == {1: 3}
    q = parse("g*x1 + x1", Flavor.FREE, F4)
    assert q.terms == {1: 3}
    r = parse("2*x1 + x1", Flavor.FREE, F3)
    assert r.terms == {1: 0} or r.terms == {}
    assert r.is_zero


def test_scalar_juxtaposition():
    assert parse("2x1", Flavor.FREE, F3) == parse("2*x1", Flavor.FREE, F3)
    assert parse("2(x1+x2)", Flavor.FREE, F3) == parse("2*x1+2*x2", Flavor.FREE, F3)
    with pytest.raises(ParseError):
        parse("x1 x2", Flavor.FREE, F3)


def test_unparenthesized_sum_literal_is_a_constant():
    with pytest.raises(ConstantTermForbidden):
        parse("g+1*x1", Flavor.FREE, F4)


def test_constant_terms_rejected():
    with pytest.raises(ConstantTermForbidden):
        parse("x1+1", Flavor.FREE, F2)
    with pytest.raises(ConstantTermForbidden):
        parse("1", Flavor.ASSOC, F2)


def test_zero_text_parses_to_zero():
    p = parse("0", Flavor.FREE, F2)
    assert p.is_zero
    assert p.to_text() == "0"


def test_parse_errors():
    with pytest.raises(UnknownVariable):
        parse("x0", Flavor.FREE, F2)
    with pytest.raises(UnknownVariable):
        parse("y1", Flavor.FREE, F2)
    with pytest.raises(ParseError):
        parse("x1**x2", Flavor.FREE, F2)
    with pytest.raises(ParseError):
        parse("(x1", Flavor.FREE, F2)
    with pytest.raises(ParseError):
        parse("x1^2", Flavor.FREE, F2)
    with pytest.raises(ParseError):
        parse("", Flavor.FREE, F2)
    with pytest.raises(ParseError):
        parse("g*x1", Flavor.FREE, F2)  # no generator in a prime field
    with pytest.raises(UnknownVariable):
        parse("x3", Flavor.FREE, F2, n=2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("x1 + %", Flavor.FREE, F2)
    assert info.value.position == 5


def test_engel_polynomials():
    for m in range(1, 9):
        e = engel(m, F2)
        assert e.flavor is Flavor.LIE
        assert e.n == 2
        assert e.degree == m + 1
        (term,) = e.terms
        assert term_degree(term) == m + 1
    with pytest.raises(ValueError):
        engel(0, F2)


def test_power_word():
    p = power_word(4, F3)
    assert p.terms == {(1, 1, 1, 1): 1}
    assert p.flavor is Flavor.ASSOC
    assert p.degree == 4
    with pytest.raises(ValueError):
        power_word(0, F3)


def test_degree_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        _ = zero(F2, Flavor.FREE).degree


def test_arithmetic_respects_flavor():
    with pytest.raises(FlavorMismatch):
        _ = variable(F2, Flavor.FREE, 1) + variable(F2, Flavor.ASSOC, 1)


def test_analyze_commutator():
    a = parse("x1*x2 - x2*x1", Flavor.FREE, F3).analyze()
    assert a.degree == 2
    assert a.multidegree == (1, 1)
    assert a.homogeneous
    assert a.multilinear


def test_analyze_mixed():
    a = parse("x1*x1 + x1", Flavor.FREE, F3).analyze()
    assert a.degree == 2
    assert a.multidegree == (2,)
    assert not a.homogeneous
    assert not a.multilinear


def test_analyze_engel():
    a = engel(3, F2).analyze()
    assert a.degree == 4
    assert a.multidegree == (1, 3)
    assert a.homogeneous
    assert not a.multilinear


def _random_term(rng, flavor, n, depth=3):
    if flavor is Flavor.ASSOC:
        return tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
    if depth == 0 or rng.random() < 0.4:
        return rng.randint(1, n)
    return (_random_term(rng, flavor, n, depth - 1), _random_term(rng, flavor, n, depth - 1))


def _random_poly(rng, field, flavor, n):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[_random_term(rng, flavor, n)] = rng.randint(1, field.q - 1)
    return FreePoly(field, flavor, n, terms)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("field", [F2, F3, F4])
def test_text_round_trip(flavor, field):
    rng = random.Random(hash((flavor.value, field.q)) & 0xFFFF)
    for _ in range(400):
        n = rng.randint(1, 4)
        p = _random_poly(rng, field, flavor, n)
        assert parse(p.to_text(), flavor, field, n=n) == p


def test_canonical_text_is_stable():
    p = parse("x2*x1 + x1*x2", Flavor.FREE, F3)
    q = parse("x1*x2 + x2*x1", Flavor.FREE, F3)
    assert p.to_text() == q.to_text()
    assert "x1*x2" in p.to_text()


def test_equal_polynomials_hash_equal_whatever_their_term_order():
    terms = {(1, 2): 1, (2, 1): 2, ((1, 2), 1): 1}
    a = FreePoly(F3, Flavor.FREE, 2, terms)
    b = FreePoly(F3, Flavor.FREE, 2, dict(reversed(terms.items())))
    assert list(a.terms) != list(b.terms)
    assert a == b and hash(a) == hash(b)
    assert a._hash is not None and hash(a) == hash(a)
    # the memo is not pickled; the copy hashes afresh, to the same value
    copy = pickle.loads(pickle.dumps(a))
    assert copy._hash is None
    assert copy == a and hash(copy) == hash(a)
    assert copy.analyze() == a.analyze()
