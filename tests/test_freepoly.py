"""Parser, printer, and structure checks for the noncommutative polynomials."""

import pickle
import random

import pytest

from fqidtest.algebra import heisenberg
from fqidtest.commpoly import parse_comm
from fqidtest.errors import (
    ConstantTermForbidden,
    FlavorMismatch,
    NestingTooDeep,
    ParseError,
    UnknownVariable,
    ZeroPolynomial,
)
from fqidtest.freepoly import (
    MAX_DEPTH,
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
from fqidtest.idtest import dixon_verdict, zero_probability

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
    # (text, flavor, field, terms): leading signs, a scalar juxtaposed
    # with a bracket, and scalars to the right of a product
    table = [
        ("-x1*2", Flavor.FREE, F3, {1: 1}),
        ("+x1", Flavor.ASSOC, F3, {(1,): 1}),
        ("-x1 - x2", Flavor.LIE, F3, {1: 2, 2: 2}),
        ("2[x1,x2]", Flavor.LIE, F3, {(1, 2): 2}),
        ("g[x1,x2]", Flavor.LIE, F4, {(1, 2): 2}),
        ("x1*2", Flavor.FREE, F3, {1: 2}),
        ("x1*2*x2", Flavor.ASSOC, F3, {(1, 2): 2}),
        ("x1*g^0", Flavor.FREE, F4, {1: 1}),
        ("g^2*x1", Flavor.LIE, F4, {1: 3}),
    ]
    for text, flavor, field, terms in table:
        assert parse(text, flavor, field).terms == terms, text


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
    # (text, flavor, field, n, exception, message, position); the position
    # of an UnknownVariable found only against n is -1
    free, assoc, lie = Flavor.FREE, Flavor.ASSOC, Flavor.LIE
    expected = "expected a variable, coefficient, or group"
    table = [
        ("x0", free, F2, None, UnknownVariable, "unknown variable 'x0'", 0),
        ("y1", free, F2, None, UnknownVariable, "unknown variable 'y1'", 0),
        ("x3", free, F2, 2, UnknownVariable, "unknown variable 'x3'", -1),
        ("x", free, F2, None, ParseError, "variable name needs a numeric index", 0),
        ("x1 + %", free, F2, None, ParseError, "unexpected character '%'", 5),
        ("x1**x2", free, F2, None, ParseError, expected, 3),
        ("", free, F2, None, ParseError, expected, 0),
        ("-", lie, F2, None, ParseError, expected, 1),
        ("x1 +", assoc, F2, None, ParseError, expected, 4),
        ("(x1", free, F2, None, ParseError, "expected ')'", 3),
        ("(x1 x2)", lie, F3, None, ParseError, "expected ')'", 4),
        ("x1^2", free, F2, None, ParseError, "unexpected '^'", 2),
        ("x1)", assoc, F2, None, ParseError, "unexpected ')'", 2),
        ("x1 x2", free, F3, None, ParseError, "unexpected 2", 3),
        ("g*x1", free, F2, None, ParseError, "no generator symbol in GF(2)", 0),
        ("g^x1", free, F4, None, ParseError, "exponent must be a nonnegative integer", 2),
        ("g^", lie, F4, None, ParseError, "exponent must be a nonnegative integer", 2),
        ("[x1]", lie, F2, None, ParseError, "a bracket needs at least two entries", 0),
        ("[x1 x2]", lie, F2, None, ParseError, "expected ',' or ']'", 4),
        ("[x1,x2", lie, F2, None, ParseError, "expected ',' or ']'", 6),
        ("[x1,x2]", free, F2, None, ParseError,
         "brackets are only meaningful in the lie flavor", 0),
        ("2[x1,x2]", assoc, F3, None, ParseError,
         "brackets are only meaningful in the lie flavor", 1),
        ("x1+1", free, F2, None, ConstantTermForbidden,
         "polynomials in the free language have no constant term", None),
    ]
    for text, flavor, field, n, exc, message, position in table:
        with pytest.raises(exc) as info:
            parse(text, flavor, field, n=n)
        assert type(info.value) is exc, text
        if exc is ParseError:
            message = f"{message} (at position {position})"
        assert str(info.value) == message, text
        assert getattr(info.value, "position", None) == position, text


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


# ---------------------------------------------------------------------------
# the nesting limit

def _nested(depth, template):
    text = "x1"
    for _ in range(depth):
        text = template.format(text)
    return text


def test_nesting_up_to_the_limit_parses():
    deep = parse(_nested(MAX_DEPTH, "[{},x2]"), Flavor.LIE, F2)
    assert deep == engel(MAX_DEPTH, F2)
    assert parse(_nested(MAX_DEPTH, "({})"), Flavor.FREE, F2) == variable(F2, Flavor.FREE, 1)
    assert parse("[" + ",".join(["x1"] * (MAX_DEPTH + 1)) + "]", Flavor.LIE, F2).degree == MAX_DEPTH + 1
    assert parse("*".join(["x1"] * (MAX_DEPTH + 1)), Flavor.FREE, F2).degree == MAX_DEPTH + 1
    assert parse_comm(_nested(MAX_DEPTH, "({})"), F2) == parse_comm("x1", F2)
    # flat words do not nest
    assert parse("*".join(["x1"] * 5000), Flavor.ASSOC, F2) == power_word(5000, F2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse(_nested(MAX_DEPTH + 1, "[{},x2]"), Flavor.LIE, F2),
        lambda: parse(_nested(MAX_DEPTH + 1, "({})"), Flavor.FREE, F2),
        lambda: parse(_nested(5000, "({})"), Flavor.FREE, F2),
        lambda: parse("[" + ",".join(["x1"] * (MAX_DEPTH + 2)) + "]", Flavor.LIE, F2),
        lambda: parse("*".join(["x1"] * (MAX_DEPTH + 2)), Flavor.FREE, F2),
        # the same deep word twice: comparing the two trees recursed
        lambda: parse(" + ".join(["*".join(["x1"] * 1200)] * 2), Flavor.FREE, F2),
        # a sum is as deep as its deepest summand
        lambda: parse(" + ".join([_deep_sum_product()] * 2), Flavor.FREE, F2),
        lambda: parse_comm(_nested(MAX_DEPTH + 1, "({})"), F2),
        lambda: engel(MAX_DEPTH + 1, F2),
        lambda: engel(10**9, F2),
        lambda: engel(MAX_DEPTH, F2) * variable(F2, Flavor.LIE, 1),
        lambda: FreePoly(F2, Flavor.FREE, 1, {_nested_term(MAX_DEPTH + 1): 1}),
        lambda: FreePoly(F2, Flavor.FREE, 1, {_nested_term(5000): 1}),
    ],
)
def test_nesting_past_the_limit_is_refused(make):
    with pytest.raises(NestingTooDeep, match=f"at most {MAX_DEPTH} levels deep"):
        make()


def _deep_sum_product():
    # sums inside products, each level 100 products deeper than the last
    text = "x1"
    for _ in range(12):
        text = f"(x2 + {text})*" + "*".join(["x2"] * 100)
    return text


def _nested_term(depth):
    term = 1
    for _ in range(depth):
        term = (1, term)
    return term


def test_terms_at_the_limit_evaluate_in_fork_workers(pooled_counts):
    # the deepest term compiles and runs in pool workers forked from pytest
    H = heisenberg(2)
    Q = parse(_nested(MAX_DEPTH, "[{},x2]") + " + [x3,x4]", Flavor.LIE, H.field)
    serial = zero_probability(Q, H, workers=1)
    assert zero_probability(Q, H, workers=2) == serial
    assert dixon_verdict(Q, H, workers=2).zero_count == serial.zero_count


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
    for i in range(400):
        n = rng.randint(1, 4)
        p = _random_poly(rng, field, flavor, n)
        assert parse(p.to_text(), flavor, field, n=n) == p
        if i % 4:
            continue
        # FreePoly's own arithmetic agrees with the parser's
        q = _random_poly(rng, field, flavor, n)
        c = rng.randrange(field.q)
        lit = field.format_literal(c)
        a, b = f"({p.to_text()})", f"({q.to_text()})"
        assert parse(f"{a} + {b}", flavor, field, n=n) == p + q
        assert parse(f"{a} - {b}", flavor, field, n=n) == p - q
        assert parse(f"-{a}", flavor, field, n=n) == -p
        assert parse(f"{a}*{b}", flavor, field, n=n) == p * q
        assert parse(f"({lit})*{a}", flavor, field, n=n) == p.scale(c)


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
