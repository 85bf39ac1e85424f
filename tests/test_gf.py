"""Field arithmetic checks, exhaustive at small orders."""

import pytest

from fqidtest.errors import (
    DivisionByZero,
    NoDefaultModulus,
    NotPrime,
    ParseError,
    ReducibleModulus,
    UnknownVariable,
)
from fqidtest.freepoly import parse_literal
from fqidtest.gf import DEFAULT_MODULI, MAX_ORDER, Field, field_of_order

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


@pytest.fixture(scope="module", params=PRIME_POWERS)
def field(request):
    return field_of_order(request.param)


def test_binary_field_addition():
    f = Field(2)
    assert f.add(1, 1) == 0


def test_gf4_generator_square():
    f = Field(2, 2)
    g = 2
    assert f.mul(g, g) == 3  # g^2 = g + 1
    assert f.format_literal(3) == "g+1"


def test_gf4_generator_cube_is_one():
    f = Field(2, 2)
    assert f.pow(2, 3) == 1


def test_gf3_inverse_of_two():
    f = Field(3)
    assert f.inv(2) == 2


def test_element_order_gf4():
    f = Field(2, 2)
    assert [f.format_literal(a) for a in f.elements()] == ["0", "1", "g", "g+1"]


def test_element_order_gf9():
    f = Field(3, 2)
    lits = [f.format_literal(a) for a in f.elements()]
    assert lits[:4] == ["0", "1", "2", "g"]
    assert len(lits) == 9


def test_four_is_not_prime():
    with pytest.raises(NotPrime):
        Field(4, 1)


def test_reducible_modulus_rejected():
    # g^2 + 1 = (g + 1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        Field(2, 2, modulus=(1, 0, 1))


def test_no_default_modulus_for_large_extension():
    with pytest.raises(NoDefaultModulus):
        Field(2, 5)


def test_explicit_modulus_accepted():
    f = Field(2, 5, modulus=(1, 0, 1, 0, 0, 1))  # g^5 + g^2 + 1
    assert f.q == 32
    assert f.mul(2, 2) == 4


def test_division_by_zero():
    f = Field(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_negative_exponent_rejected():
    f = Field(5)
    with pytest.raises(ValueError):
        f.pow(2, -1)


def test_default_moduli_are_ascending_monic():
    for q, m in DEFAULT_MODULI.items():
        assert m[-1] == 1
        f = field_of_order(q)
        assert f.modulus == m


def test_field_axioms_exhaustive(field):
    f = field
    els = list(f.elements())
    assert els == list(range(f.q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_frobenius_and_fermat(field):
    f = field
    for a in f.elements():
        assert f.pow(a, f.q) == a
        for b in f.elements():
            assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


def test_no_zero_divisors(field):
    f = field
    for a in f.elements():
        for b in f.elements():
            if a and b:
                assert f.mul(a, b) != 0


def test_coeffs_round_trip(field):
    f = field
    for a in f.elements():
        cs = f.coeffs(a)
        assert len(cs) == f.k and all(0 <= c < f.p for c in cs)
        assert sum(c * f.p**i for i, c in enumerate(cs)) == a


def test_literal_round_trip(field):
    f = field
    for a in f.elements():
        assert parse_literal(f.format_literal(a), f) == a


def test_literal_variants():
    f = Field(3, 3)
    # an element is its base-3 digits, lowest degree first: 2 + 1*3 + 2*9
    assert parse_literal("2*g^2+g+2", f) == 23
    assert parse_literal("2g^2 + g + 2", f) == 23
    assert parse_literal("g^2-g", f) == 0 + 2 * 3 + 1 * 9
    assert parse_literal("-1", f) == 2
    with pytest.raises(UnknownVariable):
        parse_literal("h+1", f)
    with pytest.raises(ParseError):
        parse_literal("", f)
    with pytest.raises(ParseError):
        parse_literal("g", Field(5))


def test_literal_products_read_as_in_a_coefficient():
    # a literal is the scalar part of the polynomial language
    f = Field(3, 3)
    g = 3  # the digits (0, 1, 0)
    assert parse_literal("g*g", f) == f.mul(g, g) == parse_literal("g^2", f)
    assert parse_literal("(g+1)*(g+2)", f) == f.mul(f.add(g, 1), f.add(g, 2))
    assert parse_literal("g2", f) == parse_literal("2*g", f)
    assert parse_literal("4", f) == parse_literal("1", f) == 1


@pytest.mark.parametrize("text", ["2*", "x1", "x1 - x1", "[g,1]", "g+", "(g", "g^"])
def test_malformed_literals_are_refused(text):
    with pytest.raises(ParseError):
        parse_literal(text, Field(3, 3))


def test_pow_matches_repeated_multiplication(field):
    f = field
    for a in list(f.elements())[: min(f.q, 8)]:
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_field_equality_and_hash():
    assert Field(2, 2) == Field(2, 2, modulus=(1, 1, 1))
    assert Field(2, 2) != Field(2, 3)
    assert hash(Field(3)) == hash(Field(3, 1))
    assert field_of_order(9) is field_of_order(9)


def test_large_order_without_tables():
    # 257 is prime and above the table limit, so the slow path runs
    f = Field(257)
    assert f.mul(16, 16) == 256
    assert f.add(200, 100) == 43
    assert f.mul(f.inv(123), 123) == 1
    assert f.neg(1) == 256


def test_order_cap():
    with pytest.raises(ValueError):
        Field(2, 17)


def test_prime_power_factoring():
    with pytest.raises(NotPrime):
        field_of_order(12)
    with pytest.raises(NotPrime):
        field_of_order(1)


def test_oversized_fields_are_refused_before_any_search():
    # each of these ran trial division or p**k for longer than a test
    # could wait before the bounds were checked first
    big = 1000000000000000003
    with pytest.raises(ValueError, match="exceeds the supported"):
        Field(big)
    with pytest.raises(ValueError, match="exceeds the supported"):
        Field(2, 100000000000)
    with pytest.raises(ValueError, match="exceeds the supported"):
        field_of_order(big)
    with pytest.raises(ValueError, match="exceeds the supported"):
        field_of_order(MAX_ORDER + 1)
    # orders at the bound pass it
    assert Field(65521).q == 65521
    with pytest.raises(NoDefaultModulus):
        field_of_order(MAX_ORDER)
    # the refusals inside the bound keep their types
    with pytest.raises(NotPrime):
        Field(65535, 100000000000)
    with pytest.raises(ValueError, match="k must be >= 1"):
        Field(2, 0)


@pytest.mark.parametrize("order", [2.0, 3.0, True, "2"])
def test_orders_that_are_not_ints_are_refused_cold_and_warm(order, monkeypatch):
    # 2.0 and True hash as 2 and 1, so a cache lookup alone would return
    # GF(2) once it is cached; the type is checked before it
    from fqidtest import bound, gf

    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    for _ in ("cold", "warm"):
        with pytest.raises(TypeError, match="field order must be an int"):
            field_of_order(order)
        with pytest.raises(TypeError):
            bound.floor_fraction(order, 3)
        with pytest.raises(TypeError):
            bound.exhaustive_min(order, 2, 2)
        field_of_order(2), field_of_order(3)
    assert field_of_order(2).q == 2
