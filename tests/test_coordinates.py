"""The lean coordinate route against the routes it replaced.

reduced_coordinates folds exponents as monomials multiply; it must give
symbolic_coordinates(...).reduce().  zero_counter (bit-sliced over GF(2))
must give the zero count of the point loop over CommPoly.eval that
functional_zero_fraction, count_nonzeros and the exhaustive scan ran
before, restated here.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import idtest
from fqidtest.algebra import Algebra, heisenberg, matrix_algebra, strictly_upper_triangular_lie
from fqidtest.bound import floor_fraction
from fqidtest.cli import battery_for
from fqidtest.commpoly import CommPoly, reduced_coordinates, symbolic_coordinates, zero_counter
from fqidtest.freepoly import Flavor, FreePoly, parse
from fqidtest.gf import field_of_order

F2 = field_of_order(2)
BRACKETS = ("[x1,x2]", "[[x1,x2],x1]", "[[x1,x2],[x2,x1]] + [x1,x2]")


def point_loop_zeros(field, nvars, polys):
    """Points of F^nvars where every polynomial vanishes, by evaluating
    each monomial as coefficient times powers at every point."""
    zeros = 0
    for point in product(field.elements(), repeat=nvars):
        values = []
        for p in polys:
            total = 0
            for exps, c in p.monomials.items():
                v = c
                for x, e in zip(point, exps):
                    v = field.mul(v, field.pow(x, e))
                total = field.add(total, v)
            values.append(total)
        zeros += not any(values)
    return zeros


def assert_route_matches(Q, A, commutator=False):
    folded = reduced_coordinates(Q, A, commutator=commutator)
    assert folded == [c.reduce() for c in symbolic_coordinates(Q, A, commutator=commutator)]
    width = Q.n * A.dim
    zeros = zero_counter(A.field, width)([c.monomials for c in folded])
    assert zeros == point_loop_zeros(A.field, width, folded)
    got = idtest.functional_zero_fraction(Q, A, commutator=commutator)
    assert got == Fraction(zeros, A.field.q**width)


def dimension_two_tables():
    cells = list(product(range(2), repeat=2))
    for t in product(cells, repeat=4):
        yield Algebra(F2, 2, [[t[0], t[1]], [t[2], t[3]]])


def test_route_on_every_dimension_two_table():
    brackets = [parse(text, Flavor.LIE, F2) for text in BRACKETS]
    for A in dimension_two_tables():
        for Q in battery_for(A):
            assert_route_matches(Q, A)
        for Q in brackets:
            assert_route_matches(Q, A, commutator=True)


def test_route_on_bracket_tables():
    for A in (heisenberg(2), heisenberg(3), strictly_upper_triangular_lie(3, 2)):
        for text in BRACKETS:
            assert_route_matches(parse(text, Flavor.LIE, A.field), A)
    M = matrix_algebra(2, 2)
    assert_route_matches(parse("[x1,x2]", Flavor.LIE, M.field), M, commutator=True)
    assert_route_matches(parse("x1*x2*x1 - x1*x1*x2", Flavor.ASSOC, M.field), M)


@st.composite
def route_cases(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 2))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = Algebra(F, dim, table)
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(1, 2))
    leaf = st.integers(1, n)
    if flavor is Flavor.ASSOC:
        term = st.lists(leaf, min_size=1, max_size=4).map(tuple)
    else:
        term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=4)
    terms = draw(st.dictionaries(term, st.integers(1, q - 1), max_size=3))
    # lie input on a plain table is read through the commutator
    return FreePoly(F, flavor, n, terms), A, flavor is Flavor.LIE


@settings(max_examples=60, deadline=None)
@given(route_cases())
def test_route_on_random_tables(case):
    Q, A, commutator = case
    assert_route_matches(Q, A, commutator)


@st.composite
def comm_polys(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    nvars = draw(st.integers(0, {2: 6, 3: 5, 4: 4}[q]))  # at most 256 points
    exps = st.tuples(*[st.integers(0, 2 * q)] * nvars)  # reduced or not
    polys = draw(st.lists(st.dictionaries(exps, st.integers(1, q - 1), max_size=5), max_size=3))
    return F, nvars, [CommPoly(F, nvars, m) for m in polys]


@settings(max_examples=150, deadline=None)
@given(comm_polys())
def test_zero_count_matches_the_point_loop(case):
    F, nvars, polys = case
    count = zero_counter(F, nvars)
    assert count([p.monomials for p in polys]) == point_loop_zeros(F, nvars, polys)
    for p in polys:
        assert p.count_nonzeros() == F.q**nvars - point_loop_zeros(F, nvars, [p])


def test_dixon_floor_is_the_largest_coordinate_floor():
    for A in dimension_two_tables():
        for Q in battery_for(A):
            rep = idtest.dixon_verdict(Q, A)
            degrees = [c.degree for c in reduced_coordinates(Q, A) if not c.is_zero]
            if rep.is_identity:
                assert degrees == [] and rep.functional_floor is None
            else:
                assert rep.functional_floor == max(floor_fraction(2, d).value for d in degrees)


def test_floor_does_not_increase_with_the_degree():
    for q in (2, 3, 4, 5, 7, 8, 9):
        floors = [floor_fraction(q, d).value for d in range(41)]
        assert all(a >= b for a, b in zip(floors, floors[1:])), q
