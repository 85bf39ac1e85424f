"""The lean coordinate route against the routes it replaced.

reduced_coordinates and symbolic_coordinates build packed monomials; they
must give the dicts of the tuple-keyed core they ran on before, restated
here as reference_coordinates, which folds exponents through a table as
monomials multiply.  reduced_degrees, which reads the degrees off the
packed monomials, must give the degrees of the reference's reduced
coordinates.  zero_counter (bit-sliced over GF(2)) must give the
zero count of the point loop over CommPoly.eval that
functional_zero_fraction and the exhaustive scan ran before, restated
here.  The nonzero structure constants the coordinate builds kept on the
algebra must be the ones they read out of A.table on every call before.
"""

import operator
import pickle
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import commpoly, idtest, lanes
from fqidtest.algebra import (
    Algebra,
    field_as_algebra,
    heisenberg,
    matrix_algebra,
    strictly_upper_triangular_lie,
    truncated,
    upper_triangular,
)
from fqidtest.bound import floor_fraction
from fqidtest.cli import battery_for, library
from fqidtest.commpoly import (
    CommPoly,
    reduced_coordinates,
    reduced_degrees,
    symbolic_coordinates,
    zero_counter,
)
from fqidtest.freepoly import Flavor, FreePoly, engel, parse
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


def _add_scaled(field, acc, terms, c):
    """acc += c * terms, in place, dropping monomials that cancel."""
    for exps, k in terms.items():
        s = field.add(acc.get(exps, 0), field.mul(c, k))
        if s:
            acc[exps] = s
        else:
            acc.pop(exps, None)
    return acc


def _mul_terms(field, a, b, fold=None):
    """The product a * b of {exps: coeff} dicts; with fold[a + b] the
    reduced sum of two reduced exponents, the product comes out reduced."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(operator.add, e1, e2))
            if fold is not None:
                exps = tuple(map(fold.__getitem__, exps))
            s = field.add(out.get(exps, 0), field.mul(c1, c2))
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
    return out


def reference_coordinates(Q, A, commutator, reduced):
    """The coordinate dicts of e_Q on exponent tuples, reduced or not."""
    f = A.field
    dim = A.dim
    width = Q.n * dim
    # a + b, or a + b - (q - 1) once it passes q - 1, since x^q = x
    fold = tuple(range(f.q)) + tuple(range(1, f.q)) if reduced else None
    generic = [
        [{(0,) * k + (1,) + (0,) * (width - 1 - k): 1} for k in range(i * dim, (i + 1) * dim)]
        for i in range(Q.n)
    ]

    def mul(u, v):
        out = [{} for _ in u]
        for ui, row in zip(u, A.table):
            for vj, cell in zip(v, row):
                prod = _mul_terms(f, ui, vj, fold)
                for acc, c in zip(out, cell):
                    _add_scaled(f, acc, prod, c)
        return out

    def tree(t):
        if isinstance(t, int):
            return generic[t - 1]
        left, right = tree(t[0]), tree(t[1])
        out = mul(left, right)
        if commutator:
            for acc, part in zip(out, mul(right, left)):
                _add_scaled(f, acc, part, f.neg(1))
        return out

    def chain(term):
        vec = generic[term[0] - 1]
        for i in term[1:]:
            vec = mul(vec, generic[i - 1])
        return vec

    vector = chain if Q.flavor is Flavor.ASSOC else tree
    coords = [{} for _ in range(dim)]
    for term, coeff in Q.terms.items():
        for acc, part in zip(coords, vector(term)):
            _add_scaled(f, acc, part, coeff)
    return coords


def reference_cells(A):
    """Each row's (j, ks, cs) of its nonzero cells, as the coordinate builds
    read them out of A.table on every call before the algebra kept them."""
    return [
        [
            (j, [k for k, c in enumerate(cell) if c], [c for c in cell if c])
            for j, cell in enumerate(row)
            if any(cell)
        ]
        for row in A.table
    ]


def assert_coordinates_match(Q, A, commutator=False):
    """Both coordinate functions give the reference's dicts and
    reduced_degrees their degrees, reading the cells the algebra keeps;
    returns the reduced and the symbolic coordinates."""
    width = Q.n * A.dim
    folded = reduced_coordinates(Q, A, commutator=commutator)
    cells = A._cells
    assert commpoly._cells(A) is cells  # kept by the first build
    assert [[(j, list(ks), list(cs)) for j, ks, cs in row] for row in cells] == reference_cells(A)
    symbolic = symbolic_coordinates(Q, A, commutator=commutator)
    for got, reduced in ((folded, True), (symbolic, False)):
        assert all(c.field == A.field and c.nvars == width for c in got)
        assert [c.monomials for c in got] == reference_coordinates(Q, A, commutator, reduced)
    assert folded == [c.reduce() for c in symbolic]
    # folded holds the reference's reduced dicts, so these are its degrees
    want = [None if c.is_zero else c.degree for c in folded]
    assert reduced_degrees(Q, A, commutator=commutator) == want
    return folded, symbolic


def assert_route_matches(Q, A, commutator=False):
    folded, _ = assert_coordinates_match(Q, A, commutator)
    width = Q.n * A.dim
    zeros = zero_counter(A.field, width, idtest.EXACT_CAP)([c.monomials for c in folded])
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


def test_route_on_the_library():
    for A in library():
        polys = battery_for(A) + ([engel(1, A.field), engel(2, A.field)] if A.bracket else [])
        for Q in polys:
            assert_coordinates_match(Q, A)
        if not A.bracket:
            assert_coordinates_match(parse("[[x1,x2],x1]", Flavor.LIE, A.field), A, commutator=True)


def test_pickled_algebras_give_the_same_degrees():
    # the kept cells stay out of pickles, and the copy builds its own
    brackets = [parse(text, Flavor.LIE, F2) for text in BRACKETS]
    for A in [*dimension_two_tables(), *library()]:
        cases = [(Q, False) for Q in battery_for(A)]
        if not A.bracket and A.field.q == 2:
            cases += [(Q, True) for Q in brackets]
        want = [reduced_degrees(Q, A, commutator=c) for Q, c in cases]
        assert A._cells is not None
        B = pickle.loads(pickle.dumps(A))
        assert B == A and B._cells is None and B._index_tables is None
        assert [reduced_degrees(Q, B, commutator=c) for Q, c in cases] == want
        assert B._cells == A._cells


def test_warm_reduced_degrees_stay_off_the_kernel(monkeypatch):
    # with the index tables, the lane tables and the cells all built, the
    # coordinate route still reads the cells and nothing else
    cases = [
        (parse("[[x1,x2],x1]", Flavor.LIE, F2), heisenberg(2), False),
        (parse("[[x1,x2],x1]", Flavor.LIE, F2), upper_triangular(2, 2), True),
        (parse("x1*x2*x1 + x2", Flavor.FREE, F2), truncated(2, 4), False),
    ]
    want = []
    for Q, A, commutator in cases:
        idtest.dixon_verdict(Q, A, commutator=commutator)  # counts on lanes
        idtest.zero_probability(Q, A, samples=8, seed=1, commutator=commutator)  # on the kernel
        assert A._index_tables is not None and A._lane_tables is not None and A._cells is not None
        want.append(reduced_degrees(Q, A, commutator=commutator))

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    for name in ("_kernel", "_evaluate_raw"):
        monkeypatch.setattr(idtest, name, refuse(name))
    for name in ("_tables", "_product", "_masks", "_count_blocks", "count", "cost"):
        monkeypatch.setattr(lanes, name, refuse(f"lanes.{name}"))
    monkeypatch.setattr(Algebra, "mul", refuse("Algebra.mul"))
    assert [reduced_degrees(Q, A, commutator=c) for Q, A, c in cases] == want


def left_comb(leaves):
    term = leaves[0]
    for leaf in leaves[1:]:
        term = (term, leaf)
    return term


def test_fold_fires_repeatedly():
    """x1 repeated 2q + 1 times passes q twice; symbolic keeps the exponent."""
    for q in (2, 3, 4, 8):
        F = field_of_order(q)
        power = (1,) * (2 * q + 1)
        polys = [
            FreePoly(F, Flavor.ASSOC, 1, {power: 1}),
            FreePoly(F, Flavor.ASSOC, 2, {power: 1, (1, 2): q - 1, (2, 1, 1): 1}),
            FreePoly(F, Flavor.FREE, 2, {left_comb(power): 1, (2, (1, 2)): 1}),
            FreePoly(F, Flavor.FREE, 2, {}),
        ]
        for A in (field_as_algebra(q), upper_triangular(2, q), Algebra(F, 0, [])):
            for Q in polys:
                folded, symbolic = assert_coordinates_match(Q, A)
                if not Q.terms or not A.dim:
                    assert reduced_degrees(Q, A) == [None] * A.dim
                assert all(max(e) < q for c in folded for e in c.monomials)
                if Q.terms and A.dim:
                    assert max(max(e) for c in symbolic for e in c.monomials) > q
                    assert any(not c.is_zero for c in folded)


@st.composite
def route_cases(draw):
    q = draw(st.sampled_from([2, 3, 4, 8]))
    F = field_of_order(q)
    dim = draw(st.integers(0, 2))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = Algebra(F, dim, table)
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(1, 2))
    leaf = st.integers(1, n)
    # in one variable a term can pass 2q leaves, so the fold fires twice
    leaves = 2 * q + 2 if n == 1 else 4
    if flavor is Flavor.ASSOC:
        term = st.lists(leaf, min_size=1, max_size=leaves).map(tuple)
    else:
        term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=leaves)
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
    count = zero_counter(F, nvars, F.q**nvars)
    assert count([p.monomials for p in polys]) == point_loop_zeros(F, nvars, polys)
    for p in polys:
        assert count([p.monomials]) == point_loop_zeros(F, nvars, [p])


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
