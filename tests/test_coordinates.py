"""The lean coordinate route against the routes it replaced.

reduced_coordinates and symbolic_coordinates build packed monomials; they
must give the dicts of the tuple-keyed core they ran on before, restated
here as reference_coordinates, which folds exponents through a table as
monomials multiply.  reduced_degrees, which reads the degrees off the
packed monomials, must give the degrees of the reference's reduced
coordinates.  zero_counter (bit-sliced over GF(2) and GF(3)) must give
the zero count of the point loop over CommPoly.eval that
functional_zero_fraction and the exhaustive scan ran before, restated
here, and over fields other than GF(2), where GF(3) now counts on bit
planes and other prime fields sum plain ints, the count of the
field-call counter it ran before (reference_count_points).
The nonzero structure constants the coordinate builds kept on the
algebra must be the ones they read out of A.table on every call before.
The step plan the builds run is checked on its own, and on polynomials
whose plans share subterms, multiply disjoint and overlapping factors and
start from a first term whose coefficient is not 1.
"""

import operator
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
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
from fqidtest.errors import SearchSpaceTooLarge
from fqidtest.freepoly import Flavor, FreePoly, engel, parse
from fqidtest.gf import field_of_order

F2 = field_of_order(2)
BRACKETS = ("[x1,x2]", "[[x1,x2],x1]", "[[x1,x2],[x2,x1]] + [x1,x2]")
# every function and class the lanes module defines
LANE_HELPERS = sorted(
    name for name, obj in vars(lanes).items()
    if callable(obj) and getattr(obj, "__module__", None) == lanes.__name__
)


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
    cells = A._memo[commpoly._cells]
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
        assert commpoly._cells in A._memo
        B = pickle.loads(pickle.dumps(A))
        assert B == A and B._memo == {}
        assert [reduced_degrees(Q, B, commutator=c) for Q, c in cases] == want
        assert B._memo[commpoly._cells] == A._memo[commpoly._cells]


def test_warm_reduced_degrees_stay_off_the_kernel(monkeypatch):
    # with the index tables, the lane tables and the cells all built, the
    # coordinate route still reads the cells and nothing else
    F3 = field_of_order(3)
    cases = [
        (parse("[[x1,x2],x1]", Flavor.LIE, F2), heisenberg(2), False),
        (parse("[[x1,x2],x1]", Flavor.LIE, F2), upper_triangular(2, 2), True),
        (parse("x1*x2*x1 + x2", Flavor.FREE, F2), truncated(2, 4), False),
        (parse("[[x1,x2],x1]", Flavor.LIE, F3), heisenberg(3), False),
        (parse("2*[x1,x2] + [[x1,x2],x1]", Flavor.LIE, F3), truncated(3, 4), True),
    ]
    want = []
    for Q, A, commutator in cases:
        idtest.dixon_verdict(Q, A, commutator=commutator)  # counts on lanes
        idtest.zero_probability(Q, A, samples=8, seed=1, commutator=commutator)  # on the kernel
        assert {idtest._Tables, lanes._Tables, commpoly._cells} <= A._memo.keys()
        want.append(reduced_degrees(Q, A, commutator=commutator))

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    for name in ("_kernel", "_compile", "_evaluate_raw"):
        monkeypatch.setattr(idtest, name, refuse(name))
    for name in LANE_HELPERS:
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


def test_plan_shares_subterms_and_flags_disjoint_factors():
    # an equal polynomial read earlier, its terms in another order, would
    # give its own plan; this test reads the plans of these texts
    commpoly._plan.cache_clear()

    def plan(text, flavor):
        return commpoly._plan(parse(text, flavor, F2))

    # one step per product; a step's factors are disjoint when they share
    # no argument
    assert plan("x1*x2", Flavor.FREE) == (((0, 1, True),), ((2, 1),))
    assert plan("x1*x1", Flavor.FREE) == (((0, 0, False),), ((1, 1),))
    assert plan("[[x1,x2],x1]", Flavor.LIE) == (((0, 1, True), (2, 0, False)), ((3, 1),))
    assert plan("x1*x2*x1", Flavor.ASSOC) == (((0, 1, True), (2, 0, False)), ((3, 1),))
    # a subterm that several terms share is one node: x1*x2 is node 4,
    # read by both terms' last steps
    for flavor in (Flavor.FREE, Flavor.ASSOC):
        steps, terms = plan("x1*x2*x3 + x1*x2*x4", flavor)
        assert steps == ((0, 1, True), (4, 2, True), (4, 3, True)) and terms == ((5, 1), (6, 1))
    steps, terms = plan("[x1,x2] + [[x1,x2],x3]", Flavor.LIE)
    assert steps == ((0, 1, True), (3, 2, True)) and terms == ((3, 1), (4, 1))
    # a bare variable is its argument's node, and needs no step
    assert plan("x1 + x1*x2", Flavor.FREE) == (((0, 1, True),), ((0, 1), (2, 1)))
    assert plan("x2 + x1", Flavor.ASSOC) == ((), ((1, 1), (0, 1)))
    # distinct words share no node, even where their prefixes overlap
    steps, terms = plan("x1*x2*x3 + x1*x3*x2", Flavor.ASSOC)
    assert len(steps) == 4 and len(set(node for node, _ in terms)) == 2
    # the plan is read off Q alone: equal polynomials share it
    Q = parse("x1*x2 + x2*x1", Flavor.FREE, F2)
    assert commpoly._plan(Q) is commpoly._plan(parse("x1*x2 + x2*x1", Flavor.FREE, F2))
    F3 = field_of_order(3)
    assert commpoly._plan(parse("x1*x2", Flavor.FREE, F3))[0] == plan("x1*x2", Flavor.FREE)[0]


def test_route_on_explicit_plans():
    F3, F4 = field_of_order(3), field_of_order(4)
    tables = [*dimension_two_tables()][::17]
    algebras = {
        2: [*tables, upper_triangular(2, 2), Algebra(F2, 0, [])],
        3: [upper_triangular(2, 3), Algebra(F3, 1, [[(2,)]]), Algebra(F3, 0, [])],
        4: [upper_triangular(2, 4), Algebra(F4, 0, [])],
    }
    cases = {  # (flavor, n, terms, commutator), terms in the order e_Q adds them
        2: [
            # shared subterms, in words and in trees
            (Flavor.ASSOC, 4, {(1, 2, 3): 1, (1, 2, 4): 1}, False),
            (Flavor.FREE, 4, {((1, 2), 3): 1, ((1, 2), 4): 1}, False),
            # [x1,x2] + [[x1,x2],x3] read as a commutator
            (Flavor.LIE, 3, {(1, 2): 1, ((1, 2), 3): 1}, True),
            (Flavor.LIE, 2, {((1, 2), 1): 1, ((1, 2), (2, 1)): 1}, True),
            # overlapping and disjoint factors, a bare variable first and last;
            # x1*x1 times x1 multiplies coordinates of several monomials
            # whose products meet, and only their parity survives
            (Flavor.FREE, 1, {((1, 1), 1): 1}, False),
            (Flavor.ASSOC, 1, {(1, 1, 1): 1}, False),
            (Flavor.LIE, 2, {((1, 2), 1): 1}, False),
            (Flavor.FREE, 2, {1: 1, (1, 1): 1, (1, 2): 1}, False),
            (Flavor.ASSOC, 2, {(1, 2, 1): 1, (2, 2): 1, (2,): 1}, False),
            (Flavor.FREE, 1, {1: 1}, False),
            # the zero polynomial, in no variables and in two
            (Flavor.FREE, 0, {}, False),
            (Flavor.LIE, 2, {}, True),
        ],
        3: [
            # first terms whose coefficient is not 1
            (Flavor.FREE, 2, {(1, 2): 2, (2, 1): 1}, False),
            (Flavor.ASSOC, 3, {(1, 2, 3): 2, (1, 2): 1, (3,): 2}, False),
            (Flavor.LIE, 3, {(1, 2): 2, ((1, 2), 3): 1}, True),
            (Flavor.FREE, 2, {1: 2, (1, 1): 1}, False),
        ],
        4: [
            (Flavor.FREE, 2, {(1, 2): 2, (1, 1): 3, 2: 1}, False),
            (Flavor.LIE, 2, {((1, 2), 1): 3, (1, 2): 1}, True),
        ],
    }
    commpoly._plan.cache_clear()  # so that each plan adds the terms in this order
    for q, polys in cases.items():
        F = field_of_order(q)
        for flavor, n, terms, commutator in polys:
            Q = FreePoly(F, flavor, n, terms)
            assert [c for _, c in commpoly._plan(Q)[1]] == list(terms.values())
            for A in algebras[q]:
                folded, symbolic = assert_coordinates_match(Q, A, commutator)
                # the coordinates start from a term's own vector, so a
                # second build must find nothing left of the first
                assert reduced_coordinates(Q, A, commutator=commutator) == folded
                assert symbolic_coordinates(Q, A, commutator=commutator) == symbolic
                if not terms or not A.dim:
                    assert reduced_degrees(Q, A, commutator=commutator) == [None] * A.dim


@st.composite
def route_cases(draw):
    q = draw(st.sampled_from([2, 3, 4, 8]))
    F = field_of_order(q)
    dim = draw(st.integers(0, 2))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = Algebra(F, dim, table)
    flavor = draw(st.sampled_from(list(Flavor)))
    # three arguments where the count stays within 4,096 points, so that
    # terms share subterms and multiply disjoint and overlapping factors
    n = draw(st.integers(1, 3 if q ** (3 * dim) <= 4096 else 2))
    leaf = st.integers(1, n)
    # in one variable a term can pass 2q leaves, so the fold fires twice
    leaves = 2 * q + 2 if n == 1 else 4
    if flavor is Flavor.ASSOC:
        term = st.lists(leaf, min_size=1, max_size=leaves).map(tuple)
    else:
        term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=leaves)
    terms = draw(st.dictionaries(term, st.integers(1, q - 1), max_size=4))
    # lie input on a plain table is read through the commutator
    return FreePoly(F, flavor, n, terms), A, flavor is Flavor.LIE


@settings(max_examples=60, deadline=None)
@given(route_cases())
def test_route_on_random_tables(case):
    Q, A, commutator = case
    assert_route_matches(Q, A, commutator)


# ---------------------------------------------------------------------------
# the packed builds' fast paths against the forms they replace

# a dimension-1 GF(2) table whose one constant is 1, so that u * v is the
# one product u[0] * v[0] of two coordinate sets
ONE_CELL = (((0, (0,), (1,)),),)


@st.composite
def one_variable_products(draw):
    """(x, b): a set of GF(2) monomials in six variables and the variable
    b, with the partner a ^ b of some monomials a added, so that products
    meet."""
    x = draw(st.sets(st.integers(1, 63), min_size=1, max_size=10))
    b = 1 << draw(st.integers(0, 5))
    partners = draw(st.sets(st.sampled_from(sorted(x))))
    return x | {a ^ b for a in partners if a ^ b}, b


@settings(max_examples=200, deadline=None)
@given(one_variable_products())
def test_one_variable_products_keep_the_odd_parity(case):
    # x times the one variable {b}, on either side, keeps the products that
    # occur an odd number of times, as _odd_terms counts them
    x, b = case
    want = {m for m, count in Counter(a | b for a in x).items() if count & 1}
    assert commpoly._odd_terms([a | b for a in x]) == want
    ring = commpoly._BitMonomials(ONE_CELL, 6)
    for ui in (x, frozenset(x)):
        assert ring.mul([ui], [{b}], False) == [want]
        assert ring.mul([{b}], [ui], False) == [want]


def test_one_variable_products_on_colliding_monomials():
    ring = commpoly._BitMonomials(ONE_CELL, 3)
    # x1 and x1*x2 both times x2 give x1*x2, which cancels; x3 gives x2*x3
    assert ring.mul([{0b001, 0b011, 0b100}], [{0b010}], False) == [{0b110}]
    assert ring.mul([{0b010}], [{0b001, 0b011, 0b100}], False) == [{0b110}]
    # x2 times x2 is x2, and x1*x2 alone keeps its product
    assert ring.mul([{0b010}], [{0b010}], False) == [{0b010}]
    assert ring.mul([{0b011}], [{0b010}], False) == [{0b011}]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 251, 65521])
def test_popcount_degree_is_the_greatest_lane_sum(q):
    F = field_of_order(q)
    rng = random.Random(q)
    for width in range(1, 6):
        for degree in (None, 7):  # reduced, and symbolic with lanes up to 7
            ring = commpoly._LaneMonomials(F, (), width, degree)
            top = q - 1 if degree is None else degree
            for _ in range(25):
                monomials = [[rng.randint(0, top) for _ in range(width)] for _ in range(rng.randint(1, 5))]
                if rng.random() < 0.2:
                    monomials.append([top] * width)  # every digit bit of every lane set
                poly = {sum(e << (k * ring.bits) for k, e in enumerate(m)): 1 for m in monomials}
                assert ring.degree(poly) == max(map(sum, monomials)), (q, width, monomials)


@pytest.mark.parametrize("q", [3, 5])
def test_cached_arguments_are_unchanged_by_the_builds(q):
    # a first term that is a bare variable starts the coordinates from the
    # cached generic argument, which the sums after it must not change
    F = field_of_order(q)
    A = Algebra(F, 2, [[(1, 0), (0, q - 1)], [(1, 1), (0, 0)]])
    for text in ("x1", "x1 + x2", "x1 + 2*x2", "2*x1 + x1*x2"):
        Q = parse(text, Flavor.FREE, F)
        for commutator in (False, True):
            for _ in range(2):
                assert_coordinates_match(Q, A, commutator)
            for reduced in (True, False):
                ring, _ = commpoly._packed_coordinates(Q, A, commutator, reduced)
                generic = tuple(
                    tuple({1 << (k * ring.bits): 1} for k in range(i * A.dim, (i + 1) * A.dim))
                    for i in range(Q.n)
                )
                assert commpoly._lane_arguments(ring.bits, Q.n, A.dim) == generic, (text, commutator)


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


def reference_count_points(field, nvars, polys) -> int:
    """commpoly._count_points as it was before prime fields summed plain
    ints: every product and sum a field call, on every field.  The
    reference for the GF(3) planes and the other prime-field counter."""
    add, mul = field.add, field.mul
    span = field.q - 1
    used = {(e - 1) % span + 1 for monomials in polys for exps in monomials for e in exps if e}
    columns = {e: [field.pow(x, e) for x in field.elements()] for e in used}
    prepared = [
        [
            (c, [(i, columns[(e - 1) % span + 1]) for i, e in enumerate(exps) if e])
            for exps, c in monomials.items()
        ]
        for monomials in polys
    ]
    zeros = 0
    for point in product(field.elements(), repeat=nvars):
        for terms in prepared:
            value = 0
            for c, factors in terms:
                v = c
                for i, column in factors:
                    v = mul(v, column[point[i]])
                    if not v:
                        break
                value = add(value, v)
            if value:
                break
        else:
            zeros += 1
    return zeros


@st.composite
def odd_field_polys(draw):
    """Lists of polynomials over GF(3), GF(5), GF(7), GF(4) and GF(9), with
    exponents past q - 1, so that the fold runs, and enough terms that
    their int sums pass p.  GF(3) reaches 6 variables, the 729 points of
    the two-argument coordinates of heisenberg(3)."""
    q = draw(st.sampled_from([3, 5, 7, 4, 9]))
    F = field_of_order(q)
    nvars = draw(st.integers(0, {3: 6, 5: 3, 7: 2, 4: 3, 9: 2}[q]))  # at most 729 points
    exps = st.tuples(*[st.integers(0, 2 * q)] * nvars)
    polys = draw(st.lists(st.dictionaries(exps, st.integers(1, q - 1), max_size=6), max_size=3))
    return F, nvars, [CommPoly(F, nvars, m) for m in polys]


@settings(max_examples=150, deadline=None)
@given(odd_field_polys())
def test_point_counter_matches_the_field_call_reference(case):
    F, nvars, polys = case
    count = zero_counter(F, nvars, F.q**nvars)
    monomials = [p.monomials for p in polys]
    want = reference_count_points(F, nvars, monomials)
    assert count(monomials) == want == point_loop_zeros(F, nvars, polys)
    for m in monomials:
        assert count([m]) == reference_count_points(F, nvars, [m])


def test_point_counter_reduces_sums_past_p():
    # x1 + x2 sums to p where x2 = p - x1, so a sum left unreduced would
    # find only the zero at (0, 0) of its q; x1^q folds to x1; over GF(4)
    # and GF(9) the sums stay field sums
    for q in (3, 5, 7, 4, 9):
        F = field_of_order(q)
        minus_one = F.neg(1)
        polys = [{(1, 0): 1, (0, 1): 1}, {(q, 0): 1, (0, 1): minus_one}, {(1, 1): 1, (0, 0): minus_one}]
        for m in polys:
            want = reference_count_points(F, 2, [m])
            assert zero_counter(F, 2, q**2)([m]) == want == point_loop_zeros(F, 2, [CommPoly(F, 2, m)])
        assert zero_counter(F, 2, q**2)([polys[0]]) == q


def test_gf3_planes_on_edge_cases():
    # (nvars, polys, zeros): no variable, no polynomial, constants with
    # coefficient 1 and 2, the even folds x^2 and x^4 (1 where x is not
    # 0), the odd fold x^3 (x itself), and 2 swapping a term's planes
    F = field_of_order(3)
    cases = [
        (0, [], 1),
        (0, [{}], 1),
        (0, [{(): 1}], 0),
        (0, [{(): 2}], 0),
        (2, [], 9),
        (2, [{}], 9),
        (2, [{(0, 0): 1}], 0),
        (2, [{(0, 0): 2}], 0),
        (1, [{(1,): 1}], 1),
        (1, [{(1,): 2}], 1),
        (1, [{(2,): 1}], 1),
        (1, [{(2,): 1, (0,): 1}], 0),  # x^2 + 1
        (1, [{(2,): 1, (0,): 2}], 2),  # x^2 + 2
        (1, [{(4,): 1, (0,): 2}], 2),  # x^4 + 2
        (1, [{(2,): 2, (0,): 1}], 2),  # 2x^2 + 1
        (1, [{(3,): 1, (0,): 2}], 1),  # x^3 + 2
        (1, [{(3,): 2, (0,): 1}], 1),  # 2x^3 + 1
        (2, [{(1, 0): 1, (0, 1): 1}], 3),  # x1 + x2
        (2, [{(1, 1): 1, (0, 0): 2}], 2),  # x1*x2 + 2
        (2, [{(2, 2): 1, (0, 0): 2}], 4),  # x1^2*x2^2 + 2
        (2, [{(1, 3): 2, (0, 0): 2}], 2),  # 2*x1*x2^3 + 2
        (3, [{(0, 1, 0): 1}, {(0, 0, 2): 1, (0, 0, 0): 2}], 6),  # x2 and x3^2 + 2
    ]
    for nvars, polys, zeros in cases:
        count = zero_counter(F, nvars, 3**nvars)
        want = reference_count_points(F, nvars, polys)
        assert count(polys) == want == zeros, (nvars, polys)


def test_gf3_counter_checks_the_cap_before_building_planes(monkeypatch):
    def refuse(q, nvars):
        raise AssertionError("planes built")

    monkeypatch.setattr(commpoly, "_digit_planes", refuse)
    with pytest.raises(SearchSpaceTooLarge):
        zero_counter(field_of_order(3), 16, 1 << 24)


def test_gf3_counter_builds_its_planes_once(monkeypatch):
    built = []
    build = commpoly._digit_planes
    monkeypatch.setattr(commpoly, "_digit_planes", lambda q, nvars: built.append(nvars) or build(q, nvars))
    F = field_of_order(3)
    count = zero_counter(F, 3, 27)
    polys = [{(1, 0, 0): 1, (0, 2, 1): 2}, {(0, 0, 1): 1}]
    for subset in (polys, polys[:1], polys[1:], []):
        assert count(subset) == reference_count_points(F, 3, subset)
    assert built == [3]


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
