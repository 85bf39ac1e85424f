"""The element-index kernel against the reference evaluator, point by point."""

import os
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import bound, idtest
from fqidtest.algebra import (
    Algebra,
    heisenberg,
    ideal_generated,
    matrix_algebra,
    truncated,
    zero_ideal,
)
from fqidtest.cli import battery_for
from fqidtest.errors import SearchSpaceTooLarge
from fqidtest.freepoly import Flavor, FreePoly, parse, zero
from fqidtest.gf import Field, field_of_order
from fqidtest.idtest import (
    EXACT_CAP,
    SplitMix64,
    _count_range,
    _evaluate_raw,
    _kernel,
    _product_fn,
    evaluate,
    zero_probability,
)

F2 = field_of_order(2)


def assert_kernel_matches(Q, A, commutator=False):
    """The kernel's value index names the reference value at every point."""
    e = _kernel(Q, A, commutator)
    prod = _product_fn(Q, A, commutator)
    elems = list(A.elements())
    for indices in product(range(A.order()), repeat=Q.n):
        args = tuple(elems[i] for i in indices)
        assert elems[e(indices)] == _evaluate_raw(Q, A, args, prod), (Q.to_text(), indices)


def sampled_recount(Q, A, samples, seed, commutator=False):
    """Zeros at the SplitMix64 draws, per sample, argument and coordinate."""
    rng = SplitMix64(seed)
    q = A.field.q
    zeros = 0
    for _ in range(samples):
        args = [tuple(rng.below(q) for _ in range(A.dim)) for _ in range(Q.n)]
        zeros += not any(evaluate(Q, A, args, commutator=commutator))
    return zeros


# ---------------------------------------------------------------------------
# differential sweeps

def test_kernel_matches_reference_on_every_dimension_two_table():
    cells = list(product(range(2), repeat=2))
    brackets = [parse(text, Flavor.LIE, F2) for text in ("[x1,x2]", "[[x1,x2],x1]")]
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in battery_for(A):
            assert_kernel_matches(Q, A)
        for Q in brackets:
            assert_kernel_matches(Q, A, commutator=True)


@st.composite
def kernel_cases(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 2 if q == 4 else 3))
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


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_kernel_matches_reference_on_random_tables(case):
    Q, A, commutator = case
    assert_kernel_matches(Q, A, commutator)


def test_kernel_matches_reference_on_a_bracket_table():
    H = heisenberg(3)
    Q = parse("2*[x1,x2] + [[x1,x2],x1]", Flavor.LIE, H.field)
    assert_kernel_matches(Q, H)


# ---------------------------------------------------------------------------
# sampled mode

def test_sampled_mode_matches_an_evaluate_recount():
    H = heisenberg(3)
    Q = parse("[x1,x2] + [[x1,x3],x2]", Flavor.LIE, H.field)
    rep = zero_probability(Q, H, samples=300, seed=7)
    assert rep.zero_count == sampled_recount(Q, H, 300, 7)


def test_sampled_mode_on_an_algebra_too_large_to_tabulate():
    M = matrix_algebra(3, 3)  # 3^9 elements, so 3^18 pairs
    assert M.order() ** 2 > EXACT_CAP
    Q = parse("x1*x2 - x2*x1", Flavor.FREE, M.field)
    with pytest.raises(SearchSpaceTooLarge):
        zero_probability(Q, M)
    rep = zero_probability(Q, M, samples=200, seed=11)
    assert rep.zero_count == sampled_recount(Q, M, 200, 11)


# ---------------------------------------------------------------------------
# edge cases of the point enumeration

def test_zero_polynomial_has_one_point_the_empty_tuple():
    A = heisenberg(2)
    Q = zero(F2, Flavor.LIE)
    assert Q.n == 0
    assert _kernel(Q, A, False)(()) == 0
    assert _count_range((Q, A, False, 0, 1)) == 1
    rep = zero_probability(Q, A, workers=3)
    assert (rep.zero_count, rep.total) == (1, 1)
    assert zero_probability(Q, A, samples=5, seed=1).zero_count == 5


def test_polynomial_without_terms_vanishes_on_all_points():
    A = heisenberg(2)
    Q = FreePoly(F2, Flavor.LIE, 2, {})
    rep = zero_probability(Q, A)
    assert rep.zero_count == rep.total == A.order() ** 2


@pytest.mark.parametrize(
    "A, text",
    [
        (matrix_algebra(2, 8), "x1*x1*x1"),  # n = 1 over 8^4 elements
        (matrix_algebra(2, 2), "x1*x2*x3 - x3*x2*x1"),  # n = 3 over 2^4
    ],
)
def test_chunks_and_workers_give_the_serial_count(A, text):
    Q = parse(text, Flavor.FREE, A.field)
    assert A.order() ** Q.n >= 4096  # large enough for the pool path
    order = A.order()
    serial = zero_probability(Q, A, workers=1).zero_count
    chunked = sum(
        _count_range((Q, A, False, start, min(start + 7, order)))
        for start in range(0, order, 7)
    )
    assert chunked == serial
    assert zero_probability(Q, A, workers=3).zero_count == serial


# ---------------------------------------------------------------------------
# pool size

def test_pool_size_is_clamped_to_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert bound.pool_size(3, 12) == 3
    assert bound.pool_size(10**9, 12) == 8
    assert bound.pool_size(10**9, 5) == 5
    assert bound.pool_size(1, 12) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bound.pool_size(4, 12) == 1


# ---------------------------------------------------------------------------
# the independent routes stay off the kernel

def test_cross_check_routes_do_not_use_the_kernel(monkeypatch):
    calls = []
    kernel = idtest._kernel

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(idtest, "_kernel", recording)
    F = Field(2)
    A = Algebra(F, 2, [[(0, 0), (1, 0)], [(0, 0), (0, 0)]])
    Q = parse("x1*x2", Flavor.FREE, F)
    evaluate(Q, A, [(1, 0), (0, 1)])
    idtest.functional_zero_fraction(Q, A)
    witnesses = idtest.coset_identity_search(Q, A, 2)
    assert witnesses
    for w in witnesses:
        idtest.multilinear_descent(Q, A, w)
    assert calls == []
    # the block tallies run on the reference evaluator; the one kernel call
    # is the direct count of the inner quotient they are checked against
    T = truncated(2, 4)
    I = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    idtest.block_statistics(parse("x1*x1", Flavor.FREE, T.field), T, I, zero_ideal(T))
    assert len(calls) == 1
