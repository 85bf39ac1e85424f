"""Coset search and descent on the element-index kernel, against the reference.

reference_search and reference_descent restate both routines on coordinate
tuples and _evaluate_raw, the way they read before the kernel; every test
here compares the package's answers, errors and messages with theirs.
reference_descent still enumerates the restricted algebra, which descent
itself now checks by coordinate reduction.
"""

import inspect
import json
import pickle
from collections import namedtuple
from dataclasses import FrozenInstanceError, fields, replace
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import algebra, cli, commpoly, idtest, lanes
from fqidtest.algebra import (
    Algebra,
    Ideal,
    _check_ambient,
    _is_coordinate_vector,
    as_ideal,
    builtin,
    enumerate_ideals,
    from_json_dict,
    heisenberg,
    ideal_generated,
    matrix_algebra,
    restrict,
    strictly_upper_triangular_lie,
    to_json_dict,
    truncated,
    upper_triangular,
    vec_add,
    vec_is_zero,
    zero_ideal,
)
from fqidtest.cli import battery_for
from fqidtest.commpoly import reduced_coordinates
from fqidtest.errors import (
    FieldMismatch,
    FlavorMismatch,
    NotAnIdeal,
    NotMultilinear,
    SearchSpaceTooLarge,
    TheoremViolation,
    WitnessInvalid,
)
from fqidtest.freepoly import Flavor, FreePoly, parse
from fqidtest.gf import Field, field_of_order
from fqidtest.idtest import (
    CosetWitness,
    DescentCertificate,
    DescentStep,
    _canonical_reps,
    _evaluate_raw,
    _new_witness,
    _product_fn,
    coset_identity_search,
    multilinear_descent,
    zero_probability,
)

F2 = field_of_order(2)


# ---------------------------------------------------------------------------
# the reference routines, on coordinate tuples

def reference_reps(A, ideal):
    """Canonical coset representatives, built afresh: zero at each of the
    ideal's pivots, every field element elsewhere, in coordinate order."""
    pivots = set(ideal.pivots)
    choices = [(0,) if c in pivots else tuple(A.field.elements()) for c in range(A.dim)]
    return list(product(*choices))


def reference_search(Q, A, max_codim, commutator=False):
    prod = _product_fn(Q, A, commutator)
    n = Q.n
    field = A.field
    witnesses = []
    for ideal in enumerate_ideals(A):
        if ideal.codim > max_codim:
            continue
        reps = reference_reps(A, ideal)
        members = list(ideal.elements())
        for rep_tuple in product(reps, repeat=n):
            vanishes = all(
                vec_is_zero(
                    _evaluate_raw(
                        Q, A, tuple(vec_add(field, r, o) for r, o in zip(rep_tuple, offs)), prod
                    )
                )
                for offs in product(members, repeat=n)
            )
            if vanishes:
                trivial = ideal.rank == 0 or all(vec_is_zero(r) for r in rep_tuple)
                witnesses.append(CosetWitness(ideal, rep_tuple, ideal.codim, trivial))
    return witnesses


def reference_descent(Q, A, witness, commutator=False):
    prod = _product_fn(Q, A, commutator)
    if not Q.analyze().multilinear:
        raise NotMultilinear(Q.to_text())
    ideal = witness.ideal
    _check_ambient(A, ideal)
    n = Q.n
    reps = witness.representatives
    if len(reps) != n:
        raise WitnessInvalid(f"expected {n} representatives, got {len(reps)}")
    field = A.field
    members = list(ideal.elements())
    for offs in product(members, repeat=n):
        args = tuple(vec_add(field, reps[i], offs[i]) for i in range(n))
        if not vec_is_zero(_evaluate_raw(Q, A, args, prod)):
            raise WitnessInvalid(f"e_Q does not vanish on the coset product at {args!r}")
    steps = []
    for s in range(1, n + 1):
        head = ", ".join(f"y_{i}" for i in range(1, s + 1))
        tail = ", ".join(f"a_{i}" for i in range(s + 1, n + 1))
        inside = head if not tail else f"{head}, {tail}"
        statement = f"e_Q({inside}) = 0 for all ({head}) in I^{s}"
        for ys in product(members, repeat=s):
            args = tuple(ys) + tuple(reps[s:])
            if not vec_is_zero(_evaluate_raw(Q, A, args, prod)):
                raise TheoremViolation(f"descent stage {s} failed at {args!r}")
        steps.append(DescentStep(stage=s, statement=statement, verified=True))
    sub, _ = restrict(A, ideal)
    sub_prod = _product_fn(Q, sub, commutator)
    for args in product(list(sub.elements()), repeat=n):
        if not vec_is_zero(_evaluate_raw(Q, sub, args, sub_prod)):
            raise TheoremViolation("identity on the ideal fails in the restricted algebra")
    return DescentCertificate(steps=tuple(steps), identity_on_ideal=True)


def assert_matches_reference(Q, A, commutator=False):
    """Witness lists agree, and so does the certificate of every witness."""
    found = coset_identity_search(Q, A, A.dim, commutator=commutator)
    assert found == reference_search(Q, A, A.dim, commutator), (Q.to_text(), A.table)
    if Q.analyze().multilinear:
        for w in found:
            got = multilinear_descent(Q, A, w, commutator=commutator)
            assert got == reference_descent(Q, A, w, commutator)
    return found


# ---------------------------------------------------------------------------
# differential sweeps

def test_every_dimension_two_table_matches_the_reference():
    cells = list(product(range(2), repeat=2))
    witnesses = 0
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in battery_for(A):
            witnesses += len(assert_matches_reference(Q, A))
    assert witnesses > 0


@st.composite
def multilinear_cases(draw, flavors=(Flavor.FREE, Flavor.ASSOC)):
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 2 if q == 4 else 3))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = Algebra(F, dim, table)
    flavor = draw(st.sampled_from(flavors))
    n = draw(st.integers(1, 3 if dim == 1 else 2))
    # multilinear terms: every variable once, in any order
    orders = st.permutations(list(range(1, n + 1)))
    if flavor is Flavor.ASSOC:
        term = orders.map(tuple)
    else:
        term = orders.map(lambda leaves: leaves[0] if n == 1 else _left_normed(leaves))
    terms = draw(st.dictionaries(term, st.integers(1, q - 1), min_size=1, max_size=3))
    return FreePoly(F, flavor, n, terms), A


def _left_normed(leaves):
    t = leaves[0]
    for leaf in leaves[1:]:
        t = (t, leaf)
    return t


@settings(max_examples=40, deadline=None)
@given(multilinear_cases())
def test_random_tables_match_the_reference(case):
    Q, A = case
    assert_matches_reference(Q, A)


def test_commutator_reading_matches_the_reference():
    U = upper_triangular(2, 3)
    Q = parse("[x1,x2] + 2*[x2,x1]", Flavor.LIE, U.field)
    assert assert_matches_reference(Q, U, commutator=True)


def test_bracket_table_over_gf4_matches_the_reference():
    H = heisenberg(4)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    assert assert_matches_reference(Q, H)


# ---------------------------------------------------------------------------
# the zero ideal: its witnesses are the zeros of e_Q

# not homogeneous, not multilinear, zero, and without variables
ZERO_IDEAL_TEXTS = ("x1*x2 + x1", "x1*x1 + x2", "x1", "x1*x2", "0")


def assert_zero_ideal_route_matches(Q, A, max_codim):
    got = coset_identity_search(Q, A, max_codim)
    want = reference_search(Q, A, max_codim)
    # == compares ideal, representatives, codim and trivial, in order
    assert got == want, (Q.to_text(), Q.n, A.table, max_codim)
    for g, w in zip(got, want):
        assert (type(g.codim), type(g.trivial)) == (int, bool)
        assert field_values(g) == field_values(w)
        assert not hasattr(g, "__dict__")
    zeros = [w for w in got if w.ideal.rank == 0]
    assert all(w.trivial and w.codim == A.dim for w in zeros)
    if max_codim >= A.dim:
        # one witness per zero of e_Q, in canonical order
        points = product(list(A.elements()), repeat=Q.n)
        prod = _product_fn(Q, A, False)
        expected = [p for p in points if vec_is_zero(_evaluate_raw(Q, A, p, prod))]
        assert [w.representatives for w in zeros] == expected
    return got


@st.composite
def zero_ideal_cases(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(0, 2 if q > 2 else 3))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    if draw(st.booleans()):
        table = [[(0,) * dim] * dim for _ in range(dim)]  # every product is zero
    else:
        table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = Algebra(F, dim, table)
    Q = parse(draw(st.sampled_from(ZERO_IDEAL_TEXTS)), Flavor.FREE, F)
    if not Q.is_zero:
        Q = Q.scale(draw(st.integers(1, q - 1)))
    if Q.n == 0 and draw(st.booleans()):
        Q = FreePoly(F, Flavor.FREE, draw(st.integers(1, 2)), {})  # zero, in variables
    return Q, A, draw(st.integers(0, dim))


@settings(max_examples=80, deadline=None)
@given(zero_ideal_cases())
def test_zero_ideal_route_matches_the_reference(case):
    Q, A, max_codim = case
    assert_zero_ideal_route_matches(Q, A, max_codim)


def test_zero_ideal_route_on_zero_product_tables_and_zero_polynomials():
    for q, dim in ((2, 3), (3, 2), (4, 2)):
        F = field_of_order(q)
        A = Algebra(F, dim, [[(0,) * dim] * dim for _ in range(dim)])
        for text in ZERO_IDEAL_TEXTS:
            Q = parse(text, Flavor.FREE, F)
            found = assert_zero_ideal_route_matches(Q, A, dim)
            zeros = [w for w in found if w.ideal.rank == 0]
            # a polynomial with a linear term vanishes where that variable does
            linear = any(isinstance(term, int) or len(term) == 1 for term in Q.terms)
            vanishing = A.order() ** (Q.n - linear)
            assert len(zeros) == vanishing, text
    # no variables: the one empty tuple witnesses every ideal, trivially
    Q = parse("0", Flavor.FREE, F2)
    assert Q.n == 0
    H = heisenberg(2)
    found = assert_zero_ideal_route_matches(Q, H, H.dim)
    assert [w.representatives for w in found] == [()] * len(enumerate_ideals(H))
    assert all(w.trivial for w in found)


def test_zero_ideal_route_on_the_library_pairs():
    for spec in ("heisenberg(3)", "truncated(3,3)", "upper_triangular(2,2)"):
        A = builtin(spec)
        for text in ("x1*x2 + x1", "x1*x2 - x2*x1"):
            assert_zero_ideal_route_matches(parse(text, Flavor.FREE, A.field), A, A.dim)


# searches whose zero ideal is listed off lanes.zero_flags, over GF(2),
# GF(3) and GF(4), on plain and bracket tables and read as commutators
LANE_SEARCHES = (
    ("heisenberg(3)", Flavor.LIE, "[x1,x2]", False),
    ("heisenberg(4)", Flavor.LIE, "[x1,x2]", False),
    ("truncated(3,3)", Flavor.FREE, "x1*x2 + x1", False),
    ("upper_triangular(2,2)", Flavor.FREE, "x1*x2 - x2*x1", False),
    ("upper_triangular(2,2)", Flavor.LIE, "[x1,x2]", True),
    ("heisenberg(2)", Flavor.LIE, "[x1,x2] + [x3,x1]", False),
)


def test_zero_ideal_on_lanes_matches_the_kernel_walk_and_the_reference(monkeypatch):
    for spec, flavor, text, commutator in LANE_SEARCHES:
        A = builtin(spec)
        Q = parse(text, flavor, A.field)
        points = A.order() ** Q.n
        assert idtest._count_route(Q, A, points)[0] == "lanes", spec
        on_lanes = coset_identity_search(Q, A, A.dim, commutator=commutator)
        with monkeypatch.context() as m:
            m.setattr(idtest, "LANES_MIN_POINTS", points + 1)  # lanes closed
            assert idtest._count_route(Q, A, points)[0] != "lanes"
            on_the_kernel = coset_identity_search(Q, A, A.dim, commutator=commutator)
        assert on_lanes == on_the_kernel == reference_search(Q, A, A.dim, commutator), spec
        zeros = [w for w in on_lanes if w.ideal.rank == 0]
        assert len(zeros) == zero_probability(Q, A, commutator=commutator).zero_count > 0
        assert len(zeros) < points


def test_a_lanes_zero_ideal_makes_no_kernel_call(monkeypatch):
    # the zero ideal alone: read off the flags over GF(3), walked on the
    # kernel, one call per point, over GF(5), which has no lanes
    monkeypatch.setattr(idtest, "_walk_ideals", lambda A: iter([zero_ideal(A)]))
    for A, want in ((heisenberg(3), 0), (heisenberg(5), 125**2)):
        Q = parse("[x1,x2]", Flavor.LIE, A.field)
        idtest._kernel(Q, A, False)
        calls = counted_kernel(Q, A)
        found = coset_identity_search(Q, A, A.dim)
        assert len(calls) == want
        assert {w.ideal for w in found} == {zero_ideal(A)} and all(w.trivial for w in found)
        assert len(found) == zero_probability(Q, A).zero_count


def test_representatives_are_the_algebras_shared_element_tuples(monkeypatch):
    H = heisenberg(3)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    ideals = enumerate_ideals(H)
    assert {ideal.rank for ideal in ideals} == {0, 1, 2, 3}
    for ideal in ideals:
        reps = _canonical_reps(H, ideal)
        assert reps == reference_reps(H, ideal)
        elements = H._memo[idtest._Tables].elements
        assert elements == list(H.elements())
        assert all(r is elements[sum(c * 3 ** (2 - s) for s, c in enumerate(r))] for r in reps)
    assert _canonical_reps(H, zero_ideal(H)) is elements
    # after one pass of descents, every representative of a later search is
    # found checked: no coordinate is read again
    checks = []
    rep_index = idtest._rep_index
    monkeypatch.setattr(idtest, "_rep_index", lambda tables, r: checks.append(r) or rep_index(tables, r))
    for _ in range(2):
        checks.clear()
        for w in coset_identity_search(Q, H, H.dim):
            multilinear_descent(Q, H, w)
    assert checks == []


# ---------------------------------------------------------------------------
# witnesses built field by field, without the constructor's call

def field_values(witness):
    """(name, value, type) of each field of a witness, in declared order."""
    return [
        (f.name, getattr(witness, f.name), type(getattr(witness, f.name)))
        for f in fields(CosetWitness)
    ]


def assert_same_witness(got, want):
    """got is the witness want is, to every reader of a witness."""
    assert type(got) is CosetWitness
    assert field_values(got) == field_values(want)
    # a witness keeps its fields in slots, one per field, and has no instance dict
    assert CosetWitness.__slots__ == tuple(f.name for f in fields(CosetWitness))
    assert not hasattr(got, "__dict__") and not hasattr(want, "__dict__")
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert cli._jsonable(got) == cli._jsonable(want)
    assert pickle.loads(pickle.dumps(got)) == want
    assert replace(got, trivial=not got.trivial) == replace(want, trivial=not want.trivial)
    with pytest.raises(FrozenInstanceError):
        got.trivial = False


def test_witnesses_are_the_constructors_witnesses():
    # the builder takes every field, in declared order
    assert list(inspect.signature(_new_witness).parameters) == [
        f.name for f in fields(CosetWitness)
    ]
    for A, flavor, text in (
        (heisenberg(3), Flavor.LIE, "[x1,x2]"),
        (upper_triangular(2, 2), Flavor.FREE, "x1*x2 + x1"),
        (truncated(3, 3), Flavor.FREE, "x1*x2"),
    ):
        found = coset_identity_search(parse(text, flavor, A.field), A, A.dim)
        assert {w.ideal.rank == 0 for w in found} == {True, False}
        for w in found:
            assert_same_witness(w, CosetWitness(w.ideal, w.representatives, w.codim, w.trivial))


# ---------------------------------------------------------------------------
# errors and their messages

def _error(fn, *args):
    with pytest.raises((WitnessInvalid, TheoremViolation)) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "A, flavor, text, generator, reps",
    [
        (upper_triangular(2, 2), Flavor.FREE, "x1*x2", (0, 1, 0), ((1, 0, 0), (1, 0, 0))),
        (upper_triangular(2, 2), Flavor.FREE, "x1*x2", (0, 1, 0), ((1, 1, 1), (0, 1, 1))),
        (heisenberg(3), Flavor.LIE, "[x1,x2]", (0, 0, 1), ((1, 0, 2), (0, 2, 1))),
    ],
)
def test_forged_witness_message_is_the_reference_message(A, flavor, text, generator, reps):
    Q = parse(text, flavor, A.field)
    I = ideal_generated(A, [generator])
    forged = CosetWitness(ideal=I, representatives=reps, codim=A.dim - 1, trivial=False)
    got = _error(multilinear_descent, Q, A, forged)
    assert got == _error(reference_descent, Q, A, forged)
    assert got[0] is WitnessInvalid
    assert got[1].startswith("e_Q does not vanish on the coset product at ((")


def test_malformed_representative_is_an_invalid_witness():
    U = upper_triangular(2, 2)
    Q = parse("x1*x2", Flavor.FREE, U.field)
    I = ideal_generated(U, [(0, 1, 0)])
    for bad in (((0, 0), (0, 0, 0)), ((0, 0, 2), (0, 0, 0)), ((0, 0, 0.5), (0, 0, 0))):
        w = CosetWitness(ideal=I, representatives=bad, codim=2, trivial=False)
        with pytest.raises(WitnessInvalid, match="is not a coordinate vector of length 3"):
            multilinear_descent(Q, U, w)
    # a float equal to an int was once accepted: ((1, 0), (0, 0)) is a
    # witness on truncated(3,3), and ((1.0, 0), (0, 0)) descended as one
    T = truncated(3, 3)
    Q = parse("x1*x2", Flavor.FREE, T.field)
    I = ideal_generated(T, [(0, 1)])
    good = CosetWitness(ideal=I, representatives=((1, 0), (0, 0)), codim=1, trivial=False)
    assert multilinear_descent(Q, T, good).identity_on_ideal
    for bad in (((1.0, 0), (0, 0)), (("1", 0), (0, 0))):
        w = CosetWitness(ideal=I, representatives=bad, codim=1, trivial=False)
        with pytest.raises(WitnessInvalid, match="is not a coordinate vector of length 2"):
            multilinear_descent(Q, T, w)


class Digit(IntEnum):
    ONE = 1


Point = namedtuple("Point", "a b c")

# representatives of heisenberg(3) (q = 3, dim 3): coordinate vectors as
# tuples, lists, bools, IntEnum members and a namedtuple, and non-vectors,
# most of them equal to a vector
REPRESENTATIVES = [
    (0, 0, 0), (1, 0, 2), (2, 2, 2), [1, 0, 2], (True, 0, 2), (Digit.ONE, 0, 2), Point(1, 0, 2),
    (1.0, 0, 2), (Fraction(1), 0, 2), (Decimal(1), 0, 2), (1 + 0j, 0, 2), [1.0, 0, 2], ("1", 0, 2),
    (-1, 0, 2), (3, 0, 2), (1, 0), (1, 0, 2, 0), ((1,), 0, 2), ([1], 0, 2), "abc", 5, None,
]


def reference_rep_indices(A, reps):
    """_rep_indices's answer from algebra._is_coordinate_vector: the
    indices, or the exception's type and message."""
    try:
        ids = []
        for r in reps:
            if not _is_coordinate_vector(A, r):
                raise WitnessInvalid(f"representative {r!r} is not a coordinate vector of length {A.dim}")
            index = 0
            for c in r:
                index = index * A.field.q + c
            ids.append(index)
        return ids
    except (WitnessInvalid, TypeError) as exc:
        return type(exc), str(exc)


def test_representatives_are_refused_as_the_reference_refuses():
    # each pair of representatives twice, so that every equal vector was
    # checked (and kept) before a non-vector equal to it comes
    H = heisenberg(3)
    tables = idtest._tables(H)
    for _ in range(2):
        for reps in product(REPRESENTATIVES, repeat=2):
            try:
                got = idtest._rep_indices(tables, reps)
            except (WitnessInvalid, TypeError) as exc:
                got = type(exc), str(exc)
            assert got == reference_rep_indices(H, reps), reps
    # only exact tuples are kept, one per vector, each beside its index
    kept = tables.checked
    assert sorted(kept.values(), key=lambda entry: entry[1]) == [
        ((0, 0, 0), 0), ((1, 0, 2), 11), ((2, 2, 2), 26),
    ]
    assert all(type(r) is tuple and r == key for key, (r, _) in kept.items())


def test_failed_stage_message_is_the_reference_message(monkeypatch):
    # x1*x1 + x1 vanishes on some coset whose ideal it does not vanish on;
    # an analysis that calls it multilinear lets the descent reach its stages
    Q = parse("x1*x1 + x1", Flavor.FREE, F2)
    monkeypatch.setattr(Q, "_analysis", replace(Q.analyze(), multilinear=True))
    cells = list(product(range(2), repeat=2))
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for w in coset_identity_search(Q, A, A.dim):
            try:
                multilinear_descent(Q, A, w)
            except TheoremViolation as exc:
                got = str(exc)
            else:
                continue
            with pytest.raises(TheoremViolation) as ref:
                reference_descent(Q, A, w)
            assert got == str(ref.value)
            assert got.startswith("descent stage 1 failed at ((")
            return
    pytest.fail("no coset on which the stage check fails")


def test_refusals_are_unchanged_cold_and_warm():
    H = heisenberg(3)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    zero, center = zero_ideal(H), ideal_generated(H, [(0, 0, 1)])
    # [b1,b2] = b3: a zero-ideal witness at a point where e_Q is nonzero
    forged = CosetWitness(ideal=zero, representatives=((1, 0, 0), (0, 1, 0)), codim=3, trivial=True)
    malformed = {
        ((0, 0, 0),): "expected 2 representatives, got 1",
        ((0, 0, 0),) * 3: "expected 2 representatives, got 3",
    }
    for bad in ((0, 0), (0, 0, 0, 0), (0, 0, 0.0), (0, "1", 0), (0, -1, 0), (0, 0, 3), (3, 0, 0)):
        for reps in ((bad, (0, 0, 0)), ((0, 0, 0), bad)):
            malformed[reps] = f"representative {bad!r} is not a coordinate vector of length 3"

    def refusals():
        got = [_error(multilinear_descent, Q, H, forged)]
        for ideal in (zero, center):
            for reps in malformed:
                w = CosetWitness(ideal, reps, ideal.codim, False)
                got.append(_error(multilinear_descent, Q, H, w))
        return got

    cold = refusals()
    assert cold[0] == _error(reference_descent, Q, H, forged)
    assert cold[0] == (
        WitnessInvalid, "e_Q does not vanish on the coset product at ((1, 0, 0), (0, 1, 0))"
    )
    assert cold[1:] == [(WitnessInvalid, text) for text in malformed.values()] * 2
    # warm: both ideals verified, and every refusal is the cold one
    for w in coset_identity_search(Q, H, H.dim):
        multilinear_descent(Q, H, w)
    assert {zero, center} <= verified_ideals(Q, H)
    assert refusals() == cold
    # a bool is an int, as it always was
    w = CosetWitness(center, ((True, 0, 0), (0, 0, 0)), 2, False)
    assert multilinear_descent(Q, H, w) == reference_descent(Q, H, w)


def test_field_and_flavor_gates_run_on_a_warm_kernel():
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    for w in coset_identity_search(Q, H, H.dim):
        multilinear_descent(Q, H, w)
    assert (Q, False) in H._memo[idtest._Tables].kernels
    w = next(w for w in coset_identity_search(Q, H, H.dim) if w.ideal.rank == 0)
    # an equal field that is another object passes the gates
    F = Field(2)
    assert F == H.field and F is not H.field
    same = parse("[x1,x2]", Flavor.LIE, F)
    assert multilinear_descent(same, H, w) == multilinear_descent(Q, H, w)
    # the gate runs as the kernel compiles, so a warm kernel takes the equal
    # polynomial without it; on a fresh algebra the gate meets the equal field
    fresh = heisenberg(2)
    assert coset_identity_search(same, fresh, fresh.dim) == coset_identity_search(Q, H, H.dim)
    assert list(fresh._memo[idtest._Tables].kernels) == [(same, False)]
    cold = heisenberg(2)
    assert multilinear_descent(same, cold, w) == multilinear_descent(Q, H, w)
    assert multilinear_descent(Q, H, replace(w, ideal=replace(w.ideal, field=F))).identity_on_ideal
    Q3 = parse("[x1,x2]", Flavor.LIE, field_of_order(3))
    with pytest.raises(FieldMismatch, match=r"^GF\(3\) vs GF\(2\)$"):
        multilinear_descent(Q3, H, w)
    assert (Q3, False) not in H._memo[idtest._Tables].kernels  # refused before compiling
    with pytest.raises(FieldMismatch, match="different fields"):
        multilinear_descent(Q, H, replace(w, ideal=replace(w.ideal, field=field_of_order(3))))
    with pytest.raises(FlavorMismatch, match="plain product table"):
        multilinear_descent(Q, H, w, commutator=True)
    # GF(8) under its other modulus: a field of the same order, refused by ==
    E, other = field_of_order(8), Field(2, 3, (1, 0, 1, 1))
    assert other != E and other.q == E.q
    T = Algebra(E, 1, [[(0,)]])
    P = parse("x1*x2", Flavor.FREE, E)
    ws = coset_identity_search(P, T, T.dim)
    multilinear_descent(P, T, ws[0])
    with pytest.raises(FieldMismatch):
        multilinear_descent(parse("x1*x2", Flavor.FREE, other), T, ws[0])
    with pytest.raises(FlavorMismatch, match="associative input on a bracket algebra"):
        multilinear_descent(parse("x1*x2", Flavor.ASSOC, H.field), H, w)
    with pytest.raises(FlavorMismatch, match="non-bracket algebra"):
        multilinear_descent(parse("[x1,x2]", Flavor.LIE, E), T, ws[0])


def verified_ideals(Q, A, commutator=False):
    """The ideals descent has verified for (Q, commutator) on A, kept in
    the kernel entry beside e_Q and its zero counter."""
    return A._memo[idtest._Tables].kernels[Q, commutator][2]


def counted_kernel(Q, A):
    """Wrap the compiled kernel of (Q, False) on A in a counter: the list
    of the points it is called on, in order.  The entry keeps its zero
    counter and its verified ideals."""
    tables = A._memo[idtest._Tables]
    e, zeros, verified = tables.kernels[Q, False]
    calls = []

    def counting(args):
        calls.append(tuple(args))
        return e(args)

    tables.kernels[Q, False] = counting, zeros, verified
    return calls


def test_zero_ideal_descent_makes_one_kernel_call_per_stage():
    # the re-check and stages 1..n-1 (and stage n on the first descent over
    # the zero ideal) are one point each, evaluated once each, in order
    for A, flavor, text in (
        (heisenberg(2), Flavor.LIE, "[x1,x2]"),
        (truncated(2, 3), Flavor.FREE, "x1*x2*x3 + x3*x2*x1"),
    ):
        Q = parse(text, flavor, A.field)
        n, q, zero = Q.n, A.field.q, zero_ideal(A)
        witnesses = [w for w in coset_identity_search(Q, A, A.dim) if w.ideal == zero]
        assert len(witnesses) > 1
        calls = counted_kernel(Q, A)
        verified = verified_ideals(Q, A)
        for i, w in enumerate(witnesses):
            calls.clear()
            assert (zero in verified) == (i > 0)
            assert multilinear_descent(Q, A, w) == reference_descent(Q, A, w)
            ids = [sum(c * q ** (A.dim - 1 - s) for s, c in enumerate(r)) for r in w.representatives]
            points = [tuple([0] * s + ids[s:]) for s in range(n + 1)]
            assert calls == (points if i == 0 else points[:n])
        assert len(calls) == n and zero in verified


def test_a_warm_kernel_still_refuses_other_readings_and_fields():
    # a warm (Q, False) kernel: commutator=True and a GF(3) polynomial are
    # other keys, so each meets the gate, is refused and compiles nothing
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    found = coset_identity_search(Q, H, H.dim)
    w = next(w for w in found if w.ideal.rank == 0)
    multilinear_descent(Q, H, w)
    calls = counted_kernel(Q, H)
    tables = H._memo[idtest._Tables]
    Q3 = parse("[x1,x2]", Flavor.LIE, field_of_order(3))
    for _ in range(2):
        with pytest.raises(FlavorMismatch, match="plain product table"):
            coset_identity_search(Q, H, H.dim, commutator=True)
        with pytest.raises(FlavorMismatch, match="plain product table"):
            multilinear_descent(Q, H, w, commutator=True)
        with pytest.raises(FieldMismatch, match=r"^GF\(3\) vs GF\(2\)$"):
            coset_identity_search(Q3, H, H.dim)
        with pytest.raises(FieldMismatch, match=r"^GF\(3\) vs GF\(2\)$"):
            multilinear_descent(Q3, H, w)
        assert list(tables.kernels) == [(Q, False)] and list(tables.products) == [False]
    assert calls == []
    assert coset_identity_search(Q, H, H.dim) == found


def test_certificates_are_shared_per_arity_and_frozen():
    H = heisenberg(3)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    certificates = [multilinear_descent(Q, H, w) for w in coset_identity_search(Q, H, H.dim)]
    first = certificates[0]
    assert all(c is first for c in certificates)
    for w in coset_identity_search(Q, H, H.dim)[::37]:
        assert reference_descent(Q, H, w) == first
    assert first == DescentCertificate(
        steps=(
            DescentStep(1, "e_Q(y_1, a_2) = 0 for all (y_1) in I^1", True),
            DescentStep(2, "e_Q(y_1, y_2) = 0 for all (y_1, y_2) in I^2", True),
        ),
        identity_on_ideal=True,
    )
    with pytest.raises(FrozenInstanceError):
        first.identity_on_ideal = False
    with pytest.raises(FrozenInstanceError):
        first.steps[0].verified = False
    assert isinstance(first.steps, tuple)
    # another arity has its own certificate
    T = truncated(3, 3)
    P = parse("x1*x2*x3", Flavor.FREE, T.field)
    w = coset_identity_search(P, T, T.dim)[0]
    three = multilinear_descent(P, T, w)
    assert three == reference_descent(P, T, w) and len(three.steps) == 3


# ---------------------------------------------------------------------------
# the total-work cap

def test_coset_search_caps_total_work_before_evaluating(monkeypatch):
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    ideals = len(enumerate_ideals(H))
    total = ideals * H.order() ** 2
    assert ideals > 1
    points = []
    kernel = idtest._kernel

    def counting(*args):
        e = kernel(*args)
        return lambda point: points.append(point) or e(point)

    monkeypatch.setattr(idtest, "_kernel", counting)
    with pytest.raises(SearchSpaceTooLarge, match=f"size {total} exceeds cap {total - 1}"):
        coset_identity_search(Q, H, H.dim, cap=total - 1)
    assert points == []
    # fewer ideals under a lower codimension limit fit under the same cap
    assert coset_identity_search(Q, H, 1, cap=total - 1)
    assert len(coset_identity_search(Q, H, H.dim, cap=total)) == 53


@st.composite
def capped_searches(draw):
    q = draw(st.sampled_from([2, 3]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 3 if q == 2 else 2))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    A = Algebra(F, dim, [[draw(cell) for _ in range(dim)] for _ in range(dim)])
    Q = parse(draw(st.sampled_from(["0", "x1", "x1*x1", "x1*x2"])), Flavor.FREE, F)
    max_codim = draw(st.integers(0, dim))
    ideals = [ideal for ideal in enumerate_ideals(A) if ideal.codim <= max_codim]
    total = len(ideals) * A.order() ** Q.n
    # caps on both sides of the total, some under one ideal's work
    cap = max(1, total + draw(st.integers(-3, 3)) * A.order() ** Q.n + draw(st.integers(-1, 1)))
    warm = draw(st.booleans())
    return Q, A if warm else pickle.loads(pickle.dumps(A)), max_codim, cap, total


@settings(max_examples=150, deadline=None)
@given(capped_searches())
def test_searches_refused_during_the_walk_are_those_over_the_full_total(case):
    # the walk checks the work found so far; it only grows, so the searches
    # it refuses are exactly those whose full total passes the cap
    Q, A, max_codim, cap, total = case
    if total > cap:
        with pytest.raises(SearchSpaceTooLarge) as info:
            coset_identity_search(Q, A, max_codim, cap=cap)
        assert info.value.cap == cap and cap < info.value.size <= total
    else:
        got = coset_identity_search(Q, A, max_codim, cap=cap)
        assert got == reference_search(Q, A, max_codim)


def test_library_maximum_is_under_the_default_cap():
    L = strictly_upper_triangular_lie(4, 2)
    assert len(enumerate_ideals(L)) * L.order() ** 2 == 110_592


# ---------------------------------------------------------------------------
# tables kept on the algebra

def test_filled_tables_do_not_travel_to_pool_workers(pooled_counts):
    M = matrix_algebra(2, 2)
    Q = parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, M.field)
    fresh = zero_probability(Q, matrix_algebra(2, 2)).zero_count
    coset_identity_search(parse("x1*x2", Flavor.FREE, M.field), M, 1)
    assert idtest._Tables in M._memo
    assert M._memo[idtest._Tables].products[False]
    copy = pickle.loads(pickle.dumps(M))
    assert copy == M and copy._memo == {}
    assert zero_probability(Q, M, workers=2).zero_count == fresh
    assert zero_probability(Q, M).zero_count == fresh


def test_tables_are_shared_between_calls():
    # over GF(5), which has no lanes, and with each variable twice in a
    # term, the count walks every point and fills the whole product table
    H = heisenberg(5)
    Q = parse("[[x1,x2],x1] + [[x2,x1],x2]", Flavor.LIE, H.field)
    assert idtest._count_route(Q, H, H.order() ** 2) == ("points", None)
    zero_probability(Q, H)
    tables = H._memo[idtest._Tables]
    filled = len(tables.products[False])
    assert filled == H.order() ** 2
    coset_identity_search(Q, H, 1)
    assert H._memo[idtest._Tables] is tables
    assert len(tables.products[False]) == filled


# ---------------------------------------------------------------------------
# the analysis memo

def test_cached_analysis_equals_a_fresh_one():
    for text in ("x1*x2 - x2*x1", "x1*x1 + x1", "x1*x2*x3"):
        Q = parse(text, Flavor.FREE, F2)
        first = Q.analyze()
        assert Q.analyze() is first
        assert first == FreePoly(Q.field, Q.flavor, Q.n, Q.terms).analyze()


# ---------------------------------------------------------------------------
# memos kept on the algebra: ideals, member indices, verified descents

def assert_warm_matches_fresh(Q, A, commutator=False):
    """A second search and descent pass on A gives what a fresh copy gives."""
    for w in coset_identity_search(Q, A, A.dim, commutator=commutator):
        multilinear_descent(Q, A, w, commutator=commutator)
    fresh = pickle.loads(pickle.dumps(A))
    warm = coset_identity_search(Q, A, A.dim, commutator=commutator)
    assert warm == coset_identity_search(Q, fresh, fresh.dim, commutator=commutator)
    for w in warm:
        got = multilinear_descent(Q, A, w, commutator=commutator)
        assert got == multilinear_descent(Q, fresh, w, commutator=commutator)
    return warm


def test_warm_algebras_match_fresh_copies_on_every_dimension_two_table():
    cells = list(product(range(2), repeat=2))
    descents = 0
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in battery_for(A):
            if Q.analyze().multilinear:
                descents += len(assert_warm_matches_fresh(Q, A))
        assert any(verified for _, _, verified in A._memo[idtest._Tables].kernels.values())
    assert descents > 0


@settings(max_examples=40, deadline=None)
@given(multilinear_cases(tuple(Flavor)))
def test_warm_random_tables_match_fresh_copies(case):
    Q, A = case
    # a lie polynomial on a plain table is read with commutators
    assert_warm_matches_fresh(Q, A, commutator=Q.flavor is Flavor.LIE)


def test_warm_commutator_reading_matches_a_fresh_copy():
    U = upper_triangular(2, 3)
    Q = parse("[x1,x2] + 2*[x2,x1]", Flavor.LIE, U.field)
    assert assert_warm_matches_fresh(Q, U, commutator=True)
    # only the commutator reading's entry holds verified ideals
    kernels = U._memo[idtest._Tables].kernels
    assert verified_ideals(Q, U, True)
    assert all(commutator for (_, commutator), (_, _, verified) in kernels.items() if verified)


@pytest.mark.parametrize(
    "spec, flavor, text, generator, reps",
    [
        ("upper_triangular(2,2)", Flavor.FREE, "x1*x2", (0, 1, 0), ((1, 0, 0), (1, 0, 0))),
        ("upper_triangular(2,2)", Flavor.FREE, "x1*x2", (0, 1, 0), ((1, 1, 1), (0, 1, 1))),
        ("heisenberg(3)", Flavor.LIE, "[x1,x2]", (0, 0, 1), ((1, 0, 2), (0, 2, 1))),
    ],
)
def test_forged_witness_is_invalid_after_its_ideal_is_verified(spec, flavor, text, generator, reps):
    A = builtin(spec)
    Q = parse(text, flavor, A.field)
    I = ideal_generated(A, [generator])
    genuine = next(w for w in coset_identity_search(Q, A, A.dim) if w.ideal == I)
    multilinear_descent(Q, A, genuine)
    assert I in verified_ideals(Q, A)
    forged = CosetWitness(ideal=I, representatives=reps, codim=A.dim - 1, trivial=False)
    for _ in range(2):
        got = _error(multilinear_descent, Q, A, forged)
        assert got == _error(reference_descent, Q, A, forged)
        assert got[0] is WitnessInvalid


def test_early_stage_failure_is_raised_after_its_ideal_is_verified(monkeypatch):
    # x1*x2 + x2*x2 is read as multilinear, so a coset that passes the coset
    # check can fail stage 1 of 2 on an ideal whose stage 2 holds
    A = Algebra(F2, 2, [[(0, 0), (0, 0)], [(0, 0), (0, 1)]])
    Q = parse("x1*x2 + x2*x2", Flavor.FREE, F2)
    monkeypatch.setattr(Q, "_analysis", replace(Q.analyze(), multilinear=True))
    I = ideal_generated(A, [(1, 0)])
    good = CosetWitness(ideal=I, representatives=((0, 1), (0, 0)), codim=1, trivial=False)
    bad = CosetWitness(ideal=I, representatives=((0, 1), (0, 1)), codim=1, trivial=False)
    assert good in coset_identity_search(Q, A, A.dim)
    assert bad in coset_identity_search(Q, A, A.dim)
    multilinear_descent(Q, A, good)
    assert I in verified_ideals(Q, A)
    for _ in range(2):
        got = _error(multilinear_descent, Q, A, bad)
        assert got == _error(reference_descent, Q, A, bad)
        assert got[0] is TheoremViolation
        assert got[1].startswith("descent stage 1 failed at ((")


def test_zero_ideal_stage_failure_is_the_reference_failure(monkeypatch):
    # x1*x2 + x2*x2 read as multilinear, with b2*b2 = b2: it vanishes at the
    # point (b2, b2), the zero ideal's coset there, but stage 1 reads it at
    # (0, b2), where it is b2
    A = Algebra(F2, 2, [[(0, 0), (0, 0)], [(0, 0), (0, 1)]])
    Q = parse("x1*x2 + x2*x2", Flavor.FREE, F2)
    monkeypatch.setattr(Q, "_analysis", replace(Q.analyze(), multilinear=True))
    zero = zero_ideal(A)
    good = CosetWitness(ideal=zero, representatives=((0, 0), (0, 0)), codim=2, trivial=True)
    bad = CosetWitness(ideal=zero, representatives=((0, 1), (0, 1)), codim=2, trivial=True)
    found = coset_identity_search(Q, A, A.dim)
    assert good in found and bad in found
    cold = _error(multilinear_descent, Q, A, bad)
    assert cold == _error(reference_descent, Q, A, bad)
    assert cold == (TheoremViolation, "descent stage 1 failed at ((0, 0), (0, 1))")
    assert multilinear_descent(Q, A, good) == reference_descent(Q, A, good)
    assert zero in verified_ideals(Q, A)
    for _ in range(2):
        assert _error(multilinear_descent, Q, A, bad) == cold


def test_a_subspace_that_is_not_an_ideal_is_refused_on_every_call():
    # b1*b2 = b2: span(b1) squares to zero, so the coset and stage checks
    # pass on it, but it is not invariant
    A = Algebra(F2, 2, [[(0, 0), (0, 1)], [(0, 0), (0, 0)]])
    Q = parse("x1*x2", Flavor.FREE, F2)
    S = Ideal(F2, 2, ((1, 0),), (0,))
    w = CosetWitness(ideal=S, representatives=((0, 0), (0, 0)), codim=1, trivial=True)
    for _ in range(3):
        with pytest.raises(NotAnIdeal):
            multilinear_descent(Q, A, w)
    assert not verified_ideals(Q, A)


def test_enumerate_ideals_memo_keeps_the_cap_and_hands_out_copies():
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    # a search refused mid-walk (64 points per ideal, refused at the third
    # of six ideals) leaves no ideals behind, and the next walk runs in full
    with pytest.raises(SearchSpaceTooLarge, match="size 192 exceeds cap 128"):
        coset_identity_search(Q, H, H.dim, cap=128)
    assert algebra._walk_ideals not in H._memo
    first = enumerate_ideals(H)
    assert len(first) == 6 and H._memo[algebra._walk_ideals] == tuple(first)
    # the cap guards the subspace count (16 in dimension 3 over GF(2)) on a
    # warm algebra too
    with pytest.raises(SearchSpaceTooLarge, match="size 16 exceeds cap 10"):
        enumerate_ideals(H, cap=10)
    expected = list(first)
    first.clear()
    second = enumerate_ideals(H)
    assert second == expected and second is not first
    second.pop()
    second.reverse()
    assert enumerate_ideals(H) == expected == enumerate_ideals(heisenberg(2))


def test_pickling_drops_every_memo():
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, H.field)
    for w in coset_identity_search(Q, H, H.dim):
        multilinear_descent(Q, H, w)
    tables = H._memo[idtest._Tables]
    ideals = H._memo[algebra._walk_ideals]
    assert ideals and tables.ideal_members and verified_ideals(Q, H) and hash(Q)
    assert list(tables.kernels) == [(Q, False)]
    # every ideal a search visits keeps its hash; a pickled one leaves it behind
    assert all("_hash" in vars(ideal) for ideal in ideals)
    for ideal in ideals:
        assert "_hash" not in vars(pickle.loads(pickle.dumps(ideal)))
    copy = pickle.loads(pickle.dumps(H))
    assert copy == H
    assert copy._memo == {}
    assert pickle.loads(pickle.dumps(Q))._hash is None
    # the copy compiles its own kernel, and its descents match
    witnesses = coset_identity_search(Q, copy, copy.dim)
    assert copy._memo[idtest._Tables].kernels[Q, False][0] is not tables.kernels[Q, False][0]
    for w in witnesses:
        assert multilinear_descent(Q, copy, w) == multilinear_descent(Q, H, w)


def test_one_memo_holds_every_owners_entry():
    # every kind of entry: lanes counts of both readings, kernel counts on
    # either side of the 32-point gate, coset search and descent,
    # reduced_degrees and a completed ideal walk, each under its owner's
    # key in the one memo
    assert Algebra.__slots__ == ("field", "dim", "table", "bracket", "name", "basis_names", "_memo")
    M = matrix_algebra(2, 2)
    pair, square = (parse(text, Flavor.FREE, M.field) for text in ("x1*x2", "x1*x1"))
    bracket = parse("[x1,x2]", Flavor.LIE, M.field)
    assert [idtest._count_route(Q, M, M.order() ** Q.n)[0] for Q in (pair, square)] == ["lanes", "points"]
    assert [idtest._count_route(pair, M, s)[0] for s in (31, 32)] == ["slice", "lanes"]

    def answers(A):
        return (
            [zero_probability(Q, A).zero_count for Q in (pair, square)],
            [zero_probability(pair, A, samples=s, seed=s).zero_count for s in (31, 32)],
            [(w, multilinear_descent(pair, A, w)) for w in coset_identity_search(pair, A, A.dim)],
            commpoly.reduced_degrees(pair, A),
            enumerate_ideals(A),
            zero_probability(bracket, A, commutator=True).zero_count,
        )

    want = answers(M)
    owners = [algebra._walk_ideals, idtest._Tables, lanes._Tables, commpoly._cells]
    assert len(set(owners)) == 4 and set(M._memo) == set(owners)
    assert set(M._memo[lanes._Tables].products) == {False, True}
    copy = pickle.loads(pickle.dumps(M))
    assert copy == M and copy._memo == {}
    assert answers(copy) == want
    assert set(copy._memo) == set(owners)


def test_ideal_hash_memo_is_safe():
    H = heisenberg(3)
    zero = zero_ideal(H)
    for ideal in (zero, ideal_generated(H, [(0, 0, 1)])):
        ideals = [
            ideal,
            next(J for J in enumerate_ideals(H) if J.basis == ideal.basis),
            ideal_generated(H, list(ideal.basis)),
            as_ideal(H, list(ideal.basis)),
            replace(ideal),
            pickle.loads(pickle.dumps(ideal)),
        ]
        # the hash the dataclass computes from the fields, memo or not
        want = hash((ideal.field, ideal.ambient_dim, ideal.basis, ideal.pivots))
        for J in ideals:
            assert J == ideal and hash(J) == want
            assert vars(J)["_hash"] == want and hash(J) == want  # the memo, read back
            copy = pickle.loads(pickle.dumps(J))  # a hashed ideal pickles without the memo
            assert "_hash" not in vars(copy) and copy == J and hash(copy) == want
            assert "_hash" not in vars(replace(J))
        assert len(set(ideals)) == 1
    # replacing a field of a hashed ideal gives the new fields' hash, not the memo
    hash(zero)
    other = replace(zero, ambient_dim=2)
    assert hash(other) == hash((zero.field, 2, (), ())) and other != zero
    assert [f.name for f in fields(Ideal)] == ["field", "ambient_dim", "basis", "pivots"]
    assert repr(zero) == f"Ideal(field={H.field!r}, ambient_dim=3, basis=(), pivots=())"
    with pytest.raises(FrozenInstanceError):
        zero.basis = ()


def test_verification_is_kept_per_polynomial(monkeypatch):
    checked, raw = [], []
    coordinates, reference = idtest.reduced_coordinates, idtest._evaluate_raw

    def recording_coordinates(Q, B, commutator=False):
        checked.append(B)
        return coordinates(Q, B, commutator=commutator)

    def recording_raw(Q, B, args, prod):
        raw.append(B)
        return reference(Q, B, args, prod)

    monkeypatch.setattr(idtest, "reduced_coordinates", recording_coordinates)
    monkeypatch.setattr(idtest, "_evaluate_raw", recording_raw)
    U = upper_triangular(2, 2)
    I = ideal_generated(U, [(0, 1, 0)])
    w = CosetWitness(ideal=I, representatives=((0, 0, 0),) * 2, codim=2, trivial=True)
    # an equal polynomial parsed again shares the key; a different one does not
    for text, calls in (("x1*x2", 1), ("x1*x2", 0), ("x2*x1", 1), ("x2*x1", 0)):
        checked.clear()
        multilinear_descent(parse(text, Flavor.FREE, U.field), U, w)
        assert len(checked) == calls, text
        assert all(B is not U and B.dim == I.rank for B in checked)
    assert raw == []


# ---------------------------------------------------------------------------
# the final check: coordinate reduction against enumeration

BRACKETS = ("[x1,x2]", "[[x1,x2],x1]", "[[x1,x2],[x2,x1]] + [x1,x2]")


def final_check_verdicts(Q, A, commutator=False):
    """(coordinate verdict, enumerated verdict) on every ideal of A."""
    verdicts = []
    for ideal in enumerate_ideals(A):
        sub, _ = restrict(A, ideal)
        reduced = all(c.is_zero for c in reduced_coordinates(Q, sub, commutator=commutator))
        prod = _product_fn(Q, sub, commutator)
        points = product(list(sub.elements()), repeat=Q.n)
        enumerated = all(vec_is_zero(_evaluate_raw(Q, sub, args, prod)) for args in points)
        verdicts.append((reduced, enumerated))
    return verdicts


def test_final_check_matches_enumeration_on_every_dimension_two_table():
    brackets = [parse(text, Flavor.LIE, F2) for text in BRACKETS]
    seen = set()
    for tbl in product(list(product(range(2), repeat=2)), repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        cases = [(Q, False) for Q in battery_for(A)] + [(Q, True) for Q in brackets]
        for Q, commutator in cases:
            for reduced, enumerated in final_check_verdicts(Q, A, commutator):
                assert reduced == enumerated, (Q.to_text(), A.table, commutator)
                seen.add(reduced)
    assert seen == {True, False}  # ideals where e_Q vanishes and where it does not


def test_final_check_matches_enumeration_on_bracket_tables():
    for A in (heisenberg(2), heisenberg(3), strictly_upper_triangular_lie(3, 2)):
        for text in BRACKETS:
            for reduced, enumerated in final_check_verdicts(parse(text, Flavor.LIE, A.field), A):
                assert reduced == enumerated, (text, A.name)


@settings(max_examples=40, deadline=None)
@given(multilinear_cases(tuple(Flavor)))
def test_final_check_matches_enumeration_on_random_tables(case):
    Q, A = case
    for reduced, enumerated in final_check_verdicts(Q, A, commutator=Q.flavor is Flavor.LIE):
        assert reduced == enumerated


# ---------------------------------------------------------------------------
# descent witnesses rebuild their failure

def replayed_failure(witness, forced_multilinear=False):
    """Rebuild a failed descent from its witness alone (through JSON), rerun
    it and return the TheoremViolation it raises."""
    doc = json.loads(json.dumps(cli._jsonable(witness)))
    A = from_json_dict(doc["algebra"])
    Q = parse(doc["poly"], Flavor(doc["flavor"]), A.field, n=doc["n"])
    if forced_multilinear:
        Q._analysis = replace(Q.analyze(), multilinear=True)
    ideal = as_ideal(A, doc["ideal"])
    reps = tuple(map(tuple, doc["representatives"]))
    w = CosetWitness(ideal=ideal, representatives=reps, codim=ideal.codim, trivial=False)
    with pytest.raises(TheoremViolation) as info:
        multilinear_descent(Q, A, w, commutator=doc["commutator"])
    return info.value


def first_stage_failure(Q):
    """The first coset witness on a dimension-2 GF(2) table whose descent
    fails, with its TheoremViolation."""
    for tbl in product(list(product(range(2), repeat=2)), repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for w in coset_identity_search(Q, A, A.dim):
            try:
                multilinear_descent(Q, A, w)
            except TheoremViolation as exc:
                return w, exc
    pytest.fail("no coset on which the stage check fails")


def test_stage_failure_witness_replays(monkeypatch):
    # x1*x1 + x1 read as multilinear, in two variables of which x2 is unused:
    # the text names x1 only, so only the witness's n rebuilds the arity
    Q = parse("x1*x1 + x1", Flavor.FREE, F2, n=2)
    monkeypatch.setattr(Q, "_analysis", replace(Q.analyze(), multilinear=True))
    w, failure = first_stage_failure(Q)
    witness = failure.witness
    assert next(iter(witness.items())) == ("check", "descent-stage")
    assert (witness["poly"], witness["n"], witness["stage"]) == (Q.to_text(), 2, 1)
    assert str(failure) == f"descent stage 1 failed at {witness['args']!r}"
    assert witness["representatives"] == w.representatives
    assert witness["ideal"] == w.ideal.basis
    assert parse(witness["poly"], Flavor.FREE, F2).n == 1
    again = replayed_failure(witness, forced_multilinear=True)
    assert str(again) == str(failure)
    assert cli._jsonable(again.witness) == cli._jsonable(witness)


@pytest.mark.parametrize("commutator", [False, True])
def test_final_check_failure_witness_replays(monkeypatch, commutator):
    # a restricted algebra with the one product b1*b2 = b1, so neither
    # x1*x2 nor its commutator vanishes on it: the stages pass on A, and
    # the final check cannot
    def corrupted(A, ideal):
        sub, inclusion = restrict(A, ideal)
        zero, first = sub.zero_vec(), sub.basis_vec(0)
        table = [[first if (i, j) == (0, 1) else zero for j in range(sub.dim)] for i in range(sub.dim)]
        return Algebra(sub.field, sub.dim, table, name=sub.name), inclusion

    monkeypatch.setattr(idtest, "restrict", corrupted)
    T = truncated(3, 4)  # commutative, and its rank-2 ideal (x^2) squares to zero
    flavor = Flavor.LIE if commutator else Flavor.FREE
    Q = parse("[x1,x2]" if commutator else "x1*x2", flavor, T.field)
    found = coset_identity_search(Q, T, T.dim, commutator=commutator)
    w = next(w for w in found if w.ideal.rank == 2)
    with pytest.raises(TheoremViolation) as info:
        multilinear_descent(Q, T, w, commutator=commutator)
    failure = info.value
    witness = failure.witness
    assert str(failure) == "identity on the ideal fails in the restricted algebra"
    assert next(iter(witness.items())) == ("check", "descent-final")
    assert (witness["n"], witness["flavor"], witness["commutator"]) == (2, flavor.value, commutator)
    assert witness["coordinate"] not in ("", "0")
    assert "stage" not in witness and witness["algebra"] == to_json_dict(T)
    again = replayed_failure(witness)
    assert str(again) == str(failure)
    assert cli._jsonable(again.witness) == cli._jsonable(witness)
