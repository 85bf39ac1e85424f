"""Block statistics on the kernel, against the reference tally.

reference_block_statistics restates block_statistics as it read before its
tally moved to the element-index kernel: every point of (A/J)^n evaluated
on _evaluate_raw and keyed by projecting each argument's lift into A/I,
and the block average checked against zero_probability.  block_statistics
must give its BlockReport field for field and refuse what it refuses with
the same errors.  Each of its five TheoremViolations, forced by one wrong
route, must carry a witness that rebuilds the call, from the CLI too.
"""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import cli, idtest
from fqidtest.algebra import (
    Algebra,
    Ideal,
    _check_ambient,
    as_ideal,
    enumerate_ideals,
    from_json_dict,
    full_ideal,
    heisenberg,
    ideal_generated,
    matrix_algebra,
    quotient,
    to_json_dict,
    truncated,
    vec_is_zero,
    zero_ideal,
)
from fqidtest.cli import battery_for, descent_library
from fqidtest.errors import (
    FieldMismatch,
    FlavorMismatch,
    NotNested,
    SearchSpaceTooLarge,
    TheoremViolation,
)
from fqidtest.freepoly import Flavor, FreePoly, engel, parse
from fqidtest.gf import field_of_order
from fqidtest.idtest import (
    BlockReport,
    BlockStat,
    _evaluate_raw,
    _product_fn,
    block_statistics,
    zero_probability,
)

F2 = field_of_order(2)


# ---------------------------------------------------------------------------
# the reference: the tally on coordinate tuples

def reference_block_statistics(Q, A, ideal_i, ideal_j, *, cap=idtest.EXACT_CAP, commutator=False):
    _product_fn(Q, A, commutator)
    _check_ambient(A, ideal_i)
    _check_ambient(A, ideal_j)
    if not ideal_j <= ideal_i:
        raise NotNested("the second ideal must sit inside the first")

    inner_alg, inner_map = quotient(A, ideal_j)
    outer_alg, outer_map = quotient(A, ideal_i)
    n = Q.n
    degree = 0 if Q.is_zero else Q.analyze().degree
    threshold = 1 - Fraction(1, 2**degree)
    if inner_alg.order() ** n > cap:
        raise SearchSpaceTooLarge(inner_alg.order() ** n, cap)

    inner_prod = _product_fn(Q, inner_alg, commutator)
    outer_prod = _product_fn(Q, outer_alg, commutator)

    tallies = {}
    inner_elems = list(inner_alg.elements())
    for args in product(inner_elems, repeat=n):
        key = tuple(outer_map.project(inner_map.lift(v)) for v in args)
        bucket = tallies.setdefault(key, [0, 0])
        bucket[1] += 1
        if vec_is_zero(_evaluate_raw(Q, inner_alg, args, inner_prod)):
            bucket[0] += 1

    block_size = (ideal_i.size() // ideal_j.size()) ** n
    blocks = []
    outer_zero_keys = 0
    for key in product(list(outer_alg.elements()), repeat=n):
        zeros, total = tallies[key]
        if total != block_size:
            raise TheoremViolation(
                f"block over {key!r} has {total} points, expected {block_size}"
            )
        outer_zero = vec_is_zero(_evaluate_raw(Q, outer_alg, key, outer_prod))
        outer_zero_keys += outer_zero
        if not outer_zero and zeros:
            raise TheoremViolation(
                f"zeros in a block over a nonzero of the outer quotient: {key!r}"
            )
        fraction = Fraction(zeros, total)
        identically_zero = zeros == total
        if not identically_zero and fraction > threshold:
            raise TheoremViolation(
                f"non-vanishing block over {key!r} has zero fraction "
                f"{fraction} above {threshold}"
            )
        blocks.append(
            BlockStat(
                key=key,
                outer_zero=outer_zero,
                zero_count=zeros,
                total=total,
                fraction=fraction,
                identically_zero=identically_zero,
            )
        )

    f_outer = Fraction(outer_zero_keys, outer_alg.order() ** n)
    f_inner = zero_probability(Q, inner_alg, cap=cap, commutator=commutator).probability
    weighted = Fraction(sum(b.zero_count for b in blocks), inner_alg.order() ** n)
    if weighted != f_inner:
        raise TheoremViolation(
            f"block zero counts average to {weighted}, "
            f"direct enumeration gives {f_inner}"
        )

    decay_hypothesis = not any(b.outer_zero and b.identically_zero for b in blocks)
    decay_holds = f_inner <= threshold * f_outer
    if decay_hypothesis and not decay_holds:
        raise TheoremViolation(
            f"decay f(Q,J) <= (1 - 2^-{degree}) f(Q,I) fails: "
            f"{f_inner} vs {threshold * f_outer}"
        )
    return BlockReport(
        degree=degree,
        threshold=threshold,
        f_outer=f_outer,
        f_inner=f_inner,
        decay_hypothesis=decay_hypothesis,
        decay_holds=decay_holds,
        blocks=tuple(blocks),
    )


def assert_matches_reference(Q, A, ideal_i, ideal_j, commutator=False):
    got = block_statistics(Q, A, ideal_i, ideal_j, commutator=commutator)
    want = reference_block_statistics(Q, A, ideal_i, ideal_j, commutator=commutator)
    assert got == want, (Q.to_text(), A.table, ideal_i.basis, ideal_j.basis, commutator)
    for b in got.blocks:
        assert (type(b.outer_zero), type(b.identically_zero)) == (bool, bool)
    return got


def nested_pairs(A):
    ideals = enumerate_ideals(A)
    return [(I, J) for I in ideals for J in ideals if J <= I]


def chain(A):
    """A chain of ideals from the zero ideal to the full one: each link the
    first ideal, in enumerate_ideals order, of least rank above the last
    that contains it."""
    links = [zero_ideal(A)]
    for ideal in sorted(enumerate_ideals(A), key=lambda ideal: ideal.rank):
        if ideal.rank > links[-1].rank and links[-1] <= ideal:
            links.append(ideal)
    return links


def chain_pairs(A):
    links = chain(A)
    return [(I, J) for k, I in enumerate(links) for J in links[: k + 1]]


# ---------------------------------------------------------------------------
# differential sweeps

def test_every_nested_pair_of_every_dimension_two_table_matches_the_reference():
    cells = list(product(range(2), repeat=2))
    calls = 0
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for I, J in nested_pairs(A):
            for Q in battery_for(A):
                assert_matches_reference(Q, A, I, J)
                calls += 1
    assert calls == 4224


@pytest.mark.parametrize("A", descent_library(), ids=lambda A: A.name)
def test_library_chains_match_the_reference(A):
    # the battery, Engel words on brackets and commutators on plain tables,
    # on (A/J)^n of at most 256 points: the reference takes about 10 us a
    # point.  strictly_upper_triangular_lie(4,2) is left out: its ideal walk
    # alone takes about 0.1 s.
    cases = [(Q, False) for Q in battery_for(A)]
    if A.bracket:
        cases += [(engel(1, A.field), False), (engel(2, A.field), False)]
    else:
        cases += [(parse(t, Flavor.LIE, A.field), True) for t in ("[x1,x2]", "[[x1,x2],x1] + [x2,x1]")]
    checked = 0
    for I, J in chain_pairs(A):
        for Q, commutator in cases:
            if quotient(A, J)[0].order() ** Q.n <= 256:
                assert_matches_reference(Q, A, I, J, commutator)
                checked += 1
    assert checked >= len(cases)


# not homogeneous, with coefficients other than 1, zero, and without variables
FREE_TEXTS = ("x1*x2 + x1", "x1*x1 + x2", "x1", "x1*(x2*x1) + x2*x2", "0")
LIE_TEXTS = ("[x1,x2] + x1", "[[x1,x2],x1] + [x2,x1]")


@st.composite
def block_cases(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 2 if q > 2 else 3))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    if draw(st.booleans()):
        table = [[(0,) * dim] * dim for _ in range(dim)]  # every product is zero
    else:
        table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    A = Algebra(F, dim, table)
    commutator = draw(st.booleans())
    if commutator:
        Q = parse(draw(st.sampled_from(LIE_TEXTS)), Flavor.LIE, F)
    else:
        Q = parse(draw(st.sampled_from(FREE_TEXTS)), Flavor.FREE, F)
    if not Q.is_zero:
        Q = Q.scale(draw(st.integers(1, q - 1)))
    elif draw(st.booleans()):
        Q = FreePoly(F, Flavor.FREE, draw(st.integers(1, 2)), {})  # zero, in variables
    ideals = enumerate_ideals(A)
    I = draw(st.sampled_from(ideals))
    J = draw(st.sampled_from([J for J in ideals if J <= I]))
    return Q, A, I, J, commutator


@settings(max_examples=25, deadline=None)
@given(block_cases())
def test_random_tables_match_the_reference(case):
    Q, A, I, J, commutator = case
    assert_matches_reference(Q, A, I, J, commutator)


def test_zero_polynomial_without_variables_is_one_block():
    T = truncated(2, 4)
    Q = parse("0", Flavor.FREE, T.field)
    assert Q.n == 0
    for I, J in chain_pairs(T):
        rep = assert_matches_reference(Q, T, I, J)
        assert rep.f_inner == rep.f_outer == 1 and len(rep.blocks) == 1


# ---------------------------------------------------------------------------
# refusals

def _refusal(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value), info.value.args


def test_refusals_are_the_reference_refusals():
    T = truncated(2, 4)
    small = ideal_generated(T, [(0, 0, 1)])
    big = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    H, M = heisenberg(3), matrix_algebra(2, 2)
    cases = [
        (NotNested, parse("x1*x1", Flavor.FREE, T.field), T, small, big, False),
        (FieldMismatch, parse("x1*x1", Flavor.FREE, field_of_order(3)), T, big, small, False),
        # commutator=True on free input, and on a bracket table
        (FlavorMismatch, parse("x1*x2", Flavor.FREE, M.field), M, full_ideal(M), zero_ideal(M), True),
        (FlavorMismatch, parse("[x1,x2]", Flavor.LIE, H.field), H, full_ideal(H), zero_ideal(H), True),
    ]
    for error, Q, A, I, J, commutator in cases:
        got = _refusal(block_statistics, Q, A, I, J, commutator=commutator)
        assert got[0] is error
        assert got == _refusal(reference_block_statistics, Q, A, I, J, commutator=commutator)


@pytest.mark.parametrize(
    "A, flavor, text, commutator",
    [
        (truncated(2, 4), Flavor.FREE, "x1*x2", False),
        (heisenberg(3), Flavor.LIE, "[x1,x2]", False),
        (matrix_algebra(2, 2), Flavor.LIE, "[x1,x2]", True),
        (truncated(3, 3), Flavor.FREE, "x1*x1*x1", False),
    ],
)
def test_the_cap_bounds_the_inner_points_as_before(A, flavor, text, commutator):
    Q = parse(text, flavor, A.field)
    I, J = full_ideal(A), chain(A)[1]
    points = quotient(A, J)[0].order() ** Q.n
    kwargs = {"commutator": commutator}
    got = block_statistics(Q, A, I, J, cap=points, **kwargs)
    assert got == reference_block_statistics(Q, A, I, J, cap=points, **kwargs)
    refused = _refusal(block_statistics, Q, A, I, J, cap=points - 1, **kwargs)
    assert refused == _refusal(reference_block_statistics, Q, A, I, J, cap=points - 1, **kwargs)
    assert refused[:2] == (
        SearchSpaceTooLarge, f"search space of size {points} exceeds cap {points - 1}"
    )


# ---------------------------------------------------------------------------
# forced violations replay from their witnesses


class UnderstatedProduct(Fraction):
    """1 - 2^-d for the block checks, but 0 in the decay product.

    The decay inequality follows from the block and average checks for
    every real threshold: zeros sit only in blocks over zeros of Q_I, and
    each of those that does not vanish has at most the threshold's share.
    A real lie in one route cannot break it alone, so this one does.
    """

    def __mul__(self, other):
        return Fraction(0)


def _never_zero(Q, A, commutator):
    return lambda args: 0


def _zero_threshold(degree):
    return Fraction(0)


VIOLATIONS = {
    # Ideal.size understated: every block of 4 points is expected to hold 1
    "size": (
        "0,1,0;0,0,1", "zero", lambda m: m.setattr(Ideal, "size", lambda self: 1),
        "block over ((0,),) has 4 points, expected 1", ("key", "zero_count", "total"),
    ),
    # the kernel says every point is a zero, t * t = t^2 included
    "outer": (
        "zero", "zero", lambda m: m.setattr(idtest, "_kernel", _never_zero),
        "zeros in a block over a nonzero of the outer quotient: ((1, 0, 0),)",
        ("key", "zero_count", "total"),
    ),
    # the threshold 0: the one block, half zeros, is above it
    "threshold": (
        "full", "zero", lambda m: m.setattr(idtest, "_threshold", _zero_threshold),
        "non-vanishing block over ((),) has zero fraction 1/2 above 0",
        ("key", "zero_count", "total"),
    ),
    # the coordinate route reads 0 where the blocks average to 1/2
    "average": (
        "0,1,0;0,0,1", "zero",
        lambda m: m.setattr(idtest, "functional_zero_fraction", lambda *a, **k: Fraction(0)),
        "block zero counts average to 1/2, direct enumeration gives 0", ("weighted", "f_inner"),
    ),
    "decay": (
        "full", "zero",
        lambda m: m.setattr(idtest, "_threshold", lambda degree: UnderstatedProduct(3, 4)),
        "decay f(Q,J) <= (1 - 2^-2) f(Q,I) fails: 1/2 vs 0", ("f_inner", "f_outer", "threshold"),
    ),
}


def replayed(witness):
    """Rebuild a failed block_statistics call from its witness alone, rerun
    it and return the TheoremViolation it raises."""
    A = from_json_dict(witness["algebra"])
    Q = parse(witness["poly"], Flavor(witness["flavor"]), A.field, n=witness["n"])
    I, J = as_ideal(A, witness["ideal_i"]), as_ideal(A, witness["ideal_j"])
    with pytest.raises(TheoremViolation) as info:
        block_statistics(Q, A, I, J, commutator=witness["commutator"])
    return info.value


@pytest.mark.parametrize("check", list(VIOLATIONS))
def test_forced_violation_replays_from_its_witness(check, monkeypatch, capsys):
    ideal_i, ideal_j, patch, message, found = VIOLATIONS[check]
    T = truncated(2, 4)
    Q = parse("x1*x1", Flavor.FREE, T.field)
    I, J = cli._ideal_arg(T, ideal_i), cli._ideal_arg(T, ideal_j)
    assert block_statistics(Q, T, I, J) == reference_block_statistics(Q, T, I, J)
    patch(monkeypatch)
    with pytest.raises(TheoremViolation) as info:
        block_statistics(Q, T, I, J)
    failure = info.value
    assert str(failure) == message
    witness = failure.witness
    assert list(witness) == [
        "check", "poly", "n", "flavor", "commutator", "algebra", "ideal_i", "ideal_j", *found,
    ]
    assert witness["check"] == "blocks"
    assert (witness["poly"], witness["n"], witness["commutator"]) == ("x1*x1", 1, False)
    assert witness["algebra"] == to_json_dict(T)
    assert (witness["ideal_i"], witness["ideal_j"]) == (I.basis, J.basis)

    # fqidtest blocks exits 1 and prints the message and the witness
    capsys.readouterr()
    rc = cli.main([
        "blocks", "--algebra", "builtin:truncated(2,4)", "--poly", "x1*x1",
        "--ideal-i", ideal_i, "--ideal-j", ideal_j,
    ])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc == {"theorem_violation": message, "witness": cli._jsonable(witness)}

    # the printed witness alone rebuilds the call, which fails the same way
    again = replayed(doc["witness"])
    assert str(again) == message
    assert cli._jsonable(again.witness) == doc["witness"]
