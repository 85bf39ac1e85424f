"""Bit-plane counts over GF(2^k) and GF(3) against the kernel's routes.

The lanes route counts e_Q's zeros with each point one bit of a plane int.
Its exact counts are checked against the kernel's point walk
(_count_range with no slice variable), and its sampled counts against
the kernel's sampled route on the same draws, count for count.
"""

import pickle
import random
import tracemalloc
from itertools import product
from operator import not_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import cli, commpoly, idtest, lanes
from fqidtest.algebra import Algebra, builtin, matrix_algebra
from fqidtest.cli import battery_for, two_path_pairs
from fqidtest.commpoly import reduced_degrees
from fqidtest.freepoly import Flavor, FreePoly, engel, parse
from fqidtest.gf import Field, field_of_order
from fqidtest.idtest import SplitMix64, _count_range, _count_route, _kernel, zero_probability
from fqidtest.lanes import _count_blocks

F2 = field_of_order(2)
F3 = field_of_order(3)
BRACKETS = ("[x1,x2]", "[[x1,x2],x1]", "[x1,x2] + [[x2,x1],x2]")
# every function and class the lanes module defines
LANE_HELPERS = sorted(
    name for name, obj in vars(lanes).items()
    if callable(obj) and getattr(obj, "__module__", None) == lanes.__name__
)


def points_count(Q, A, commutator=False):
    return _count_range((Q, A, commutator, None, 0, A.order() if Q.n else 1))


def lanes_count(Q, A, commutator=False, bits=None, split=None):
    """The lanes count in blocks of p**bits points (the whole count by
    default), over one chunk of blocks or, with split, over the chunks
    [0, split) and [split, blocks)."""
    total = Q.n * A.dim * A.field.k
    bits = total if bits is None else bits
    blocks = A.field.p ** (total - bits)
    cuts = [0, blocks] if split is None else [0, split, blocks]
    return sum(_count_blocks(Q, A, commutator, bits, start, stop) for start, stop in zip(cuts, cuts[1:]))


def assert_lanes_match_points(Q, A, commutator=False):
    assert lanes_count(Q, A, commutator) == points_count(Q, A, commutator), (Q.to_text(), A.table)


def dimension_two_tables():
    cells = list(product(range(2), repeat=2))
    for t in product(cells, repeat=4):
        yield Algebra(F2, 2, [[t[0], t[1]], [t[2], t[3]]])


# ---------------------------------------------------------------------------
# differential tests

def test_lanes_match_points_on_every_dimension_two_table():
    brackets = [parse(text, Flavor.LIE, F2) for text in BRACKETS]
    checked = 0
    for A in dimension_two_tables():
        for Q in battery_for(A):
            assert_lanes_match_points(Q, A)
            checked += 1
        for Q in brackets:
            assert_lanes_match_points(Q, A, commutator=True)
            checked += 1
    assert checked == 256 * 7


def test_lanes_match_points_on_the_library():
    pairs = [(Q, A) for Q, A in two_path_pairs() if A.field.p == 2]
    assert len(pairs) == 38
    for Q, A in pairs:
        assert_lanes_match_points(Q, A)
    brackets = [parse(text, Flavor.LIE, F2) for text in BRACKETS]
    plain = [A for A in cli.library() if A.field.p == 2 and not A.bracket]
    assert len(plain) == 5
    for A in plain:
        for Q in brackets:
            if A.order() ** Q.n <= 1 << 12:
                assert_lanes_match_points(Q, A, commutator=True)


@pytest.mark.parametrize("q", [4, 8])
def test_lanes_match_points_with_coefficients_over_gf4_and_gf8(q):
    # every coefficient other than 0 and 1, on a table holding g and g + 1
    F = field_of_order(q)
    A = Algebra(F, 2, [[(1, 2), (0, 3)], [(2, 0), (1, q - 1)]])
    for c in range(2, q):
        for terms, n in (
            ({(1, 2): c, 1: 1}, 2),
            ({(1, 1): 1, 1: c}, 1),
            ({((1, 2), 1): c, (2, 1): 1, 2: c}, 2),
        ):
            assert_lanes_match_points(FreePoly(F, Flavor.FREE, n, terms), A)
        assert_lanes_match_points(FreePoly(F, Flavor.ASSOC, 2, {(2, 1, 2): c, (1,): 1}), A)
        assert_lanes_match_points(FreePoly(F, Flavor.LIE, 2, {(1, 2): c, ((1, 2), 2): 1}), A, True)
    # the library's GF(4) matrices
    M = matrix_algebra(2, 4)
    for text in ("x1*x1", "x1*x1*x1 + g*x1"):
        assert_lanes_match_points(parse(text, Flavor.FREE, M.field), M)


@st.composite
def lane_cases(draw):
    """A random table over GF(2), GF(4) or GF(8), and a polynomial of any
    flavor, not homogeneous, with any nonzero coefficients, in 0 to 3
    variables: lie input is read as commutators on the plain table."""
    q = draw(st.sampled_from([2, 4, 8]))
    F = field_of_order(q)
    dim = draw(st.integers(0, {2: 3, 4: 2, 8: 1}[q]))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    A = Algebra(F, dim, [[draw(cell) for _ in range(dim)] for _ in range(dim)])
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(0, 3))
    while n and A.order() ** n > 1 << 12:
        n -= 1
    terms = {}
    if n:
        leaf = st.integers(1, n)
        if flavor is Flavor.ASSOC:
            term = st.lists(leaf, min_size=1, max_size=5).map(tuple)
        else:
            term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=5)
        terms = draw(st.dictionaries(term, st.integers(1, q - 1), max_size=4))
    return FreePoly(F, flavor, n, terms), A, flavor is Flavor.LIE


@settings(max_examples=80, deadline=None)
@given(lane_cases())
def test_lanes_match_points_on_random_tables(case):
    Q, A, commutator = case
    assert_lanes_match_points(Q, A, commutator)
    assert zero_probability(Q, A, commutator=commutator).zero_count == points_count(Q, A, commutator)


# ---------------------------------------------------------------------------
# GF(3): two planes per coordinate

def test_gf3_lanes_match_points_on_the_library():
    algebras = [A for A in cli.library() if A.field.q == 3]
    assert [A.name for A in algebras] == ["field(3)", "truncated(3,3)", "heisenberg(3)"]
    brackets = [parse(text, Flavor.LIE, F3) for text in (*BRACKETS, "2*[x1,x2] + [[x1,x2],x2]")]
    checked = 0
    for A in [*algebras, builtin("truncated(3,4)"), builtin("upper_triangular(2,3)")]:
        for Q in battery_for(A):
            assert_lanes_match_points(Q, A)
            checked += 1
        for Q in brackets:  # on a plain table, read as commutators
            assert_lanes_match_points(Q, A, commutator=not A.bracket)
            checked += 1
    assert checked == 5 * 8


@st.composite
def gf3_cases(draw):
    """A GF(3) table of dimension 0 to 3, random, zero-product or with every
    constant nonzero, and a polynomial of any flavor, not homogeneous, with
    coefficients 1 and 2, in 0 to 3 variables: lie input is read as
    commutators on the plain table."""
    dim = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "zero", "dense"]))
    values = {"random": st.integers(0, 2), "zero": st.just(0), "dense": st.integers(1, 2)}[kind]
    cell = st.tuples(*[values] * dim)
    A = Algebra(F3, dim, [[draw(cell) for _ in range(dim)] for _ in range(dim)])
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(0, 3))
    while n and A.order() ** n > 3**9:
        n -= 1
    terms = {}
    if n:
        leaf = st.integers(1, n)
        if flavor is Flavor.ASSOC:
            term = st.lists(leaf, min_size=1, max_size=5).map(tuple)
        else:
            term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=5)
        terms = draw(st.dictionaries(term, st.integers(1, 2), max_size=4))
    return FreePoly(F3, flavor, n, terms), A, flavor is Flavor.LIE


@settings(max_examples=80, deadline=None)
@given(gf3_cases())
def test_gf3_lanes_match_points_on_random_tables(case):
    Q, A, commutator = case
    assert_lanes_match_points(Q, A, commutator)
    assert zero_probability(Q, A, commutator=commutator).zero_count == points_count(Q, A, commutator)


# ---------------------------------------------------------------------------
# zero flags: one byte per point, off the blocks of a count

def kernel_flags(Q, A, commutator=False):
    """1 where the kernel's walk finds e_Q zero, 0 elsewhere, point by point."""
    e = _kernel(Q, A, commutator)
    return bytes(map(not_, map(e, product(range(A.order()), repeat=Q.n))))


def assert_flags_match_the_kernel(Q, A, commutator=False):
    flags = lanes.zero_flags(Q, A, commutator)
    assert flags == kernel_flags(Q, A, commutator), (Q.to_text(), A.table, commutator)
    assert sum(flags) == lanes.count(Q, A, commutator)


def test_zero_flags_match_the_kernel_on_every_dimension_two_table():
    brackets = [parse(text, Flavor.LIE, F2) for text in BRACKETS]
    for A in dimension_two_tables():
        for Q in battery_for(A):
            assert_flags_match_the_kernel(Q, A)
        for Q in brackets:
            assert_flags_match_the_kernel(Q, A, commutator=True)


@settings(max_examples=80, deadline=None)
@given(st.one_of(lane_cases(), gf3_cases()))
def test_zero_flags_match_the_kernel_on_random_tables(case):
    assert_flags_match_the_kernel(*case)


@pytest.mark.parametrize(
    "spec, flavor, text",
    [
        ("matrix(2,2)", Flavor.FREE, "x1*x2 + x2*x1*x1"),
        ("heisenberg(3)", Flavor.LIE, "[x1,x2] + [[x1,x2],x2]"),
    ],
)
def test_counts_and_flags_of_several_blocks(monkeypatch, spec, flavor, text):
    # 2**8 points over GF(2), in 16 or 4 blocks, and 3**6 over GF(3), in 81
    # or 27: the flags are the blocks' bytes in block order
    A = builtin(spec)
    Q = parse(text, flavor, A.field)
    want = kernel_flags(Q, A)
    assert 0 < sum(want) < len(want)
    for bits in (4, 6):
        monkeypatch.setattr(lanes, "BLOCK_BITS", bits)
        assert lanes._split(Q, A)[1] >= 3
        assert lanes.count(Q, A, False) == sum(want)
        assert lanes.zero_flags(Q, A, False) == want


def kernel_sampled(Q, A, commutator, seed, samples):
    """The kernel's sampled count at SplitMix64(seed)'s points."""
    e = _kernel(Q, A, commutator)
    blocks = SplitMix64(seed).points(A.field.q, A.dim, Q.n, samples)
    return sum(not e(point) for block in blocks for point in block)


def lanes_sampled(Q, A, commutator, seed, samples):
    stream = SplitMix64(seed)
    return lanes.sampled(Q, A, commutator, stream.digits(A.field.q, A.dim, Q.n, samples))


@st.composite
def sampled_cases(draw):
    """A table over GF(2), GF(3), GF(4) or GF(8) of dimension 0 to 3, a
    polynomial in 0 to 3 variables, a seed from a negative one to one past
    2**64, and a sample count at one of the first two block edges or
    short."""
    q = draw(st.sampled_from([2, 3, 4, 8]))
    F = field_of_order(q)
    dim = draw(st.integers(0, 3))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    A = Algebra(F, dim, [[draw(cell) for _ in range(dim)] for _ in range(dim)])
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(0, 3))
    terms = {}
    if n:
        leaf = st.integers(1, n)
        if flavor is Flavor.ASSOC:
            term = st.lists(leaf, min_size=1, max_size=4).map(tuple)
        else:
            term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=4)
        terms = draw(st.dictionaries(term, st.integers(1, q - 1), max_size=3))
    per_block = idtest._BLOCK_CEILING // n if n else 1
    edge = draw(st.integers(1, 2)) * per_block
    samples = draw(st.integers(max(1, edge - 1), edge + 1) | st.integers(1, 40))
    seed = draw(st.integers(-(1 << 70), -1) | st.integers(0, 1 << 66))
    return FreePoly(F, flavor, n, terms), A, flavor is Flavor.LIE, seed, samples


@settings(max_examples=60, deadline=None)
@given(sampled_cases())
def test_sampled_lanes_match_the_kernel_on_the_same_draws(case):
    Q, A, commutator, seed, samples = case
    assert lanes_sampled(Q, A, commutator, seed, samples) == kernel_sampled(Q, A, commutator, seed, samples)


@pytest.mark.parametrize(
    "spec, flavor, text, commutator",
    [
        ("heisenberg(3)", Flavor.LIE, "[x1,x2] + [[x1,x3],x2]", False),
        ("matrix(2,3)", Flavor.LIE, "2*[x1,x2] + [[x1,x2],x1]", True),
        ("matrix(2,2)", Flavor.FREE, "x1*x2*x3 - x3*x2*x1", False),
        ("matrix(2,4)", Flavor.FREE, "x1*x2 + g*x2*x1 + x1", False),
        ("matrix(2,8)", Flavor.FREE, "x1*x1*x2 + (g+1)*x2", False),
        ("truncated(3,3)", Flavor.FREE, "x1*x2 + 2*x1", False),
    ],
)
def test_sampled_lanes_match_the_kernel_at_block_edges(spec, flavor, text, commutator):
    A = builtin(spec)
    Q = parse(text, flavor, A.field)
    per_block = idtest._BLOCK_CEILING // Q.n
    for seed in (-(1 << 64) - 9, -1, 0, 1 << 64, (1 << 64) + 12345):
        for samples in (1, per_block - 1, per_block, per_block + 1, 2 * per_block + 1):
            assert lanes_sampled(Q, A, commutator, seed, samples) == kernel_sampled(
                Q, A, commutator, seed, samples
            ), (seed, samples)
    # the gate takes lanes from here on, and the count is the kernel's
    samples = idtest.LANES_MIN_POINTS
    assert _count_route(Q, A, samples)[0] == "lanes"
    rep = zero_probability(Q, A, samples=samples, seed=3, commutator=commutator)
    assert rep.zero_count == kernel_sampled(Q, A, commutator, 3, samples)


def test_sampled_lanes_read_digits_past_one_byte():
    # over GF(2^9) a digit spans two bytes of its draw, and lanes 8 and up
    # of a coordinate read the second
    F = Field(2, 9, modulus=(1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    A = Algebra(F, 2, [[(3, 300), (0, 511)], [(256, 0), (1, 0)]])
    for text in ("x1*x2 + x2*x1", "x1*x1 + (g^8+g)*x2"):
        Q = parse(text, Flavor.FREE, F)
        for seed in (-3, 1 << 64):
            assert lanes_sampled(Q, A, False, seed, 300) == kernel_sampled(Q, A, False, seed, 300)


def test_sampled_lanes_without_coordinates_or_variables():
    # a zero-dimensional algebra and a polynomial without variables draw
    # nothing, and every point is a zero
    for A in (Algebra(F3, 0, []), Algebra(F2, 0, []), builtin("heisenberg(3)")):
        flavor = Flavor.LIE if A.bracket else Flavor.FREE
        for Q in (FreePoly(A.field, flavor, 0, {}), FreePoly(A.field, flavor, 2, {})):
            assert lanes_sampled(Q, A, False, -5, 2049) == kernel_sampled(Q, A, False, -5, 2049) == 2049
        if not A.dim:
            Q = parse("x1*x2 + x2", Flavor.FREE, A.field)
            assert lanes_sampled(Q, A, False, 7, 100) == 100
            assert zero_probability(Q, A, samples=100, seed=7).zero_count == 100


# ---------------------------------------------------------------------------
# the gate and the blocks

def constants_table(dim, nonzero):
    """A GF(2) table of the given dimension whose first nonzero constants,
    in (s, r, t) order, are 1."""
    slots = [1] * nonzero + [0] * (dim**3 - nonzero)
    return Algebra(F2, dim, [[slots[(s * dim + r) * dim:(s * dim + r + 1) * dim] for r in range(dim)] for s in range(dim)])


def test_route_takes_lanes_from_the_floor_on(monkeypatch):
    # lanes from idtest.LANES_MIN_POINTS (32) points on, whatever the
    # table's constants: on matrix(2,2) x1*x1's 16 points stay on the
    # kernel and x1*x2's 256 run on lanes; a table of 3 constants counts
    # x1*x2's 16 points on the kernel and x1*x2*x3's 64 on lanes; x1*x1
    # counts 32 points on lanes on a dimension-5 table, sparse or dense
    assert idtest.LANES_MIN_POINTS == 32
    M = matrix_algebra(2, 2)
    B = Algebra(F2, 2, [[(1, 1), (0, 1)], [(0, 0), (0, 0)]])
    sparse, dense = constants_table(5, 16), constants_table(5, 125)
    x1x1, x1x2 = (parse(text, Flavor.FREE, F2) for text in ("x1*x1", "x1*x2"))
    cases = [
        (x1x1, M, "points"),
        (parse("x1*x1*x1", Flavor.FREE, F2), M, "points"),
        (x1x2, M, "lanes"),
        (parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, F2), M, "lanes"),
        (x1x1, B, "points"),
        (x1x2, B, "points"),
        (parse("x1*x2*x3", Flavor.FREE, F2), B, "lanes"),
        (x1x1, sparse, "lanes"),
        (x1x1, dense, "lanes"),
    ]
    H = builtin("heisenberg(3)")
    cases.append((parse("[x1,x2]", Flavor.LIE, H.field), H, "lanes"))
    for Q, A, route in cases:
        assert _count_route(Q, A, A.order() ** Q.n)[0] == route, (Q.to_text(), A.table)
        counts = set()
        for floor in (0, idtest.LANES_MIN_POINTS, 1 << 64):  # lanes, as chosen, the kernel
            monkeypatch.setattr(idtest, "LANES_MIN_POINTS", floor)
            counts.add(zero_probability(Q, A).zero_count)
        monkeypatch.undo()
        assert counts == {points_count(Q, A)}
    # the commutator reading takes the same gate
    for text, points, route in (("[x1,x2]", 16, "points"), ("[[x1,x2],x3]", 64, "lanes")):
        Q = parse(text, Flavor.LIE, F2)
        assert _count_route(Q, B, points)[0] == route
        assert zero_probability(Q, B, commutator=True).zero_count == points_count(Q, B, True)
    # 31 samples run on the kernel, 32 on lanes, on the sparsest table and
    # the densest
    for A in (B, dense):
        assert [_count_route(x1x1, A, s)[0] for s in (31, 32)] == ["points", "lanes"]


def test_gf3_route_takes_lanes_from_the_floor_on(monkeypatch):
    # the one gate, read at sample counts, which reach every point count:
    # lanes from idtest.LANES_MIN_POINTS on heisenberg(3), whose bracket
    # slices below it, and on a table of one constant, whose product is
    # walked point by point below it
    H = builtin("heisenberg(3)")
    one = Algebra(F3, 2, [[(0, 0), (1, 0)], [(0, 0), (0, 0)]])
    bracket, pair = parse("[x1,x2]", Flavor.LIE, F3), parse("x1*x2", Flavor.FREE, F3)
    assert [_count_route(bracket, H, s)[0] for s in (31, 32)] == ["slice", "lanes"]
    assert [_count_route(pair, one, s)[0] for s in (31, 32)] == ["points", "lanes"]
    # each count is the same on either side of the gate and on either route
    for Q, A, samples in ((bracket, H, 31), (bracket, H, 32), (pair, one, 31), (pair, one, 32)):
        counts = set()
        for floor in (0, idtest.LANES_MIN_POINTS, 1 << 64):
            monkeypatch.setattr(idtest, "LANES_MIN_POINTS", floor)
            counts.add(zero_probability(Q, A, samples=samples, seed=-samples).zero_count)
        monkeypatch.undo()
        assert len(counts) == 1


def dense_table(rng, q, dim):
    """A random table over GF(q) with three in four constants nonzero."""
    cells = [
        tuple(rng.randrange(1, q) if rng.random() < 0.75 else 0 for _ in range(dim))
        for _ in range(dim * dim)
    ]
    return Algebra(field_of_order(q), dim, [cells[s * dim:(s + 1) * dim] for s in range(dim)])


def sweep_gf3_table(rng):
    """A dimension-2 GF(3) table of the sweep benchmark's seeded shape:
    four of its eight constants nonzero."""
    slots = [0] * 8
    for k in rng.sample(range(8), 4):
        slots[k] = rng.randrange(1, 3)
    return Algebra(F3, 2, [[slots[4 * s + 2 * r:4 * s + 2 * r + 2] for r in range(2)] for s in range(2)])


WORDS = ("x1*x1", "x1*x1*x1", "x1*x1*x1*x1", "x1*x2", "x1*x2*x1")
# the commutator reading of the two-argument words; one of one argument is zero
COMMUTATORS = ("[x1,x2]", "[[x1,x2],x1]")


@pytest.mark.parametrize(
    "q, dim", [(2, 5), (2, 6), (2, 7), (2, 8), (4, 3), (8, 2), (3, 4), (3, 5), ("sweep", 2)]
)
def test_counts_on_dense_tables_match_the_point_walk(q, dim):
    # the dense tables whose counts of 32 points and more ran on the walker
    # while the route weighed the table's constants, and the sweep
    # benchmark's dimension-2 GF(3) tables, whose 81-point counts did: each
    # exact count is the forced point walk's and the coordinate route's,
    # and each sampled count at the gate's edge is the same on both feeds.
    # Twice a product's plane operations stays under 4,096 on these tables,
    # so their counts of more points ran on lanes under either gate
    rng = random.Random(f"{q}/{dim}")
    algebras = [sweep_gf3_table(rng) for _ in range(4)] if q == "sweep" else [dense_table(rng, q, dim)]
    for A in algebras:
        F = A.field
        cases = [(parse(text, Flavor.FREE, F), False) for text in WORDS]
        cases += [(parse(text, Flavor.LIE, F), True) for text in COMMUTATORS]
        if q == "sweep":
            cases += [(Q, False) for Q in battery_for(A)]
        for Q, commutator in cases:
            points = A.order() ** Q.n
            if points > 4096:
                continue
            assert (_count_route(Q, A, points)[0] == "lanes") == (points >= idtest.LANES_MIN_POINTS)
            zeros = zero_probability(Q, A, commutator=commutator).zero_count
            assert zeros == points_count(Q, A, commutator), (Q.to_text(), A.table)
            assert idtest.functional_zero_fraction(Q, A, commutator=commutator) * points == zeros
            for samples in (31, 32, 33):
                seed = rng.randrange(-(1 << 64), 1 << 64)
                want = kernel_sampled(Q, A, commutator, seed, samples)
                assert lanes_sampled(Q, A, commutator, seed, samples) == want, (Q.to_text(), samples)
                assert zero_probability(Q, A, samples=samples, seed=seed, commutator=commutator).zero_count == want


def test_no_exact_count_over_gf2k_or_gf3_slices():
    # idtest._slice_zeros spans on the tables over every field, but a slice
    # needs two arguments and order > 3 * (dim + 1), so order**n >= 49
    # points, and over GF(2^k) and GF(3) lanes take every count of 32 points
    # or more, dense tables included
    rng = random.Random(26)
    algebras = [A for A in cli.library() if A.field.q in (2, 3)]
    for q in (2, 4, 8, 3):
        F = field_of_order(q)
        for dim in range(1, 5):
            algebras.append(Algebra(F, dim, [[(q - 1,) * dim] * dim] * dim))
            for _ in range(3):
                cells = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(dim * dim)]
                algebras.append(Algebra(F, dim, [cells[s * dim:(s + 1) * dim] for s in range(dim)]))
    affine = ("x1*x2", "x2*x1*x2 + x1", "x1*x1*x2 + x2", "x2*x1 + x1*x1 + x3", "x1*x2*x3 + x3*x3")
    sliceable = 0
    for A in algebras:
        cases = list(battery_for(A))
        if A.bracket:
            cases += [engel(k, A.field) for k in (1, 2)]
        else:
            cases += [parse(text, Flavor.FREE, A.field) for text in affine]
            cases += [parse(text, Flavor.LIE, A.field) for text in BRACKETS]
        for Q in cases:
            points = A.order() ** Q.n
            if idtest._slice_variable(Q, A) is not None:
                sliceable += 1
                assert points >= 49 > idtest.LANES_MIN_POINTS, (Q.to_text(), A.table)
            assert _count_route(Q, A, points)[0] != "slice", (Q.to_text(), A.table)
    assert sliceable >= 300
    # x1 on a dimension-4 GF(2) table: 16 points, under the gate, and one
    # argument, so the point walk
    A = constants_table(4, 64)
    Q = parse("x1", Flavor.FREE, F2)
    assert _count_route(Q, A, 16) == ("points", None)
    assert zero_probability(Q, A).zero_count == points_count(Q, A) == 1


def test_one_argument_counts_never_slice():
    # the one affine polynomial of one argument is c*x1, whose one verdict
    # spans all of A and built a scale table per nonzero scalar: 4,091 of
    # them on field(4093), where the point walk needs one
    for A in [*cli.library(), builtin("field(4093)")]:
        flavor = Flavor.LIE if A.bracket else Flavor.FREE
        for c in sorted({1, A.field.q - 1}):
            Q = FreePoly(A.field, flavor, 1, {1: c})
            A._memo.clear()
            route = _count_route(Q, A, A.order())[0]
            # lanes take x1 on strictly_upper_triangular_lie(4,2), 64 points
            assert route == "points" or (route == "lanes" and A.field.q in (2, 3)), (A.name, c)
            assert zero_probability(Q, A).zero_count == 1  # c*x1 vanishes at 0 alone
            tables = A._memo.get(idtest._Tables)
            assert tables is None or len(tables.scales) <= 1, (A.name, c)
            assert points_count(Q, A) == 1
    Q = parse("x1", Flavor.FREE, field_of_order(65521))
    assert _count_route(Q, builtin("field(65521)"), 65521) == ("points", None)


def test_a_kernel_count_builds_no_lane_tables():
    # a count of fewer than idtest.LANES_MIN_POINTS points or samples runs
    # on the kernel and builds no lane tables; an exact count of 32 points
    # builds them, for its own reading alone, and no kernel tables
    Q = parse("x1*x1", Flavor.FREE, F2)
    B, dense = Algebra(F2, 2, [[(1, 1), (0, 1)], [(0, 0), (0, 0)]]), constants_table(5, 17)
    assert B.order() < idtest.LANES_MIN_POINTS == dense.order()
    assert zero_probability(Q, B).zero_count == points_count(Q, B)
    idtest.dixon_verdict(Q, B)
    assert zero_probability(Q, dense, samples=31, seed=2).zero_count == kernel_sampled(Q, dense, False, 2, 31)
    for A in (B, dense):
        assert idtest._Tables in A._memo and lanes._Tables not in A._memo
    dense._memo.clear()
    zeros = zero_probability(Q, dense).zero_count
    assert set(dense._memo) == {lanes._Tables}
    tables = dense._memo[lanes._Tables]
    assert set(tables.products) == {False} and not tables.scales
    assert zeros == points_count(Q, dense)


def test_a_block_keeps_only_the_nodes_still_to_be_read():
    # x1*x1*...*x5*x5 on matrix(2,2) is one block of 2**20 points and a
    # chain of 9 products, each 4 lane ints of 128 KiB: a product is
    # dropped once the next one is built, so the count peaks under 4
    # products' worth, where keeping them all took over 10
    M = matrix_algebra(2, 2)
    Q = parse("x1*x1*x2*x2*x3*x3*x4*x4*x5*x5", Flavor.FREE, M.field)
    assert Q.n * M.dim == lanes.BLOCK_BITS == 20
    zeros = lanes.count(Q, M, False)  # the masks and tables, built before tracing
    tracemalloc.start()
    try:
        assert lanes.count(Q, M, False) == zeros == 902_464
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * M.dim * (1 << 20) // 8
    # each node is dropped by the step or term that reads it last, where a
    # term may read a node that a step reads too
    for flavor, text in [
        (Flavor.FREE, "x1*x1*x2*x2*x3*x3*x4*x4*x5*x5"),
        (Flavor.FREE, "x1*x2 + x1*x2*x3 + x3*x2*x1"),
        (Flavor.ASSOC, "x1*x2 + x1*x2*x1 + x2"),
        (Flavor.LIE, "[[x1,x2],x3] + [x3,x1] + [x1,x2]"),
    ]:
        steps, terms = lanes._plan(parse(text, flavor, F2))
        reads = [(left, right) for left, right, _ in steps] + [(node,) for node, _, _ in terms]
        deads = [dead for *_, dead in steps] + [dead for *_, dead in terms]
        for node in {x for read in reads for x in read}:
            last = max(i for i, read in enumerate(reads) if node in read)
            assert [i for i, dead in enumerate(deads) if node in dead] == [last], (text, node)


@pytest.mark.parametrize(
    "spec, flavor, text",
    [
        ("matrix(2,2)", Flavor.FREE, "x1*x2*x3 - x3*x2*x1"),  # 12 bits
        ("matrix(2,4)", Flavor.FREE, "x1*x1 + g*x1"),  # 8 bits over GF(4)
        ("heisenberg(2)", Flavor.LIE, "[[x1,x2],x3] + [x3,x1]"),  # 9 bits, a bracket
        ("heisenberg(3)", Flavor.LIE, "[x1,x2] + 2*[[x2,x1],x1]"),  # 6 digits over GF(3)
        ("truncated(3,4)", Flavor.FREE, "x1*x2*x1 + 2*x2 + x1*x1"),  # 6 digits
        ("field(3)", Flavor.FREE, "x1*x2*x3 + 2*x3*x3 + x1"),  # 3 digits
    ],
)
def test_every_block_split_gives_the_count(monkeypatch, spec, flavor, text):
    A = builtin(spec)
    Q = parse(text, flavor, A.field)
    p, total = A.field.p, Q.n * A.dim * A.field.k
    want = points_count(Q, A)
    for digits in range(total + 1):
        blocks = p ** (total - digits)
        for split in sorted({0, 1, blocks // 2, blocks - 1, blocks}):
            assert lanes_count(Q, A, bits=digits, split=split) == want, (digits, split)
    # blocks of up to 2**bits points: p**digits with digits the most that fit
    for bits in range((p**total).bit_length() + 1):
        monkeypatch.setattr(lanes, "BLOCK_BITS", bits)
        assert lanes.count(Q, A, False) == zero_probability(Q, A).zero_count == want


def test_lane_ints_stay_within_the_block_cap(monkeypatch):
    # x1*x6 on matrix(2,2) counts 2**24 points in 16 blocks of 2**20 bits
    M = matrix_algebra(2, 2)
    Q = parse("x1*x6", Flavor.FREE, M.field)
    assert M.order() ** Q.n == idtest.EXACT_CAP
    widest = []
    masks = lanes._masks
    monkeypatch.setattr(lanes, "_masks", lambda p, digits: widest.append((p, digits)) or masks(p, digits))
    pair_zeros = points_count(parse("x1*x2", Flavor.FREE, M.field), M)
    assert zero_probability(Q, M).zero_count == pair_zeros * M.order() ** 4
    assert widest == [(2, lanes.BLOCK_BITS)] == [(2, 20)]
    assert all(m.bit_length() <= 1 << 20 for m in masks(2, 20))
    # over GF(3) a block holds 3**12 points, the most under 2**20: x1*x1*x2
    # on heisenberg(3) (3**9 points a copy) times x3..x5 is 3**15 points,
    # 27 blocks whose masks hold 24 planes of 66,431 bytes, 1.6 MB
    H = builtin("heisenberg(3)")
    widest.clear()
    Q = parse("[[x1,x1],x2] + [[x3,x4],x5]", Flavor.LIE, H.field)
    assert H.order() ** Q.n == 3**15 <= idtest.EXACT_CAP
    assert zero_probability(Q, H).zero_count == H.order() ** 5
    assert widest == [(3, 12)]
    assert sum(m.bit_length() for m in masks(3, 12)) <= 24 * 3**12 <= 2.5e6 * 8
    assert masks.cache_info().maxsize == 4


def test_lane_masks_are_the_bits_of_the_point_index():
    # plane d - 1 of digit v has bit i set where base-p digit v of i is d:
    # over GF(2) bit v of i, and over GF(3) where digit v is 1, then 2
    for p, digits in [(2, digits) for digits in range(11)] + [(3, digits) for digits in range(7)]:
        masks = lanes._masks(p, digits)
        assert len(masks) == (p - 1) * digits
        for v in range(digits):
            for d in range(1, p):
                mask = masks[(p - 1) * v + d - 1]
                assert all((mask >> i & 1) == (i // p**v % p == d) for i in range(p**digits)), (digits, v, d)
                assert mask.bit_length() <= p**digits


# ---------------------------------------------------------------------------
# memos and independence

def test_lane_tables_are_kept_and_not_pickled():
    M = matrix_algebra(2, 2)
    Q = parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, M.field)
    zeros = zero_probability(Q, M).zero_count
    tables = M._memo[lanes._Tables]
    assert set(tables.products) == {False}
    assert zero_probability(Q, M).zero_count == zeros and M._memo[lanes._Tables] is tables
    assert set(M._memo) == {lanes._Tables}  # the count never built the kernel
    copy = pickle.loads(pickle.dumps(M))
    assert copy == M and copy._memo == {}
    assert zero_probability(Q, copy).zero_count == zeros


def test_lanes_and_coordinate_routes_share_no_helper(monkeypatch):
    cases = [
        (parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, F2), matrix_algebra(2, 2), False),
        (parse("[[x1,x2],x3]", Flavor.LIE, F2), builtin("strictly_upper_triangular_lie(4,2)"), False),
        (parse("[x1,x2]", Flavor.LIE, F2), builtin("upper_triangular(2,2)"), True),
        (parse("x1*x2 + g*x2*x1", Flavor.FREE, field_of_order(4)), matrix_algebra(2, 4), False),
        (parse("[[x1,x2],x3] + 2*[x3,x1]", Flavor.LIE, F3), builtin("heisenberg(3)"), False),
        (parse("2*[x1,x2] + [[x1,x2],x1]", Flavor.LIE, F3), builtin("matrix(2,3)"), True),
    ]
    assert {
        "_tables", "_plan", "_product2", "_product3", "_add3", "_program", "_nonzeros",
        "_masks", "_count_blocks", "_block_masks", "count", "zero_flags", "sampled",
    } <= set(LANE_HELPERS)
    # the coordinates, cells and masks of the other side are built first,
    # so a lanes count that reached them would find them warm; each exact
    # count and a sampled count of 500 points run on lanes
    want = []
    for Q, A, commutator in cases:
        reduced_degrees(Q, A, commutator=commutator)
        idtest.functional_zero_fraction(Q, A, commutator=commutator)
        want.append((
            zero_probability(Q, A, commutator=commutator).zero_count,
            zero_probability(Q, A, samples=500, seed=-7, commutator=commutator).zero_count,
        ))
        assert _count_route(Q, A, A.order() ** Q.n)[0] == "lanes"
        assert _count_route(Q, A, 500)[0] == "lanes"

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    coordinate_side = {
        commpoly: ("_cells", "_plan", "_bit_masks", "_count_gf2", "_count_points", "zero_counter"),
        idtest: (
            "_kernel", "_compile", "_evaluate_raw", "_count_range",
            "reduced_coordinates", "reduced_degrees", "zero_counter",
        ),
    }
    with monkeypatch.context() as m:
        for module, names in coordinate_side.items():
            for name in names:
                m.setattr(module, name, refuse(name))
        m.setattr(Algebra, "mul", refuse("Algebra.mul"))
        for (Q, A, commutator), (zeros, sampled) in zip(cases, want):
            A._memo.pop(lanes._Tables)  # cold: the tables are read from A.table
            assert zero_probability(Q, A, commutator=commutator).zero_count == zeros
            assert sum(lanes.zero_flags(Q, A, commutator)) == zeros
            A._memo.pop(lanes._Tables)
            assert zero_probability(Q, A, samples=500, seed=-7, commutator=commutator).zero_count == sampled
    # and the coordinate routes call no lane helper
    for name in LANE_HELPERS:
        monkeypatch.setattr(lanes, name, refuse(f"lanes.{name}"))
    for (Q, A, commutator), (zeros, _) in zip(cases, want):
        A._memo.pop(commpoly._cells)
        reduced_degrees(Q, A, commutator=commutator)
        fraction = idtest.functional_zero_fraction(Q, A, commutator=commutator)
        assert fraction * A.order() ** Q.n == zeros
