"""Bit-sliced counts over characteristic 2 against the point walk.

The lanes route counts e_Q's zeros with each point one bit of a lane int;
_count_points, the kernel's point walk, is the reference it is checked
against, count for count.
"""

import pickle
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import cli, commpoly, idtest, lanes
from fqidtest.algebra import Algebra, builtin, matrix_algebra
from fqidtest.cli import battery_for, two_path_pairs
from fqidtest.commpoly import reduced_degrees
from fqidtest.freepoly import Flavor, FreePoly, parse
from fqidtest.gf import field_of_order
from fqidtest.idtest import _count_points, _count_route, zero_probability
from fqidtest.lanes import _count_blocks

F2 = field_of_order(2)
BRACKETS = ("[x1,x2]", "[[x1,x2],x1]", "[x1,x2] + [[x2,x1],x2]")


def points_count(Q, A, commutator=False):
    return _count_points(Q, A, commutator, 0, A.order() if Q.n else 1)


def lanes_count(Q, A, commutator=False, bits=None, split=None):
    """The lanes count in blocks of 2**bits points (the whole count by
    default), over one chunk of blocks or, with split, over the chunks
    [0, split) and [split, blocks)."""
    total = Q.n * A.dim * A.field.k
    bits = total if bits is None else bits
    blocks = 1 << (total - bits)
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
# the crossover and the blocks

def constants_table(dim, nonzero):
    """A GF(2) table of the given dimension whose first nonzero constants,
    in (s, r, t) order, are 1."""
    slots = [1] * nonzero + [0] * (dim**3 - nonzero)
    return Algebra(F2, dim, [[slots[(s * dim + r) * dim:(s * dim + r + 1) * dim] for r in range(dim)] for s in range(dim)])


def test_route_takes_lanes_from_the_crossover_on(monkeypatch):
    # lanes from lanes.MIN_POINTS (32) points on, and from lanes.RATIO (2)
    # times the product's constants: matrix(2,2) has 8, so x1*x1's 16
    # points stay on the kernel and x1*x2's 256 run on lanes; a table of 3
    # constants counts x1*x2's 16 points on the kernel and x1*x2*x3's 64 on
    # lanes; x1*x1 counts 32 points on a dimension-5 table, on lanes with
    # 16 constants and on the kernel with 17
    assert (lanes.MIN_POINTS, lanes.RATIO) == (32, 2)
    M = matrix_algebra(2, 2)
    B = Algebra(F2, 2, [[(1, 1), (0, 1)], [(0, 0), (0, 0)]])
    sparse, dense = constants_table(5, 16), constants_table(5, 17)
    assert [lanes.cost(A, False) for A in (M, B, sparse, dense)] == [8, 3, 16, 17]
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
        (x1x1, dense, "points"),
    ]
    # over GF(3) the route is the slice or point walk it was
    H = builtin("heisenberg(3)")
    cases.append((parse("[x1,x2]", Flavor.LIE, H.field), H, "slice"))
    for Q, A, route in cases:
        assert _count_route(Q, A, False)[0] == route, (Q.to_text(), A.table)
        counts = set()
        for floor, ratio in ((0, 0), (lanes.MIN_POINTS, lanes.RATIO), (1 << 64, 0)):  # lanes, as chosen, the kernel
            monkeypatch.setattr(lanes, "MIN_POINTS", floor)
            monkeypatch.setattr(lanes, "RATIO", ratio)
            counts.add(zero_probability(Q, A).zero_count)
        monkeypatch.undo()
        assert counts == {points_count(Q, A)}
    # the commutator reading has constants of its own: on B, [b1,b2] and
    # [b2,b1] are b2, and the squares cancel
    assert lanes.cost(B, True) == 2
    assert _count_route(parse("[x1,x2]", Flavor.LIE, F2), B, True)[0] != "lanes"  # 16 points
    assert _count_route(parse("[[x1,x2],x3]", Flavor.LIE, F2), B, True)[0] == "lanes"


def table_constants(A, commutator):
    """The constants of A's lane tables: each (b, outs) of a row is one XOR
    per lane in outs."""
    return sum(len(outs) for _, row in lanes._Tables(A).rows(commutator) for _, outs in row)


def test_cost_is_the_constants_of_the_lane_tables():
    tables = [*dimension_two_tables(), *(A for A in cli.library() if A.field.p == 2)]
    for q in (4, 8):
        F = field_of_order(q)
        tables.append(Algebra(F, 2, [[(1, 2), (0, 3)], [(2, 0), (1, q - 1)]]))
        tables.append(Algebra(F, 2, [[(q - 1, 1), (2, 0)], [(3 % q, 1), (0, 0)]]))
    for A in tables:
        for commutator in (False, True):
            assert lanes.cost(A, commutator) == table_constants(A, commutator), (A.table, commutator)


def test_a_kernel_count_builds_no_lane_tables():
    # the route reads the cost from A.table, and below lanes.MIN_POINTS not
    # at all, so an algebra whose counts all stay on the kernel keeps the
    # kernel's tables alone
    Q = parse("x1*x1", Flavor.FREE, F2)
    B, dense = Algebra(F2, 2, [[(1, 1), (0, 1)], [(0, 0), (0, 0)]]), constants_table(5, 17)
    for A, costs in ((B, None), (dense, {False: 17})):
        assert _count_route(Q, A, False)[0] == "points"
        assert zero_probability(Q, A).zero_count == points_count(Q, A)
        idtest.dixon_verdict(Q, A)
        assert A._lane_tables is None and A._index_tables is not None
        assert A._lane_costs == costs


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
    ],
)
def test_every_block_split_gives_the_count(monkeypatch, spec, flavor, text):
    A = builtin(spec)
    Q = parse(text, flavor, A.field)
    total = Q.n * A.dim * A.field.k
    want = points_count(Q, A)
    for bits in range(total + 1):
        blocks = 1 << (total - bits)
        for split in sorted({0, 1, blocks // 2, blocks - 1, blocks}):
            assert lanes_count(Q, A, bits=bits, split=split) == want, (bits, split)
        monkeypatch.setattr(lanes, "BLOCK_BITS", bits)
        assert zero_probability(Q, A).zero_count == want


def test_lane_ints_stay_within_the_block_cap(monkeypatch):
    # x1*x6 on matrix(2,2) counts 2**24 points in 16 blocks of 2**20 bits
    M = matrix_algebra(2, 2)
    Q = parse("x1*x6", Flavor.FREE, M.field)
    assert M.order() ** Q.n == idtest.EXACT_CAP
    widest = []
    masks = lanes._masks
    monkeypatch.setattr(lanes, "_masks", lambda bits: widest.append(bits) or masks(bits))
    pair_zeros = points_count(parse("x1*x2", Flavor.FREE, M.field), M)
    assert zero_probability(Q, M).zero_count == pair_zeros * M.order() ** 4
    assert widest == [lanes.BLOCK_BITS] == [20]
    assert all(m.bit_length() <= 1 << 20 for m in masks(20))
    assert masks.cache_info().maxsize == 4


def test_lane_masks_are_the_bits_of_the_point_index():
    for bits in range(0, 11):
        masks = lanes._masks(bits)
        assert len(masks) == bits
        for v, mask in enumerate(masks):
            assert all((mask >> p & 1) == (p >> v & 1) for p in range(1 << bits)), (bits, v)
            assert mask.bit_length() <= 1 << bits


# ---------------------------------------------------------------------------
# memos and independence

def test_lane_tables_are_kept_and_not_pickled():
    M = matrix_algebra(2, 2)
    Q = parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, M.field)
    zeros = zero_probability(Q, M).zero_count
    tables = M._lane_tables
    assert tables is not None and False in tables.products
    assert zero_probability(Q, M).zero_count == zeros and M._lane_tables is tables
    assert M._index_tables is None  # the count never built the kernel
    copy = pickle.loads(pickle.dumps(M))
    assert M._lane_costs == {False: 8}
    assert copy == M and copy._lane_tables is None and copy._lane_costs is None
    assert zero_probability(Q, copy).zero_count == zeros


def test_lanes_and_coordinate_routes_share_no_helper(monkeypatch):
    cases = [
        (parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, F2), matrix_algebra(2, 2), False),
        (parse("[[x1,x2],x3]", Flavor.LIE, F2), builtin("strictly_upper_triangular_lie(4,2)"), False),
        (parse("[x1,x2]", Flavor.LIE, F2), builtin("upper_triangular(2,2)"), True),
        (parse("x1*x2 + g*x2*x1", Flavor.FREE, field_of_order(4)), matrix_algebra(2, 4), False),
    ]
    # the coordinates, cells and masks of the other side are built first,
    # so a lanes count that reached them would find them warm
    want = []
    for Q, A, commutator in cases:
        reduced_degrees(Q, A, commutator=commutator)
        idtest.functional_zero_fraction(Q, A, commutator=commutator)
        want.append(zero_probability(Q, A, commutator=commutator).zero_count)
        assert _count_route(Q, A, commutator)[0] == "lanes"

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    coordinate_side = {
        commpoly: ("_cells", "_bit_masks", "_count_gf2", "_count_points", "zero_counter"),
        idtest: (
            "_kernel", "_compile", "_evaluate_raw", "_count_points", "_count_slices",
            "reduced_coordinates", "reduced_degrees", "zero_counter",
        ),
    }
    with monkeypatch.context() as m:
        for module, names in coordinate_side.items():
            for name in names:
                m.setattr(module, name, refuse(name))
        m.setattr(Algebra, "mul", refuse("Algebra.mul"))
        for (Q, A, commutator), zeros in zip(cases, want):
            A._lane_tables = A._lane_costs = None  # cold: both are read from A.table
            assert zero_probability(Q, A, commutator=commutator).zero_count == zeros
    # and the coordinate routes call no lane helper
    for name in ("_tables", "_plan", "_product", "_masks", "_count_blocks", "count", "cost"):
        monkeypatch.setattr(lanes, name, refuse(f"lanes.{name}"))
    for (Q, A, commutator), zeros in zip(cases, want):
        A._cells = None
        reduced_degrees(Q, A, commutator=commutator)
        fraction = idtest.functional_zero_fraction(Q, A, commutator=commutator)
        assert fraction * A.order() ** Q.n == zeros
