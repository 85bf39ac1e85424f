"""The element-index kernel against the reference evaluator, point by point."""

import multiprocessing
import os
import random
import re
import tracemalloc
from collections import Counter
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitmix_reference import ScalarSplitMix64

from fqidtest import bound, cli, freepoly, idtest, lanes
from fqidtest.algebra import (
    Algebra,
    field_as_algebra,
    heisenberg,
    ideal_generated,
    matrix_algebra,
    truncated,
    vec_add,
    vec_scale,
    vec_sub,
)
from fqidtest.cli import battery_for, descent_library
from fqidtest.commpoly import reduced_coordinates, reduced_degrees
from fqidtest.errors import FieldMismatch, FlavorMismatch, SearchSpaceTooLarge
from fqidtest.freepoly import Flavor, FreePoly, parse, power_word, term_sort_key, zero
from fqidtest.gf import Field, field_of_order
from fqidtest.idtest import (
    EXACT_CAP,
    SplitMix64,
    _count_range,
    _evaluate_raw,
    _kernel,
    _product_fn,
    _slice_variable,
    _tables,
    evaluate,
    zero_probability,
)

F2 = field_of_order(2)


def closure_kernel(Q, tables, mul):
    """e_Q on element indices as a tree of closures: one per product node,
    one itemgetter per leaf and one per scaled term, with a shared subterm
    run once per occurrence.  The kernel was compiled this way before it
    became one generated function, and it stays here as the route the
    generated kernel is checked against."""
    order = tables.order

    def tree(t):
        if isinstance(t, int):
            return itemgetter(t - 1)
        left, right = tree(t[0]), tree(t[1])
        return lambda args: mul[left(args) * order + right(args)]

    def chain(term):
        # folded left, as _eval_term reads an assoc word
        head = term[0] - 1
        tail = [i - 1 for i in term[1:]]

        def run(args):
            acc = args[head]
            for i in tail:
                acc = mul[acc * order + args[i]]
            return acc

        return run

    def scaled(part, c):
        table = tables.scale(c)
        return lambda args: table[part(args)]

    compile_term = chain if Q.flavor is Flavor.ASSOC else tree
    parts = []
    for term, coeff in Q.terms.items():
        part = compile_term(term)
        parts.append(part if coeff == 1 else scaled(part, coeff))

    if len(parts) == 1:
        return parts[0]  # 0 + v = v

    if tables.field.p == 2:
        # coordinates add as bit fields, so vectors add as their indices' XOR
        def e(args):
            acc = 0
            for part in parts:
                acc ^= part(args)
            return acc

        return e

    add = tables.add()

    def e(args):
        acc = 0
        for part in parts:
            acc = add[acc * order + part(args)]
        return acc

    return e


def assert_kernel_matches(Q, A, commutator=False):
    """The kernel's value index names the reference value at every point,
    and the closure route gives the same index."""
    e = _kernel(Q, A, commutator)
    prod = _product_fn(Q, A, commutator)
    tables = _tables(A)
    closures = closure_kernel(Q, tables, tables.product(commutator, prod))
    elems = list(A.elements())
    for indices in product(range(A.order()), repeat=Q.n):
        args = tuple(elems[i] for i in indices)
        assert elems[e(indices)] == _evaluate_raw(Q, A, args, prod), (Q.to_text(), indices)
        assert closures(indices) == e(indices), (Q.to_text(), indices)


def sampled_recount(Q, A, samples, seed, commutator=False):
    """Zeros at the SplitMix64 draws, per sample, argument and coordinate,
    drawn one at a time by the scalar reference."""
    rng = ScalarSplitMix64(seed)
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
        plain = battery_for(A)
        # the second pass runs on the memoised kernels
        for _ in range(2):
            for Q in plain:
                assert_kernel_matches(Q, A)
            for Q in brackets:
                assert_kernel_matches(Q, A, commutator=True)
        # each flag has its own entries
        assert set(A._memo[idtest._Tables].kernels) == (
            {(Q, False) for Q in plain} | {(Q, True) for Q in brackets}
        )


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
# the kernel memo

def test_kernel_is_compiled_once_per_polynomial_and_flag():
    A = matrix_algebra(2, 2)
    Q = parse("x1*x2 - x2*x1", Flavor.FREE, A.field)
    e = _kernel(Q, A, False)
    assert _kernel(Q, A, False) is e
    twin = FreePoly(Q.field, Q.flavor, Q.n, dict(reversed(list(Q.terms.items()))))
    assert twin == Q and twin is not Q
    assert _kernel(twin, A, False) is e
    bracket = parse("[x1,x2]", Flavor.LIE, A.field)
    assert _kernel(bracket, A, True) is not e
    assert list(A._memo[idtest._Tables].kernels) == [(Q, False), (bracket, True)]
    # a fresh algebra equal to A compiles its own
    assert _kernel(Q, matrix_algebra(2, 2), False) is not e


def test_gates_still_raise_after_a_compile():
    A = matrix_algebra(2, 2)
    bracket = parse("[x1,x2]", Flavor.LIE, A.field)
    _kernel(bracket, A, True)
    kernels = dict(A._memo[idtest._Tables].kernels)
    with pytest.raises(FlavorMismatch, match="pass commutator=True"):
        _kernel(bracket, A, False)
    with pytest.raises(FlavorMismatch, match="only applies to lie-flavor input"):
        _kernel(parse("x1*x2", Flavor.FREE, A.field), A, True)
    with pytest.raises(FieldMismatch):
        _kernel(parse("[x1,x2]", Flavor.LIE, field_of_order(3)), A, True)
    H = heisenberg(2)
    _kernel(bracket, H, False)
    with pytest.raises(FlavorMismatch, match="plain product table"):
        _kernel(bracket, H, True)
    assert A._memo[idtest._Tables].kernels == kernels
    assert list(H._memo[idtest._Tables].kernels) == [(bracket, False)]


def test_search_and_descents_compile_each_kernel_once(monkeypatch):
    compiles = Counter()
    compile_kernel = idtest._compile

    def counting(Q, tables, mul):
        compiles[Q, id(tables), id(mul)] += 1
        return compile_kernel(Q, tables, mul)

    monkeypatch.setattr(idtest, "_compile", counting)
    pairs = descents = 0
    for A in descent_library():
        for Q in battery_for(A):
            if not Q.analyze().multilinear:
                continue
            pairs += 1
            for w in idtest.coset_identity_search(Q, A, A.dim):
                idtest.multilinear_descent(Q, A, w)
                descents += 1
    assert descents > 10 * pairs
    assert len(compiles) == pairs
    assert set(compiles.values()) == {1}


# ---------------------------------------------------------------------------
# the generated function: robustness, shared subterms and its source

def kernel_check(payload):
    """The points at which the kernel's value is not the reference value,
    and the reference's zeros among the points (worker-safe: a worker
    unpickles the algebra without its tables and compiles its own kernel)."""
    Q, A, commutator, points = payload
    e = _kernel(Q, A, commutator)
    prod = _product_fn(Q, A, commutator)
    vec = _tables(A).vec
    mismatches, zeros = [], 0
    for p in points:
        value = _evaluate_raw(Q, A, tuple(map(vec, p)), prod)
        if vec(e(p)) != value:
            mismatches.append(p)
        zeros += not any(value)
    return mismatches, zeros


def assert_kernel_robust(Q, A, monkeypatch, commutator=False, limit=256):
    """The kernel gives the reference value at every point, or at limit
    seeded points where there are more, in process and in forked workers;
    where every point is checked, a forked count gives the reference's zero
    count (with the pooled_counts fixture)."""
    order = A.order()
    if order**Q.n <= limit:
        points = list(product(range(order), repeat=Q.n))
    else:
        rng = random.Random(Q.n)
        points = [tuple(rng.randrange(order) for _ in range(Q.n)) for _ in range(limit)]
    mismatches, zeros = kernel_check((Q, A, commutator, points))
    assert mismatches == [], Q.to_text()[:80]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    halves = [(Q, A, commutator, points[0::2]), (Q, A, commutator, points[1::2])]
    forked = bound.pool_map(kernel_check, halves, 2)
    assert [m for m, _ in forked] == [[], []]
    assert sum(z for _, z in forked) == zeros
    if len(points) == order**Q.n:
        assert zero_probability(Q, A, workers=2, commutator=commutator).zero_count == zeros


def nested(left: bool, depth: int):
    """A bracket of depth products in x1, x2, nested to the left or right."""
    term = 1
    for k in range(depth):
        leaf = 2 - k % 2
        term = (term, leaf) if left else (leaf, term)
    return term


@pytest.mark.parametrize("left", [True, False])
def test_kernel_on_lie_trees_at_max_depth(pooled_counts, monkeypatch, left):
    M = matrix_algebra(2, 2)
    deep = FreePoly(F2, Flavor.LIE, 2, {nested(left, freepoly.MAX_DEPTH): 1, (1, 2): 1})
    assert_kernel_robust(deep, M, monkeypatch, commutator=True)
    with pytest.raises(freepoly.NestingTooDeep):
        FreePoly(F2, Flavor.LIE, 2, {nested(left, freepoly.MAX_DEPTH + 1): 1})


def test_kernel_on_a_5000_letter_word(pooled_counts, monkeypatch, capsys):
    M = matrix_algebra(2, 2)
    assert_kernel_robust(power_word(5000, M.field), M, monkeypatch)
    # a word in two letters runs past _UNROLLED: over GF(4) its value is
    # x1^a x2^b at every point, and over 2x2 matrices the order counts too
    rng = random.Random(5000)
    word = tuple(rng.choice((1, 2)) for _ in range(5000))
    for A, limit in ((field_as_algebra(4), 256), (M, 16)):
        terms = {word: 1, word[:idtest._UNROLLED + 1]: 1, (2, 1): 1}
        mixed = FreePoly(A.field, Flavor.ASSOC, 2, terms)
        assert_kernel_robust(mixed, A, monkeypatch, limit=limit)
    assert cli.main(["nagata", "--algebra", "builtin:matrix(2,2)", "--d", "5000"]) == 0
    assert '"power_is_identity": false' in capsys.readouterr().out


def free_trees(leaves: int, n: int):
    """Every product tree with the given number of leaves in x1..xn."""
    if leaves == 1:
        return list(range(1, n + 1))
    return [
        (left, right)
        for k in range(1, leaves)
        for left in free_trees(k, n)
        for right in free_trees(leaves - k, n)
    ]


def test_kernel_on_a_gf3_sum_of_400_terms(pooled_counts, monkeypatch):
    F3 = field_of_order(3)
    rng = random.Random(3)
    A = Algebra(F3, 2, [[(rng.randrange(3), rng.randrange(3)) for _ in range(2)] for _ in range(2)])
    trees = sorted((t for k in range(1, 6) for t in free_trees(k, 2)), key=term_sort_key)[:400]
    Q = FreePoly(F3, Flavor.FREE, 2, {t: 1 + (k % 3 > 0) for k, t in enumerate(trees)})
    assert len(Q.terms) == 400 and sum(c == 2 for c in Q.terms.values()) == 266
    assert_kernel_robust(Q, A, monkeypatch)


def test_kernel_on_one_variable(pooled_counts, monkeypatch):
    F3 = field_of_order(3)
    A = Algebra(F3, 2, [[(1, 2), (0, 1)], [(2, 0), (1, 1)]])
    for text in ("2*x1*x1*x1 + x1*x1 + 2*x1", "2*x1", "x1"):
        assert_kernel_robust(parse(text, Flavor.FREE, F3), A, monkeypatch)
    H = heisenberg(3)
    assert_kernel_robust(parse("[x1,x1]", Flavor.LIE, H.field), H, monkeypatch)


def test_kernel_on_the_zero_and_the_term_less_polynomial(pooled_counts, monkeypatch):
    H = heisenberg(3)
    for Q in (zero(H.field, Flavor.LIE), FreePoly(H.field, Flavor.LIE, 2, {})):
        assert_kernel_robust(Q, H, monkeypatch)
        assert _kernel(Q, H, False)((0,) * Q.n) == 0


class CountingTable:
    """A product table that counts its lookups."""

    def __init__(self, table):
        self.table = table
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]


@pytest.mark.parametrize(
    "flavor, text, distinct, occurrences",
    [
        (Flavor.LIE, "[[x1,x2],x3] + [[x1,x2],x1]", 3, 4),
        (Flavor.ASSOC, "x1*x2*x3 + x1*x2*x1 + x2*x1", 4, 5),
    ],
)
def test_each_distinct_product_is_looked_up_once_per_point(flavor, text, distinct, occurrences):
    A = matrix_algebra(2, 2)
    Q = parse(text, flavor, A.field)
    commutator = flavor is Flavor.LIE
    tables = _tables(A)
    counting = CountingTable(tables.product(commutator, _product_fn(Q, A, commutator)))
    e = idtest._compile(Q, tables, counting)
    closures = closure_kernel(Q, tables, counting)
    kernel = _kernel(Q, A, commutator)
    for point in product(range(A.order()), repeat=Q.n):
        counting.lookups = 0
        assert e(point) == kernel(point)
        assert counting.lookups == distinct
        counting.lookups = 0
        closures(point)
        assert counting.lookups == occurrences


# the generated source: its fixed names, locals, ints and operators only
SOURCE_BODY = re.compile(r"(?:\s|\b(?:[atsw]\d+|acc|mul|add|args|i|for|in|return)\b|\d+|[,=*+^\[\]:])*")


def test_generated_sources_hold_only_fixed_names_and_ints(monkeypatch):
    sources = []
    code = idtest._code

    def recording(source):
        sources.append(source)
        return code(source)

    monkeypatch.setattr(idtest, "_code", recording)
    cells = list(product(range(2), repeat=2))
    brackets = [parse(text, Flavor.LIE, F2) for text in ("[x1,x2]", "[[x1,x2],x1]")]
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in battery_for(A):
            _kernel(Q, A, False)
        for Q in brackets:
            _kernel(Q, A, True)
    # the 256 tables share each source, and x1*x2 shares one with [x1,x2]
    # read on the commutator table
    assert len(sources) == 256 * 6 and len(set(sources)) == 5
    F3 = field_of_order(3)
    A3 = Algebra(F3, 2, [[(1, 2), (0, 1)], [(2, 0), (1, 1)]])
    M = matrix_algebra(2, 2)
    for Q, A in [
        (parse("2*x1*x2 + x2*x1 + 2*x1", Flavor.FREE, F3), A3),
        (parse("g*x1*x2 + (g+1)*x2*x1 + x1", Flavor.FREE, F4), GF4_TABLE),
        (FreePoly(F3, Flavor.FREE, 2, {t: 2 for t in free_trees(4, 2)}), A3),
        (power_word(300, M.field), M),
        (parse("x1*x2*x1 + x2", Flavor.ASSOC, F2, n=4), M),
        (zero(F2, Flavor.FREE), M),
        (FreePoly(F2, Flavor.FREE, 3, {}), M),
    ]:
        _kernel(Q, A, False)
    assert len(sources) == 256 * 6 + 7
    for source in sources:
        head, body = source.split("\n", 1)
        assert head == "def e(args):"
        assert SOURCE_BODY.fullmatch(body), source


def test_code_cache_is_bounded():
    maxsize = idtest._code.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 1):
        idtest._code(f"def e(args):\n    return {k}")
    assert idtest._code.cache_info().currsize == maxsize


# ---------------------------------------------------------------------------
# slice counting against the point walk

def affine_variables(Q):
    return [j for j, d in enumerate(Q.analyze().multidegree) if d <= 1]


def reference_slice_zeros(tables, key):
    """The zero count of the slice whose probe values are key = (c,
    L(b_1) + c, ...), found by spanning the image of L element by element
    on coordinate tuples: a second route for idtest._slice_zeros, which
    reads rank L off one rref and uses no span."""
    f, vec = tables.field, tables.vec
    c = vec(key[0])
    image = {(0,) * tables.dim}
    for r in key[1:]:
        v = vec_sub(f, vec(r), c)  # L(b_i)
        multiples = [vec_scale(f, s, v) for s in range(1, f.q)]
        image |= {vec_add(f, a, m) for a in image for m in multiples}
    return tables.order // len(image) if c in image else 0


def record_slice_verdicts(mp):
    """Patch idtest._slice_zeros to keep each memo it builds, and return the
    list they go to: after a count, each memo holds every key it met."""
    verdicts, slice_zeros = [], idtest._slice_zeros

    def recording(tables):
        verdicts.append(slice_zeros(tables))
        return verdicts[-1]

    mp.setattr(idtest, "_slice_zeros", recording)
    return verdicts


def assert_slices_match_points(Q, A, commutator=False):
    """Counting along each affine variable gives the point walk's count, and
    each slice verdict the count meets gives the reference's."""
    points = _count_range((Q, A, commutator, None, 0, A.order()))
    first = A.order() if Q.n > 1 else 1
    with pytest.MonkeyPatch.context() as mp:
        verdicts = record_slice_verdicts(mp)
        for j in affine_variables(Q):
            assert _count_range((Q, A, commutator, j, 0, first)) == points, (Q.to_text(), j)
    tables = _tables(A)
    for verdict in verdicts:
        for key, zeros in verdict.items():
            assert zeros == reference_slice_zeros(tables, key), (Q.to_text(), key)
    return points


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 251, 1021, 65521])
def test_slice_verdicts_match_the_span_reference_over_every_field(q):
    # a verdict reads only the add and scale tables, never a product, so
    # keys built from chosen L(b_i) and c reach ranks and fields that no
    # count under the cap meets: rank 0, c in and out of a rank-1 image,
    # and random keys, on dimensions 1 to 3 while order stays at most 1,000;
    # the reference spans up to order elements a key, so large fields draw few
    F =field_of_order(q)
    rng = random.Random(q)
    outcomes = set()
    for dim in [d for d in (1, 2, 3) if d == 1 or q**d <= 1000]:
        A = Algebra(F, dim, [[(0,) * dim] * dim] * dim)
        tables = idtest._Tables(A)
        verdict = idtest._slice_zeros(tables)
        order, vec, index = tables.order, tables.vec, tables.index

        def key(images, c):
            return (c, *(index(vec_add(F, vec(m), vec(c))) for m in images))

        nonzero = rng.randrange(1, order)
        v = vec(rng.randrange(1, order))
        line = [index(vec_scale(F, rng.randrange(q), v)) for _ in range(dim)]
        expected = {
            key([0] * dim, 0): order,  # rank 0, c = 0: every point is a zero
            key([0] * dim, nonzero): 0,  # rank 0, c != 0
            key([*line[:-1], index(v)], index(vec_scale(F, rng.randrange(q), v))): order // q,
        }
        if dim > 1:
            on_line = {vec_scale(F, s, v) for s in range(q)}
            off_line = next(c for c in range(1, order) if vec(c) not in on_line)
            expected[key([*line[:-1], index(v)], off_line)] = 0  # c outside a rank-1 image
        keys = list(expected) + [tuple(rng.randrange(order) for _ in range(dim + 1)) for _ in range(20 if order <= 1000 else 4)]
        for k in keys:
            zeros = verdict[k]
            assert zeros == expected.get(k, zeros) == reference_slice_zeros(tables, k), (dim, k)
            outcomes.add(zeros == 0)
    assert outcomes == {True, False}


def test_slices_match_points_on_every_dimension_two_table():
    cells = list(product(range(2), repeat=2))
    brackets = [parse(text, Flavor.LIE, F2) for text in ("[x1,x2]", "[[x1,x2],x1]")]
    checked = 0
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in battery_for(A):
            assert_slices_match_points(Q, A)
            checked += len(affine_variables(Q))
        for Q in brackets:
            assert_slices_match_points(Q, A, commutator=True)
            checked += len(affine_variables(Q))
    # x1*x2, x1*x2 - x2*x1 and [x1,x2] along both variables, [[x1,x2],x1] along x2
    assert checked == 256 * 7


# affine in the first, a middle or the last variable, with c != 0 on some
# slices, and a variable that no term uses; the brackets are read as
# commutators
AFFINE_TEXTS = (
    "x1*x2*x2", "x2*x1*x2 + x1", "x2*x2*x1 + x2*x2", "x1*x2*x1 + x2", "x1*x2 + x1",
    "x1*x1*x2 + x1", "x2*x1 + x1*x1 + x3", "x1*x2*x1 + x3*x3*x2", "x2*x1*x2 + x3*x3",
)
AFFINE_BRACKETS = ("[x1,x2]", "[[x1,x2],x1] + x2", "[[x1,x3],x2] + 2*[x2,x1]")
# the point walk that each case is checked against stays at most this long,
# so GF(7) stops at dimension 2: x1*x2 on a dimension-3 table walks 343**2
# points, about a second cold
AFFINE_WALK = 30_000
# the dimensions drawn over each field
AFFINE_DIMS = {2: (1, 3), 3: (1, 3), 4: (1, 2), 5: (2, 3), 7: (2, 2), 9: (1, 1), 11: (1, 2), 13: (1, 2)}


@st.composite
def affine_cases(draw):
    q = draw(st.sampled_from(sorted(AFFINE_DIMS)))
    F = field_of_order(q)
    dim = draw(st.integers(*AFFINE_DIMS[q]))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    if draw(st.integers(0, 4)):
        table = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    else:
        table = [[(0,) * dim] * dim] * dim  # the zero product: rank L is 0 on every slice
    A = Algebra(F, dim, table)
    order = A.order()
    commutator = draw(st.booleans())
    texts = AFFINE_BRACKETS if commutator else AFFINE_TEXTS
    text = draw(st.sampled_from([t for t in texts if order ** (3 if "x3" in t else 2) <= AFFINE_WALK]))
    n = draw(st.sampled_from([None, 4] if order**4 <= AFFINE_WALK else [None]))
    return parse(text, Flavor.LIE if commutator else Flavor.FREE, F, n=n), A, commutator


@settings(max_examples=60, deadline=None)
@given(affine_cases())
def test_slices_match_points_on_random_tables(case):
    Q, A, commutator = case
    assert affine_variables(Q)
    assert_slices_match_points(Q, A, commutator)


F4 = field_of_order(4)
# a dimension-2 table over GF(4) with g and g + 1 among its structure constants
GF4_TABLE = Algebra(F4, 2, [[(1, 2), (0, 3)], [(2, 0), (1, 1)]])


def test_slice_route_counts_nonhomogeneous_polynomials_over_gf4():
    # an XOR basis of element indices spans over GF(2), not GF(4), and
    # miscounted the first of these
    A = GF4_TABLE
    for text in ("x2*x1 + x1*x1 + x3", "x1*x1*x2 + x1", "g*x1*x2 + x2*x1"):
        Q = parse(text, Flavor.FREE, A.field)
        assert _slice_variable(Q, A) is not None
        order = A.order()
        brute = sum(_count_range((Q, A, False, None, start, start + 1)) for start in range(order))
        assert zero_probability(Q, A).zero_count == brute, text


def test_slice_verdicts_make_one_rref_a_distinct_slice(monkeypatch):
    # a verdict reads rank L off one rref of the L(b_i), so its cost does
    # not grow with |im L| and it keeps no scale table but that of -1:
    # x1*x2 on field(4093), 16.75 M points and just under the cap, is
    # 4,093 slices of 4,093 points each, with one rref apiece
    rrefs, rref = [], idtest.rref

    def counting(*args):
        rrefs.append(args)
        return rref(*args)

    monkeypatch.setattr(idtest, "rref", counting)
    verdicts = record_slice_verdicts(monkeypatch)
    for q, peak_bytes in ((251, 1 << 20), (4093, None)):
        A = field_as_algebra(q)
        Q = parse("x1*x2", Flavor.FREE, A.field)
        assert q * q <= EXACT_CAP and idtest._count_route(Q, A, q * q) == ("slice", 1)
        rrefs.clear()
        verdicts.clear()
        if peak_bytes:
            tracemalloc.start()
        try:
            assert zero_probability(Q, A).zero_count == 2 * q - 1
            if peak_bytes:
                assert tracemalloc.get_traced_memory()[1] < peak_bytes
        finally:
            tracemalloc.stop()
        assert len(verdicts) == 1 and len(rrefs) == len(verdicts[0]) <= q
        assert set(A._memo[idtest._Tables].scales) <= {A.field.neg(1)}


def test_route_choice():
    H = heisenberg(3)
    assert _slice_variable(parse("[x1,x2,x3]", Flavor.LIE, H.field), H) == 2
    assert _slice_variable(parse("[[x1,x2],x2]", Flavor.LIE, H.field), H) == 0
    # every variable twice in some term, the zero polynomial, term-less input
    assert _slice_variable(parse("[[x1,x2],[x1,x2]]", Flavor.LIE, H.field), H) is None
    assert _slice_variable(zero(H.field, Flavor.LIE), H) is None
    assert _slice_variable(FreePoly(H.field, Flavor.LIE, 2, {}), H) is None
    # a slice of four points and three probes is walked point by point
    T = truncated(2, 2)
    assert _slice_variable(parse("x1*x2", Flavor.FREE, T.field), T) is None


def test_slice_route_evaluates_probes_only(monkeypatch):
    H = heisenberg(5)  # over GF(5), which has no lanes
    Q = parse("[x1,x2,x3]", Flavor.LIE, H.field)
    calls = Counter()
    kernel = idtest._kernel

    def counting(*args):
        e = kernel(*args)

        def counted(point):
            calls["points"] += 1
            return e(point)

        return counted

    monkeypatch.setattr(idtest, "_kernel", counting)
    rep = zero_probability(Q, H)
    assert (rep.zero_count, rep.total) == (125**3, 125**3)
    assert calls["points"] == (H.dim + 1) * H.order() ** 2 == 62500


@pytest.mark.parametrize(
    "A, flavor, text",
    [
        (heisenberg(3), Flavor.LIE, "[[x1,x3],x2] + 2*[x2,x1]"),  # slices along x3
        (matrix_algebra(2, 2), Flavor.FREE, "x3*x1*x2 + x1*x1*x2*x1"),  # along x3
        (matrix_algebra(2, 2), Flavor.FREE, "x2*x1*x2 + x3*x1*x3"),  # along x1, chunked over x2
        (GF4_TABLE, Flavor.FREE, "x1*x1*x2 + x3*x1"),  # along x3, over GF(4)
    ],
)
def test_workers_give_the_serial_count_on_the_slice_route(pooled_counts, monkeypatch, A, flavor, text):
    # counts of these sizes over GF(2^k) and GF(3) run on lanes, so the gate
    # is closed to reach the slice route
    monkeypatch.setattr(idtest, "LANES_MIN_POINTS", 1 << 64)
    Q = parse(text, flavor, A.field)
    assert _slice_variable(Q, A) is not None
    assert idtest._count_route(Q, A, A.order() ** Q.n)[0] == "slice"
    serial = zero_probability(Q, A, workers=1).zero_count
    assert zero_probability(Q, A, workers=3).zero_count == serial
    assert serial == sum(
        _count_range((Q, A, False, None, start, start + 1)) for start in range(A.order())
    )


# ---------------------------------------------------------------------------
# sampled mode

def test_sampled_mode_matches_an_evaluate_recount():
    H = heisenberg(3)
    Q = parse("[x1,x2] + [[x1,x3],x2]", Flavor.LIE, H.field)
    rep = zero_probability(Q, H, samples=300, seed=7)
    assert rep.zero_count == sampled_recount(Q, H, 300, 7)


def block_edges(n):
    """Sample counts of n-argument points around the first two block
    edges (a block holds _BLOCK_CEILING // n whole points), and counts that
    end a quarter into the first and second blocks."""
    per_block = idtest._BLOCK_CEILING // n
    return sorted({
        *(k * per_block + d for k in (1, 2) for d in (-1, 0, 1)),
        per_block // 4, per_block + per_block // 4,
    })


# the block edges at the ceiling, and at a ceiling of 256 indices (128
# two-argument points a block, 85 three-argument ones), which also span
# idtest.LANES_MIN_POINTS (31-33)
BLOCK_EDGE_CASES = [
    *[("[x1,x2] + [[x1,x2],x2]", s) for s in sorted(
        {31, 32, 33, 127, 128, 129, 159, 160, 161, 255, 256, 257, *block_edges(2)}
    )],
    *[("[x1,x2] + [[x1,x3],x2]", s) for s in sorted({21, 22, 23, 84, 85, 86, 169, 170, 171, *block_edges(3)})],
]


@pytest.mark.parametrize("text, samples", BLOCK_EDGE_CASES)
def test_sampled_mode_matches_the_recount_at_block_edges(text, samples):
    # heisenberg(3) counts on lanes from 32 samples, on the kernel below
    H = heisenberg(3)
    Q = parse(text, Flavor.LIE, H.field)
    assert idtest.LANES_MIN_POINTS == 32
    assert (idtest._count_route(Q, H, samples)[0] == "lanes") == (samples >= 32)
    rep = zero_probability(Q, H, samples=samples, seed=-(1 << 64) - 9)
    assert rep.zero_count == sampled_recount(Q, H, samples, -(1 << 64) - 9)


@pytest.mark.parametrize("text, samples", BLOCK_EDGE_CASES)
def test_sampled_kernel_route_matches_the_recount_at_block_edges(text, samples):
    # heisenberg(5) is over GF(5), which has no lanes: every count runs on
    # the kernel
    H = heisenberg(5)
    Q = parse(text, Flavor.LIE, H.field)
    assert idtest._count_route(Q, H, samples)[0] != "lanes"
    rep = zero_probability(Q, H, samples=samples, seed=-(1 << 64) - 9)
    assert rep.zero_count == sampled_recount(Q, H, samples, -(1 << 64) - 9)


def test_sampled_mode_is_capped_before_any_draw(monkeypatch):
    # both sampled routes, lanes over GF(3) and the kernel over GF(5), read
    # their draws from SplitMix64._outputs, and neither reads it over the cap
    def no_draws(self, dim, n, samples):
        raise AssertionError("drew before the cap check")
        yield

    for q in (3, 5):
        H = heisenberg(q)
        Q = parse("[x1,x2] + [[x1,x3],x2]", Flavor.LIE, H.field)
        assert (idtest._count_route(Q, H, 64)[0] == "lanes") == (q == 3)
        rep = zero_probability(Q, H, samples=64, seed=5, cap=64)
        assert rep.zero_count == sampled_recount(Q, H, 64, 5)
        with monkeypatch.context() as m:
            m.setattr(SplitMix64, "_outputs", no_draws)
            with pytest.raises(AssertionError, match="drew before the cap check"):
                zero_probability(Q, H, samples=64, seed=5, cap=64)
            with pytest.raises(SearchSpaceTooLarge) as info:
                zero_probability(Q, H, samples=65, seed=5, cap=64)
            assert (info.value.size, info.value.cap) == (65, 64)
            with pytest.raises(SearchSpaceTooLarge):
                zero_probability(Q, H, samples=EXACT_CAP + 1, seed=5)


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
    assert _count_range((Q, A, False, None, 0, 1)) == 1
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
def test_chunks_and_workers_give_the_serial_count(pooled_counts, A, text):
    Q = parse(text, Flavor.FREE, A.field)
    order = A.order()
    serial = zero_probability(Q, A, workers=1).zero_count
    chunked = sum(
        _count_range((Q, A, False, _slice_variable(Q, A), start, min(start + 7, order)))
        for start in range(0, order, 7)
    )
    assert chunked == serial
    assert zero_probability(Q, A, workers=3).zero_count == serial


# ---------------------------------------------------------------------------
# pool size and chunking

def test_pool_size_is_clamped_to_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert bound.pool_size(3, 12) == 3
    assert bound.pool_size(10**9, 12) == 8
    assert bound.pool_size(10**9, 5) == 5
    assert bound.pool_size(1, 12) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bound.pool_size(4, 12) == 1


def test_chunks_follow_the_processes_started(monkeypatch):
    # No pool is started here: only the chunking arithmetic runs.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ranges = bound.chunk_ranges(1, 6561, 10**6)
    assert ranges == bound.chunk_ranges(1, 6561, 2)
    assert len(ranges) == 8  # four per process, not one per index
    assert ranges[0][0] == 1 and ranges[-1][1] == 6561
    assert all(left[1] == right[0] for left, right in zip(ranges, ranges[1:]))
    assert bound.chunk_ranges(0, 3, 10**6) == [(0, 1), (1, 2), (2, 3)]
    assert bound.chunk_ranges(1, 6561, 1) == [(1, 6561)]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert bound.chunk_ranges(0, 4096, 10**6) == [(0, 4096)]


def test_callers_size_payloads_by_the_clamped_pool(pooled_counts, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = []

    def serial_map(fn, payloads, workers):
        sizes.append(len(payloads))
        return [fn(p) for p in payloads]

    monkeypatch.setattr(bound, "pool_map", serial_map)
    monkeypatch.setattr(idtest, "pool_map", serial_map)
    lone = bound.exhaustive_min(2, 3, 3, workers=1)
    many = bound.exhaustive_min(2, 3, 3, workers=10**6)
    assert (many.minimum, many.witness.to_text()) == (lone.minimum, lone.witness.to_text())
    M = matrix_algebra(2, 2)
    Q = parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, M.field)
    serial = zero_probability(Q, M, workers=1).zero_count
    assert sizes == [1, 8]  # a serial count is one walker call, with no pool_map
    assert zero_probability(Q, M, workers=10**6).zero_count == serial
    assert sizes == [1, 8, 8]


def test_a_serial_count_is_one_walker_call_on_the_whole_range(monkeypatch):
    # a serial count, or one under FORK_POINTS, calls _count_range once, on
    # the first walked argument's whole range, and never reaches
    # chunk_ranges or pool_map; at FORK_POINTS and more workers it does
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(idtest, "LANES_MIN_POINTS", 1 << 64)
    walks, pools = [], []
    walker = idtest._count_range

    def recording_walker(payload):
        walks.append(payload[3:])
        return walker(payload)

    def recording_chunks(*args):
        pools.append(("chunk_ranges", args))
        return bound.chunk_ranges(*args)

    def recording_pool(fn, payloads, workers):
        pools.append(("pool_map", len(payloads)))
        return [fn(p) for p in payloads]

    monkeypatch.setattr(idtest, "_count_range", recording_walker)
    monkeypatch.setattr(idtest, "chunk_ranges", recording_chunks)
    monkeypatch.setattr(idtest, "pool_map", recording_pool)
    M, H = matrix_algebra(2, 2), heisenberg(5)
    cases = [
        (M, parse("x1*x1*x2*x2", Flavor.FREE, M.field), (None, 0, 16), 16**2),  # points
        (M, parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, M.field), (2, 0, 16), 5 * 16**2),  # slices
        (H, parse("[[x1,x3],x2] + 2*[x2,x1]", Flavor.LIE, H.field), (2, 0, 125), 4 * 125**2),
        (M, parse("x1", Flavor.FREE, M.field), (None, 0, 16), 16),  # one argument
        (M, zero(M.field, Flavor.FREE), (None, 0, 1), 1),  # no argument: the one empty point
    ]
    for A, Q, walk, points in cases:
        serial = zero_probability(Q, A).zero_count
        assert (walks, pools) == ([walk], [])
        walks.clear()
        for workers, fork_points in ((2, points + 1), (10**6, points + 1), (1, 0), (0, 0)):
            monkeypatch.setattr(bound, "FORK_POINTS", fork_points)
            assert zero_probability(Q, A, workers=workers).zero_count == serial
            assert (walks, pools) == ([walk], []), (Q.to_text(), workers)
            walks.clear()
        monkeypatch.setattr(bound, "FORK_POINTS", points)
        assert zero_probability(Q, A, workers=2).zero_count == serial
        first = walk[2]
        chunks = bound.chunk_ranges(0, first, 2)
        assert pools == [("chunk_ranges", (0, first, 2)), ("pool_map", len(chunks))]
        assert walks == [(walk[0], start, stop) for start, stop in chunks]
        walks.clear()
        pools.clear()
        monkeypatch.setattr(bound, "FORK_POINTS", 1 << 20)


def test_counts_fork_once_the_points_walked_reach_fork_points(monkeypatch):
    # the slice route walks (dim + 1) * order**(n-1) probes, not order**n
    # points, and the point walk order**n; each forks from FORK_POINTS on.
    # A lanes count never forks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    fork_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: started.append(method) or fork_context(method))
    # over GF(5), which has no lanes
    H, T = heisenberg(5), truncated(5, 3)
    for A, flavor, text, walked in [
        (H, Flavor.LIE, "[[x1,x3],x2] + 2*[x2,x1]", 4 * 125**2),  # of 125**3 points
        (T, Flavor.FREE, "x1*x1*x2*x2", 25**2),  # no affine variable
    ]:
        Q = parse(text, flavor, A.field)
        assert idtest._count_route(Q, A, A.order() ** Q.n)[0] != "lanes"
        serial = zero_probability(Q, A).zero_count
        monkeypatch.setattr(bound, "FORK_POINTS", walked + 1)
        assert zero_probability(Q, A, workers=2).zero_count == serial
        assert started == []
        monkeypatch.setattr(bound, "FORK_POINTS", walked)
        assert zero_probability(Q, A, workers=2).zero_count == serial
        assert started == ["fork"]
        started.clear()
    # matrix(2,2) x1*x1*x2*x2, which forked from FORK_POINTS on the point
    # walk, is a lanes count, and stays in process in 16 blocks of 16 points
    M = matrix_algebra(2, 2)
    Q = parse("x1*x1*x2*x2", Flavor.FREE, M.field)
    assert idtest._count_route(Q, M, M.order() ** 2)[0] == "lanes"
    serial = zero_probability(Q, M).zero_count
    monkeypatch.setattr(lanes, "BLOCK_BITS", 4)
    monkeypatch.setattr(bound, "FORK_POINTS", 0)
    monkeypatch.setattr(idtest, "pool_map", lambda *args: pytest.fail("a lanes count reached pool_map"))
    assert zero_probability(Q, M, workers=2).zero_count == serial
    assert started == []


def test_exhaustive_scans_fork_once_candidates_times_points_reach_fork_points(monkeypatch):
    # exhaustive_min(3, 2, 2) has 728 candidates on 9 points; at the
    # default FORK_POINTS (2^20) no in-cap scan forks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    fork_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: started.append(method) or fork_context(method)
    )
    serial = bound.exhaustive_min(3, 2, 2)
    assert bound.exhaustive_min(3, 2, 2, workers=2) == serial
    monkeypatch.setattr(bound, "FORK_POINTS", 728 * 9 + 1)
    assert bound.exhaustive_min(3, 2, 2, workers=2) == serial
    assert started == []
    monkeypatch.setattr(bound, "FORK_POINTS", 728 * 9)
    assert bound.exhaustive_min(3, 2, 2, workers=2) == serial
    assert started == ["fork"]


def test_pool_map_runs_serially_where_fork_is_missing(pooled_counts, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    M = matrix_algebra(2, 2)
    Q = parse("x1*x2*x3 - x3*x2*x1", Flavor.FREE, M.field)
    pooled = (bound.exhaustive_min(2, 3, 3, workers=2), zero_probability(Q, M, workers=2))

    def no_pool(method):
        raise AssertionError(f"a {method} pool was started")

    asked = []  # pool_map must read the patched name, or it would fork unseen
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: asked.append(1) or ["spawn", "forkserver"]
    )
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert (bound.exhaustive_min(2, 3, 3, workers=2), zero_probability(Q, M, workers=2)) == pooled
    assert len(asked) == 2


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
    assert calls == []
    # the coordinate route reads the structure constants and nothing else:
    # not the kernel, not the reference evaluator, not Algebra.mul
    other = []
    reference, algebra_mul = idtest._evaluate_raw, Algebra.mul
    H = heisenberg(2)  # built before the recorders: its Lie check multiplies

    def recording_raw(*args):
        other.append("_evaluate_raw")
        return reference(*args)

    def recording_mul(*args):
        other.append("Algebra.mul")
        return algebra_mul(*args)

    monkeypatch.setattr(idtest, "_evaluate_raw", recording_raw)
    monkeypatch.setattr(Algebra, "mul", recording_mul)
    bracket = parse("[[x1,x2],x1]", Flavor.LIE, F)
    for P, B, commutator in ((Q, A, False), (bracket, H, False), (bracket, A, True)):
        reduced_coordinates(P, B, commutator=commutator)
        reduced_degrees(P, B, commutator=commutator)
        idtest.functional_zero_fraction(P, B, commutator=commutator)
    assert calls == [] and other == []
    evaluate(Q, A, [(1, 0), (0, 1)])  # the recorders do see the reference route
    assert set(other) == {"_evaluate_raw", "Algebra.mul"}
    monkeypatch.setattr(idtest, "_evaluate_raw", reference)
    monkeypatch.setattr(Algebra, "mul", algebra_mul)
    witnesses = idtest.coset_identity_search(Q, A, 2)
    assert witnesses
    assert len(calls) == 1 and calls[0][1] is A
    # the coset and stage checks run on A's kernel, read off its one kernel
    # entry; the final check, on the restricted algebra, reads no entry,
    # reduces its coordinates once on the first descent to each ideal and
    # not again after it, and it neither evaluates nor multiplies in the
    # restricted algebra
    reduced, raw, multiplied, entries = [], [], [], []
    coordinates, entry = idtest.reduced_coordinates, idtest._entry

    def recording_entry(tables, P, B, commutator):
        entries.append(B)
        return entry(tables, P, B, commutator)

    def recording_coordinates(P, B, commutator=False):
        reduced.append(B)
        return coordinates(P, B, commutator=commutator)

    def recording_raw(P, B, args, prod):
        raw.append(B)
        return reference(P, B, args, prod)

    def recording_mul(B, u, v):
        multiplied.append(B)
        return algebra_mul(B, u, v)

    monkeypatch.setattr(idtest, "reduced_coordinates", recording_coordinates)
    monkeypatch.setattr(idtest, "_evaluate_raw", recording_raw)
    monkeypatch.setattr(Algebra, "mul", recording_mul)
    monkeypatch.setattr(idtest, "_entry", recording_entry)
    seen = set()
    for w in witnesses:
        calls.clear()
        reduced.clear()
        entries.clear()
        idtest.multilinear_descent(Q, A, w)
        assert calls == [] and len(entries) == 1 and entries[0] is A
        if w.ideal in seen:
            assert reduced == []
            continue
        seen.add(w.ideal)
        assert len(reduced) == 1
        assert reduced[0] is not A and reduced[0].dim == w.ideal.rank
    assert len(seen) < len(witnesses)
    assert raw == [] and multiplied and all(B is A for B in multiplied)
    monkeypatch.setattr(Algebra, "mul", algebra_mul)
    # the block tally is the one kernel call, on the inner quotient A/J; its
    # average is checked on the coordinates of that same algebra, and each
    # block's outer zero test runs on the reference evaluator over A/I, so
    # no check shares the tally's route, and nothing counts through
    # zero_probability
    calls.clear()
    reduced.clear()
    raw.clear()
    counted = []
    monkeypatch.setattr(idtest, "zero_probability", lambda *args, **kwargs: counted.append(args))
    T = truncated(2, 4)
    I = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    J = ideal_generated(T, [(0, 0, 1)])
    idtest.block_statistics(parse("x1*x1", Flavor.FREE, T.field), T, I, J)
    assert len(calls) == 1
    inner = calls[0][1]
    assert inner is not T and inner.dim == T.dim - J.rank
    assert reduced == [inner]
    assert raw and all(B is raw[0] for B in raw)
    assert raw[0] is not inner and raw[0] is not T and raw[0].dim == T.dim - I.rank
    assert counted == []
