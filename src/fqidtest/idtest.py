"""Identity testing in finite nonassociative algebras.

The centerpiece: evaluate free polynomials over structure-constant
algebras, measure exact zero probabilities, and check the computed
numbers against the proven density bounds from bound.py.  Every check
here is a theorem, so a failure is reported as TheoremViolation (an
implementation bug), never as a finding.

zero_probability, coset_identity_search, the coset and stage checks of
multilinear_descent and the block tally of block_statistics evaluate on
element indices: an element is the int in range(q**dim) at its position
in the canonical order elements() walks, so 0 is the zero element.
_evaluate_raw, on coordinate tuples, is the reference the index kernel is
tested against.  The routes that cross-check the kernel's answers stay
off it: evaluate and the outer zero test of each block run _evaluate_raw,
while functional_zero_fraction (which also checks the block average) and
descent's final check on the restricted algebra build reduced coordinate
polynomials from the structure constants (commpoly.reduced_coordinates),
and dixon_verdict's second route reads each reduced coordinate's degree
off the same packed monomials without unpacking them
(commpoly.reduced_degrees).  None of these coordinate routes calls
_kernel, _evaluate_raw, Algebra.mul or the lanes module, and the lanes
route calls none of them and no coordinate helper.

zero_probability's exact count takes one of three routes (_count_route).
Over characteristic 2 it counts on lanes (fqidtest.lanes): each point of
A^n is one bit of a Python int, and e_Q runs once on all the points of a
block, one AND per nonzero GF(2) structure constant and product.  A
kernel product costs one lookup per point instead, so the lanes route is
taken once the points reach lanes.RATIO times the constants and
lanes.MIN_POINTS, below which the few microseconds lanes save are lost
again to verdicts whose counts switch routes.  A lanes count runs in the
calling process whatever the workers, as it is already faster than a
forked point walk.  Otherwise the count runs slice by slice where it
can.  If some variable occurs at most once in every term, e_Q is affine
in it, so with the other arguments fixed it is v -> L(v) + c: the kernel
runs at v = 0 and at the dim basis vectors only, and the slice has
q**(dim - rank L) zeros when c lies in the image of L, none
otherwise.  That evaluates (dim + 1) * order**(n-1) points instead of
order**n.  The verdicts are memoised for one count call only.  The point
walk remains for the zero polynomial, for polynomials with no affine
variable and for slices too small to pay, and it is the reference the
slices and the lanes are tested against.  Each route's count is exact,
and the coordinate route that checks it is unchanged.

The kernel is one generated function per (Q, commutator): its body
unpacks the argument indices into locals and gives each distinct product
node one table lookup, so a subterm that several terms share costs one
lookup per point, and the terms are summed one statement each.  Its
source holds fixed names, locals and ints only, never text from Q, and
equal sources share one compiled code object.  The function depends only
on (Q, A, commutator), so the algebra keeps it: the field and flavor gate
runs on every _kernel call, and the function is built on the first call
for each (Q, commutator).  Descent's
claim that e_Q vanishes on I^n depends only on (Q, I) and the product
flavor, so the algebra also keeps the keys it has verified: the stage-n
check and the restricted-algebra check run once per key per algebra,
both in full, and later descents on the key skip them.  None of these
memos is pickled.  A descent's stage records depend only on n, so every
certificate of arity n shares one tuple of them.

A note on the threshold comparison: the verdict uses the weak form

    is_identity  OR  probability <= 1 - 2^{-d}.

The bound is attained exactly over GF(2) -- e.g. the 2-dimensional
algebra with b1*b2 = b1 (all other products zero) gives x1*x1 the zero
probability 3/4 = 1 - 2^{-2} without being an identity -- so a strict
comparison would reject correct behavior on extremal inputs.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import count, filterfalse, islice, product, repeat
from operator import add, itemgetter, mod, mul, not_

from .algebra import (
    Algebra,
    Ideal,
    _check_ambient,
    _ideal_order,
    _is_coordinate_vector,
    _walk_ideals,
    nilpotency_index,
    quotient,
    restrict,
    to_json_dict,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from . import bound, lanes
from .bound import chunk_ranges, floor_fraction, pool_map
from .commpoly import reduced_coordinates, reduced_degrees, zero_counter
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    FlavorMismatch,
    NotALieAlgebra,
    NotMultilinear,
    NotNested,
    SearchSpaceTooLarge,
    TheoremViolation,
    WitnessInvalid,
)
from .freepoly import Flavor, FreePoly, engel, power_word

EXACT_CAP = 1 << 24

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# indices per packed block: the first block is small, later ones grow to
# the ceiling, so a short run draws little and memory stays flat
_FIRST_BLOCK = 64
_BLOCK_CEILING = 256

# a lane's low 64-bit word among the native words of its 16 bytes: the
# first of each pair little-endian; big-endian the int's bytes run from
# the last lane's high word down, so every other word from the end
_LOW_STRIDE = 2 if sys.byteorder == "little" else -2


# ---------------------------------------------------------------------------
# deterministic sampling

class SplitMix64:
    """64-bit split-mix generator: linear state walk, mixing output.

    Draws are fully determined by the seed, so sampled runs are
    reproducible bit for bit.  Coordinates are drawn per sample, per
    argument, per coordinate, each as next64() mod q.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def indices(self, q: int, dim: int):
        """Endless element indices of q**dim elements, each digit below(q).

        The digits are drawn most significant first, as the coordinates of
        elements() order, and self.state is stored before each index is
        yielded: the stream is the one repeated below(q) calls give.  It is
        generated in packed blocks, one Python int per block with each draw
        in a 128-bit lane: the Weyl states are state * R + k * gamma, and the
        three mixing rounds run on the whole int, each lane masked to 64 bits
        before each multiply, so no product reaches the next lane.  Blocks
        grow from _FIRST_BLOCK to _BLOCK_CEILING indices.
        """
        state = self.state
        if not dim:  # a zero-dimensional algebra has one element and draws nothing
            while True:
                self.state = state
                yield 0
        count = _FIRST_BLOCK
        while True:
            draws = count * dim
            ones, R, steps = _lanes(draws)
            s = (state * R + steps) & ones
            z = ((s ^ (s >> 30)) & ones) * _MIX1 & ones
            z = ((z ^ (z >> 27)) & ones) * _MIX2 & ones
            digits = list(map(mod, _low_words(z ^ (z >> 31), draws), repeat(q)))
            index = digits[0::dim]
            for j in range(1, dim):
                index = map(add, map(mul, index, repeat(q)), digits[j::dim])
            states = _low_words(s, draws)[dim - 1::dim]  # the state after each index
            state = states[-1]
            for self.state, i in zip(states, index):
                yield i
            count = min(4 * count, _BLOCK_CEILING)


@cache
def _lanes(draws: int):
    """The lane constants of a block of draws: the 64-bit mask of every
    lane, R with 1 in every lane, and k * gamma mod 2**64 in lane k - 1."""
    R = ((1 << (128 * draws)) - 1) // ((1 << 128) - 1)
    steps = b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, draws + 1))
    return R * _MASK64, R, int.from_bytes(steps, "little")


def _low_words(z: int, lanes: int):
    """The low 64 bits of each 128-bit lane of z, first lane first."""
    return memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[::_LOW_STRIDE]


# ---------------------------------------------------------------------------
# evaluation

def _product_fn(Q: FreePoly, A: Algebra, commutator: bool):
    """Flavor gate: the binary product a term tree is read with."""
    # the identity test first: a polynomial parsed over A.field holds that
    # very object, and Field.__eq__ is a Python call
    if not (Q.field is A.field or Q.field == A.field):
        raise FieldMismatch(f"{Q.field!r} vs {A.field!r}")
    if commutator:
        if Q.flavor is not Flavor.LIE:
            raise FlavorMismatch(
                "commutator interpretation only applies to lie-flavor input"
            )
        if A.bracket:
            raise FlavorMismatch(
                "commutator interpretation needs a plain product table, "
                "not a bracket"
            )
        f = A.field

        def commutator_product(u, v):
            return vec_sub(f, A.mul(u, v), A.mul(v, u))

        return commutator_product
    if Q.flavor is Flavor.LIE and not A.bracket:
        raise FlavorMismatch(
            "lie-flavor input on a non-bracket algebra; "
            "pass commutator=True to read [a,b] as ab - ba"
        )
    if Q.flavor is Flavor.ASSOC and A.bracket:
        raise FlavorMismatch("associative input on a bracket algebra")
    return A.mul


def _eval_term(flavor: Flavor, term, args, prod):
    if flavor is Flavor.ASSOC:
        acc = args[term[0] - 1]
        for i in term[1:]:
            acc = prod(acc, args[i - 1])
        return acc

    def rec(t):
        if isinstance(t, int):
            return args[t - 1]
        return prod(rec(t[0]), rec(t[1]))

    return rec(term)


def _evaluate_raw(Q: FreePoly, A: Algebra, args, prod):
    f = A.field
    acc = A.zero_vec()
    for term, coeff in Q.terms.items():
        val = _eval_term(Q.flavor, term, args, prod)
        acc = vec_add(f, acc, vec_scale(f, coeff, val))
    return acc


def evaluate(Q: FreePoly, A: Algebra, args, *, commutator: bool = False):
    """e_Q(args): substitute algebra elements for the variables."""
    prod = _product_fn(Q, A, commutator)
    if len(args) != Q.n:
        raise DimensionMismatch(f"expected {Q.n} arguments, got {len(args)}")
    for v in args:
        if not _is_coordinate_vector(A, v):
            raise DimensionMismatch(
                f"argument {v!r} is not a coordinate vector of length {A.dim}"
            )
    return _evaluate_raw(Q, A, tuple(tuple(v) for v in args), prod)


# ---------------------------------------------------------------------------
# the element-index kernel

class _Memo(dict):
    """A table whose missing entries are computed by fn on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Tables:
    """Products, sums and scalar multiples of one algebra, on element indices.

    The reference arithmetic fills an entry on first lookup, so only the
    entries some run meets are ever computed, and each only once: the
    tables live on the algebra as long as it does.  Pairs are keyed
    a * order + b.  Beside them sit the compiled kernel of each
    (Q, commutator), each ideal's member indices and the
    (Q, ideal, commutator) keys whose descent to the ideal is verified.
    None of it is pickled: Algebra.__getstate__ leaves the tables behind.
    """

    __slots__ = (
        "field", "dim", "order", "products", "sums", "scales", "kernels", "ideal_members",
        "verified",
    )

    def __init__(self, A: Algebra):
        self.field = A.field
        self.dim = A.dim
        self.order = A.order()
        self.products = {}  # commutator flag -> product table
        self.sums = None
        self.scales = {}  # coefficient -> table of its multiples
        self.kernels = {}  # (Q, commutator) -> e_Q on element indices
        self.ideal_members = {}  # ideal -> its members' indices, in elements() order
        self.verified = set()  # (Q, ideal, commutator): e_Q vanishes on ideal^n

    def vec(self, index):
        """The coordinate tuple of an element index."""
        q = self.field.q
        out = [0] * self.dim
        for slot in range(self.dim - 1, -1, -1):
            index, out[slot] = divmod(index, q)
        return tuple(out)

    def index(self, v):
        """The element index of a coordinate tuple."""
        q = self.field.q
        index = 0
        for c in v:
            index = index * q + c
        return index

    def _pair_table(self, op):
        order, vec, index = self.order, self.vec, self.index

        def entry(key):
            a, b = divmod(key, order)
            return index(op(vec(a), vec(b)))

        return _Memo(entry)

    def product(self, commutator, prod):
        table = self.products.get(commutator)
        if table is None:
            table = self.products[commutator] = self._pair_table(prod)
        return table

    def add(self):
        if self.sums is None:
            f = self.field
            self.sums = self._pair_table(lambda u, v: vec_add(f, u, v))
        return self.sums

    def scale(self, c):
        table = self.scales.get(c)
        if table is None:
            f, vec, index = self.field, self.vec, self.index
            table = self.scales[c] = _Memo(lambda a: index(vec_scale(f, c, vec(a))))
        return table

    def members(self, ideal):
        """The element indices of the ideal's members (shared: do not mutate)."""
        members = self.ideal_members.get(ideal)
        if members is None:
            members = self.ideal_members[ideal] = [self.index(m) for m in ideal.elements()]
        return members

    def shift(self, a, members):
        """The indices of a + m, one per member index m."""
        if self.field.p == 2:
            # coordinates add as bit fields, so vectors add as their indices' XOR
            return [a ^ m for m in members]
        add = self.add()
        base = a * self.order
        return [add[base + m] for m in members]


def _tables(A: Algebra) -> _Tables:
    tables = A._index_tables
    if tables is None:
        tables = A._index_tables = _Tables(A)
    return tables


def _kernel(Q: FreePoly, A: Algebra, commutator: bool):
    """e_Q on element indices: a function from n indices to the value's index.

    Per call: the field and flavor gate (_product_fn) and one lookup in
    the algebra's tables; the gate compares fields by identity first, so
    a polynomial parsed over A.field costs no Field.__eq__ call.  Per
    (Q, commutator): the function is compiled on the first call and kept
    on the algebra's tables, so a coset search and all its descents
    compile e_Q once.
    """
    prod = _product_fn(Q, A, commutator)
    tables = _tables(A)
    key = (Q, commutator)
    e = tables.kernels.get(key)
    if e is None:
        e = tables.kernels[key] = _compile(Q, tables, tables.product(commutator, prod))
    return e


# letters of an assoc word compiled one statement each; the rest of a longer
# word is folded by a loop, so a word's source stays this long at most
_UNROLLED = 64


def _compile(Q: FreePoly, tables: _Tables, mul):
    """Compile Q into one straight-line function of the n element indices.

    The body unpacks args into locals a0, a1, ... and gives each distinct
    product node one assignment tK = mul[left * order + right]: a product
    is keyed by the locals of its two factors, so a subterm that several
    terms share is looked up once per point.  An assoc word is folded
    left, as _eval_term reads it, one distinct prefix per assignment up to
    _UNROLLED letters; the rest of it runs as a loop over a tuple of
    argument slots.  The terms are then summed one statement each, never
    as one nested expression: acc ^= v in characteristic 2, where
    coordinates add as bit fields and vectors as their indices' XOR, and
    acc = add[acc * order + v] otherwise, with a coefficient's multiple
    read as sK[v].

    The tables (mul, add, sK, and the word tails wK) are the globals of
    the function's namespace, and the source holds only those fixed
    names, locals and ints, so no text from Q reaches exec.  Equal sources
    share one code object (_code).
    """
    order = tables.order
    env = {"__builtins__": {}, "mul": mul}
    lines = [f"    {', '.join(f'a{i}' for i in range(Q.n))}, = args"] if Q.n else []
    products = {}  # (left, right) -> the local holding their product
    temps = count()

    def node(left, right):
        name = products.get((left, right))
        if name is None:
            name = products[left, right] = f"t{next(temps)}"
            lines.append(f"    {name} = mul[{left} * {order} + {right}]")
        return name

    def tree(t):
        if isinstance(t, int):
            return f"a{t - 1}"
        return node(tree(t[0]), tree(t[1]))

    def word(term):
        acc = f"a{term[0] - 1}"
        for i in term[1:_UNROLLED]:
            acc = node(acc, f"a{i - 1}")
        if len(term) > _UNROLLED:
            k = next(temps)
            tail, name = f"w{k}", f"t{k}"
            env[tail] = tuple(i - 1 for i in term[_UNROLLED:])
            lines.append(f"    {name} = {acc}")
            lines.append(f"    for i in {tail}:")
            lines.append(f"        {name} = mul[{name} * {order} + args[i]]")
            acc = name
        return acc

    compile_term = word if Q.flavor is Flavor.ASSOC else tree
    values = []
    for term, coeff in Q.terms.items():
        value = compile_term(term)
        if coeff != 1:
            env[f"s{coeff}"] = tables.scale(coeff)
            value = f"s{coeff}[{value}]"
        values.append(value)

    if not values:
        lines.append("    return 0")
    elif len(values) == 1:
        lines.append(f"    return {values[0]}")  # 0 + v = v
    else:
        lines.append(f"    acc = {values[0]}")
        if tables.field.p == 2:
            lines.extend(f"    acc ^= {value}" for value in values[1:])
        else:
            env["add"] = tables.add()
            lines.extend(f"    acc = add[acc * {order} + {value}]" for value in values[1:])
        lines.append("    return acc")
    exec(_code("def e(args):\n" + "\n".join(lines)), env)
    return env["e"]


@lru_cache(maxsize=256)
def _code(source: str):
    """The code object of a kernel's source, kept for the next equal source:
    compile() costs far more than writing the source."""
    return compile(source, "<e_Q>", "exec")


# ---------------------------------------------------------------------------
# zero probability, exact and sampled

@dataclass(frozen=True)
class EvalReport:
    """Zero statistics of e_Q over A^n, with the threshold verdict.

    In sampled mode probability is the observed fraction and the two
    verdict fields are None (a sample cannot certify an identity).
    functional_floor / functional_consistent are filled in by
    dixon_verdict only.  idtest builds reports through _new_report, which
    names every field: a new field goes there too.
    """

    zero_count: int
    total: int
    probability: Fraction
    degree: int
    threshold: Fraction
    is_identity: bool | None
    verdict_consistent: bool | None
    mode: str
    samples: int | None = None
    seed: int | None = None
    functional_floor: Fraction | None = None
    functional_consistent: bool | None = None


def _poly_degree(Q: FreePoly) -> int:
    return 0 if Q.is_zero else Q.analyze().degree  # analyze() is kept on Q


@cache
def _threshold(degree: int) -> Fraction:
    return 1 - Fraction(1, 1 << degree)


def _new_report(
    zero_count, total, probability, degree, threshold, is_identity, verdict_consistent, mode,
    samples, seed, functional_floor, functional_consistent,
) -> EvalReport:
    """EvalReport of these fields, built without the frozen dataclass's
    __init__, which sets each field through object.__setattr__: the
    instance dict is filled in one update.  The report is the one the
    constructor builds, field for field, so ==, hash, replace and the
    encoder see no difference."""
    report = object.__new__(EvalReport)
    report.__dict__.update(
        zero_count=zero_count,
        total=total,
        probability=probability,
        degree=degree,
        threshold=threshold,
        is_identity=is_identity,
        verdict_consistent=verdict_consistent,
        mode=mode,
        samples=samples,
        seed=seed,
        functional_floor=functional_floor,
        functional_consistent=functional_consistent,
    )
    return report


def _exact_report(
    zero_count: int, total: int, degree: int, functional_floor=None, functional_consistent=None
) -> EvalReport:
    """The exact-mode report of a zero count, with dixon_verdict's
    functional fields when given."""
    is_identity = zero_count == total
    return _new_report(
        zero_count, total, Fraction(zero_count, total), degree, _threshold(degree), is_identity,
        # the probability zero_count/total at most 1 - 2^-degree, on the integers
        is_identity or zero_count << degree <= ((1 << degree) - 1) * total,
        "exact", None, None, functional_floor, functional_consistent,
    )


def _slice_variable(Q: FreePoly, A: Algebra):
    """The index j of the variable e_Q is counted along, slice by slice, or
    None to walk every point.

    Products are bilinear, so a term in which x_{j+1} occurs at most once is
    linear in it or constant, and e_Q is affine in it.  The last such
    variable is taken.  The zero polynomial has none.  A slice trades its
    order points for dim + 1 probes and a verdict, and a verdict costs
    about as much as four to eight kernel calls, so a slice is walked point
    by point unless it holds more than three times as many points as
    probes: over GF(2) from dimension 4, over GF(3) from dimension 3.
    """
    if Q.is_zero or A.order() <= 3 * (A.dim + 1):
        return None
    degrees = Q.analyze().multidegree
    return next((j for j in range(Q.n - 1, -1, -1) if degrees[j] <= 1), None)


def _count_range(payload):
    """Count zeros of e_Q over A^n with the first walked argument's index in
    range(start, stop) (worker-safe).

    Slice by slice along x_{j+1} where _slice_variable gives j, point by
    point where it gives None; a polynomial with one argument and an affine
    variable walks no argument, and its one slice is the range (0, 1).
    """
    Q, A, commutator, j, start, stop = payload
    if j is None:
        return _count_points(Q, A, commutator, start, stop)
    return _count_slices(Q, A, commutator, j, start, stop)


def _count_points(Q, A, commutator, start, stop):
    """Count zeros with the first argument's index in range(start, stop),
    walking the points in canonical order.

    The zero polynomial has no arguments and its one point, the empty
    tuple, is the range (0, 1).
    """
    e = _kernel(Q, A, commutator)
    if Q.n:
        rest = [range(A.order())] * (Q.n - 1)
        points = product(range(start, stop), *rest)
    else:
        points = [()] * (stop - start)
    return sum(map(not_, map(e, points)))


def _count_slices(Q, A, commutator, j, start, stop):
    """Count zeros slice by slice along x_{j+1}, in which e_Q is affine.

    The other arguments are walked in canonical order, the first of them
    over range(start, stop), and x_{j+1} runs innermost over the probes 0
    and the basis vectors b_1..b_dim.  On a slice e_Q is v -> L(v) + c for
    a linear map L, so the probes give c and L(b_i) + c, and the slice has
    q**(dim - rank L) zeros if c is in the image of L and none otherwise.
    """
    e = _kernel(Q, A, commutator)
    tables = _tables(A)
    order, dim, n = tables.order, tables.dim, Q.n
    probes = [0] + [order // tables.field.q ** i for i in range(1, dim + 1)]
    if n == 1:
        points = [(p,) for p in probes] * (stop - start)
    else:
        rest = [range(order)] * (n - 2)
        points = product(range(start, stop), *rest, probes)
        if j != n - 1:
            # the probe is walked last; move it into argument slot j
            points = map(itemgetter(*range(j), n - 1, *range(j, n - 1)), points)
    slices = zip(*[map(e, points)] * (dim + 1))
    return sum(map(_slice_zeros(tables).__getitem__, slices))


def _slice_zeros(tables: _Tables) -> _Memo:
    """A fresh memo from a slice's probe values (c, L(b_1) + c, ...) to its
    zero count, built for one count call and dropped after it.

    The image of L is spanned one L(b_i) at a time as a set of element
    indices, so the slice has order // |im L| zeros when c is in it.  Over
    GF(2) indices add as XOR and 1 is the only nonzero scalar.  Any other
    field adds and scales on the algebra's tables: XOR alone would span
    over GF(2), not over GF(q), even in characteristic 2.
    """
    order = tables.order
    f = tables.field
    if f.q == 2:
        def zeros(key):
            c = key[0]
            image = {0}
            for r in key[1:]:
                v = r ^ c  # L(b_i)
                if v not in image:
                    image |= {a ^ v for a in image}
            return order // len(image) if c in image else 0

        return _Memo(zeros)

    add = tables.add()
    negate = tables.scale(f.neg(1))
    scales = [tables.scale(s) for s in range(2, f.q)]

    def zeros(key):
        c = key[0]
        minus_c = negate[c]
        image = {0}
        for r in key[1:]:
            v = add[r * order + minus_c] if c else r  # L(b_i)
            if v not in image:
                rows = [a * order for a in image]
                for m in (v, *[s[v] for s in scales]):  # its nonzero multiples
                    image.update(map(add.__getitem__, map(m.__add__, rows)))
        return order // len(image) if c in image else 0

    return _Memo(zeros)


def _count_route(Q: FreePoly, A: Algebra, commutator: bool):
    """(route, j): how _count_exact counts e_Q's zeros.  "lanes" over
    characteristic 2 once the points reach lanes.MIN_POINTS and
    lanes.RATIO times the product's nonzero GF(2) structure constants, else
    "slice" along x_{j+1} where _slice_variable gives j, else "points"; j
    is None but on the slice route."""
    if A.field.p == 2:
        points = A.order() ** Q.n
        if points >= lanes.MIN_POINTS and points >= lanes.RATIO * lanes.cost(A, commutator):
            return "lanes", None
    j = _slice_variable(Q, A)
    return ("points", None) if j is None else ("slice", j)


def _count_exact(Q, A, commutator, workers):
    """Zeros of e_Q over A^n, by the route _count_route gives.

    On the point and slice routes the chunks are ranges of the first
    walked argument's index, and a serial count is one chunk.  They fork
    once the points they walk (probes on the slice route) reach
    bound.FORK_POINTS, read at call time so that one binding sets the
    threshold for every job.  The lanes route runs its blocks in process
    and never forks (lanes.count).
    """
    route, j = _count_route(Q, A, commutator)
    if route == "lanes":
        return lanes.count(Q, A, commutator)
    order = A.order()
    if j is None:
        walked, points = Q.n, order**Q.n
    else:
        walked, points = Q.n - 1, (A.dim + 1) * order ** (Q.n - 1)
    first = order if walked else 1
    ranges = chunk_ranges(0, first, workers if points >= bound.FORK_POINTS else 1)
    payloads = [(Q, A, commutator, j, start, stop) for start, stop in ranges]
    return sum(pool_map(_count_range, payloads, workers))


def zero_probability(
    Q: FreePoly,
    A: Algebra,
    *,
    samples: int | None = None,
    seed: int | None = None,
    cap: int = EXACT_CAP,
    workers: int = 1,
    commutator: bool = False,
) -> EvalReport:
    """The exact (or sampled) fraction of A^n mapped to zero by e_Q.

    An exact count takes _count_route's route: lanes over characteristic 2
    once the points reach lanes.MIN_POINTS and lanes.RATIO times the
    product's nonzero GF(2) structure constants, slices where e_Q is
    affine in a variable, points otherwise.  A sampled count draws its points from SplitMix64 and runs
    each on the kernel.
    """
    _product_fn(Q, A, commutator)  # fail fast on flavor problems
    degree = _poly_degree(Q)
    n = Q.n

    if samples is None:
        total = A.order() ** n
        if total > cap:
            raise SearchSpaceTooLarge(total, cap)
        return _exact_report(_count_exact(Q, A, commutator, workers), total, degree)

    if samples < 1:
        raise ValueError("samples must be a positive integer")
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    if samples > cap:
        raise SearchSpaceTooLarge(samples, cap)
    e = _kernel(Q, A, commutator)
    if n:
        draws = SplitMix64(seed).indices(A.field.q, A.dim)
        points = islice(zip(*[draws] * n), samples)
    else:
        points = repeat((), samples)
    zero_count = sum(map(not_, map(e, points)))
    return _new_report(
        zero_count, samples, Fraction(zero_count, samples), degree, _threshold(degree), None,
        None, "sampled", samples, seed, None, None,
    )


def functional_zero_fraction(
    Q: FreePoly,
    A: Algebra,
    *,
    cap: int = EXACT_CAP,
    commutator: bool = False,
) -> Fraction:
    """Zero fraction via the coordinate polynomials -- an independent route.

    e_Q vanishes at a point exactly when all dim coordinate polynomials
    do, so this must agree with zero_probability on the nose.  The count is
    commpoly.zero_counter's: bit-sliced over GF(2), a point walk otherwise.
    """
    _product_fn(Q, A, commutator)
    width = Q.n * A.dim
    count = zero_counter(A.field, width, cap)
    coords = reduced_coordinates(Q, A, commutator=commutator)
    return Fraction(count([c.monomials for c in coords]), A.field.q**width)


# ---------------------------------------------------------------------------
# the threshold verdict

def _witness(Q: FreePoly, A: Algebra, commutator: bool, **found) -> dict:
    """A TheoremViolation witness that rebuilds the (Q, A) pair: the
    polynomial text, its variable count n (the text drops unused trailing
    variables), flavor and commutator flag and the algebra document, then
    what failed.  --out human prints the keys in this order."""
    return {
        "poly": Q.to_text(),
        "n": Q.n,
        "flavor": Q.flavor.value,
        "commutator": commutator,
        "algebra": to_json_dict(A),
        **found,
    }


def dixon_verdict(
    Q: FreePoly,
    A: Algebra,
    *,
    cap: int = EXACT_CAP,
    workers: int = 1,
    commutator: bool = False,
) -> EvalReport:
    """Exact verdict with a dual-route cross-check.

    Route one counts the zeros of e_Q on A^n (zero_probability: on lanes
    over characteristic 2, slice by slice where e_Q is affine in a
    variable, point by point otherwise).
    Route two reads the degree of each reduced coordinate polynomial off
    its packed monomials (commpoly.reduced_degrees): all zero iff e_Q is
    an identity, and otherwise each nonzero coordinate forces the nonzero
    fraction up to its density floor.  The floor does not increase with
    the degree, so the strongest one is taken at the least degree.  Both
    bounds are compared on the integer counts.  Disagreement on either
    route is an implementation bug and raises TheoremViolation, whose
    witness holds _witness's fields, the zero count and the count route,
    so that the count can be replayed.
    """
    report = zero_probability(Q, A, cap=cap, workers=workers, commutator=commutator)
    zeros, total, degree = report.zero_count, report.total, report.degree
    degrees = [d for d in reduced_degrees(Q, A, commutator) if d is not None]

    def violation(message):
        return TheoremViolation(message, witness=_witness(
            Q, A, commutator,
            zero_count=zeros,
            total=total,
            route=_count_route(Q, A, commutator)[0],
            probability=str(report.probability),
            threshold=str(report.threshold),
        ))

    if (not degrees) != report.is_identity:
        raise violation("enumeration and coordinate reduction disagree on identity-ness")
    if not degrees:
        return _exact_report(zeros, total, degree, functional_consistent=True)

    floor = floor_fraction(A.field.q, min(degrees)).value
    # the nonzero fraction 1 - zeros/total under the floor
    if (total - zeros) * floor.denominator < floor.numerator * total:
        raise violation(
            f"nonzero fraction {1 - report.probability} under the "
            f"coordinate density floor {floor}"
        )
    # the zero fraction zeros/total above 1 - 2^-degree
    if zeros << degree > ((1 << degree) - 1) * total:
        raise violation(
            f"non-identity with zero probability {report.probability} "
            f"above 1 - 2^-{degree}"
        )
    return _exact_report(
        zeros, total, degree, functional_floor=floor, functional_consistent=True,
    )


# ---------------------------------------------------------------------------
# coset identities

_set_field = object.__setattr__


@dataclass(frozen=True)
class CosetWitness:
    """A coset product (a_1+I) x ... x (a_n+I) on which e_Q vanishes.

    In a finite algebra the notion degenerates: I = {0} witnesses any
    single zero, and the all-zero representative tuple witnesses any
    identity on I.  Those are flagged trivial rather than suppressed.
    """

    ideal: Ideal
    representatives: tuple
    codim: int
    trivial: bool


def _new_witness(ideal, representatives, codim, trivial) -> CosetWitness:
    """CosetWitness of these fields, built without the constructor's call:
    each field is set by object.__setattr__, as the frozen dataclass's
    __init__ sets it, so the witness is the one the constructor builds.
    It does not fill the instance dict in one update, as _new_report
    does: reading __dict__ gives each instance a dict object of its own,
    about 135 bytes more per witness, and a search keeps thousands."""
    witness = object.__new__(CosetWitness)
    _set_field(witness, "ideal", ideal)
    _set_field(witness, "representatives", representatives)
    _set_field(witness, "codim", codim)
    _set_field(witness, "trivial", trivial)
    return witness


def _canonical_reps(A: Algebra, ideal: Ideal):
    """Canonical coset representatives, ascending in coordinate order."""
    pivots = set(ideal.pivots)
    choices = [
        (0,) if c in pivots else tuple(A.field.elements()) for c in range(A.dim)
    ]
    return [rep for rep in product(*choices)]


def coset_identity_search(
    Q: FreePoly,
    A: Algebra,
    max_codim: int,
    *,
    cap: int = EXACT_CAP,
    commutator: bool = False,
) -> list:
    """All coset witnesses over ideals of codimension at most max_codim.

    Ideals are visited largest first (ascending codimension, canonical
    order) and representative tuples in coordinate order, so output is
    deterministic.  The cap bounds the total work, order**n points per
    visited ideal, and is checked as the ideal walk finds each one: the
    work only grows, so an over-cap search is refused without finishing
    the walk, and the size it reports is the work found so far.

    Per ideal, the representatives, each coset's member indices and the
    codimension are found once.  Per representative tuple, e_Q runs on
    the kernel over every point of the coset product until one is
    nonzero.  The zero ideal's cosets are single points, so its witnesses
    are the zeros of e_Q, found by one walk over the element indices in
    canonical order, and are all trivial.
    """
    if max_codim < 0:
        raise ValueError(f"max_codim must be >= 0, got {max_codim}")
    e = _kernel(Q, A, commutator)
    n = Q.n
    per_ideal = A.order() ** n
    if per_ideal > cap:
        # refused before the ideals are enumerated: the whole algebra is
        # an ideal of codimension 0, so every search visits one such product
        raise SearchSpaceTooLarge(per_ideal, cap)
    ideals = []
    for ideal in _walk_ideals(A):
        if ideal.codim <= max_codim:
            ideals.append(ideal)
            if len(ideals) * per_ideal > cap:
                raise SearchSpaceTooLarge(len(ideals) * per_ideal, cap)
    ideals.sort(key=_ideal_order)
    tables = _tables(A)
    witnesses = []
    for ideal in ideals:
        reps = _canonical_reps(A, ideal)
        codim = ideal.codim
        if not ideal.basis:
            # every element is its own representative, reps[i] has index i
            witnesses.extend(
                _new_witness(ideal, tuple(map(reps.__getitem__, point)), codim, True)
                for point in filterfalse(e, product(range(len(reps)), repeat=n))
            )
            continue
        members = tables.members(ideal)
        # each representative's coset, as element indices, built once
        cosets = [tables.shift(tables.index(rep), members) for rep in reps]
        for rep_tuple, lists in zip(product(reps, repeat=n), product(cosets, repeat=n)):
            if not any(map(e, product(*lists))):
                trivial = not any(map(any, rep_tuple))  # every representative is zero
                witnesses.append(_new_witness(ideal, rep_tuple, codim, trivial))
    return witnesses


# ---------------------------------------------------------------------------
# multilinear descent

@dataclass(frozen=True)
class DescentStep:
    stage: int
    statement: str
    verified: bool


@dataclass(frozen=True)
class DescentCertificate:
    steps: tuple
    identity_on_ideal: bool


@cache
def _certificate(n: int) -> DescentCertificate:
    """The certificate of every passed n-variable descent: its verified
    stage records, stages 1..n, depend on n alone, and it is frozen, so
    every descent of arity n returns this one object."""
    steps = []
    for s in range(1, n + 1):
        head = ", ".join(f"y_{i}" for i in range(1, s + 1))
        tail = ", ".join(f"a_{i}" for i in range(s + 1, n + 1))
        inside = head if not tail else f"{head}, {tail}"
        statement = f"e_Q({inside}) = 0 for all ({head}) in I^{s}"
        steps.append(DescentStep(stage=s, statement=statement, verified=True))
    return DescentCertificate(steps=tuple(steps), identity_on_ideal=True)


def _rep_indices(A: Algebra, reps) -> list:
    """The element indices of the representatives, each refused with
    WitnessInvalid unless it is a coordinate vector of A
    (_is_coordinate_vector's test, run as the index is read off)."""
    q, dim = A.field.q, A.dim
    ids = []
    for r in reps:
        if len(r) == dim:
            index = 0
            for c in r:
                if not (isinstance(c, int) and 0 <= c < q):
                    break
                index = index * q + c
            else:
                ids.append(index)
                continue
        raise WitnessInvalid(f"representative {r!r} is not a coordinate vector of length {dim}")
    return ids


def _descent_violation(message, Q, A, witness, commutator, **found) -> TheoremViolation:
    """A failed descent, with a witness that rebuilds it: _witness's
    fields, the ideal's basis and the representatives, plus what failed
    (the stage and its arguments, or the first nonzero coordinate on the
    restricted algebra).
    """
    return TheoremViolation(message, witness=_witness(
        Q, A, commutator,
        ideal=witness.ideal.basis,
        representatives=witness.representatives,
        **found,
    ))


def multilinear_descent(
    Q: FreePoly,
    A: Algebra,
    witness: CosetWitness,
    *,
    commutator: bool = False,
) -> DescentCertificate:
    """Turn a coset witness into an identity on the ideal, stage by stage.

    Stage s replaces the first s representatives by arbitrary ideal
    members; multilinearity lets each stage telescope from the previous
    one, and stage n says e_Q vanishes on I^n.  The stages enumerate on
    A's kernel; the final claim is checked by coordinate reduction, not
    by enumerating restrict(A, I)^n: every reduced coordinate polynomial
    of e_Q on it is zero (exact: a reduced polynomial is zero iff its
    function is).  A failure of either raises _descent_violation's
    TheoremViolation.

    What runs when:
    - per witness: the field, flavor, multilinearity, ambient and
      representative checks, the coset re-check over every point of the
      coset product, and stages 1..n-1, all on the kernel.  Over the zero
      ideal the coset product and each stage are single points, each
      evaluated by one kernel call.
    - per ideal: its member indices, kept on the algebra's tables.
    - per (Q, I): stage n and the final check run on the first descent
      that reaches them; passing both records the key, and later descents
      over the same ideal skip them.
    - per n: the certificate, one shared frozen object.
    """
    e = _kernel(Q, A, commutator)
    if not Q.analyze().multilinear:
        raise NotMultilinear(Q.to_text())
    ideal = witness.ideal
    _check_ambient(A, ideal)
    n = Q.n
    reps = witness.representatives
    if len(reps) != n:
        raise WitnessInvalid(f"expected {n} representatives, got {len(reps)}")
    rep_ids = _rep_indices(A, reps)
    tables = _tables(A)

    if ideal.basis:
        members = tables.members(ideal)
        cosets = [tables.shift(r, members) for r in rep_ids]
        bad = next(filter(e, product(*cosets)), None)
    else:
        members = None  # the zero ideal: every coset is one point
        bad = tuple(rep_ids) if e(rep_ids) else None
    if bad is not None:
        args = tuple(map(tables.vec, bad))
        raise WitnessInvalid(f"e_Q does not vanish on the coset product at {args!r}")

    key = (Q, ideal, commutator)
    known = key in tables.verified
    for s in range(1, n if known else n + 1):
        if members is None:
            point = [0] * s + rep_ids[s:]  # index 0 is the zero element
            bad = tuple(point) if e(point) else None
        else:
            slots = [members] * s + [(r,) for r in rep_ids[s:]]
            bad = next(filter(e, product(*slots)), None)
        if bad is not None:
            args = tuple(map(tables.vec, bad))
            message = f"descent stage {s} failed at {args!r}"
            raise _descent_violation(message, Q, A, witness, commutator, stage=s, args=args)

    if not known:
        sub, _ = restrict(A, ideal)
        nonzero = [c for c in reduced_coordinates(Q, sub, commutator=commutator) if not c.is_zero]
        if nonzero:
            raise _descent_violation(
                "identity on the ideal fails in the restricted algebra",
                Q, A, witness, commutator, coordinate=nonzero[0].to_text(),
            )
        tables.verified.add(key)
    return _certificate(n)


# ---------------------------------------------------------------------------
# block statistics over nested ideals

@dataclass(frozen=True)
class BlockStat:
    key: tuple
    outer_zero: bool
    zero_count: int
    total: int
    fraction: Fraction
    identically_zero: bool


@dataclass(frozen=True)
class BlockReport:
    """Zero counts of Q over A/J, split into blocks over the points of A/I.

    decay_hypothesis records whether no block over a zero of Q_I is
    identically zero; only then is the decay inequality
    f(Q,J) <= (1 - 2^{-d}) f(Q,I) asserted (it is reported either way).
    """

    degree: int
    threshold: Fraction
    f_outer: Fraction
    f_inner: Fraction
    decay_hypothesis: bool
    decay_holds: bool
    blocks: tuple


def block_statistics(
    Q: FreePoly,
    A: Algebra,
    ideal_i: Ideal,
    ideal_j: Ideal,
    *,
    cap: int = EXACT_CAP,
    commutator: bool = False,
) -> BlockReport:
    """Zero counts of Q over A/J, tallied into blocks over the points of A/I.

    The tally runs on A/J's kernel and keys each point through one list
    from an element index of A/J to its image in A/I.  Three routes check
    it, none of them the kernel: each block's outer zero test evaluates
    A/I on _evaluate_raw, the block average is compared with
    functional_zero_fraction on A/J's coordinates, and the decay inequality
    is then read off both.  A failure raises TheoremViolation, whose
    witness holds _witness's fields and both ideals' bases (as_ideal reads
    them back), then what failed: the block's key, zero count and total;
    or the weighted average and f_inner; or f_inner, f_outer and the
    threshold.
    """
    _product_fn(Q, A, commutator)
    _check_ambient(A, ideal_i)
    _check_ambient(A, ideal_j)
    if not ideal_j <= ideal_i:
        raise NotNested("the second ideal must sit inside the first")

    inner_alg, inner_map = quotient(A, ideal_j)
    outer_alg, outer_map = quotient(A, ideal_i)
    n = Q.n
    degree = _poly_degree(Q)
    threshold = _threshold(degree)
    if inner_alg.order() ** n > cap:
        raise SearchSpaceTooLarge(inner_alg.order() ** n, cap)

    def violation(message, **found):
        return TheoremViolation(message, witness=_witness(
            Q, A, commutator, ideal_i=ideal_i.basis, ideal_j=ideal_j.basis, **found,
        ))

    e = _kernel(Q, inner_alg, commutator)
    outer_prod = _product_fn(Q, outer_alg, commutator)
    # the image in A/I of each element of A/J, by its element index
    image = [outer_map.project(inner_map.lift(v)) for v in inner_alg.elements()]
    tallies = {}
    for point in product(range(len(image)), repeat=n):
        bucket = tallies.setdefault(tuple(map(image.__getitem__, point)), [0, 0])
        bucket[1] += 1
        if not e(point):
            bucket[0] += 1

    block_size = (ideal_i.size() // ideal_j.size()) ** n
    blocks = []
    outer_zero_keys = 0
    for key in product(list(outer_alg.elements()), repeat=n):
        zeros, total = tallies[key]
        counts = {"key": key, "zero_count": zeros, "total": total}
        if total != block_size:
            raise violation(f"block over {key!r} has {total} points, expected {block_size}", **counts)
        outer_zero = vec_is_zero(_evaluate_raw(Q, outer_alg, key, outer_prod))
        outer_zero_keys += outer_zero
        if not outer_zero and zeros:
            raise violation(
                f"zeros in a block over a nonzero of the outer quotient: {key!r}", **counts
            )
        fraction = Fraction(zeros, total)
        identically_zero = zeros == total
        if not identically_zero and fraction > threshold:
            raise violation(
                f"non-vanishing block over {key!r} has zero fraction {fraction} above {threshold}",
                **counts,
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
    f_inner = functional_zero_fraction(Q, inner_alg, cap=cap, commutator=commutator)
    weighted = Fraction(sum(b.zero_count for b in blocks), inner_alg.order() ** n)
    if weighted != f_inner:
        raise violation(
            f"block zero counts average to {weighted}, "
            f"direct enumeration gives {f_inner}",
            weighted=str(weighted),
            f_inner=str(f_inner),
        )

    decay_hypothesis = not any(b.outer_zero and b.identically_zero for b in blocks)
    decay_holds = f_inner <= threshold * f_outer
    if decay_hypothesis and not decay_holds:
        raise violation(
            f"decay f(Q,J) <= (1 - 2^-{degree}) f(Q,I) fails: "
            f"{f_inner} vs {threshold * f_outer}",
            f_inner=str(f_inner),
            f_outer=str(f_outer),
            threshold=str(threshold),
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


# ---------------------------------------------------------------------------
# Engel words and the nilpotency shadow

def engel_report(
    L: Algebra,
    m: int,
    *,
    cap: int = EXACT_CAP,
    workers: int = 1,
) -> EvalReport:
    """dixon_verdict for the Engel word [x, y, ..., y] (degree m + 1)."""
    if not L.bracket:
        raise NotALieAlgebra(L.name or "unnamed")
    return dixon_verdict(engel(m, L.field), L, cap=cap, workers=workers)


@dataclass(frozen=True)
class NagataHigmanReport:
    """Outcome of the x^d identity check and the nilpotency it forces.

    When x^d is an identity and the characteristic exceeds d, a finite
    nilpotency index is guaranteed and asserted; otherwise the findings
    are reported without any claim.
    """

    d: int
    char: int
    power_is_identity: bool
    applicable: bool
    nilpotency_index: int | None
    asserted: bool


def nagata_higman_check(
    A: Algebra,
    d: int,
    *,
    cap: int = EXACT_CAP,
) -> NagataHigmanReport:
    if A.bracket:
        raise FlavorMismatch("the power-identity check needs a plain product table")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if A.order() * d > cap:
        # each of the order points multiplies d factors; refused before the
        # d-letter word is built
        raise SearchSpaceTooLarge(A.order() * d, cap)
    report = zero_probability(power_word(d, A.field), A, cap=cap)
    char = A.field.p
    applicable = char > d
    index = nilpotency_index(A)
    asserted = bool(report.is_identity) and applicable
    if asserted and index is None:
        # the witness replays: rebuild the algebra, recount x^d, rerun the search
        raise TheoremViolation(
            f"x^{d} is an identity in characteristic {char} > {d} "
            "but no finite nilpotency index was found",
            witness={
                "algebra": to_json_dict(A),
                "d": d,
                "char": char,
                "zero_count": report.zero_count,
                "total": report.total,
                "nilpotency_index": index,
            },
        )
    return NagataHigmanReport(
        d=d,
        char=char,
        power_is_identity=bool(report.is_identity),
        applicable=applicable,
        nilpotency_index=index,
        asserted=asserted,
    )
