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
Over GF(2^k) and GF(3), a count of at least LANES_MIN_POINTS points runs
on lanes (fqidtest.lanes): each point of A^n is one bit of a Python int,
and e_Q runs once on all the points of a block.  A lanes count runs in
the calling process whatever the workers, as it is already faster than a
forked point walk.  Otherwise one walker (_count_range) counts on the
kernel, slice by slice where it can.  If
some variable occurs at most once in every term, e_Q is affine in it, so
with the other arguments fixed it is v -> L(v) + c: the kernel runs at
v = 0 and at the dim basis vectors only, one rref of the L(b_i) gives
rank L, and the slice has q**(dim - rank L) zeros when c reduces to zero
against its rows, none otherwise.  That evaluates (dim + 1) *
order**(n-1) points instead of order**n, and one rref per distinct slice,
memoised for one count call only.  A slice pays only when it holds more
than three times as many points as probes, and a count of one argument
never slices.  For the zero polynomial, with no affine variable and where
slices do not pay, the walker calls the kernel at every point, and this
point walk is the reference the slices and the lanes are tested against.
A count forks only once the points it walks reach bound.FORK_POINTS and
more than one worker is asked for; any other count is serial, and a
serial count is one walker call on the whole range (the one-chunk case
of the forked walk), with no chunk list and no pool_map.  The exact
report is built once, in zero_probability; its probability comes from a
bounded cache keyed by the zero count and the total, since counts of a
few points repeat their values across algebras as well as across calls.
Over GF(2^k) and GF(3) no exact count slices: a slice needs two
arguments and order > 3 * (dim + 1), so order**n >= 49 points, which
lanes take.  Each route's count is exact, and the coordinate route that
checks it is unchanged.  A sampled count streams its points from
SplitMix64(seed) in blocks of whole points, and the same gate, read at
the number of samples, sends it to lanes (lanes.sampled, on
SplitMix64.digits) or to the kernel (SplitMix64.points); both read the
one stream.  The kernel's points take each digit mod q exactly, while
the lanes feed carries it at the cost of at most one multiply a block
and hands lanes its reader (_digit_lanes, _digit_reader).  Coset search
lists the zero ideal's witnesses, the zeros of e_Q, by the same gate at
order**n points: off lanes.zero_flags, one byte per point from the
blocks of a lanes count, or off the kernel's point walk; its other
ideals, and descent's coset re-check, stay on the kernel.

The kernel is one generated function per (Q, commutator): its body
unpacks the argument indices into locals and gives each distinct product
node one table lookup, so a subterm that several terms share costs one
lookup per point, and the terms are summed one statement each.  Its
source holds fixed names, locals and ints only, never text from Q, and
equal sources share one compiled code object.  The function depends only
on (Q, A, commutator), so the algebra keeps it: the field and flavor gate
runs and the function is built on the first call for each
(Q, commutator), and a later call with an equal Q finds it.  Descent's
claim that e_Q vanishes on I^n depends only on (Q, I) and the product
flavor, so the same entry also keeps the ideals verified for it: the
stage-n check and the restricted-algebra check run once per ideal per
entry, both in full, and later descents to the ideal skip them, with one
lookup for e_Q and the ideals together.  None of these memos is
pickled.  A descent's stage records depend only on n, so every
certificate of arity n shares one tuple of them.

A note on the threshold comparison: the verdict uses the weak form

    is_identity  OR  probability <= 1 - 2^{-d}.

The bound is attained exactly over GF(2) -- e.g. the 2-dimensional
algebra with b1*b2 = b1 (all other products zero) gives x1*x1 the zero
probability 3/4 = 1 - 2^{-2} without being an identity -- so a strict
comparison would reject correct behavior on extremal inputs.
"""

import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress, count, product, repeat
from operator import add, itemgetter, mul, not_

from .algebra import (
    Algebra,
    Ideal,
    _check_ambient,
    _ideal_order,
    _is_coordinate_vector,
    _walk_ideals,
    nilpotency_index,
    quotient,
    reduce_against,
    restrict,
    rref,
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

# element indices per packed block, rounded down to whole points (one point
# per block when it has more arguments), so memory stays flat: a sampled
# count on lanes ran about 10% faster at 512 than at 256 and 5% slower than
# at 1,024, whose blocks took 2.3 times the memory
_BLOCK_CEILING = 512

# the lanes feed over GF(3) (_digit_lanes): ceil(2**72 / 3), the mask of
# a lane's 72-bit fraction, and the digit that a fraction's top byte reads
_THIRD = ((1 << 72) + 2) // 3
_MASK72 = (1 << 72) - 1
_THIRDS = bytes(0 if v < 64 else 1 if v < 128 else 2 for v in range(256))
_BYTES = bytes(range(256))

# the fold leaves each lane below (2**32 - 1) * q < 2**_FOLD_BITS for every
# q <= gf.MAX_ORDER (2**16)
_FOLD_BITS = 49

# big-endian an int's native bytes run from its last 64-bit lane down
_WORD_STEP = 1 if sys.byteorder == "little" else -1


# ---------------------------------------------------------------------------
# deterministic sampling

class SplitMix64:
    """64-bit split-mix generator: linear state walk, mixing output.

    Draws are fully determined by the seed, so sampled runs are
    reproducible bit for bit.  Coordinates are drawn per sample, per
    argument, per coordinate, each as the next 64-bit output mod q.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def _outputs(self, dim: int, n: int, samples: int):
        """samples points of A^n, A of dimension dim, drawn in blocks of
        whole points: each block a triple (count, draws, z) of its points,
        its count * n * dim draws and its outputs, or (count, 0, None)
        where a point draws nothing.

        A block holds whole points, up to _BLOCK_CEILING element indices,
        and the last block only the points left; self.state is stored once
        per block, before it is yielded.  Draw (i * n + a) * dim + s,
        coordinate s of argument a of point i, is the next 64-bit output of
        the stream, most significant coordinate first (elements() order),
        so the stream is the one drawn one output at a time.  z is one
        Python int with each draw in a 128-bit lane: the Weyl states are
        state * R + k * gamma, and a full block after a full block moves
        each of them on by one add of (draws * gamma mod 2**64) * R, which
        stays in its lane; the three mixing rounds run on the whole int,
        each lane masked to 64 bits before each multiply so that no
        product reaches the next lane.  Each lane's low 64 bits are its
        output; the last round leaves bits of the next lane above them.
        """
        state = self.state
        per_block = max(1, _BLOCK_CEILING // n) if n else samples
        advance = None  # a full block's Weyl lanes less the last full block's
        for start in range(0, samples, per_block):
            count = min(per_block, samples - start)
            if not (n and dim):
                self.state = state
                yield count, 0, None
                continue
            draws = count * n * dim
            ones, R, steps = _lanes(draws)[:3]
            if start and count == per_block:
                # only the last block is short, so the one before was full
                if advance is None:
                    advance = (draws * _GAMMA & _MASK64) * R
                s = (s + advance) & ones
            else:
                s = (state * R + steps) & ones
            z = ((s ^ (s >> 30)) & ones) * _MIX1 & ones
            z = ((z ^ (z >> 27)) & ones) * _MIX2 & ones
            state = self.state = (state + draws * _GAMMA) & _MASK64
            yield count, draws, z ^ (z >> 31)

    def digits(self, q: int, dim: int, n: int, samples: int):
        """The draws of _outputs(dim, n, samples) as lanes read them, block
        by block: each block a pair (count, buffer) of its points and the
        little-endian bytes of _digit_lanes(z, q, draws), 16 of them per
        draw, in draw order; _digit_reader(q) reads each draw's digit, its
        output mod q, off its 16 bytes.  A zero-dimensional algebra or a
        polynomial without variables draws nothing, and buffer is empty.
        """
        for count, draws, z in self._outputs(dim, n, samples):
            yield count, b"" if z is None else _digit_lanes(z, q, draws).to_bytes(16 * draws, "little")

    def points(self, q: int, dim: int, n: int, samples: int):
        """The points of _outputs(dim, n, samples), block by block: each
        block an iterator of n-tuples of element indices.

        Each draw's digit is its output mod q, for every q (_lane_mod).
        The indices are Horner steps on packed ints: digit j of every index
        is gathered into one int of 64-bit lanes, and acc * q + digits_j
        runs on all indices at once, in groups of digits whose value fits
        a 64-bit lane (_reduction); an index of several groups joins them
        per index.
        """
        group = _reduction(q)[3]
        for count, draws, z in self._outputs(dim, n, samples):
            if z is None:
                yield repeat((0,) * n, count)
                continue
            # 64-bit words, little-endian: word 2 * (i * dim + j) is digit j of index i
            digits = _lane_mod(z, q, _lanes(draws)[3]).to_bytes(16 * draws, "little")
            low = memoryview(digits).cast("Q")
            index = None
            for first in range(0, dim, group):
                last = min(first + group, dim)
                acc = 0
                for j in range(first, last):
                    acc = acc * q + int.from_bytes(low[2 * j::2 * dim], "little")
                part = _words(acc, count * n)
                index = part if index is None else map(add, map(mul, index, repeat(q ** (last - first))), part)
            yield zip(*[iter(index)] * n)


@lru_cache(maxsize=16)
def _lanes(draws: int):
    """The lane constants of a block of draws: the 64-bit mask of every
    lane, R with 1 in every lane, k * gamma mod 2**64 in lane k - 1, and
    the 32-bit and 72-bit masks of every lane.  A run's last block may be
    shorter than the others, so the cache is bounded."""
    R = ((1 << (128 * draws)) - 1) // ((1 << 128) - 1)
    steps = b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, draws + 1))
    return R * _MASK64, R, int.from_bytes(steps, "little"), R * 0xFFFFFFFF, R * _MASK72


def _digit_lanes(z: int, q: int, draws: int) -> int:
    """The lanes feed of a block's outputs z (SplitMix64._outputs), as
    _digit_reader(q) reads it: each draw's digit, its output mod q, is
    carried in the draw's 128-bit lane at the cost of at most one multiply.

    - q = 2**k: z itself.  The digit is the output's low k bits, and the
      bit planes read only those.
    - q = 3: each output x, masked to 64 bits, times _THIRD =
      ceil(2**72 / 3), so that a lane's low 72 bits are the fraction of
      x / 3 to 72 bits, exact as 72 >= 64 + log2 3 (Lemire, Kaser and
      Kurz, "Faster Remainder by Direct Computation", 2019).  Writing
      x = 3a + r, they are r * (2**72 + 2) / 3 + 2a, so the fraction lies
      in [r/3, r/3 + 1/384) and its top byte, byte 8 of the lane, is 0,
      85, or 170 or 171.  A lane's product reaches 135 bits, and the 7
      above the lane carry less than 2**7 into the next lane's fraction:
      byte 8 then reads at most 86 for r = 1 and at most 171 for r = 2,
      far from the thresholds 64 and 128 that _digit_reader's table
      reads.  The 72-bit mask of every lane keeps the last lane's carry
      out of the buffer's 16 * draws bytes.
    - any other q: _lane_mod's exact digit.
    """
    if q == 3:
        ones, _, _, _, low72 = _lanes(draws)
        return (z & ones) * _THIRD & low72
    if q & (q - 1) == 0:
        return z
    return _lane_mod(z, q, _lanes(draws)[3])


def _digit_reader(q: int):
    """(offset, decode): each draw's digit in the lanes of _digit_lanes(z,
    q, draws) starts at byte offset of its 16 bytes, and decode
    translates each byte of it into the digit's byte, in every bit that
    a plane reads.  Over GF(3) that is byte 8, read as 0 below 64, 1 from
    64 and 2 from 128; otherwise the digit is the lane's low bytes as
    they are, and over GF(2^k) the bits from k on are not read."""
    return (8, _THIRDS) if q == 3 else (0, _BYTES)


@cache
def _reduction(q: int):
    """(r, m, shift, group) for q <= gf.MAX_ORDER.  r = 2**32 mod q and
    m = 2**shift // q + 1 with shift = _FOLD_BITS + (q - 1).bit_length()
    are _lane_mod's constants; group is the most digits whose Horner value
    fits a 64-bit word, q**group <= 2**64."""
    shift = _FOLD_BITS + (q - 1).bit_length()
    group = 1
    while q ** (group + 1) <= 1 << 64:
        group += 1
    return pow(2, 32, q), (1 << shift) // q + 1, shift, group


def _lane_mod(z: int, q: int, low32: int) -> int:
    """The low 64-bit word of each 128-bit lane of z, mod q, lane by lane;
    low32 is the 32-bit mask of every lane, and the bits above each low
    word are ignored.

    A word hi * 2**32 + lo folds to y = hi * r + lo, congruent mod q, with
    y <= (2**32 - 1) * q < 2**49; r is 0 when q divides 2**32 and 1 when
    q divides 2**32 - 1, and neither needs the product.  Granlund and
    Montgomery: since m * q - 2**shift <= q <= 2**(shift - 49),
    y * m >> shift is y // q for every y < 2**49, and y * m < 2**99 stays
    in its lane.
    """
    r, m, shift, _ = _reduction(q)
    y = z & low32
    if r == 1:
        y += z >> 32 & low32
    elif r:
        y += (z >> 32 & low32) * r
    return y - ((y * m >> shift) & low32) * q


def _words(z: int, lanes: int):
    """The lanes of z as 64-bit words, first lane first."""
    return memoryview(z.to_bytes(8 * lanes, sys.byteorder)).cast("Q")[::_WORD_STEP]


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
    a * order + b.  Beside them sit the kernel entry of each
    (Q, commutator): the compiled e_Q and the ideals whose descent is
    verified for it; each ideal's member indices; the element tuples, in
    canonical order, from which every search picks its representatives
    (order tuples, built on the first search; the zero ideal's
    representatives are all of them); and the representative tuples
    _rep_indices has checked.
    The algebra keeps them in its memo under the key _Tables; none of it
    is pickled, as Algebra.__getstate__ leaves the memo behind.
    """

    __slots__ = (
        "field", "dim", "order", "products", "sums", "scales", "kernels", "ideal_members",
        "elements", "checked",
    )

    def __init__(self, A: Algebra):
        self.field = A.field
        self.dim = A.dim
        self.order = A.order()
        self.products = {}  # commutator flag -> product table
        self.sums = None
        self.scales = {}  # coefficient -> table of its multiples
        self.kernels = {}  # (Q, commutator) -> (e_Q on element indices, verified ideals)
        self.ideal_members = {}  # ideal -> its members' indices, in elements() order
        self.elements = None  # element index -> its coordinate tuple, once a search ran
        self.checked = {}  # representative tuple -> (that tuple, its index), once checked

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
    try:
        return A._memo[_Tables]
    except KeyError:
        tables = A._memo[_Tables] = _Tables(A)
        return tables


def _kernel(Q: FreePoly, A: Algebra, commutator: bool):
    """e_Q on element indices: a function from n indices to the value's
    index, read off the algebra's kernel entry (_entry)."""
    return _entry(_tables(A), Q, A, commutator)[0]


def _entry(tables: _Tables, Q: FreePoly, A: Algebra, commutator: bool):
    """The kernel entry of (Q, commutator) on A's tables: e_Q on element
    indices, and the set of ideals descent has verified for it.

    Per call: one lookup.  Per compile, on a miss: the field and flavor
    gate (_product_fn), then the function, compiled and kept with an empty
    set, so a coset search and all its descents compile e_Q once.  The
    gate need not run again on a hit: the key's Q equals this one, and
    FreePoly.__eq__ compares field and flavor, so this Q passes the gate
    the stored one passed on the same algebra with the same commutator
    flag.  A refused Q is never stored.
    """
    key = (Q, commutator)
    entry = tables.kernels.get(key)
    if entry is None:
        prod = _product_fn(Q, A, commutator)
        entry = tables.kernels[key] = (_compile(Q, tables, tables.product(commutator, prod)), set())
    return entry


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
    names every field: a new field goes there too.  dixon_verdict's report
    is a copy of its count's with the two functional fields set.
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


# a small count's zero fraction recurs across algebras, not only across
# calls on one algebra: 3/4 of 16 points is one value wherever it is met
@lru_cache(maxsize=1024)
def _fraction(zero_count: int, total: int) -> Fraction:
    return Fraction(zero_count, total)


def _slice_variable(Q: FreePoly, A: Algebra):
    """The index j of the variable _count_range counts e_Q along, slice by
    slice, or None to walk every point (the policy is _count_route's).

    Products are bilinear, so a term in which x_{j+1} occurs at most once is
    linear in it or constant, and e_Q is affine in it.  The last such
    variable is taken.  The zero polynomial has none, and a count of one
    argument takes none.  A slice trades its order points for dim + 1
    probes and, when its probe values are new to the count, one verdict:
    an rref of dim vectors, which costs about as much as 15, 25, 40 and
    70 kernel calls at dim 1 to 4 over GF(5) to GF(13) (2-vCPU Intel
    Xeon, Python 3.11.7).  A slice is walked point by point unless it
    holds more than three times as many points as probes.
    """
    if Q.n < 2 or Q.is_zero or A.order() <= 3 * (A.dim + 1):
        return None
    degrees = Q.analyze().multidegree
    return next((j for j in range(Q.n - 1, -1, -1) if degrees[j] <= 1), None)


def _count_range(payload):
    """Count zeros of e_Q over A^n with the first walked argument's index in
    range(start, stop) (worker-safe).

    Every argument but x_{j+1} is walked in canonical order, the first of
    them over range(start, stop); with none to walk, the walk is the one
    empty point.  With j None the kernel runs once per point.  Otherwise
    x_{j+1} runs innermost over the probes 0 and the basis vectors
    b_1..b_dim: on a slice e_Q is v -> L(v) + c for a linear map L, so the
    probes give c and L(b_i) + c, and the slice has q**(dim - rank L)
    zeros if c is in the image of L and none otherwise.
    """
    Q, A, commutator, j, start, stop = payload
    e = _kernel(Q, A, commutator)
    tables = _tables(A)
    order, dim, n = tables.order, tables.dim, Q.n
    walked = [range(order)] * (n if j is None else n - 1)
    if walked:
        walked[0] = range(start, stop)
    if j is None:
        return sum(map(not_, map(e, product(*walked))))
    probes = [0] + [order // tables.field.q ** i for i in range(1, dim + 1)]
    points = product(*walked, probes)
    if j != n - 1:
        # the probe is walked last; move it into argument slot j
        points = map(itemgetter(*range(j), n - 1, *range(j, n - 1)), points)
    slices = zip(*[map(e, points)] * (dim + 1))
    return sum(map(_slice_zeros(tables).__getitem__, slices))


def _slice_zeros(tables: _Tables) -> _Memo:
    """A fresh memo from a slice's probe values (c, L(b_1) + c, ...) to its
    zero count, built for one count call and dropped after it.

    One rref of the L(b_i), read off the add table and the scale table of
    -1, gives rank L, and c lies in the image of L iff it reduces to zero
    against those rows: the slice then has q**(dim - rank L) zeros.
    """
    order, dim, f, vec = tables.order, tables.dim, tables.field, tables.vec
    add = tables.add()
    negate = tables.scale(f.neg(1))

    def zeros(key):
        c = key[0]
        minus_c = negate[c]
        images = [vec(add[r * order + minus_c] if c else r) for r in key[1:]]  # the L(b_i)
        rows, pivots = rref(f, images, dim)
        if any(reduce_against(f, rows, pivots, vec(c))):
            return 0
        return f.q ** (dim - len(rows))

    return _Memo(zeros)


# Points from which a count over GF(2^k) or GF(3) runs on lanes: on the
# 1,024 verdicts of the sweep benchmark (the 256 dimension-2 GF(2) tables
# times the battery, counts of 4 and 16 points), counting on lanes took
# 8.5 us a count against 7.3 on the kernel walker, and 24.1 us a verdict
# against 18.7; from 64 points lanes save more: two 64-point words on the
# same tables took 24 us a count on lanes against 49 on the walker.  On
# 126 one-argument counts of 32 to 256 points on random tables with nine
# in ten constants nonzero, lanes took 0.71 to 2.8 times the walker's time
# a count, 1.4 times in total (5.2 ms against 3.7; 2-vCPU Intel Xeon,
# Python 3.11.7), and 0.79 times on the sweep benchmark's 81-point GF(3)
# counts: no benchmark workload counts where the walker is faster
LANES_MIN_POINTS = 32


def _count_route(Q: FreePoly, A: Algebra, points: int):
    """(route, j): how a count of e_Q's zeros at points points runs, as
    the module docstring sets out: order**n points for _count_exact and
    the samples for a sampled count.  "lanes" over GF(2^k) and GF(3) once
    the points reach LANES_MIN_POINTS, else "slice" along x_{j+1} where
    _slice_variable gives j, else "points"; j is None but on the slice
    route.  A sampled count off lanes runs on the kernel whatever the
    route."""
    if (A.field.p == 2 or A.field.q == 3) and points >= LANES_MIN_POINTS:
        return "lanes", None
    j = _slice_variable(Q, A)
    return ("points", None) if j is None else ("slice", j)


def _count_exact(Q, A, commutator, workers):
    """Zeros of e_Q over A^n, by the route _count_route gives.

    The point and slice routes are the one walker _count_range, on j None
    or on the slice variable j.  Its chunks are ranges of the first walked
    argument's index.  A count forks once the points it walks (probes on
    the slice route) reach bound.FORK_POINTS, read at call time so that
    one binding sets the threshold for every job, and more than one
    worker is asked for; its chunks then go to pool_map.  Any other count
    is serial, and a serial count is one walker call on the whole range,
    the one-chunk case, with no chunk list and no pool_map.  The lanes
    route runs its blocks in process and never forks (lanes.count).
    """
    order, n = A.order(), Q.n
    route, j = _count_route(Q, A, order**n)
    if route == "lanes":
        return lanes.count(Q, A, commutator)
    if j is None:
        walked, points = n, order**n
    else:
        walked, points = n - 1, (A.dim + 1) * order ** (n - 1)
    first = order if walked else 1
    if workers > 1 and points >= bound.FORK_POINTS:
        ranges = chunk_ranges(0, first, workers)
        payloads = [(Q, A, commutator, j, start, stop) for start, stop in ranges]
        return sum(pool_map(_count_range, payloads, workers))
    return _count_range((Q, A, commutator, j, 0, first))


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

    An exact count checks the cap, then takes the route _count_route
    gives (_count_exact; a serial count is one walker call), and its
    report is built here, once: the probability from the bounded cache
    _fraction, the verdict compared on the integers.  A sampled count
    checks the cap before any draw, then streams its points from
    SplitMix64(seed) in blocks of whole points and runs each block on
    lanes or on the kernel, as the module docstring sets out, so its
    memory stays bounded whatever the samples.
    """
    _product_fn(Q, A, commutator)  # fail fast on flavor problems
    degree = _poly_degree(Q)
    n = Q.n

    if samples is None:
        total = A.order() ** n
        if total > cap:
            raise SearchSpaceTooLarge(total, cap)
        zeros = _count_exact(Q, A, commutator, workers)
        is_identity = zeros == total
        return _new_report(
            zeros, total, _fraction(zeros, total), degree, _threshold(degree), is_identity,
            # the probability zeros/total at most 1 - 2^-degree, on the integers
            is_identity or zeros << degree <= ((1 << degree) - 1) * total,
            "exact", None, None, None, None,
        )

    if samples < 1:
        raise ValueError("samples must be a positive integer")
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    if samples > cap:
        raise SearchSpaceTooLarge(samples, cap)
    stream, q = SplitMix64(seed), A.field.q
    if _count_route(Q, A, samples)[0] == "lanes":
        blocks = stream.digits(q, A.dim, n, samples)
        zero_count = lanes.sampled(Q, A, commutator, blocks, _digit_reader(q))
    else:
        e = _kernel(Q, A, commutator)
        blocks = stream.points(q, A.dim, n, samples)
        zero_count = sum([sum(map(not_, map(e, block))) for block in blocks])
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
    commpoly.zero_counter's: bit-sliced over GF(2), on two bit planes per
    value over GF(3), and a point walk otherwise.
    """
    _product_fn(Q, A, commutator)
    width = Q.n * A.dim
    count = zero_counter(A.field, width, cap)
    coords = reduced_coordinates(Q, A, commutator=commutator)
    return Fraction(count([c.monomials for c in coords]), A.field.q**width)


# ---------------------------------------------------------------------------
# the threshold verdict

def _witness(check: str, Q: FreePoly, A: Algebra, commutator: bool, **found) -> dict:
    """A TheoremViolation witness that rebuilds the (Q, A) pair: the check
    that failed ("dixon", "descent-stage", "descent-final" or "blocks"),
    the polynomial text, its variable count n (the text drops unused
    trailing variables), flavor and commutator flag and the algebra
    document, then what failed.  --out human prints the keys in this
    order."""
    return {
        "check": check,
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

    Route one counts the zeros of e_Q on A^n (zero_probability, by the
    route _count_route gives; a serial count is one walker call).
    Route two reads the degree of each reduced coordinate polynomial off
    its packed monomials (commpoly.reduced_degrees): all zero iff e_Q is
    an identity, and otherwise each nonzero coordinate forces the nonzero
    fraction up to its density floor.  The floor does not increase with
    the degree, so the strongest one is taken at the least degree.  Both
    bounds are compared on the integer counts.  Disagreement on either
    route is an implementation bug and raises TheoremViolation, whose
    witness holds _witness's fields, the zero count and the count route,
    so that the count can be replayed; it is built only then
    (_violation).
    """
    report = zero_probability(Q, A, cap=cap, workers=workers, commutator=commutator)
    degrees = reduced_degrees(Q, A, commutator)
    if None in degrees:  # zero coordinates have no degree
        degrees = [d for d in degrees if d is not None]
    if (not degrees) != report.is_identity:
        raise _violation(
            "enumeration and coordinate reduction disagree on identity-ness",
            Q, A, commutator, report,
        )
    if not degrees:
        return _verdict_report(report, None)
    floor = floor_fraction(A.field.q, min(degrees)).value
    zeros, total, degree = report.zero_count, report.total, report.degree
    # the nonzero fraction 1 - zeros/total under the floor
    if (total - zeros) * floor.denominator < floor.numerator * total:
        raise _violation(
            f"nonzero fraction {1 - report.probability} under the "
            f"coordinate density floor {floor}",
            Q, A, commutator, report,
        )
    # the zero fraction zeros/total above 1 - 2^-degree
    if zeros << degree > ((1 << degree) - 1) * total:
        raise _violation(
            f"non-identity with zero probability {report.probability} "
            f"above 1 - 2^-{degree}",
            Q, A, commutator, report,
        )
    return _verdict_report(report, floor)


def _violation(
    message: str, Q: FreePoly, A: Algebra, commutator: bool, report: EvalReport
) -> TheoremViolation:
    """dixon_verdict's TheoremViolation: _witness's fields, then the count,
    its route, and the count's probability and threshold as text."""
    return TheoremViolation(message, witness=_witness(
        "dixon", Q, A, commutator,
        zero_count=report.zero_count,
        total=report.total,
        route=_count_route(Q, A, report.total)[0],
        probability=str(report.probability),
        threshold=str(report.threshold),
    ))


def _verdict_report(report: EvalReport, floor) -> EvalReport:
    """zero_probability's exact report with dixon_verdict's functional
    fields: the floor and a consistent second route.  The count's fields
    are copied as they are, its probability and threshold included, so no
    second Fraction is built, and the keys keep the declared order."""
    verdict = object.__new__(EvalReport)
    verdict.__dict__.update(report.__dict__, functional_floor=floor, functional_consistent=True)
    return verdict


# ---------------------------------------------------------------------------
# coset identities

@dataclass(frozen=True, slots=True)
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


# the slot descriptors of the fields, in declared order: a descriptor's
# __set__ writes its slot directly, past the frozen class's __setattr__
_set_ideal, _set_representatives, _set_codim, _set_trivial = (
    CosetWitness.__dict__[f.name].__set__ for f in fields(CosetWitness)
)


def _new_witness(ideal, representatives, codim, trivial) -> CosetWitness:
    """CosetWitness of these fields, built without the constructor's call:
    each field is written through its slot descriptor, where the frozen
    dataclass's __init__ goes through object.__setattr__, so the witness
    is the one the constructor builds.  A witness has slots and no
    instance dict: about 65 bytes, where one with a dict took about 105
    (Python 3.11), and a search keeps thousands."""
    witness = object.__new__(CosetWitness)
    _set_ideal(witness, ideal)
    _set_representatives(witness, representatives)
    _set_codim(witness, codim)
    _set_trivial(witness, trivial)
    return witness


def _canonical_reps(A: Algebra, ideal: Ideal) -> list:
    """Canonical coset representatives, ascending in coordinate order: the
    elements zero at each of the ideal's pivots, picked from the element
    tuples kept on the algebra's tables, so that every search hands out
    the same tuple objects.  The zero ideal's are all of them (shared: do
    not mutate)."""
    tables = _tables(A)
    elements = tables.elements
    if elements is None:
        elements = tables.elements = list(A.elements())
    if not ideal.pivots:
        return elements
    # two items at least, so that each read is a tuple
    at_pivots = itemgetter(ideal.pivots[0], *ideal.pivots)
    return list(compress(elements, map(not_, map(any, map(at_pivots, elements)))))


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
    are the zeros of e_Q, and all trivial: compress picks the
    representative tuples, in canonical order, at the points flagged
    zero, and map builds a witness of each, so the only frame of Python
    code that runs per point is _new_witness's, once per zero.  The flags
    are lanes.zero_flags, one pass per block, where _count_route sends a
    count of order**n points to lanes, and otherwise the kernel's walk
    over the element indices.
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
    order = tables.order
    witnesses = []
    for ideal in ideals:
        reps = _canonical_reps(A, ideal)
        codim = ideal.codim
        if not ideal.basis:
            # every element is its own representative, reps[i] has index i,
            # so the tuples of reps run in step with the points of indices
            if _count_route(Q, A, order**n)[0] == "lanes":
                zeros = lanes.zero_flags(Q, A, commutator)
            else:
                zeros = map(not_, map(e, product(range(order), repeat=n)))
            witnesses.extend(map(
                _new_witness, repeat(ideal), compress(product(reps, repeat=n), zeros),
                repeat(codim), repeat(True),
            ))
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


def _rep_indices(tables: _Tables, reps) -> list:
    """The element indices of the representatives, each refused with
    WitnessInvalid unless it is a coordinate vector of the algebra.

    A tuple checked before on this algebra is read off tables.checked,
    which keeps the tuple object itself beside its index: only that very
    object counts as checked, as a tuple of floats equal to ints is equal
    to it.  Coset search hands one tuple object to many witnesses, so most
    representatives are found there.  Any other is checked by _rep_index
    and then kept, if it is a tuple, in place of an equal one.
    """
    checked = tables.checked
    ids = []
    for r in reps:
        try:
            kept, index = checked[r]
            seen = kept is r
        except (KeyError, TypeError):  # not kept, or unhashable
            seen = False
        if not seen:
            index = _rep_index(tables, r)
            if type(r) is tuple:
                checked[r] = r, index
        ids.append(index)
    return ids


def _rep_index(tables: _Tables, r) -> int:
    """The element index of r, refused with WitnessInvalid unless r is a
    coordinate vector of the algebra (_is_coordinate_vector's test, run as
    the index is read off)."""
    q, dim = tables.field.q, tables.dim
    if len(r) == dim:
        index = 0
        for c in r:
            if not (isinstance(c, int) and 0 <= c < q):
                break
            index = index * q + c
        else:
            return index
    raise WitnessInvalid(f"representative {r!r} is not a coordinate vector of length {dim}")


def _descent_violation(check, message, Q, A, witness, commutator, **found) -> TheoremViolation:
    """A failed descent, with a witness that rebuilds it: _witness's
    fields, check "descent-stage" or "descent-final" first, the ideal's
    basis and the representatives, plus what failed (the stage and its
    arguments, or the first nonzero coordinate on the restricted algebra).
    """
    return TheoremViolation(message, witness=_witness(
        check, Q, A, commutator,
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
    - per witness: the multilinearity, ambient and representative checks
      (_rep_indices), the coset re-check over every point of the coset
      product, and stages 1..n-1, all on the kernel.  Over the zero ideal
      the coset product and each stage are single points, and the
      re-check and the stages are one pass, one kernel call per point.
    - per (Q, commutator): the field and flavor gate, as _entry compiles.
      Every descent reads the kernel entry once: e_Q and the ideals
      verified for it.
    - per ideal: its member indices, kept on the algebra's tables.
    - per (Q, I): stage n and the final check run on the first descent
      that reaches them; passing both records the ideal in the entry, and
      later descents over the same ideal skip them.
    - per n: the certificate, one shared frozen object.
    """
    tables = _tables(A)
    e, verified = _entry(tables, Q, A, commutator)
    if not Q.analyze().multilinear:
        raise NotMultilinear(Q.to_text())
    ideal = witness.ideal
    _check_ambient(A, ideal)
    n = Q.n
    reps = witness.representatives
    if len(reps) != n:
        raise WitnessInvalid(f"expected {n} representatives, got {len(reps)}")
    rep_ids = _rep_indices(tables, reps)
    known = ideal in verified
    last = n - 1 if known else n  # the last stage to run; stage 0 is the coset re-check

    if ideal.basis:
        members = tables.members(ideal)
        cosets = [tables.shift(r, members) for r in rep_ids]
        stage, bad = 0, next(filter(e, product(*cosets)), None)
        while bad is None and stage < last:
            stage += 1
            slots = [members] * stage + [(r,) for r in rep_ids[stage:]]
            bad = next(filter(e, product(*slots)), None)
    else:
        # the zero ideal: every coset is one point, and stage s is the point
        # with its first s arguments 0 (the zero element's index), so the
        # re-check and the stages are one pass over last + 1 points; the
        # first point on which e_Q is nonzero is at the failed stage
        points = [rep_ids]
        for s in range(1, last + 1):
            points.append([0] * s + rep_ids[s:])
        bad = next(filter(e, points), None)
        stage = None if bad is None else points.index(bad)
    if bad is not None:
        args = tuple(map(tables.vec, bad))
        if not stage:
            raise WitnessInvalid(f"e_Q does not vanish on the coset product at {args!r}")
        message = f"descent stage {stage} failed at {args!r}"
        raise _descent_violation(
            "descent-stage", message, Q, A, witness, commutator, stage=stage, args=args
        )

    if not known:
        sub, _ = restrict(A, ideal)
        nonzero = [c for c in reduced_coordinates(Q, sub, commutator=commutator) if not c.is_zero]
        if nonzero:
            raise _descent_violation(
                "descent-final", "identity on the ideal fails in the restricted algebra",
                Q, A, witness, commutator, coordinate=nonzero[0].to_text(),
            )
        verified.add(ideal)
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
            "blocks", Q, A, commutator, ideal_i=ideal_i.basis, ideal_j=ideal_j.basis, **found,
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
                "check": "nagata",
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
