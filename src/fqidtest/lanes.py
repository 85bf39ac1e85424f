"""Zero counts on bit planes, exact and sampled: idtest's lanes route,
which idtest takes for every count over GF(2^k) or GF(3) of at least
idtest.LANES_MIN_POINTS points.

Each point of a block is one bit of a Python int.  An algebra A over
GF(2^k) is read by restriction of scalars as a GF(2)-algebra of dimension
width = k * dim, and one over GF(3) has width = dim; a lane is one GF(p)
coordinate.  Each lane of each argument is one int over GF(2), its plane,
and two over GF(3): P, with a bit set where the lane is 1, and M, where it
is 2.  So e_Q runs once on all the points of a block, and the field
supplies only its arithmetic on planes:

- GF(2): a product is one AND per pair of lanes with a nonzero structure
  constant, XORed into each output lane; a sum is an XOR; a coefficient
  is a GF(2)-linear map on each coordinate's k lanes.
- GF(3): a product of two lanes is P = P1&P2 | M1&M2 and
  M = P1&M2 | M1&P2, added into each output lane with its planes swapped
  where the constant is 2; a sum is P = (P1^P2) & ~(M1|M2) | M1&M2, and M
  the same with the planes swapped; the coefficient 2 swaps the planes.

The commutator reading [a,b] = ab - ba takes the constants of (a, b) less
those of (b, a), in the field's arithmetic on planes.  A block's zeros are
its points less the bit count of the OR of the value's planes, its
nonzero mask.  One function (_nonzeros) runs e_Q on a block, whichever
feed built its planes, and drops each node after the last step or term
that reads it, so a block keeps only the nodes still to be read:

- exact counts (count): point i of A^n is bit i of a block of p**L
  points, the points whose index shares its high base-p digits, with L the
  most digits such that p**L <= 2**BLOCK_BITS (2**20 points over GF(2),
  3**12 over GF(3)).  A low digit of the point index is a periodic mask,
  built once per block size by shift-doubling (_masks), and a high one, a
  digit of the block's number, is all ones or all zeros.  The blocks run
  one after another in the calling process: a count never forks, as a
  serial lanes count of 2**24 points takes tens of milliseconds.
- zero flags (zero_flags): the same blocks, one after another, each
  nonzero mask written out as one byte per point, 1 where e_Q is zero;
  idtest's coset search lists the zero ideal's witnesses off them.
- sampled counts (sampled): the sampler's digit buffer of each block
  (idtest.SplitMix64.digits) holds one byte lane per point in each
  (argument, coordinate) column, and bytes.translate turns the column into
  planes, one per nonzero value over GF(3) and one per digit bit over
  GF(2^k); such planes keep one bit per byte.

The structure constants and each coefficient's map are built once per
algebra, when a count first reads them, and kept in its memo under the
key _Tables, never pickled; e_Q's plan reads Q alone and is shared by all
algebras.

This is the enumeration side of the cross-checks that idtest runs against
the coordinate polynomials, so it reads A.table and the field's
arithmetic only: never the element-index kernel, Algebra.mul or any of
commpoly's helpers.
"""

from functools import lru_cache, reduce
from operator import or_, xor

from .freepoly import Flavor

# Points per block: at most 2**BLOCK_BITS, so a plane holds at most 128 KiB
BLOCK_BITS = 20


def _product2(rows, size, u, v):
    """The product of two elements over GF(2), plane by plane."""
    out = [0] * size
    for a, row in rows:
        x = u[a]
        if x:
            for b, outs in row:
                w = x & v[b]
                if w:
                    for t in outs:
                        out[t] ^= w
    return out


def _product3(rows, size, u, v):
    """The product of two elements over GF(3): lane a's planes are u[a]
    and u[a + 1], and each (i, j) in outs adds the two lanes' product into
    planes i and j of an output lane (j, i where the constant is 2)."""
    out = [0] * size
    for a, row in rows:
        p, m = u[a], u[a + 1]
        if p or m:
            for b, outs in row:
                r, s = v[b], v[b + 1]
                P = p & r | m & s
                M = p & s | m & r
                if P or M:
                    for i, j in outs:
                        x, y = out[i], out[j]
                        if x or y:
                            out[i] = (x ^ P) & ~(y | M) | y & M
                            out[j] = (y ^ M) & ~(x | P) | x & P
                        else:
                            out[i], out[j] = P, M
    return out


def _add3(u, v):
    """The sum of two elements over GF(3), lane by lane."""
    out = []
    for i in range(0, len(u), 2):
        x, y, p, m = u[i], u[i + 1], v[i], v[i + 1]
        out += ((x ^ p) & ~(y | m) | y & m, (y ^ m) & ~(x | p) | x & p)
    return out


class _GF2:
    """GF(2) on one plane per lane.  A structure constant is the bit set
    of the output lanes it adds into."""

    p, planes = 2, 1
    product = staticmethod(_product2)

    @staticmethod
    def add(u, v):
        return list(map(xor, u, v))

    @staticmethod
    def sub(c, d):
        return c ^ d

    @staticmethod
    def outs(c):
        return tuple(t for t in range(c.bit_length()) if c >> t & 1)


class _GF3:
    """GF(3) on two planes per lane.  A structure constant is the pair
    (ones, twos) of bit sets of the output lanes it adds into once or
    twice."""

    p, planes = 3, 2
    product = staticmethod(_product3)
    add = staticmethod(_add3)

    @staticmethod
    def sub(c, d):
        return tuple(_add3(c, (d[1], d[0])))  # -d swaps d's planes

    @staticmethod
    def outs(c):
        ones, twos = c
        return tuple(
            (2 * t, 2 * t + 1) if ones >> t & 1 else (2 * t + 1, 2 * t)
            for t in range((ones | twos).bit_length())
            if (ones | twos) >> t & 1
        )


# translate tables of a byte's planes: bit i of it, for i < 8, and over
# GF(3) where it is 1 and where it is 2
_BIT_PLANES = tuple(bytes(v >> i & 1 for v in range(256)) for i in range(8))
_VALUE_PLANES = tuple(bytes(v == d for v in range(256)) for d in (1, 2))


class _Tables:
    """A as a GF(p)-algebra of dimension width = k * dim, read from
    A.table alone.

    Lane (dim - 1 - s) * k + i is digit i (the coefficient of g^i) of
    coordinate s, so lane b of an element is base-p digit b of its element
    index, and its planes are entries planes * b onwards of an element's
    list.  A product is kept as rows (a, ((b, outs), ...)) on those plane
    indices: lane a of the left factor times lane b of the right one adds
    into each output in outs, and the commutator reading takes the
    constants of (a, b) less those of (b, a).  A coefficient c is the
    linear map whose plane t is the sum of the planes in srcs[t], or None
    for c = 1.  reads holds, lane by lane, the sampled feed's coordinate,
    byte within a draw, and translate tables of its planes.
    """

    __slots__ = ("field", "arith", "width", "constants", "products", "scales", "reads")

    def __init__(self, A):
        f, dim, k = A.field, A.dim, A.field.k
        self.field, self.width = f, k * dim
        self.arith = _GF2 if f.p == 2 else _GF3
        # constants[a][b]: lane a times lane b, in the arithmetic's encoding
        if f.p == 2:
            constants = [[0] * self.width for _ in range(self.width)]
            for s, row in enumerate(A.table):
                for r, cell in enumerate(row):
                    for t, c in enumerate(cell):
                        if not c:
                            continue
                        for i in range(k):
                            for j in range(k):
                                v = f.mul(f.mul(1 << i, 1 << j), c) if k > 1 else c
                                constants[(dim - 1 - s) * k + i][(dim - 1 - r) * k + j] ^= (
                                    v << (dim - 1 - t) * k
                                )
            self.reads = tuple(
                (dim - 1 - b // k, b % k // 8, (_BIT_PLANES[b % k % 8],)) for b in range(self.width)
            )
        else:
            constants = [[(0, 0)] * dim for _ in range(dim)]
            for s, row in enumerate(A.table):
                for r, cell in enumerate(row):
                    ones = sum(1 << (dim - 1 - t) for t, c in enumerate(cell) if c == 1)
                    twos = sum(1 << (dim - 1 - t) for t, c in enumerate(cell) if c == 2)
                    constants[dim - 1 - s][dim - 1 - r] = (ones, twos)
            self.reads = tuple((dim - 1 - b, 0, _VALUE_PLANES) for b in range(dim))
        self.constants = constants
        self.products = {}  # commutator flag -> rows
        self.scales = {}  # coefficient -> srcs

    def rows(self, commutator: bool):
        """The product's rows."""
        rows = self.products.get(commutator)
        if rows is None:
            m, width, arith = self.constants, self.width, self.arith
            rows = []
            for a in range(width):
                row = []
                for b in range(width):
                    outs = arith.outs(arith.sub(m[a][b], m[b][a]) if commutator else m[a][b])
                    if outs:
                        row.append((b * arith.planes, outs))
                if row:
                    rows.append((a * arith.planes, tuple(row)))
            rows = self.products[commutator] = tuple(rows)
        return rows

    def scale(self, c: int):
        if c == 1:
            return None
        srcs = self.scales.get(c)
        if srcs is None:
            if self.arith is _GF3:  # c = 2 swaps each lane's planes
                srcs = tuple((t ^ 1,) for t in range(2 * self.width))
            else:
                f, k = self.field, self.field.k
                srcs = [[] for _ in range(self.width)]
                for base in range(0, self.width, k):
                    for i in range(k):
                        v = f.mul(c, 1 << i)
                        for m in range(k):
                            if v >> m & 1:
                                srcs[base + m].append(base + i)
                srcs = tuple(map(tuple, srcs))
            self.scales[c] = srcs
        return srcs


def _tables(A) -> _Tables:
    try:
        return A._memo[_Tables]
    except KeyError:
        tables = A._memo[_Tables] = _Tables(A)
        return tables


@lru_cache(maxsize=256)
def _plan(Q):
    """e_Q as straight-line steps on nodes: nodes 0..n-1 are the arguments,
    each (left, right, dead) step appends the product of two nodes, and e_Q
    is the sum of (node, coefficient, dead) over its terms.  dead holds the
    nodes that step or term reads last.  A product node that several terms
    share is one step, as in idtest's kernel; an assoc word is folded
    left.  The plan reads Q alone, so algebras share it; the cache keeps
    the last 256."""
    steps, nodes = [], {}

    def node(left, right):
        key = nodes.get((left, right))
        if key is None:
            key = nodes[left, right] = Q.n + len(steps)
            steps.append((left, right))
        return key

    def tree(t):
        return t - 1 if isinstance(t, int) else node(tree(t[0]), tree(t[1]))

    def word(term):
        acc = term[0] - 1
        for i in term[1:]:
            acc = node(acc, i - 1)
        return acc

    compile_term = word if Q.flavor is Flavor.ASSOC else tree
    terms = [(compile_term(term), coeff) for term, coeff in Q.terms.items()]
    last = {}  # node -> the last step or term (numbered after the steps) to read it
    for i, (left, right) in enumerate(steps):
        last[left] = last[right] = i
    for i, (node, _) in enumerate(terms, len(steps)):
        last[node] = i
    dead = [[] for _ in range(len(steps) + len(terms))]
    for node, i in last.items():
        dead[i].append(node)
    return (
        tuple((left, right, tuple(dead[i])) for i, (left, right) in enumerate(steps)),
        tuple((node, coeff, tuple(dead[i])) for i, (node, coeff) in enumerate(terms, len(steps))),
    )


def _program(Q, A, commutator: bool):
    """(tables, rows, steps, terms) of e_Q on A's lanes, each term's
    coefficient read as its linear map."""
    tables = _tables(A)
    steps, terms = _plan(Q)
    terms = [(node, tables.scale(c), dead) for node, c, dead in terms]
    return tables, tables.rows(commutator), steps, terms


def _nonzeros(arith, rows, steps, terms, values) -> int:
    """The points of a block at which e_Q is nonzero, as a mask: values
    holds each argument's planes, e_Q runs on them step by step, each node
    dropped after its last read, and the OR of the value's planes is
    returned."""
    product, add = arith.product, arith.add
    size = len(values[0]) if values else 0
    for left, right, dead in steps:
        values.append(product(rows, size, values[left], values[right]))
        for node in dead:
            values[node] = None
    acc = None
    for node, srcs, dead in terms:
        value = values[node]
        for node in dead:
            values[node] = None
        if srcs is not None:  # the coefficient's linear map
            value = [reduce(xor, map(value.__getitem__, planes), 0) for planes in srcs]
        acc = value if acc is None else add(acc, value)
    return reduce(or_, acc or (), 0)


@lru_cache(maxsize=4)
def _masks(p: int, digits: int) -> tuple:
    """The planes of the low digits of a block of p**digits points: for
    v < digits and each nonzero value d, the int with bit i set where
    digit v of i is d.  It is a run of p**v ones at d * p**v, repeated
    with period p**(v+1) by shift-doubling and cut to the block.  The
    cache holds four block sizes' masks, at most 2.5 MB each."""
    size = p**digits
    top = (1 << size) - 1
    masks = []
    for v in range(digits):
        run = p**v
        period = run * p
        planes = [((1 << run) - 1) << d * run for d in range(1, p)]
        while period < size:
            planes = [x | x << period for x in planes]
            period *= 2
        masks += [x & top for x in planes]
    return tuple(masks)


def _count_blocks(Q, A, commutator: bool, digits: int, start: int, stop: int) -> int:
    """Count zeros of e_Q over A^n on the blocks range(start, stop) of
    p**digits points each."""
    masks = _block_masks(Q, A, commutator, digits, start, stop)
    return A.field.p**digits * (stop - start) - sum(map(int.bit_count, masks))


def _block_masks(Q, A, commutator: bool, digits: int, start: int, stop: int):
    """The nonzero mask (_nonzeros) of each of the blocks range(start,
    stop) of p**digits points, in order.

    Point i is bit i of a plane in canonical order, so base-p digit
    (n - 1 - a) * width + b of i is lane b of argument a.
    """
    tables, rows, steps, terms = _program(Q, A, commutator)
    arith = tables.arith
    p, n, span = arith.p, Q.n, tables.width * arith.planes
    masks = _masks(p, digits)
    size = p**digits
    high = n * tables.width - digits
    if high:
        full = (1 << size) - 1
        fill = [[full if d == e else 0 for e in range(1, p)] for d in range(p)]  # digit d's planes
    for block in range(start, stop):
        variables = list(masks)
        number = block
        for _ in range(high):
            number, d = divmod(number, p)
            variables += fill[d]
        values = [variables[(n - 1 - a) * span : (n - a) * span] for a in range(n)]
        yield _nonzeros(arith, rows, steps, terms, values)


def _split(Q, A):
    """(digits, blocks): one block if A^n has at most p**L points (L as
    the module docstring sets out), else blocks of that size."""
    p = A.field.p
    total = Q.n * A.dim * A.field.k
    digits = min(total, _block_digits(p, BLOCK_BITS))
    return digits, p ** (total - digits)


def count(Q, A, commutator: bool) -> int:
    """Zeros of e_Q over A^n, for A over GF(2^k) or GF(3), on the blocks
    _split gives, one after another."""
    digits, blocks = _split(Q, A)
    return _count_blocks(Q, A, commutator, digits, 0, blocks)


# a nonzero mask's bits as text, read as zero flags: "1" (nonzero) -> 0
_FLAGS = bytes.maketrans(b"01", b"\x01\x00")


def zero_flags(Q, A, commutator: bool) -> bytes:
    """One byte per point of A^n in canonical order, 1 where e_Q is zero
    and 0 elsewhere, for A over GF(2^k) or GF(3).  Each block's mask is
    written out in binary, padded to the block's points and reversed, so
    that bit i comes i-th, and translated: no Python frame runs per point."""
    digits, blocks = _split(Q, A)
    size = A.field.p**digits
    return b"".join(
        format(mask, "b").zfill(size)[::-1].encode().translate(_FLAGS)
        for mask in _block_masks(Q, A, commutator, digits, 0, blocks)
    )


@lru_cache(maxsize=None)
def _block_digits(p: int, bits: int) -> int:
    """The most base-p digits of a block of at most 2**bits points."""
    digits = 0
    while p ** (digits + 1) <= 1 << bits:
        digits += 1
    return digits


def sampled(Q, A, commutator: bool, blocks) -> int:
    """Zeros of e_Q at sampled points of A^n, for A over GF(2^k) or GF(3).

    blocks yields (count, buffer) as SplitMix64.digits does: buffer holds
    count points' draws, each a digit in an equal run of little-endian
    bytes, point by point, argument by argument, coordinate by coordinate,
    and is empty where a point has no coordinates.  Each (argument, lane)
    column is read off with one slice, one byte per point, and translated
    into the lane's planes.
    """
    tables, rows, steps, terms = _program(Q, A, commutator)
    arith = tables.arith
    n, dim, span = Q.n, A.dim, tables.width * arith.planes
    zeros = 0
    for count, buffer in blocks:
        variables = []
        if buffer:
            stride = len(buffer) // count  # the bytes of one point's draws
            draw = stride // (n * dim)
            for a in range(n):
                for s, byte, maps in tables.reads:
                    column = buffer[(a * dim + s) * draw + byte :: stride]
                    variables += [int.from_bytes(column.translate(m), "little") for m in maps]
        values = [variables[a * span : (a + 1) * span] for a in range(n)]
        zeros += count - _nonzeros(arith, rows, steps, terms, values).bit_count()
    return zeros
