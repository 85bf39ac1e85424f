"""Exact zero counts over characteristic 2, bit-sliced: idtest's lanes route.

Restriction of scalars makes an algebra A over GF(2^k) a GF(2)-algebra of
dimension width = k * dim.  Each point of A^n is one bit of a Python int
(a lane), and each GF(2) coordinate of each argument is one such int, so
e_Q runs once on all the points of a block: a product is one AND per
nonzero structure constant, XORed into its output coordinate, with the
commutator reading [a,b] = ab - ba taken as ab + ba; a coefficient of Q is
a GF(2)-linear map on each coordinate's k lanes; and the block's zeros are
its points less the bit count of the OR of the value's coordinates.

A block holds at most 2**BLOCK_BITS points, the points whose index shares
its high bits, so no lane int passes 128 KiB, and a node of e_Q is dropped
after the last step or term that reads it, so a block keeps only the
nodes still to be read.  The blocks run one after another in the calling
process: a count never forks, as a serial lanes count of 2**24 points
takes tens of milliseconds.  The structure constants and each
coefficient's map are built once per algebra, when a count or the
crossover's cost first reads them, and kept in its memo under the key
_Tables, never pickled; the cost is the constants in the product's rows,
counted once per reading and kept beside them; e_Q's plan reads Q alone
and is shared by all algebras.

This is the enumeration side of the cross-checks that idtest runs against
the coordinate polynomials, so it reads A.table and the field's
arithmetic only: never the element-index kernel, Algebra.mul or any of
commpoly's helpers.
"""

from functools import lru_cache, reduce
from operator import or_, xor

from .freepoly import Flavor

# Points per block: a lane int holds at most 2**BLOCK_BITS bits (128 KiB)
BLOCK_BITS = 20
# Points per nonzero structure constant from which idtest counts on lanes: a
# lanes product costs about one XOR per constant, a kernel product one lookup
# per point, and over 283 tables and polynomials of 2 to 2**14 points this
# ratio came within 1.5% of the faster route's total, where lanes alone took
# 15% more and the kernel alone 18 times as much
RATIO = 2
# Points from which idtest counts on lanes at all: on the 1,024 verdicts of
# the sweep benchmark (the 256 dimension-2 GF(2) tables times the battery),
# lanes saved 2-4 us of a 4- or 16-point count, but verdicts whose counts
# alternated between the two routes lost more than that, and the verdicts
# took 6-7% longer in all than on the kernel alone; from 64 points lanes
# save 7 us and more per count
MIN_POINTS = 32


class _Tables:
    """A over GF(2^k) as a GF(2)-algebra of dimension width = k * dim, read
    from A.table alone.

    Lane (dim - 1 - s) * k + i is digit i (the coefficient of g^i) of
    coordinate s, so lane b of an element is bit b of its element index.
    A product is kept as rows (a, ((b, outs), ...)): lane a of the left
    factor times lane b of the right one adds into each lane in outs, and
    the commutator reading adds the products of (a, b) and (b, a).  A
    coefficient c is the linear map whose lane t is the sum of the lanes
    in srcs[t], or None for c = 1.
    """

    __slots__ = ("field", "width", "constants", "products", "costs", "scales")

    def __init__(self, A):
        f, dim, k = A.field, A.dim, A.field.k
        self.field, self.width = f, k * dim
        # constants[a][b]: the lanes of lane a times lane b, as a bit set
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
        self.constants = constants
        self.products = {}  # commutator flag -> rows
        self.costs = {}  # commutator flag -> the constants in its rows
        self.scales = {}  # coefficient -> srcs

    def rows(self, commutator: bool):
        """The product's rows."""
        rows = self.products.get(commutator)
        if rows is None:
            m, width = self.constants, self.width
            rows = []
            for a in range(width):
                row = []
                for b in range(width):
                    lanes = m[a][b] ^ m[b][a] if commutator else m[a][b]
                    if lanes:
                        row.append((b, tuple(t for t in range(width) if lanes >> t & 1)))
                if row:
                    rows.append((a, tuple(row)))
            rows = self.products[commutator] = tuple(rows)
        return rows

    def scale(self, c: int):
        if c == 1:
            return None
        srcs = self.scales.get(c)
        if srcs is None:
            f, k = self.field, self.field.k
            srcs = [[] for _ in range(self.width)]
            for base in range(0, self.width, k):
                for i in range(k):
                    v = f.mul(c, 1 << i)
                    for m in range(k):
                        if v >> m & 1:
                            srcs[base + m].append(base + i)
            srcs = self.scales[c] = tuple(map(tuple, srcs))
        return srcs


def _tables(A) -> _Tables:
    try:
        return A._memo[_Tables]
    except KeyError:
        tables = A._memo[_Tables] = _Tables(A)
        return tables


def _product(rows, width, u, v):
    """The product of two elements given lane by lane."""
    out = [0] * width
    for a, row in rows:
        x = u[a]
        if x:
            for b, outs in row:
                w = x & v[b]
                if w:
                    for t in outs:
                        out[t] ^= w
    return out


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


@lru_cache(maxsize=4)
def _masks(bits: int) -> tuple:
    """The variable lanes of a block of 2**bits points: int v has bit p set
    where bit v of p is, for v < bits.  Each is a repeated byte pattern,
    0xAA, 0xCC or 0xF0 for v < 3 and runs of 0x00 and 0xFF bytes above;
    a block of fewer than 8 points keeps the low bits of one byte.  The
    cache holds four blocks' masks."""
    size = 1 << bits
    nbytes = max(1, size >> 3)
    top = (1 << size) - 1
    masks = []
    for v in range(bits):
        if v < 3:
            pattern = bytes((0xAA, 0xCC, 0xF0)[v : v + 1]) * nbytes
        else:
            run = 1 << (v - 3)
            pattern = (b"\x00" * run + b"\xff" * run) * (nbytes // (2 * run))
        masks.append(int.from_bytes(pattern, "little") & top)
    return tuple(masks)


def _count_blocks(Q, A, commutator: bool, bits: int, start: int, stop: int) -> int:
    """Count zeros of e_Q over A^n on the blocks range(start, stop) of
    2**bits points each.

    Point p is bit p of a lane in canonical order, so bit
    (n - 1 - i) * width + b of p is lane b of argument i.  In a block a
    low variable bit is a periodic mask, and a high one, a bit of the
    block's number, is all ones or all zeros.
    """
    tables = _tables(A)
    width, n = tables.width, Q.n
    rows = tables.rows(commutator)
    steps, terms = _plan(Q)
    terms = [(node, tables.scale(c), dead) for node, c, dead in terms]  # c as its srcs
    masks = _masks(bits)
    size = 1 << bits
    full = (1 << size) - 1
    high = range(n * width - bits)
    zeros = 0
    for block in range(start, stop):
        variables = [*masks, *[full if block >> v & 1 else 0 for v in high]] if high else masks
        values = [variables[(n - 1 - i) * width : (n - i) * width] for i in range(n)]
        for left, right, dead in steps:
            values.append(_product(rows, width, values[left], values[right]))
            for node in dead:
                values[node] = None
        acc = [0] * width
        for node, srcs, dead in terms:
            value = values[node]
            for node in dead:
                values[node] = None
            if srcs is not None:  # the coefficient's linear map
                value = [reduce(xor, map(value.__getitem__, lanes), 0) for lanes in srcs]
            acc = list(map(xor, acc, value))
        zeros += size - reduce(or_, acc, 0).bit_count()
    return zeros


def cost(A, commutator: bool) -> int:
    """The XORs one product of two elements of A takes on lanes: the
    constants in the rows of its lane tables, one per lane of each
    (b, outs), counted once per reading and kept in the tables."""
    tables = _tables(A)
    total = tables.costs.get(commutator)
    if total is None:
        rows = tables.rows(commutator)
        total = tables.costs[commutator] = sum(len(outs) for _, row in rows for _, outs in row)
    return total


def count(Q, A, commutator: bool) -> int:
    """Zeros of e_Q over A^n, for A over a field of characteristic 2: one
    block if the count has at most 2**BLOCK_BITS points, else blocks of
    that size one after another."""
    total = Q.n * A.dim * A.field.k
    bits = min(total, BLOCK_BITS)
    blocks = 1 << (total - bits)
    return _count_blocks(Q, A, commutator, bits, 0, blocks)
