"""Sparse commutative polynomials over a finite field.

A polynomial in n variables is a map from exponent tuples of length n to
nonzero coefficients.  Unlike the free flavors, constants are welcome
here: these polynomials arise as coordinate functions of evaluation maps
and as explicit witnesses for density bounds.

reduce() folds exponents with the rule x^q = x ... x^(q-1) fixed for
nonzero exponents, giving the unique representative with every variable
degree below q that computes the same function on all points.

The public constructor validates every exponent and coefficient.  +, *
and scale work on plain {exps: coeff} dicts through _add_scaled and
_mul_terms; they, neg and reduce wrap their results with
CommPoly._trusted, which skips that check: their inputs were checked
already.

reduced_coordinates and symbolic_coordinates build the coordinate
polynomials of an evaluation map from the structure constants on packed
monomials: one Python int per monomial, never an exponent tuple.  One
driver, _packed_coordinates, serves them and reduced_degrees on every
ring: it runs the step plan of Q (_plan), read off Q alone and memoised,
in which a subterm that several terms share is one node and each product
step records whether its factors share an argument.  Over GF(2), reduced,
a monomial is the bit set of its variables, a product an OR (x^2 = x)
and a sum a parity, with no field calls; a product of factors with no
argument in common is a plain set of ORs, as no two pairs of monomials
give the same one; a product by one variable {b} drops the pairs a,
a ^ b that meet; and only other overlapping factors count parities.
The plan is commpoly's own: it shares nothing with lanes' plan or
idtest's compiled kernel, the other sides of the cross-checks.
Otherwise each variable owns a lane of bits and a product adds the ints;
reduced, a lane is q.bit_length() + 1 bits and a product folds every
lane that reaches q back by q - 1 (x^q = x) at once, through a bias that
sets the lane's guard bit; symbolic, a lane holds Q's degree and nothing
folds.  Only the final coordinates are unpacked to {exps: coeff} dicts.
The nonzero structure constants these builds walk depend only on
A.table, so the algebra keeps them in its memo (_cells).  Nothing else
is kept per algebra or per polynomial: the lane constants and the
generic arguments depend only on (q, width, degree) and (bits, n, dim),
values that recur across algebras, and come from bounded caches keyed
by them.
reduced_degrees unpacks nothing: it reads each reduced coordinate's
total degree off the packed ints, the greatest bit count over GF(2),
read inline, and otherwise the greatest sum over the digit bits b of a
lane of 2^b times the bit count of the monomial's bits b (two bit
counts over GF(3)), and builds no exponent tuple and no CommPoly.

zero_counter counts the common zeros of a list of polynomials over all of
F^n.  Over GF(2) it is bit-sliced: variable i is an int with bit k set
when x_i = 1 at point k, a monomial is an AND of those masks, a
polynomial the XOR of its monomials, and a point is a common zero when
its bit is clear in the OR of the polynomials.  The masks take n * 2^n
bits, 48 MB at the 2^24-point cap.  Over GF(3) it is bit-sliced on two
planes per value (_count_gf3): a value's plane P has bit k
set where it is 1 at point k, and its plane M where it is 2.  x^e is
(P, M) for odd e and (P|M, 0) for even e > 0; a product is
(P1&P2 | M1&M2, P1&M2 | M1&P2), the coefficient 2 swaps the planes, and
a sum is ((P1^P2) & ~(M1|M2) | M1&M2) on P and the same with the planes
swapped on M.  A point is a common zero when its bit is clear in the OR
of P|M over the polynomials.  The planes take 2 * n * 3^n bits, 54 MB at
the 3^15 points under the cap.  One builder, _digit_planes, makes the
GF(2) masks and the GF(3) planes, and keeps those of at most 4,096
points, which zero_counter and bound's scan ask for again and again.
The formulas are commpoly's own, not lanes', which counts the other side
of the same cross-check.  Other fields walk the points with the powers
of every element for each reduced exponent that occurs (_count_points):
over GF(p), p >= 5, on plain ints, reduced mod p once per polynomial per
point, and over GF(p^k), k > 1, through field calls.

parse_comm reads text with the walker the free flavors use,
freepoly._Parser; only the atoms (powers allowed, brackets refused) and
the CommPoly arithmetic are its own.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache, partial
from itertools import compress, product

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ParseError,
    SearchSpaceTooLarge,
    UnknownVariable,
    ZeroPolynomial,
)
from .freepoly import Flavor, FreePoly, _Parser, coeff_text, term_degree, tokenize
from .gf import Field


class CommPoly:
    __slots__ = ("field", "nvars", "monomials")

    def __init__(self, field: Field, nvars: int, monomials):
        if nvars < 0:
            raise ValueError("variable count must be >= 0")
        clean = {}
        for exps, coeff in monomials.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionMismatch(f"exponent tuple {exps} in {nvars} variables")
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            if not isinstance(coeff, int) or not 0 <= coeff < field.q:
                raise ValueError(f"coefficient {coeff!r} is not a canonical element of {field!r}")
            if coeff:
                clean[exps] = coeff
        self.field = field
        self.nvars = nvars
        self.monomials = clean

    @classmethod
    def _trusted(cls, field: Field, nvars: int, monomials: dict) -> "CommPoly":
        """Wrap a dict of nvars-tuples to nonzero canonical coefficients
        as it is, without the constructor's checks."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.monomials = monomials
        return poly

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "CommPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, c: int) -> "CommPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "CommPoly":
        if not 1 <= i <= nvars:
            raise UnknownVariable(f"x{i}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(field, nvars, {exps: 1})

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def degree(self) -> int:
        if not self.monomials:
            raise ZeroPolynomial()
        return max(sum(e) for e in self.monomials)

    def _check_compatible(self, other: "CommPoly"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        self._check_compatible(other)
        out = _add_scaled(self.field, dict(self.monomials), other.monomials, 1)
        return CommPoly._trusted(self.field, self.nvars, out)

    def __neg__(self):
        f = self.field
        return CommPoly._trusted(f, self.nvars, {e: f.neg(c) for e, c in self.monomials.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        out = _mul_terms(self.field, self.monomials, other.monomials)
        return CommPoly._trusted(self.field, self.nvars, out)

    def scale(self, c: int) -> "CommPoly":
        out = _add_scaled(self.field, {}, self.monomials, c)
        return CommPoly._trusted(self.field, self.nvars, out)

    def pow(self, e: int) -> "CommPoly":
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = CommPoly.constant(self.field, self.nvars, 1)
        base = self
        while e:  # square and multiply: at most two products per bit of e
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def reduce(self) -> "CommPoly":
        """Fold exponents into [0, q-1] without changing the function."""
        f = self.field
        span = f.q - 1
        out = {}
        for exps, c in self.monomials.items():
            folded = tuple(0 if e == 0 else (e - 1) % span + 1 for e in exps)
            s = f.add(out.get(folded, 0), c)
            if s:
                out[folded] = s
            else:
                out.pop(folded, None)
        return CommPoly._trusted(f, self.nvars, out)

    def eval(self, point) -> int:
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point of length {len(point)} in {self.nvars} variables")
        f = self.field
        total = 0
        for exps, c in self.monomials.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = f.mul(v, f.pow(x, e))
                    if not v:
                        break
            total = f.add(total, v)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, CommPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(sorted(self.monomials.items()))))

    def to_text(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for exps in sorted(self.monomials, key=lambda e: (sum(e), e), reverse=True):
            c = self.monomials[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                parts.append(coeff_text(self.field, c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(coeff_text(self.field, c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"CommPoly({self.to_text()!r} over {self.field!r}, nvars={self.nvars})"


# ---------------------------------------------------------------------------
# arithmetic on {exps: coeff} dicts

def _add_scaled(field: Field, acc: dict, terms: dict, c: int) -> dict:
    """acc += c * terms, in place, dropping monomials that cancel."""
    add, mul = field.add, field.mul
    for exps, k in terms.items():
        s = add(acc.get(exps, 0), k if c == 1 else mul(c, k))
        if s:
            acc[exps] = s
        else:
            acc.pop(exps, None)
    return acc


def _mul_terms(field: Field, a: dict, b: dict) -> dict:
    """The product a * b."""
    add, mul = field.add, field.mul
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(operator.add, e1, e2))
            s = add(out.get(exps, 0), mul(c1, c2))
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
    return out


# ---------------------------------------------------------------------------
# counting common zeros

def zero_counter(field: Field, nvars: int, cap: int):
    """A function from a list of {exps: coeff} dicts in nvars variables to
    the number of points of F^nvars where all of them vanish.

    The bit masks (GF(2)) and the bit planes (GF(3)) are taken here, once
    for every call of the returned function, after the cap check, from
    _digit_planes, which keeps those of few points; other
    fields build, on each call, the powers of every element for the
    reduced exponents its polynomials use, and walk the points
    (_count_points).  Raises SearchSpaceTooLarge when q^nvars exceeds cap.
    """
    q = field.q
    total = q**nvars
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    if q == 2:
        masks = [ones for ones, in _digit_planes(2, nvars)]
        return partial(_count_gf2, masks, (1 << total) - 1, total)
    if q == 3:
        return partial(_count_gf3, _digit_planes(3, nvars), (1 << total) - 1, total)
    return partial(_count_points, field, nvars)


# _digit_planes keeps the planes of up to this many points: 21 keys
# (q, nvars), at most 12 * 4096 bits each and about 17 KB in all
_PLANES_MEMO_POINTS = 4096


def _digit_planes(q: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """The q - 1 planes of each variable: plane d - 1 of variable i has
    bit k set when x_i = d at point k of the canonical order, where the
    first variable is the most significant base-q digit of k.  One plane
    (the bit masks) over GF(2), the planes (P, M) over GF(3).  The planes
    of at most _PLANES_MEMO_POINTS points are built once per (q, nvars),
    as zero_counter and bound's scan ask for them on every call."""
    build = _kept_planes if q**nvars <= _PLANES_MEMO_POINTS else _build_planes
    return build(q, nvars)


def _build_planes(q: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    total = q**nvars
    planes = []
    for i in range(nvars):
        run = q ** (nvars - 1 - i)
        ones = ((1 << run) - 1) << run  # the first period: run zeros, then run ones
        period = q * run
        while period < total:
            ones |= ones << period
            period *= 2
        ones &= (1 << total) - 1
        # the run of each digit d follows the run of d - 1
        planes.append(tuple(ones << d * run for d in range(q - 1)))
    return tuple(planes)


# only the 21 keys within _PLANES_MEMO_POINTS reach it, each built once
_kept_planes = lru_cache(maxsize=None)(_build_planes)


def _count_gf2(masks, full, total, polys) -> int:
    nonzero = 0
    for monomials in polys:
        value = 0
        for exps in monomials:  # every coefficient is 1
            term = full
            for mask in compress(masks, exps):
                term &= mask
            value ^= term
        nonzero |= value
    return total - nonzero.bit_count()


def _count_gf3(planes, full, total, polys) -> int:
    """The common zeros of polys over GF(3), on the planes of
    _digit_planes: every coefficient is 1 or 2."""
    nonzero = 0
    for monomials in polys:
        vp = vm = 0
        for exps, c in monomials.items():
            p, m = full, 0
            for (ones, twos), e in zip(planes, exps):
                if not e:
                    continue
                if e & 1:  # x^e = x
                    p, m = p & ones | m & twos, p & twos | m & ones
                else:  # x^e = x^2, which is 1 where x is not 0
                    either = ones | twos
                    p &= either
                    m &= either
            if c == 2:
                p, m = m, p
            vp, vm = (vp ^ p) & ~(vm | m) | vm & m, (vm ^ m) & ~(vp | p) | vp & p
        nonzero |= vp | vm
    return total - nonzero.bit_count()


def _count_points(field, nvars, polys) -> int:
    """The common zeros of polys, point by point, with the powers of every
    element for each reduced exponent that occurs read from columns.

    zero_counter calls it over GF(p), p >= 5, and GF(p^k), k > 1; it
    counts any field.  Over a prime field an element is its int mod p, so
    a monomial's value is a plain int product and a polynomial's a plain
    int sum, reduced mod p once per polynomial per point, with no field
    call per term.  Over GF(p^k) with k > 1 every product and sum is a
    field call.
    """
    span = field.q - 1
    used = {(e - 1) % span + 1 for monomials in polys for exps in monomials for e in exps if e}
    columns = {e: [field.pow(x, e) for x in field.elements()] for e in used}
    prepared = [
        [
            (c, [(i, columns[(e - 1) % span + 1]) for i, e in enumerate(exps) if e])
            for exps, c in monomials.items()
        ]
        for monomials in polys
    ]
    points = product(field.elements(), repeat=nvars)
    zeros = 0
    if field.k == 1:
        p = field.p
        for point in points:
            for terms in prepared:
                value = 0
                for v, factors in terms:
                    for i, column in factors:
                        v *= column[point[i]]
                    value += v
                if value % p:
                    break
            else:
                zeros += 1
        return zeros
    add, mul = field.add, field.mul
    for point in points:
        for terms in prepared:
            value = 0
            for c, factors in terms:
                v = c
                for i, column in factors:
                    v = mul(v, column[point[i]])
                    if not v:
                        break
                value = add(value, v)
            if value:
                break
        else:
            zeros += 1
    return zeros


# ---------------------------------------------------------------------------
# parsing

class _CommParser(_Parser):
    """Values are CommPolys in a fixed number of variables."""

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def __init__(self, tokens, field: Field, nvars: int):
        super().__init__(tokens, field)
        self.nvars = nvars

    def atom(self):
        kind, val, pos = self.take()
        f = self.field
        if kind == "int":
            return CommPoly.constant(f, self.nvars, val % f.p), True
        if kind == "g":
            return CommPoly.constant(f, self.nvars, self.generator(pos)), True
        if kind == "var":
            return self._maybe_power(CommPoly.variable(f, self.nvars, val)), False
        if kind == "op" and val == "(":
            return self._maybe_power(self.group()), False
        if kind == "op" and val == "[":
            raise ParseError("brackets are not part of commutative polynomials", pos)
        raise ParseError("expected a variable, coefficient, or group", pos)

    def _maybe_power(self, value: CommPoly) -> CommPoly:
        e = self.exponent(None)
        return value if e is None else value.pow(e)


def parse_comm(text: str, field: Field, nvars: int | None = None) -> CommPoly:
    """Parse commutative polynomial text such as '1 + x1^2*x2'."""
    tokens = tokenize(text)
    maxvar = max((val for kind, val, _ in tokens if kind == "var"), default=0)
    if nvars is not None and maxvar > nvars:
        raise UnknownVariable(f"x{maxvar}")
    width = max(maxvar, nvars or 0)
    return _CommParser(tokens, field, width).parse()


# ---------------------------------------------------------------------------
# coordinate functions of an evaluation map

def symbolic_coordinates(Q: FreePoly, A, commutator: bool = False) -> list[CommPoly]:
    """Coordinates of a -> Q(a) as polynomials in the n*dim entries of a.

    Argument i of Q contributes the scalar variables x_{(i-1)*dim+1} ...
    x_{i*dim}, so the output lives in n*dim commuting variables and is not
    reduced.  With commutator=True each tree pair multiplies as uv - vu.
    Monomials are built as packed ints whose lanes hold Q's degree, and
    only the results are unpacked to exponent tuples.
    """
    return _coordinates(Q, A, commutator, reduced=False)


def reduced_coordinates(Q: FreePoly, A, commutator: bool = False) -> list[CommPoly]:
    """symbolic_coordinates(Q, A, commutator) with each polynomial reduced.

    Exponents fold as monomials multiply, so no unreduced intermediate is
    built: over GF(2) a monomial is the bit set of its variables and a
    product is an OR; over other fields a lane of a product that reaches q
    loses q - 1.  Like symbolic_coordinates it reads only the structure
    constants A.table, never Algebra.mul.
    """
    return _coordinates(Q, A, commutator, reduced=True)


def reduced_degrees(Q: FreePoly, A, commutator: bool = False) -> list[int | None]:
    """The total degree of each of reduced_coordinates(Q, A, commutator),
    or None where the coordinate is zero.

    The degrees are read off the packed monomials, so no coordinate is
    unpacked: over GF(2) a monomial's degree is its bit count, read inline
    with no method call, and otherwise _LaneMonomials.degree reads it with
    one bit count per digit bit of a lane (two over GF(3)).  Like
    reduced_coordinates it reads only A.table.
    """
    ring, coords = _packed_coordinates(Q, A, commutator, reduced=True)
    if A.field.q == 2:  # the ring is _BitMonomials
        return [max(map(int.bit_count, c)) if c else None for c in coords]
    return [ring.degree(c) if c else None for c in coords]


def _coordinates(Q: FreePoly, A, commutator: bool, reduced: bool) -> list[CommPoly]:
    ring, coords = _packed_coordinates(Q, A, commutator, reduced)
    return [CommPoly._trusted(A.field, ring.width, ring.unpack(c)) for c in coords]


@lru_cache(maxsize=256)
def _plan(Q: FreePoly):
    """e_Q as straight-line steps on nodes, read off Q alone: nodes
    0..n-1 are the generic arguments, each (left, right, disjoint) step
    appends the product of two nodes, and e_Q is the sum of
    (node, coefficient) over its terms.  A subterm that several terms
    share is one node: a tree is keyed by itself and an assoc word, folded
    left, by each of its prefixes.  disjoint is True when the two factors
    share no argument, so that no two pairs of their monomials have the
    same product.  The cache keeps the last 256 plans; a polynomial equal
    to a cached one, its terms in another order, reads the cached plan,
    which adds the same terms in that one's order."""
    n = Q.n
    steps, nodes = [], {}
    args = [1 << i for i in range(n)]  # node -> the bit set of its arguments

    def step(key, left, right):
        node = nodes[key] = n + len(steps)
        steps.append((left, right, not args[left] & args[right]))
        args.append(args[left] | args[right])
        return node

    def tree(t):
        if isinstance(t, int):
            return t - 1
        node = nodes.get(t)
        return step(t, tree(t[0]), tree(t[1])) if node is None else node

    def chain(word):
        node = word[0] - 1
        for end in range(2, len(word) + 1):
            prefix = word[:end]
            known = nodes.get(prefix)
            node = step(prefix, node, word[end - 1] - 1) if known is None else known
        return node

    read = chain if Q.flavor is Flavor.ASSOC else tree
    terms = tuple((read(term), coeff) for term, coeff in Q.terms.items())
    return tuple(steps), terms


def _packed_coordinates(Q: FreePoly, A, commutator: bool, reduced: bool):
    """The monomial ring and the dim coordinates of e_Q in it, packed.

    The steps of _plan(Q) run in order on vectors of packed coordinates,
    starting from the ring's generic arguments, each product by the
    structure constants; with commutator=True a step adds -1 times its
    reversed product.  The coordinates start as the entries of the first
    term's vector when its coefficient is 1, and the other terms are added
    to them; a sum may change those entries in place, as no step runs
    after the terms and no two terms are one node.  The generic arguments
    are the ring's cached ones, so when the first term is a bare variable
    its entries are copied first (ring.zero copies a dict and returns a
    frozenset, which no sum changes, as it is)."""
    f = A.field
    if not (Q.field is f or Q.field == f):
        raise FieldMismatch(f"{Q.field!r} vs {f!r}")
    dim = A.dim
    width = Q.n * dim
    cells = _cells(A)
    if reduced and f.q == 2:
        ring = _BitMonomials(cells, width)
    elif reduced:
        ring = _LaneMonomials(f, cells, width, None)
    else:
        ring = _LaneMonomials(f, cells, width, max(map(term_degree, Q.terms), default=1))
    steps, terms = _plan(Q)
    values = list(ring.arguments(Q.n, dim))
    mul, combine = ring.mul, ring.combine
    if commutator:
        minus_one = f.neg(1)
        for left, right, disjoint in steps:
            u, v = values[left], values[right]
            out = mul(u, v, disjoint)
            combine(out, mul(v, u, disjoint), minus_one)
            values.append(out)
    else:
        for left, right, disjoint in steps:
            values.append(mul(values[left], values[right], disjoint))
    if terms and terms[0][1] == 1:
        (node, _), *terms = terms
        coords = list(map(ring.zero, values[node])) if node < Q.n else list(values[node])
    else:
        coords = [ring.zero() for _ in range(dim)]
    for node, coeff in terms:
        combine(coords, values[node], coeff)
    return ring, coords


def _cells(A) -> tuple:
    """A's nonzero structure constants, row by row: row i holds (j, ks, cs)
    for each nonzero cell (i, j), ks the k with a nonzero entry c_k and cs
    those entries.

    They depend only on A.table, so A keeps them in its memo under the
    key _cells, and every coordinate build on A after the first reads them
    as they are.
    """
    cells = A._memo.get(_cells)
    if cells is None:
        rows = []
        for row in A.table:
            nonzero = []
            for j, cell in enumerate(row):
                ks = tuple(k for k, c in enumerate(cell) if c)
                if ks:
                    nonzero.append((j, ks, tuple(cell[k] for k in ks)))
            rows.append(tuple(nonzero))
        cells = A._memo[_cells] = tuple(rows)
    return cells


class _BitMonomials:
    """Reduced coordinates over GF(2).

    A monomial is an int with bit k set when x_{k+1} divides it; as x^2 = x
    on GF(2), the reduced product of two monomials is their OR.  Every
    coefficient is 1, so a polynomial is the set of its monomials and a sum
    keeps the monomials that occur an odd number of times: sets are added
    by XOR.  Factors that share no argument have disjoint bits, so their
    products are distinct and need no parity count, and a product by one
    variable reads its parity off each monomial's partner (mul).  No set
    is changed once built: a sum replaces the entries of its vector, so
    vectors, and the kept generic arguments, may share sets.
    """

    zero = frozenset

    def __init__(self, cells: tuple, width: int):
        self.cells = cells  # _cells(A); every entry is 1
        self.width = width

    @staticmethod
    @lru_cache(maxsize=64)
    def arguments(n: int, dim: int) -> tuple:
        """The n generic arguments: coordinate s of argument i is the
        variable x_{i*dim+s+1}.  No set is changed once built, so the
        cache keeps them for every build in n arguments of dimension dim."""
        return tuple(
            tuple(frozenset((1 << k,)) for k in range(i * dim, (i + 1) * dim)) for i in range(n)
        )

    def mul(self, u: list, v: list, disjoint: bool) -> list:
        """u * v for vectors of coordinate sets, by the structure constants.

        Each nonzero cell's product is one set, XORed into its output
        coordinates.  Two factors of one monomial each give the one set
        of their OR, built directly, with no comprehension (which runs in
        a frame of its own; put behind the rule below, this case cost
        about 1 us a verdict on dimension-2 GF(2) tables).  When the
        factors share no argument, every pair of monomials gives a
        different product, so the set is built as it is.  Otherwise, as
        monomials commute, a factor that is one variable {b}, on either
        side, keeps a | b for each monomial a of the other factor whose
        partner a ^ b is not in it: a and a ^ b, if both occur, are the
        only two monomials with that product and cancel, which is the
        parity _odd_terms counts, with no Counter.  Any other products
        that occur an even number of times cancel through _odd_terms, as
        in x1*x2 times x1*x2 + x1."""
        out = [frozenset()] * len(u)
        for ui, row in zip(u, self.cells):
            if ui:
                single = len(ui) == 1
                for j, ks, _ in row:
                    vj = v[j]
                    if vj:
                        if single and len(vj) == 1:
                            (a,), (b,) = ui, vj
                            terms = {a | b}
                        elif disjoint:
                            terms = {a | b for a in ui for b in vj}
                        else:
                            x, y = (vj, ui) if single else (ui, vj)
                            if len(y) == 1 and not (b := min(y)) & b - 1:  # y is {b}, one variable
                                terms = {a | b for a in x if a ^ b not in x}
                            else:
                                terms = _odd_terms([a | b for a in x for b in y])
                        for k in ks:
                            acc = out[k]
                            out[k] = acc ^ terms if acc else terms
        return out

    @staticmethod
    def combine(acc: list, part: list, c: int):
        """acc += c * part, replacing acc's entries; c is 1."""
        for s, p in enumerate(part):
            if p:
                a = acc[s]
                acc[s] = a ^ p if a else p

    def unpack(self, poly: set) -> dict:
        shifts = range(self.width)
        return {tuple([m >> s & 1 for s in shifts]): 1 for m in poly}


def _odd_terms(terms: list) -> set:
    """The monomials that occur an odd number of times in terms."""
    once = set(terms)
    if len(once) == len(terms):
        return once
    return {m for m, count in Counter(terms).items() if count & 1}


@lru_cache(maxsize=64)
def _lane_layout(q: int, width: int, degree: int | None) -> tuple:
    """(bits, guard, bias, top, digits) of width lanes over GF(q), as
    _LaneMonomials sets them out: reduced when degree is None, else wide
    enough for degree.  digits holds (b, B_b) for each bit b an exponent
    can set, B_b with bit b of every lane set.  They depend on these values
    alone, so every build of this shape reads them from the cache."""
    if degree is None:
        top = q.bit_length()
        bits = top + 1
        lanes = range(0, width * bits, bits)
        guard = sum(1 << (s + top) for s in lanes)
        bias = sum(((1 << top) - q) << s for s in lanes)
        used = (q - 1).bit_length()  # a reduced exponent is at most q - 1
    else:
        bits = used = degree.bit_length()
        lanes = range(0, width * bits, bits)
        guard = bias = top = 0
    digits = tuple((b, sum(1 << (s + b) for s in lanes)) for b in range(used))
    return bits, guard, bias, top, digits


@lru_cache(maxsize=64)
def _lane_arguments(bits: int, n: int, dim: int) -> tuple:
    """The n generic arguments on lanes of bits bits: coordinate s of
    argument i is the variable x_{i*dim+s+1}.  The cache hands the same
    dicts to every build of this shape, so no build may change them."""
    return tuple(
        tuple({1 << (k * bits): 1} for k in range(i * dim, (i + 1) * dim)) for i in range(n)
    )


class _LaneMonomials:
    """Coordinates over any field, with monomials packed in lanes.

    The exponent of x_{k+1} sits in bits [k*bits, (k+1)*bits) of one int,
    so a product of monomials adds their ints.  Reduced, a lane is
    q.bit_length() + 1 bits wide and holds an exponent in [0, q-1]; a
    lane of a product holds at most 2q - 2.  Adding 2^L - q, where
    L = q.bit_length(), to every lane sets the lane's guard bit L exactly
    when it holds q or more, and those lanes lose q - 1, since x^q = x.
    Unreduced, a lane holds Q's degree, which no exponent passes, and the
    guard is 0, so nothing folds.  These constants, the digit masks that
    degree reads and the generic arguments depend only on (q, width,
    degree) and (bits, n, dim), and come from caches keyed by those values
    (_lane_layout, _lane_arguments).
    """

    zero = dict

    def __init__(self, field: Field, cells: tuple, width: int, degree: int | None):
        """Reduced when degree is None; else no exponent passes degree.
        cells is _cells(A)."""
        self.field = field
        self.cells = cells
        self.width = width
        self.bits, self.guard, self.bias, self.top, self.digits = _lane_layout(field.q, width, degree)

    def arguments(self, n: int, dim: int) -> tuple:
        """The n generic arguments, kept per (bits, n, dim)."""
        return _lane_arguments(self.bits, n, dim)

    def mul(self, u: list, v: list, disjoint: bool) -> list:
        """u * v for vectors of coordinate dicts, by the structure constants.

        disjoint is not read: skipping the fold and the accumulation for
        factors with no argument in common measured no faster here."""
        add, mul = self.field.add, self.field.mul
        bias, guard, top, span = self.bias, self.guard, self.top, self.field.q - 1
        out = [{} for _ in u]
        for ui, row in zip(u, self.cells):
            if not ui:
                continue
            for j, ks, cs in row:
                vj = v[j]
                if not vj:
                    continue
                prod = {}
                for e1, c1 in ui.items():
                    for e2, c2 in vj.items():
                        e = e1 + e2
                        e -= (((e + bias) & guard) >> top) * span
                        prod[e] = add(prod.get(e, 0), mul(c1, c2))
                for k, c in zip(ks, cs):
                    acc = out[k]
                    for e, x in prod.items():
                        acc[e] = add(acc.get(e, 0), x if c == 1 else mul(c, x))
        return [{e: c for e, c in acc.items() if c} for acc in out]

    def combine(self, acc: list, part: list, c: int):
        """acc += c * part, in place."""
        for a, p in zip(acc, part):
            _add_scaled(self.field, a, p, c)

    def unpack(self, poly: dict) -> dict:
        shifts = range(0, self.width * self.bits, self.bits)
        mask = (1 << self.bits) - 1
        return {tuple([m >> s & mask for s in shifts]): c for m, c in poly.items()}

    def degree(self, poly: dict) -> int:
        """The total degree of a nonzero polynomial: its greatest sum of
        lanes, read for monomial m as the sum over digit bits b of
        2^b * popcount(m & B_b), one popcount per digit bit (two over
        GF(3)).  A plain loop: coordinates hold a few monomials, and a
        comprehension's frame costs more than the loop over them."""
        digits = self.digits
        most = 0
        for m in poly:
            total = 0
            for b, mask in digits:
                total += (m & mask).bit_count() << b
            if total > most:
                most = total
        return most
