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
already.  _mul_terms can fold exponents as monomials multiply, so
reduced_coordinates builds the reduced coordinate polynomials of an
evaluation map in one pass; symbolic_coordinates runs the same core
without folding.

zero_counter counts the common zeros of a list of polynomials over all of
F^n.  Over GF(2) it is bit-sliced: variable i is an int with bit k set
when x_i = 1 at point k, a monomial is an AND of those masks, a
polynomial the XOR of its monomials, and a point is a common zero when
its bit is clear in the OR of the polynomials.  The masks take n * 2^n
bits, 48 MB at the 2^24-point cap.  Other fields walk the points with a
table of powers.

parse_comm reads text with the walker the free flavors use,
freepoly._Parser; only the atoms (powers allowed, brackets refused) and
the CommPoly arithmetic are its own.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import compress, product

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ParseError,
    SearchSpaceTooLarge,
    UnknownVariable,
    ZeroPolynomial,
)
from .freepoly import Flavor, FreePoly, _Parser, tokenize
from .gf import Field

TUPLE_CAP = 1 << 24


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

    def per_variable_degrees(self) -> tuple[int, ...]:
        out = [0] * self.nvars
        for exps in self.monomials:
            for i, e in enumerate(exps):
                if e > out[i]:
                    out[i] = e
        return tuple(out)

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
        for _ in range(e):
            out = out * self
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

    def count_nonzeros(self, cap: int = TUPLE_CAP) -> int:
        count = zero_counter(self.field, self.nvars, cap)
        return self.field.q**self.nvars - count([self.monomials])

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
                parts.append(self._coeff_text(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(self._coeff_text(c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def _coeff_text(self, c: int) -> str:
        lit = self.field.format_literal(c)
        return f"({lit})" if "+" in lit else lit

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


def _fold_table(q: int) -> tuple[int, ...]:
    """fold[a + b] for reduced exponents a, b: a + b, or a + b - (q - 1)
    once it passes q - 1, since x^q = x."""
    return tuple(range(q)) + tuple(range(1, q))


def _mul_terms(field: Field, a: dict, b: dict, fold=None) -> dict:
    """The product a * b; with fold = _fold_table(q) and reduced a, b the
    product comes out reduced."""
    add, mul = field.add, field.mul
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if fold is None:
                exps = tuple(map(operator.add, e1, e2))
            else:
                exps = tuple(map(fold.__getitem__, map(operator.add, e1, e2)))
            s = add(out.get(exps, 0), mul(c1, c2))
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
    return out


# ---------------------------------------------------------------------------
# counting common zeros

def zero_counter(field: Field, nvars: int, cap: int = TUPLE_CAP):
    """A function from a list of {exps: coeff} dicts in nvars variables to
    the number of points of F^nvars where all of them vanish.

    The bit masks (GF(2)) or the power table (other fields) are built
    here, once for every call of the returned function.  Raises
    SearchSpaceTooLarge when q^nvars exceeds cap.
    """
    q = field.q
    total = q**nvars
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    if q == 2:
        return partial(_count_gf2, _bit_masks(nvars), (1 << total) - 1, total)
    pows = [[field.pow(x, e) for e in range(q)] for x in field.elements()]
    return partial(_count_points, field, nvars, pows)


def _bit_masks(nvars: int) -> list[int]:
    """Mask i has bit k set when x_i = 1 at point k of the canonical order,
    where the first variable is the most significant digit of k."""
    total = 1 << nvars
    masks = []
    for i in range(nvars):
        run = 1 << (nvars - 1 - i)
        mask = ((1 << run) - 1) << run  # one period: run zeros, then run ones
        period = 2 * run
        while period < total:
            mask |= mask << period
            period *= 2
        masks.append(mask)
    return masks


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


def _count_points(field, nvars, pows, polys) -> int:
    add, mul = field.add, field.mul
    span = field.q - 1
    prepared = [
        [
            (c, [(i, (e - 1) % span + 1) for i, e in enumerate(exps) if e])
            for exps, c in monomials.items()
        ]
        for monomials in polys
    ]
    zeros = 0
    for point in product(field.elements(), repeat=nvars):
        for terms in prepared:
            value = 0
            for c, factors in terms:
                v = c
                for i, e in factors:
                    v = mul(v, pows[point[i]][e])
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
    """
    return _coordinates(Q, A, commutator, None)


def reduced_coordinates(Q: FreePoly, A, commutator: bool = False) -> list[CommPoly]:
    """symbolic_coordinates(Q, A, commutator) with each polynomial reduced.

    Exponents fold as monomials multiply, so no unreduced intermediate is
    built.  Like symbolic_coordinates it reads only the structure
    constants A.table, never Algebra.mul.
    """
    return _coordinates(Q, A, commutator, _fold_table(A.field.q))


def _coordinates(Q: FreePoly, A, commutator: bool, fold) -> list[CommPoly]:
    if Q.field != A.field:
        raise FieldMismatch(f"{Q.field!r} vs {A.field!r}")
    f = A.field
    dim = A.dim
    width = Q.n * dim
    minus_one = f.neg(1)
    generic = [  # coordinate s of argument i is the variable x_{i*dim+s+1}
        [{(0,) * k + (1,) + (0,) * (width - 1 - k): 1} for k in range(i * dim, (i + 1) * dim)]
        for i in range(Q.n)
    ]

    def mul(u, v):
        """u * v for vectors of coordinate dicts, by the structure constants."""
        out = [{} for _ in u]
        for ui, row in zip(u, A.table):
            if not ui:
                continue
            for vj, cell in zip(v, row):
                if not vj or not any(cell):
                    continue
                prod = _mul_terms(f, ui, vj, fold)
                for acc, c in zip(out, cell):
                    if c:
                        _add_scaled(f, acc, prod, c)
        return out

    def tree(t):
        if isinstance(t, int):
            return generic[t - 1]
        left, right = tree(t[0]), tree(t[1])
        out = mul(left, right)
        if commutator:
            for acc, part in zip(out, mul(right, left)):
                _add_scaled(f, acc, part, minus_one)
        return out

    def chain(term):
        vec = generic[term[0] - 1]
        for i in term[1:]:
            vec = mul(vec, generic[i - 1])
        return vec

    vector = chain if Q.flavor is Flavor.ASSOC else tree
    coords = [{} for _ in range(dim)]
    for term, coeff in Q.terms.items():
        for acc, part in zip(coords, vector(term)):
            _add_scaled(f, acc, part, coeff)
    return [CommPoly._trusted(f, width, c) for c in coords]
