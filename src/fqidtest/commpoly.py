"""Sparse commutative polynomials over a finite field.

A polynomial in n variables is a map from exponent tuples of length n to
nonzero coefficients.  Unlike the free flavors, constants are welcome
here: these polynomials arise as coordinate functions of evaluation maps
and as explicit witnesses for density bounds.

reduce() folds exponents with the rule x^q = x ... x^(q-1) fixed for
nonzero exponents, giving the unique representative with every variable
degree below q that computes the same function on all points.

parse_comm reads text with the walker the free flavors use,
freepoly._Parser; only the atoms (powers allowed, brackets refused) and
the CommPoly arithmetic are its own.
"""

from __future__ import annotations

import operator
from itertools import product

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
        f = self.field
        out = dict(self.monomials)
        for exps, c in other.monomials.items():
            s = f.add(out.get(exps, 0), c)
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return CommPoly(f, self.nvars, out)

    def __neg__(self):
        f = self.field
        return CommPoly(f, self.nvars, {e: f.neg(c) for e, c in self.monomials.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        f = self.field
        out = {}
        for e1, c1 in self.monomials.items():
            for e2, c2 in other.monomials.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(exps, 0), f.mul(c1, c2))
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        return CommPoly(f, self.nvars, out)

    def scale(self, c: int) -> "CommPoly":
        f = self.field
        return CommPoly(f, self.nvars, {e: f.mul(c, k) for e, k in self.monomials.items()})

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
        return CommPoly(f, self.nvars, out)

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
        total = self.field.q**self.nvars
        if total > cap:
            raise SearchSpaceTooLarge(total, cap)
        count = 0
        for point in product(self.field.elements(), repeat=self.nvars):
            if self.eval(point):
                count += 1
        return count

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
    if Q.field != A.field:
        raise FieldMismatch(f"{Q.field!r} vs {A.field!r}")
    f = A.field
    dim = A.dim
    width = Q.n * dim
    generic = [
        [CommPoly.variable(f, width, i * dim + j + 1) for j in range(dim)]
        for i in range(Q.n)
    ]
    coords = [CommPoly.zero(f, width) for _ in range(dim)]
    for term, coeff in Q.terms.items():
        vec = _symbolic_term(term, A, generic, Q.flavor, commutator)
        for s in range(dim):
            if not vec[s].is_zero:
                coords[s] = coords[s] + vec[s].scale(coeff)
    return coords


def _symbolic_term(term, A, generic, flavor: Flavor, commutator: bool):
    if flavor is Flavor.ASSOC:
        vec = generic[term[0] - 1]
        for i in term[1:]:
            vec = _symbolic_mul(A, vec, generic[i - 1])
        return vec
    if isinstance(term, int):
        return generic[term - 1]
    left = _symbolic_term(term[0], A, generic, flavor, commutator)
    right = _symbolic_term(term[1], A, generic, flavor, commutator)
    out = _symbolic_mul(A, left, right)
    if commutator:
        rev = _symbolic_mul(A, right, left)
        out = [a - b for a, b in zip(out, rev)]
    return out


def _symbolic_mul(A, u, v):
    f = A.field
    dim = A.dim
    out = [CommPoly.zero(f, u[0].nvars if dim else 0) for _ in range(dim)]
    for i in range(dim):
        ui = u[i]
        if ui.is_zero:
            continue
        for j in range(dim):
            vj = v[j]
            if vj.is_zero:
                continue
            prod = ui * vj
            cell = A.table[i][j]
            for s, c in enumerate(cell):
                if c:
                    out[s] = out[s] + prod.scale(c)
    return out
