"""Polynomials over a finite field in three noncommutative flavors.

A term is a formal product of variables x1, x2, ...:

* free terms keep the full bracketing as a binary tree, encoded as an int
  leaf (the variable index) or a nested pair (left, right);
* assoc terms forget bracketing and are flat tuples of variable indices;
* lie terms reuse the tree encoding, each pair read as a bracket [l, r].
  No antisymmetry or Jacobi rewriting is applied; two formally distinct
  bracket trees stay distinct terms even when every Lie algebra would
  identify them.

A polynomial is a finite coefficient map from terms to nonzero field
elements.  Constant terms are forbidden in all flavors: these polynomials
exist to be evaluated on algebras that need not have a unit.

The text format is whitespace-insensitive.  Products need an explicit *
except directly after a leading scalar, field elements with a + in them
must be parenthesized when used as coefficients, and [a,b,c] abbreviates
the left-normed [[a,b],c].  One tokenizer and one recursive-descent
walker, _Parser, read both this language and the commutative one of
commpoly; the free parser adds and multiplies term maps with the helpers
FreePoly's own + and * use.  A field literal, as in an algebra file's
table, is this language without variables and reads through the same
parser.  Term trees nest at most MAX_DEPTH products deep and text at most
MAX_DEPTH groups deep, so that every recursive walk over a tree or the
text stays far inside Python's recursion limit.  A polynomial's product
plan (plan) is the one program that idtest's kernel and the lanes run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import (
    ConstantTermForbidden,
    FieldMismatch,
    FlavorMismatch,
    NestingTooDeep,
    ParseError,
    UnknownVariable,
    ZeroPolynomial,
)
from .gf import Field


# The deepest product nesting of a term tree and the deepest '(' or '['
# nesting of polynomial text.  The parser recurses four frames per group,
# so text at this depth uses about 512 of Python's 1000 frames, leaving
# room for a caller as deep as pytest or a fork-pool worker.
MAX_DEPTH = 128


class Flavor(str, Enum):
    FREE = "free"
    ASSOC = "assoc"
    LIE = "lie"


# ---------------------------------------------------------------------------
# terms

def term_degree(term) -> int:
    if isinstance(term, int):
        return 1
    return sum(term_degree(c) for c in term)


def term_leaves(term):
    """Variable indices in left-to-right order, with multiplicity."""
    if isinstance(term, int):
        yield term
    else:
        for child in term:
            yield from term_leaves(child)


def term_product(a, b, flavor: Flavor):
    if flavor is Flavor.ASSOC:
        return a + b
    return (a, b)


def _add_terms(field: Field, terms, pairs) -> dict:
    """A copy of the term map with the (term, coeff) pairs added in; terms
    whose coefficients sum to zero are dropped."""
    out = dict(terms)
    for t, c in pairs:
        s = field.add(out.get(t, 0), c)
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def _products(field: Field, flavor: Flavor, a, b):
    """The (term, coeff) pairs of the product of two term maps."""
    return [
        (term_product(t1, t2, flavor), field.mul(c1, c2))
        for t1, c1 in a.items()
        for t2, c2 in b.items()
    ]


def _term_enc(term):
    # injective encoding whose tuple order is deterministic within a flavor
    if isinstance(term, int):
        return (0, term)
    out = [1, len(term)]
    out.extend(_term_enc(c) for c in term)
    return tuple(out)


def term_sort_key(term):
    return (term_degree(term), _term_enc(term))


def _validate_term(term, flavor: Flavor, n: int, depth: int = 0):
    if flavor is Flavor.ASSOC:
        if not (isinstance(term, tuple) and term and all(isinstance(i, int) for i in term)):
            raise ValueError(f"assoc terms are nonempty tuples of indices, got {term!r}")
        for i in term:
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} out of range 1..{n}")
        return
    if isinstance(term, int):
        if not 1 <= term <= n:
            raise ValueError(f"variable index {term} out of range 1..{n}")
        return
    if not (isinstance(term, tuple) and len(term) == 2):
        raise ValueError(f"tree terms are index leaves or pairs, got {term!r}")
    if depth == MAX_DEPTH:
        raise NestingTooDeep(MAX_DEPTH)
    _validate_term(term[0], flavor, n, depth + 1)
    _validate_term(term[1], flavor, n, depth + 1)


# ---------------------------------------------------------------------------
# polynomials

class FreePoly:
    """Formal polynomial without constant term in one of the three flavors."""

    __slots__ = ("field", "flavor", "n", "terms", "_analysis", "_hash")

    def __init__(self, field: Field, flavor, n: int, terms):
        flavor = Flavor(flavor)
        if n < 0:
            raise ValueError("variable count must be >= 0")
        clean = {}
        for term, coeff in terms.items():
            if not isinstance(coeff, int) or not 0 <= coeff < field.q:
                raise ValueError(f"coefficient {coeff!r} is not a canonical element of {field!r}")
            if coeff == 0:
                continue
            _validate_term(term, flavor, n)
            clean[term] = coeff
        self.field = field
        self.flavor = flavor
        self.n = n
        self.terms = clean
        self._analysis = None
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial()
        return max(term_degree(t) for t in self.terms)

    def _check_compatible(self, other: "FreePoly"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.flavor is not other.flavor:
            raise FlavorMismatch(f"{self.flavor.value} vs {other.flavor.value}")

    def __add__(self, other):
        self._check_compatible(other)
        terms = _add_terms(self.field, self.terms, other.terms.items())
        return FreePoly(self.field, self.flavor, max(self.n, other.n), terms)

    def __neg__(self):
        f = self.field
        return FreePoly(f, self.flavor, self.n, {t: f.neg(c) for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        f = self.field
        terms = _add_terms(f, {}, _products(f, self.flavor, self.terms, other.terms))
        return FreePoly(f, self.flavor, max(self.n, other.n), terms)

    def scale(self, c: int) -> "FreePoly":
        f = self.field
        return FreePoly(
            f, self.flavor, self.n, {t: f.mul(c, k) for t, k in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreePoly)
            and (self.field is other.field or self.field == other.field)
            and self.flavor is other.flavor
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        # terms never change after construction, so the first hash is kept;
        # a frozenset of the items hashes them in any order, as __eq__
        # compares them, with no sort and no sort keys
        if self._hash is None:
            self._hash = hash((self.field, self.flavor, self.n, frozenset(self.terms.items())))
        return self._hash

    def __getstate__(self):
        # the hash memo stays behind: an enum's hash is its name's, and str
        # hashes differ between processes
        return (self.field, self.flavor, self.n, self.terms, self._analysis)

    def __setstate__(self, state):
        self.field, self.flavor, self.n, self.terms, self._analysis = state
        self._hash = None

    # text form

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for term in sorted(self.terms, key=term_sort_key):
            coeff = self.terms[term]
            body = _term_text(term, self.flavor)
            if coeff == 1:
                parts.append(body)
            else:
                parts.append(f"{coeff_text(self.field, coeff)}*{body}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"FreePoly({self.flavor.value}, {self.to_text()!r} over {self.field!r}, n={self.n})"

    def analyze(self) -> "Analysis":
        # terms never change after construction, so the first analysis is kept
        if self._analysis is not None:
            return self._analysis
        if not self.terms:
            raise ZeroPolynomial("analysis")
        degrees = []
        counts = []
        for term in self.terms:
            degrees.append(term_degree(term))
            c = [0] * self.n
            for leaf in term_leaves(term):
                c[leaf - 1] += 1
            counts.append(c)
        multidegree = tuple(max(c[i] for c in counts) for i in range(self.n))
        homogeneous = len(set(degrees)) == 1
        multilinear = all(all(x == 1 for x in c) for c in counts) and self.n > 0
        self._analysis = Analysis(
            degree=max(degrees),
            multidegree=multidegree,
            homogeneous=homogeneous,
            multilinear=multilinear,
        )
        return self._analysis


@dataclass(frozen=True)
class Analysis:
    degree: int
    multidegree: tuple[int, ...]
    homogeneous: bool
    multilinear: bool


def _term_text(term, flavor: Flavor) -> str:
    if flavor is Flavor.ASSOC:
        return "*".join(f"x{i}" for i in term)
    if flavor is Flavor.LIE:
        if isinstance(term, int):
            return f"x{term}"
        left, right = term
        return f"[{_term_text(left, flavor)},{_term_text(right, flavor)}]"
    if isinstance(term, int):
        return f"x{term}"
    left, right = term
    lhs = _term_text(left, flavor)
    rhs = _term_text(right, flavor)
    if not isinstance(right, int):
        rhs = f"({rhs})"
    return f"{lhs}*{rhs}"


def zero(field: Field, flavor, n: int = 0) -> FreePoly:
    return FreePoly(field, flavor, n, {})


def variable(field: Field, flavor, i: int, n: int | None = None) -> FreePoly:
    flavor = Flavor(flavor)
    term = (i,) if flavor is Flavor.ASSOC else i
    return FreePoly(field, flavor, max(i, n or 0), {term: 1})


def engel(m: int, field: Field) -> FreePoly:
    """Left-normed bracket [x, y, y, ..., y] with y repeated m times."""
    if m < 1:
        raise ValueError("repetition count must be >= 1")
    if m > MAX_DEPTH:
        raise NestingTooDeep(MAX_DEPTH)
    term = 1
    for _ in range(m):
        term = (term, 2)
    return FreePoly(field, Flavor.LIE, 2, {term: 1})


def power_word(d: int, field: Field) -> FreePoly:
    """The associative word x1 * x1 * ... * x1 of length d."""
    if d < 1:
        raise ValueError("power must be >= 1")
    return FreePoly(field, Flavor.ASSOC, 1, {(1,) * d: 1})


# ---------------------------------------------------------------------------
# the product plan

# an assoc word's letters past the first UNROLLED are one tail step of its plan
UNROLLED = 64


@lru_cache(maxsize=256)
def plan(Q: FreePoly):
    """e_Q as straight-line steps on nodes, which idtest's kernel compiles
    and the lanes run: nodes 0..n-1 are the arguments, each (left, right,
    dead) step appends the product of two nodes, and e_Q is the sum of
    (node, coefficient, dead) over its terms.  dead holds the nodes that
    step or term reads last.  A product node that several terms share is
    one step.  An assoc word is folded left, and its letters past UNROLLED
    are one tail step, whose right is the tuple of their nodes, multiplied
    in one after another.  The plan reads Q alone; the cache keeps 256."""
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
        for i in term[1:UNROLLED]:
            acc = node(acc, i - 1)
        if len(term) > UNROLLED:
            acc = node(acc, tuple(i - 1 for i in term[UNROLLED:]))
        return acc

    compile_term = word if Q.flavor is Flavor.ASSOC else tree
    terms = [(compile_term(term), coeff) for term, coeff in Q.terms.items()]
    last = {}  # node -> the last step or term (numbered after the steps) to read it
    for i, (left, right) in enumerate(steps):
        last.update(dict.fromkeys((left, *right) if isinstance(right, tuple) else (left, right), i))
    for i, (node, _) in enumerate(terms, len(steps)):
        last[node] = i
    dead = [[] for _ in range(len(steps) + len(terms))]
    for node, i in last.items():
        dead[i].append(node)
    return (
        tuple((left, right, tuple(dead[i])) for i, (left, right) in enumerate(steps)),
        tuple((node, coeff, tuple(dead[i])) for i, (node, coeff) in enumerate(terms, len(steps))),
    )


# ---------------------------------------------------------------------------
# text to polynomial

def tokenize(text: str):
    """Token stream shared by the free and commutative parsers."""
    out = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < length and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < length and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs a numeric index", i)
            index = int(text[i + 1 : j])
            if index < 1:
                raise UnknownVariable(text[i:j], i)
            out.append(("var", index, i))
            i = j
            continue
        if ch == "g":
            out.append(("g", None, i))
            i += 1
            continue
        if ch in "+-*^()[],":
            out.append(("op", ch, i))
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            raise UnknownVariable(text[i:j], i)
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", None, length))
    return out


class _Parser:
    """Recursive descent over the token list, for both polynomial languages.

    A subclass supplies atom(), which returns (value, parsed_a_bare_scalar),
    and the arithmetic of its values: add, neg and mul.  JUXTAPOSE lists
    the ops that may follow a bare scalar without a '*'.  depth counts the
    open '(' and '[' groups, and with them the recursion.
    """

    JUXTAPOSE = "("

    def __init__(self, tokens, field: Field):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.depth = 0

    def open_group(self):
        """Enter the group whose '(' or '[' was just taken."""
        if self.depth == MAX_DEPTH:
            raise NestingTooDeep(MAX_DEPTH, self.tokens[self.pos - 1][2])
        self.depth += 1

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return value

    def expr(self):
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if kind == "op" and val in "+-":
            self.take()
        value = self.term()
        if negate:
            value = self.neg(value)
        while True:
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                return value
            self.take()
            rhs = self.term()
            value = self.add(value, self.neg(rhs) if val == "-" else rhs)

    def term(self):
        value, scalar = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
            elif not (
                scalar and (kind in ("var", "g", "int") or (kind == "op" and val in self.JUXTAPOSE))
            ):
                return value
            rhs, scalar = self.atom()
            value = self.mul(value, rhs)

    def exponent(self, default):
        """The int after a '^' if one follows, else default."""
        kind, val, _ = self.peek()
        if not (kind == "op" and val == "^"):
            return default
        self.take()
        kind, val, pos = self.take()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", pos)
        return val

    def generator(self, pos: int) -> int:
        """The field element g or g^e, its 'g' token taken at pos."""
        f = self.field
        if f.k == 1:
            raise ParseError(f"no generator symbol in {f!r}", pos)
        return f.pow(f.p, self.exponent(1))

    def group(self):
        """The expression inside parentheses, its '(' already taken."""
        self.open_group()
        value = self.expr()
        kind, val, pos = self.take()
        if not (kind == "op" and val == ")"):
            raise ParseError("expected ')'", pos)
        self.depth -= 1
        return value


class _FreeParser(_Parser):
    """Values are triples (scalar, term map, depth), so scalar
    subexpressions like (g+1) multiply as coefficients.  A nonzero scalar
    surviving to the top level is a forbidden constant term.  depth bounds
    the product nesting of the map's terms (a sum keeps the larger bound
    even where terms cancel), so a product deeper than MAX_DEPTH is refused
    before it is built.
    """

    JUXTAPOSE = "(["

    def __init__(self, tokens, flavor: Flavor, field: Field):
        super().__init__(tokens, field)
        self.flavor = flavor
        self.maxvar = 0

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return (val % self.field.p, {}, 0), True
        if kind == "g":
            return (self.generator(pos), {}, 0), True
        if kind == "var":
            self.maxvar = max(self.maxvar, val)
            term = (val,) if self.flavor is Flavor.ASSOC else val
            return (0, {term: 1}, 0), False
        if kind == "op" and val == "(":
            return self.group(), False
        if kind == "op" and val == "[":
            if self.flavor is not Flavor.LIE:
                raise ParseError("brackets are only meaningful in the lie flavor", pos)
            self.open_group()
            items = [self.expr()]
            while True:
                ck, cv, cpos = self.take()
                if ck == "op" and cv == ",":
                    items.append(self.expr())
                elif ck == "op" and cv == "]":
                    break
                else:
                    raise ParseError("expected ',' or ']'", cpos)
            if len(items) < 2:
                raise ParseError("a bracket needs at least two entries", pos)
            self.depth -= 1
            value = items[0]
            for rhs in items[1:]:
                value = self.mul(value, rhs)
            return value, False
        raise ParseError("expected a variable, coefficient, or group", pos)

    def add(self, a, b):
        f = self.field
        return f.add(a[0], b[0]), _add_terms(f, a[1], b[1].items()), max(a[2], b[2])

    def neg(self, a):
        f = self.field
        return f.neg(a[0]), {t: f.neg(c) for t, c in a[1].items()}, a[2]

    def mul(self, a, b):
        f = self.field
        (sa, ta, da), (sb, tb, db) = a, b
        depth = max(da, db)
        if ta and tb and self.flavor is not Flavor.ASSOC:
            if depth == MAX_DEPTH:
                raise NestingTooDeep(MAX_DEPTH)
            depth += 1
        pairs = []
        if sa:
            pairs += [(t, f.mul(sa, c)) for t, c in tb.items()]
        if sb:
            pairs += [(t, f.mul(c, sb)) for t, c in ta.items()]
        pairs += _products(f, self.flavor, ta, tb)
        return f.mul(sa, sb), _add_terms(f, {}, pairs), depth


def parse(text: str, flavor, field: Field, n: int | None = None) -> FreePoly:
    """Parse polynomial text in the given flavor.

    n widens the ambient variable count; variables beyond an explicit n are
    rejected.  Without it the count is the largest index that occurs.
    """
    flavor = Flavor(flavor)
    parser = _FreeParser(tokenize(text), flavor, field)
    scalar, terms, _ = parser.parse()
    if scalar != 0:
        raise ConstantTermForbidden()
    if n is not None and parser.maxvar > n:
        raise UnknownVariable(f"x{parser.maxvar}")
    return FreePoly(field, flavor, max(parser.maxvar, n or 0), terms)


# ---------------------------------------------------------------------------
# field literals: the scalar part of the polynomial language

def parse_literal(text: str, field: Field) -> int:
    """The field element that text, e.g. "2*g^2+g+2", denotes.

    A literal is polynomial text without variables, so sums, products,
    powers of g and parentheses read as they do in a coefficient.
    """
    tokens = tokenize(text)
    for kind, _, pos in tokens:
        if kind == "var":
            raise ParseError("a field literal has no variables", pos)
    scalar, _, _ = _FreeParser(tokens, Flavor.FREE, field).parse()
    return scalar


def coeff_text(field: Field, c: int) -> str:
    """The literal for c, parenthesized when it is a sum, as it is written
    before a '*' in polynomial text."""
    lit = field.format_literal(c)
    return f"({lit})" if "+" in lit else lit
