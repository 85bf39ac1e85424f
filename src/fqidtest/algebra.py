"""Finite-dimensional algebras over a small field, given by structure constants.

An algebra of dimension d stores a d x d x d table: table[i][j] is the
coordinate vector of b_i * b_j.  No associativity, commutativity, or unit
is assumed.  With bracket=True the table is validated as a Lie bracket
(alternating, antisymmetric, Jacobi) at construction time.

Elements are coordinate tuples of ints in the element encoding of the
field.  The canonical order on elements is lexicographic on coordinate
tuples with the field's own element order, which is what elements()
yields and what every enumeration in the package relies on.

Subspaces are kept in reduced row echelon form, so equal subspaces have
equal basis tuples and deterministic canonical coset representatives
(zero on the pivot columns).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations, product

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FieldMismatch,
    LieAxiomViolation,
    NotAnIdeal,
    SearchSpaceTooLarge,
    ShapeMismatch,
    UnknownBuilder,
)
from .freepoly import parse_literal
from .gf import Field, field_of_order

Vec = tuple[int, ...]

SUBSPACE_CAP = 10**6

# dim**3 structure constants at most, so dimension 32.  No exact count fits
# EXACT_CAP = 2**24 points past dimension 24, and the largest algebra in use,
# strictly_upper_triangular_lie(5,2), has dimension 10.
STRUCTURE_CAP = 1 << 15


# ---------------------------------------------------------------------------
# vectors and row echelon form

def vec_add(field: Field, u: Vec, v: Vec) -> Vec:
    return tuple(field.add(a, b) for a, b in zip(u, v))

def vec_sub(field: Field, u: Vec, v: Vec) -> Vec:
    return tuple(field.sub(a, b) for a, b in zip(u, v))

def vec_scale(field: Field, c: int, u: Vec) -> Vec:
    return tuple(field.mul(c, a) for a in u)

def vec_is_zero(u: Vec) -> bool:
    return not any(u)


def rref(field: Field, vectors, width: int):
    """Reduced row echelon basis of the span.  Returns (rows, pivots)."""
    rows = [list(v) for v in vectors if any(v)]
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][col])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [field.sub(rows[i][j], field.mul(c, rows[r][j])) for j in range(width)]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def reduce_against(field: Field, rows, pivots, v: Vec) -> Vec:
    """Canonical residue of v modulo the row space: zero on pivot columns."""
    w = list(v)
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            w = [field.sub(w[j], field.mul(c, row[j])) for j in range(len(w))]
    return tuple(w)


# ---------------------------------------------------------------------------
# ideals

@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, stored as an echelon basis of the subspace."""

    field: Field
    ambient_dim: int
    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.basis)

    def contains(self, v: Vec) -> bool:
        return not any(reduce_against(self.field, self.basis, self.pivots, v))

    def coset_rep(self, v: Vec) -> Vec:
        return reduce_against(self.field, self.basis, self.pivots, v)

    def elements(self):
        """All members, in canonical order of their basis coefficients."""
        f = self.field
        zero = (0,) * self.ambient_dim
        for coeffs in product(f.elements(), repeat=len(self.basis)):
            v = zero
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = vec_add(f, v, vec_scale(f, c, row))
            yield v

    def size(self) -> int:
        return self.field.q ** len(self.basis)

    def __le__(self, other: "Ideal") -> bool:
        return all(other.contains(row) for row in self.basis)

    def __hash__(self):
        # the hash the dataclass would compute; the fields never change, so
        # the first one is kept as _hash, as FreePoly keeps its own: coset
        # search and descent key their memos by the ideal on every call,
        # and Field.__hash__ is a Python call
        try:
            return self._hash
        except AttributeError:
            h = hash((self.field, self.ambient_dim, self.basis, self.pivots))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # the hash memo stays behind, as FreePoly's does
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


# ---------------------------------------------------------------------------
# the algebra itself

class Algebra:
    # _ideals memoises enumerate_ideals, _index_tables holds idtest's
    # element-index tables, _lane_tables the lanes module's structure
    # constants over GF(2) and _lane_costs their count per reading, and
    # _cells commpoly's nonzero structure constants; all five are built on
    # first use
    __slots__ = (
        "field", "dim", "table", "bracket", "name", "basis_names", "_ideals", "_index_tables",
        "_lane_tables", "_lane_costs", "_cells",
    )

    def __init__(self, field, dim, table, bracket=False, name=None, basis_names=None):
        if dim < 0:
            raise ShapeMismatch("dimension must be >= 0")
        rows = tuple(table)
        if len(rows) != dim:
            raise ShapeMismatch(f"table has {len(rows)} rows, expected {dim}")
        norm = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != dim:
                raise ShapeMismatch(f"table row {i} has {len(row)} entries, expected {dim}")
            cells = []
            for j, cell in enumerate(row):
                cell = tuple(cell)
                if len(cell) != dim:
                    raise ShapeMismatch(f"table entry ({i},{j}) has length {len(cell)}")
                for c in cell:
                    if not isinstance(c, int) or not 0 <= c < field.q:
                        raise ShapeMismatch(f"table entry ({i},{j}) holds {c!r}, not a field element")
                cells.append(cell)
            norm.append(tuple(cells))
        self.field = field
        self.dim = dim
        self.table = tuple(norm)
        self.bracket = bool(bracket)
        self.name = name
        if basis_names is None:
            basis_names = tuple(f"b{i + 1}" for i in range(dim))
        else:
            basis_names = tuple(str(s) for s in basis_names)
            if len(basis_names) != dim:
                raise ShapeMismatch("basis_names length differs from dimension")
        self.basis_names = basis_names
        self._ideals = None
        self._index_tables = None
        self._lane_tables = None
        self._lane_costs = None
        self._cells = None
        if self.bracket:
            self._validate_lie()

    def __getstate__(self):
        # the memos stay behind: the index tables hold closures and
        # generated kernels, which do not pickle, and a worker process
        # builds its own
        return (self.field, self.dim, self.table, self.bracket, self.name, self.basis_names)

    def __setstate__(self, state):
        self.field, self.dim, self.table, self.bracket, self.name, self.basis_names = state
        self._ideals = None
        self._index_tables = None
        self._lane_tables = None
        self._lane_costs = None
        self._cells = None

    def _validate_lie(self):
        f = self.field
        d = self.dim
        t = self.table
        for i in range(d):
            if any(t[i][i]):
                raise LieAxiomViolation("alternating product", (i, i))
        for i in range(d):
            for j in range(i + 1, d):
                if t[i][j] != tuple(f.neg(c) for c in t[j][i]):
                    raise LieAxiomViolation("antisymmetry", (i, j))
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc = (0,) * d
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        acc = vec_add(f, acc, self.mul(t[a][b], self.basis_vec(c)))
                    if any(acc):
                        raise LieAxiomViolation("jacobi identity", (i, j, k))

    def zero_vec(self) -> Vec:
        return (0,) * self.dim

    def basis_vec(self, i: int) -> Vec:
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} out of range")
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def mul(self, u: Vec, v: Vec) -> Vec:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(f"vectors of length {len(u)}, {len(v)} in dimension {self.dim}")
        f = self.field
        fadd = f.add
        fmul = f.mul
        out = [0] * self.dim
        table = self.table
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = table[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = fmul(ui, vj)
                cell = row[j]
                for s, cs in enumerate(cell):
                    if cs:
                        out[s] = fadd(out[s], fmul(c, cs))
        return tuple(out)

    def elements(self):
        """All q^dim coordinate vectors in canonical order."""
        return product(self.field.elements(), repeat=self.dim)

    def order(self) -> int:
        return self.field.q**self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.bracket == other.bracket
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.table, self.bracket))

    def __repr__(self):
        label = self.name or f"dim-{self.dim} algebra"
        kind = "bracket" if self.bracket else "plain"
        return f"<{label} over {self.field!r}, {kind}>"


# ---------------------------------------------------------------------------
# ideal machinery

def _is_invariant(A: Algebra, rows, pivots) -> bool:
    for v in rows:
        for i in range(A.dim):
            e = A.basis_vec(i)
            for w in (A.mul(e, v), A.mul(v, e)):
                if any(reduce_against(A.field, rows, pivots, w)):
                    return False
    return True


def _check_ambient(A: Algebra, ideal: Ideal):
    if not (ideal.field is A.field or ideal.field == A.field):
        raise FieldMismatch("ideal and algebra live over different fields")
    if ideal.ambient_dim != A.dim:
        raise DimensionMismatch("ideal ambient dimension differs from the algebra")


def _check_ideal(A: Algebra, ideal: Ideal):
    _check_ambient(A, ideal)
    if not _is_invariant(A, ideal.basis, ideal.pivots):
        raise NotAnIdeal("subspace is not invariant under multiplication")


def zero_ideal(A: Algebra) -> Ideal:
    return Ideal(A.field, A.dim, (), ())


def full_ideal(A: Algebra) -> Ideal:
    rows, pivots = rref(A.field, [A.basis_vec(i) for i in range(A.dim)], A.dim)
    return Ideal(A.field, A.dim, rows, pivots)


def _is_coordinate_vector(A: Algebra, v) -> bool:
    """v has A.dim entries, each a field element of A: an int in range(q).
    (idtest._rep_indices runs the same test inline as it reads off element
    indices.)"""
    q = A.field.q
    return len(v) == A.dim and all(isinstance(c, int) and 0 <= c < q for c in v)


def _coordinate_vectors(A: Algebra, vectors, what: str) -> list[Vec]:
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if not _is_coordinate_vector(A, v):
            raise DimensionMismatch(f"{what} {v!r} is not a coordinate vector of length {A.dim}")
    return vectors


def ideal_generated(A: Algebra, generators) -> Ideal:
    """Smallest two-sided ideal containing the generators, by closure."""
    generators = _coordinate_vectors(A, generators, "generator")
    rows, pivots = rref(A.field, generators, A.dim)
    queue = list(rows)
    while queue:
        v = queue.pop()
        for i in range(A.dim):
            e = A.basis_vec(i)
            for w in (A.mul(e, v), A.mul(v, e)):
                res = reduce_against(A.field, rows, pivots, w)
                if any(res):
                    rows, pivots = rref(A.field, rows + (res,), A.dim)
                    queue.append(res)
    return Ideal(A.field, A.dim, rows, pivots)


def as_ideal(A: Algebra, vectors) -> Ideal:
    """The span of the vectors, verified to be an ideal."""
    rows, pivots = rref(A.field, _coordinate_vectors(A, vectors, "vector"), A.dim)
    if not _is_invariant(A, rows, pivots):
        raise NotAnIdeal("the span of the given vectors is not invariant")
    return Ideal(A.field, A.dim, rows, pivots)


def gaussian_binomial(n: int, r: int, q: int) -> int:
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_subspaces(q: int, n: int) -> int:
    return sum(gaussian_binomial(n, r, q) for r in range(n + 1))


def _ideal_order(ideal: Ideal):
    return ideal.codim, ideal.basis


def enumerate_ideals(A: Algebra, cap: int = SUBSPACE_CAP) -> list[Ideal]:
    """Every two-sided ideal, codimension ascending then basis lexicographic.

    Walks all subspaces in echelon parametrization, so the cap guards the
    subspace count, not the ideal count.  The walk runs once per algebra;
    later calls check the cap again and return a copy of its result.
    """
    return sorted(_walk_ideals(A, cap), key=_ideal_order)


def _walk_ideals(A: Algebra, cap: int = SUBSPACE_CAP):
    """Yield every two-sided ideal as the walk finds it, rank ascending.

    A caller can stop as soon as it has seen enough.  The cap guards the
    subspace count before anything is yielded.  A walk run to its end
    keeps its ideals on the algebra, and later walks yield those, in
    enumerate_ideals' order.
    """
    f = A.field
    d = A.dim
    total = count_subspaces(f.q, d)
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    if A._ideals is not None:
        yield from A._ideals
        return
    found = []
    for r in range(d + 1):
        for pivots in combinations(range(d), r):
            pivot_set = set(pivots)
            cells = [
                (i, col)
                for i in range(r)
                for col in range(pivots[i] + 1, d)
                if col not in pivot_set
            ]
            for values in product(f.elements(), repeat=len(cells)):
                rows = [[0] * d for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, col), val in zip(cells, values):
                    rows[i][col] = val
                rows = tuple(tuple(row) for row in rows)
                if _is_invariant(A, rows, pivots):
                    found.append(Ideal(f, d, rows, pivots))
                    yield found[-1]
    found.sort(key=_ideal_order)
    A._ideals = tuple(found)


@dataclass(frozen=True)
class QuotientMap:
    ideal: Ideal
    nonpivots: tuple[int, ...]

    def project(self, v: Vec) -> Vec:
        w = self.ideal.coset_rep(v)
        return tuple(w[c] for c in self.nonpivots)

    def lift(self, u: Vec) -> Vec:
        w = [0] * self.ideal.ambient_dim
        for c, x in zip(self.nonpivots, u):
            w[c] = x
        return tuple(w)


def quotient(A: Algebra, ideal: Ideal):
    """The quotient algebra on the non-pivot coordinates, with its map."""
    _check_ideal(A, ideal)
    pivot_set = set(ideal.pivots)
    nonpivots = tuple(c for c in range(A.dim) if c not in pivot_set)
    qmap = QuotientMap(ideal, nonpivots)
    qdim = len(nonpivots)
    units = [tuple(1 if j == i else 0 for j in range(qdim)) for i in range(qdim)]
    table = [
        [qmap.project(A.mul(qmap.lift(units[i]), qmap.lift(units[j]))) for j in range(qdim)]
        for i in range(qdim)
    ]
    name = f"{A.name or 'algebra'} mod rank-{ideal.rank} ideal"
    names = tuple(A.basis_names[c] for c in nonpivots)
    return Algebra(A.field, qdim, table, bracket=A.bracket, name=name, basis_names=names), qmap


@dataclass(frozen=True)
class InclusionMap:
    """The ideal a restricted algebra spans in A: the restricted algebra's
    basis vector i is the ideal's basis row i."""

    ideal: Ideal


def restrict(A: Algebra, ideal: Ideal):
    """The ideal as an algebra in its own right, with the inclusion map."""
    _check_ideal(A, ideal)
    r = ideal.rank
    table = []
    for i in range(r):
        row = []
        for j in range(r):
            w = A.mul(ideal.basis[i], ideal.basis[j])
            if not ideal.contains(w):
                raise NotAnIdeal("products escape the subspace")
            row.append(tuple(w[p] for p in ideal.pivots))
        table.append(row)
    name = f"rank-{ideal.rank} ideal of {A.name or 'algebra'}"
    sub = Algebra(A.field, r, table, bracket=A.bracket, name=name)
    return sub, InclusionMap(ideal)


def nilpotency_index(A: Algebra):
    """Least N with every length-N product zero, or None.

    Tracks the spans V_m of all products of exactly m factors under every
    bracketing, via V_m = sum of V_a * V_b over a + b = m.  The chain is
    descending.  A stall V_s = ... = V_m with m >= 2s is permanent (every
    split of m+1 has a factor inside the stalled range), so None is only
    returned once the chain provably cannot reach zero.
    """
    if A.dim == 0:
        return 1
    f = A.field
    layers = [None]
    rows, pivots = rref(f, [A.basis_vec(i) for i in range(A.dim)], A.dim)
    layers.append((rows, pivots))
    if not rows:
        return 1
    stall_start = 1
    m = 1
    while True:
        m += 1
        vecs = []
        for a in range(1, m):
            for u in layers[a][0]:
                for v in layers[m - a][0]:
                    vecs.append(A.mul(u, v))
        layer = rref(f, vecs, A.dim)
        if not layer[0]:
            return m
        layers.append(layer)
        if layer == layers[m - 1]:
            if m >= 2 * stall_start:
                return None
        else:
            stall_start = m


# ---------------------------------------------------------------------------
# builders

def _check_structure_size(dim: int):
    """Refuse a dimension whose dim**3 structure constants exceed
    STRUCTURE_CAP, before any table is allocated."""
    if dim**3 > STRUCTURE_CAP:
        raise BudgetExceeded(
            f"dimension {dim} needs {dim**3} structure constants, "
            f"over the cap of {STRUCTURE_CAP}"
        )


def _matrix_units(q: int, pairs, name: str) -> Algebra:
    """The span of the matrix units e_rc, (r, c) in pairs, under
    e_ab * e_cd = delta_bc e_ad; pairs must be closed under that product."""
    f = field_of_order(q)
    index = {pair: i for i, pair in enumerate(pairs)}
    dim = len(pairs)
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                table[i][j][index[(a, d)]] = 1
    names = [f"e{r + 1}{c + 1}" for r, c in pairs]
    return Algebra(f, dim, table, name=name, basis_names=names)


def matrix_algebra(n: int, q: int) -> Algebra:
    """Full n x n matrix algebra, basis e_rc in row-major order."""
    _check_structure_size(n * n)
    pairs = [(r, c) for r in range(n) for c in range(n)]
    return _matrix_units(q, pairs, f"matrix({n},{q})")


def upper_triangular(n: int, q: int) -> Algebra:
    _check_structure_size(n * (n + 1) // 2)
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    return _matrix_units(q, pairs, f"upper_triangular({n},{q})")


def strictly_upper_triangular_lie(n: int, q: int) -> Algebra:
    """Strictly upper triangular matrices with the commutator bracket."""
    _check_structure_size(n * (n - 1) // 2)
    f = field_of_order(q)
    pairs = [(r, c) for r in range(n) for c in range(r + 1, n)]
    index = {pair: i for i, pair in enumerate(pairs)}
    dim = len(pairs)
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            # [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb
            if b == c and (a, d) in index:
                cell = table[i][j]
                cell[index[(a, d)]] = f.add(cell[index[(a, d)]], 1)
            if d == a and (c, b) in index:
                cell = table[i][j]
                cell[index[(c, b)]] = f.sub(cell[index[(c, b)]], 1)
    names = [f"e{r + 1}{c + 1}" for r, c in pairs]
    return Algebra(
        f, dim, table, bracket=True, name=f"strictly_upper_triangular_lie({n},{q})", basis_names=names
    )


def heisenberg(q: int) -> Algebra:
    """Three-dimensional Lie algebra with [b1, b2] = b3 central."""
    f = field_of_order(q)
    table = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    table[0][1] = [0, 0, 1]
    table[1][0] = [0, 0, f.neg(1)]
    return Algebra(f, 3, table, bracket=True, name=f"heisenberg({q})", basis_names=("b1", "b2", "b3"))


def truncated(q: int, m: int) -> Algebra:
    """Nilpotent algebra t*F[t]/(t^m): basis t, t^2, ..., t^(m-1)."""
    if m < 1:
        raise ValueError("truncation order must be >= 1")
    dim = m - 1
    _check_structure_size(dim)
    f = field_of_order(q)
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            power = i + j + 2
            if power < m:
                table[i][j][power - 1] = 1
    names = (["t"] + [f"t^{e}" for e in range(2, m)])[:dim]
    return Algebra(f, dim, table, name=f"truncated({q},{m})", basis_names=names)


def field_as_algebra(q: int) -> Algebra:
    f = field_of_order(q)
    return Algebra(f, 1, [[[1]]], name=f"field({q})", basis_names=("1",))


BUILDERS = {
    "matrix": (matrix_algebra, 2),
    "upper_triangular": (upper_triangular, 2),
    "strictly_upper_triangular_lie": (strictly_upper_triangular_lie, 2),
    "heisenberg": (heisenberg, 1),
    "truncated": (truncated, 2),
    "field_as_algebra": (field_as_algebra, 1),
    "field": (field_as_algebra, 1),
}

_BUILTIN_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)\s*$")


def builtin(spec: str) -> Algebra:
    """Construct one of the named algebras from text like 'matrix(2,2)'."""
    m = _BUILTIN_RE.match(spec)
    if not m:
        raise UnknownBuilder(spec)
    name = m.group(1)
    if name not in BUILDERS:
        raise UnknownBuilder(name)
    fn, arity = BUILDERS[name]
    args = [int(x) for x in m.group(2).split(",")]
    if len(args) != arity:
        raise ValueError(f"builder {name!r} takes {arity} argument(s), got {len(args)}")
    return fn(*args)


# ---------------------------------------------------------------------------
# files

def to_json_dict(A: Algebra) -> dict:
    field = {"p": A.field.p, "k": A.field.k}
    if A.field.k > 1:
        field["modulus"] = list(A.field.modulus)
    lit = A.field.format_literal
    return {
        "field": field,
        "dim": A.dim,
        "bracket": A.bracket,
        "basis_names": list(A.basis_names),
        "table": [[[lit(c) for c in cell] for cell in row] for row in A.table],
    }


def _json_int(value, key: str) -> int:
    # bool is a subclass of int, but JSON true is not a count
    if not isinstance(value, int) or isinstance(value, bool):
        raise ShapeMismatch(f"{key} must be a JSON integer, got {value!r}")
    return value


def from_json_dict(doc: dict, name=None) -> Algebra:
    try:
        fdoc = doc["field"]
        p = _json_int(fdoc["p"], "field.p")
        k = _json_int(fdoc.get("k", 1), "field.k")
        f = Field(p, k, fdoc.get("modulus"))
        dim = _json_int(doc["dim"], "dim")
        _check_structure_size(dim)
        bracket = doc.get("bracket", False)
        if not isinstance(bracket, bool):
            raise ShapeMismatch(f"bracket must be a JSON boolean, got {bracket!r}")
        names = doc.get("basis_names")
        if names is not None and (
            not isinstance(names, list) or not all(isinstance(s, str) for s in names)
        ):
            raise ShapeMismatch(f"basis_names must be a JSON list of strings, got {names!r}")
        raw = doc["table"]
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed algebra document: {exc}") from exc
    if not isinstance(raw, list):
        raise ShapeMismatch("table must be a list of rows")
    table = []
    for row in raw:
        if not isinstance(row, list):
            raise ShapeMismatch("table rows must be lists")
        cells = []
        for cell in row:
            if not isinstance(cell, list):
                raise ShapeMismatch("table cells must be coordinate lists")
            cells.append([parse_literal(str(c), f) for c in cell])
        table.append(cells)
    return Algebra(f, dim, table, bracket=bracket, name=name, basis_names=names)


def save_algebra(A: Algebra, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(A), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path: str) -> Algebra:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return from_json_dict(doc, name=path)
