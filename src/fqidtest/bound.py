"""Sharp floors for the nonzero-value density of low-degree polynomials.

A nonzero polynomial of total degree d over the field with q elements,
reduced so every variable degree stays below q, takes a nonzero value on
at least a (q - r) / q^(m+1) fraction of all points, where
d = m*(q - 1) + r with 0 <= r < q - 1.  floor_fraction computes that
number, minimize_sequences recovers it by brute force over the defining
minimization, extremal_poly builds a polynomial attaining it, and
exhaustive_min verifies minimality over every candidate polynomial at
desk-scale parameters.

The exhaustive scan evaluates each monomial once at every point, never a
candidate.  A candidate is the sum of a high and a low part of its
coefficient vector, and it vanishes where the low part equals the
negated high part.  Every low part's values are packed into a one-hot
int (a bit per point and value) in a table of at most TABLE_BITS bits;
the high parts are walked in scan order, and each candidate's zero count
is the bit count of one AND of two one-hot ints.  Over GF(2) the values
are commpoly's bit masks, added by XOR, and the AND is an XOR.  A scan
forks its pool only from FORK_POINTS candidates times points, as exact
counts do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, compress, islice, product, repeat
from operator import and_, xor

from .commpoly import CommPoly, _digit_planes
from .errors import (
    BudgetExceeded,
    NotEnoughVariables,
    SearchSpaceTooLarge,
    TheoremViolation,
)
from .gf import field_of_order

POLY_CAP = 1 << 20
SEQUENCE_BUDGET = 15
# Bound on the bits of the floor's denominator q^(m+1).  2^8192 has 2,467
# decimal digits, so every floor prints under Python's 4,300-digit limit
# on int-to-str conversion; degrees up to 8,191 pass for every q.
FLOOR_BITS = 8192
# Bits of an exhaustive scan's low table: p^L one-hot ints of q * q^n bits
# each, or of q^n bits over GF(2) (see _scan_range).  Sized as half the digits alone, the table of
# exhaustive_min(65521, 0, 0) would hold 65,521 ints of 65,521 bits, about
# 0.5 GB.
TABLE_BITS = 1 << 20
# Candidate polynomials times points, or points walked by an exact count,
# from which a scan or count forks its pool: on two CPUs a count of 2**20
# points ran 2.0x faster on two workers than on one, and one of 262,144
# points 1.2x slower
FORK_POINTS = 1 << 20


@dataclass(frozen=True)
class FloorDecomposition:
    q: int
    d: int
    m: int
    r: int
    value: Fraction


# typed: 3 and 3.0 hash alike, and a float degree is still refused
@lru_cache(maxsize=256, typed=True)
def floor_fraction(q: int, d: int) -> FloorDecomposition:
    """The density floor (q - r) / q^(m+1) for degree d over order q.

    Floors are memoised: dixon_verdict asks for the same few on every
    call, and the decomposition is frozen, so callers can share it."""
    field_of_order(q)  # validates that q is a prime power
    if d < 0:
        raise ValueError("degree must be >= 0")
    m, r = divmod(d, q - 1)
    # (q-1).bit_length() >= log2(q), with equality when q is a power of 2
    if (m + 1) * (q - 1).bit_length() > FLOOR_BITS:
        raise BudgetExceeded(
            f"degree {d} over order {q}: the floor's denominator {q}^{m + 1} "
            f"exceeds {FLOOR_BITS} bits"
        )
    return FloorDecomposition(q, d, m, r, Fraction(q - r, q ** (m + 1)))


@dataclass(frozen=True)
class SequenceMinimum:
    q: int
    d: int
    minimum: Fraction
    witness: tuple[int, ...]


def _partitions(d: int, maxpart: int, head=()):
    if d == 0:
        yield head
        return
    for x in range(min(d, maxpart), 0, -1):
        yield from _partitions(d - x, x, head + (x,))


def minimize_sequences(q: int, d: int, budget: int = SEQUENCE_BUDGET) -> SequenceMinimum:
    """Brute-force the floor as min over degree sequences.

    Minimizes the product of (q - x_i)/q over all ways to split d into
    parts 1 <= x_i <= q - 1 (parts of size zero contribute a factor of one
    and are dropped).  The witness is the lexicographically greatest
    optimal sequence, which comes out sorted nonincreasing.
    """
    field_of_order(q)
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d > budget:
        raise BudgetExceeded(f"degree {d} exceeds the sequence search budget {budget}")
    best = None
    witness = None
    for part in _partitions(d, q - 1):
        value = Fraction(1)
        for x in part:
            value *= Fraction(q - x, q)
        if best is None or value < best or (value == best and part > witness):
            best = value
            witness = part
    return SequenceMinimum(q, d, best, witness)


def extremal_poly(q: int, n: int, d: int) -> CommPoly:
    """A reduced polynomial of degree d in n variables attaining the floor.

    Product of m factors (1 - x_i^(q-1)) and, when r > 0, one factor
    (x_(m+1) - c_1)...(x_(m+1) - c_r) over the first r nonzero elements in
    canonical order.
    """
    f = field_of_order(q)
    if d < 0:
        raise ValueError("degree must be >= 0")
    m, r = divmod(d, q - 1)
    need = m + (1 if r else 0)
    if n < need:
        raise NotEnoughVariables(f"degree {d} over order {q} needs {need} variables, got {n}")
    poly = CommPoly.constant(f, n, 1)
    one = CommPoly.constant(f, n, 1)
    for i in range(m):
        x = CommPoly.variable(f, n, i + 1)
        poly = poly * (one - x.pow(q - 1))
    if r:
        x = CommPoly.variable(f, n, m + 1)
        for c in range(1, r + 1):
            poly = poly * (x - CommPoly.constant(f, n, c))
    return poly


@dataclass(frozen=True)
class ExhaustiveMinimum:
    q: int
    n: int
    d: int
    minimum: int
    witness: CommPoly
    candidates: int
    bound: Fraction  # floor value times q^n


def _monomials_for(q: int, n: int, d: int) -> list[tuple[int, ...]]:
    return [e for e in product(range(q), repeat=n) if sum(e) <= d]  # product is sorted


def _terms_at(index: int, q: int, monomials) -> dict:
    """The nonzero terms of candidate `index`: its base-q digits are the
    coefficients, the first monomial's the most significant."""
    terms = {}
    for exps in reversed(monomials):
        index, c = divmod(index, q)
        if c:
            terms[exps] = c
    return terms


def _poly_at(index: int, field, monomials, n: int) -> CommPoly:
    # the terms are n-tuples with nonzero canonical coefficients
    return CommPoly._trusted(field, n, _terms_at(index, field.q, monomials))


def pool_size(workers: int, chunks: int) -> int:
    """Processes worth starting: no more than the chunks or the CPUs."""
    size = min(workers, chunks)
    if size > 1:  # os.cpu_count() costs microseconds; serial calls skip it
        size = min(size, os.cpu_count() or 1)
    return size


def chunk_ranges(start: int, stop: int, workers: int) -> list[tuple[int, int]]:
    """Split range(start, stop) into about four chunks per process that
    pool_map would start for them, or into one chunk if it would start
    none."""
    size = pool_size(workers, stop - start)
    if size < 2:
        return [(start, stop)]
    step = (stop - start - 1) // (4 * size) + 1
    return [(a, min(a + step, stop)) for a in range(start, stop, step)]


def pool_map(fn, payloads, workers: int) -> list:
    """[fn(p) for p in payloads], on a fork pool when more than one
    process is worth starting and the platform can fork; serially
    otherwise, with the same results."""
    size = pool_size(workers, len(payloads))
    if size < 2:
        return [fn(p) for p in payloads]
    # imported only once a pool may start: at the top of the module it
    # would add about 15 ms to every process start
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(p) for p in payloads]
    with multiprocessing.get_context("fork").Pool(size) as pool:
        return pool.map(fn, payloads)


def _monomial_values(field, n: int, monomials) -> list[list[int]]:
    """Each monomial's values at the q^n points in canonical order, the
    first variable the most significant digit.  Field.pow runs once per
    element for each exponent that occurs."""
    mul, elements = field.mul, field.elements()
    columns = {}
    values = []
    for exps in monomials:
        vec = [1]
        for e in exps:
            if e:
                col = columns.get(e) or columns.setdefault(e, [field.pow(x, e) for x in elements])
                vec = [mul(a, b) for a in vec for b in col]
            else:
                vec = [a for a in vec for _ in elements]
        values.append(vec)
    return values


def _vectors(field, n: int, monomials):
    """(basis, zero, add, neg, pack, against): the values of g^i * monomial
    at the q^n points, for each monomial and i = k-1, ..., 0, the zero
    vector, and the arithmetic the scan needs.

    pack(v) is the int the low table keeps for a vector v, and
    against(u)(pack(v)) an int with one bit for each point where u and v
    agree.  Outside GF(2) a vector is a list of element codes and pack(v)
    its one-hot int: one lane of q bits per point, with the bit of the
    point's value set, so agreement is the AND of two one-hot ints.  Over
    GF(2) a vector is an int with bit k set where point k takes the value
    1 (commpoly's bit masks), added by XOR and kept as it is, and
    v ^ u ^ full has a bit where they agree; neg and pack are None there,
    as -v = v.
    """
    q, points = field.q, field.q**n
    if q == 2:
        full, masks = (1 << points) - 1, [ones for ones, in _digit_planes(2, n)]
        basis = [reduce(and_, compress(masks, exps), full) for exps in monomials]
        return basis, 0, xor, None, None, lambda u: (u ^ full).__xor__
    add, neg = field.add, field.neg
    basis = [
        list(map(field.mul, repeat(field.p**i), v)) if i else v
        for v in _monomial_values(field, n, monomials)
        for i in reversed(range(field.k))
    ]
    if points == 1:  # no variables; q may be 2^16, so build no lane strings
        one_hot = lambda v: 1 << v[0]
    else:
        # q * q chars, no more than the q * points bits of one one-hot int
        lanes = ["0" * (q - 1 - x) + "1" + "0" * x for x in range(q)]
        one_hot = lambda v: int("".join([lanes[x] for x in v]), 2)
    vadd = lambda u, v: list(map(add, u, v))
    vneg = lambda v: list(map(neg, v))
    return basis, [0] * points, vadd, vneg, one_hot, lambda u: one_hot(u).__and__


def _walk(add, p: int, vectors, acc, first: int):
    """acc + sum(d_j * vectors[j]) for every digit vector d in
    range(p)^len(vectors) from index `first` on, the first digit the most
    significant: each is one addition away from one before it."""
    if not vectors:
        yield acc
        return
    lead, first = divmod(first, p ** (len(vectors) - 1))
    # acc, acc + vectors[0], ..., acc + (p - 1) * vectors[0]
    multiples = accumulate(repeat(vectors[0], p - 1), add, initial=acc)
    if len(vectors) == 1:
        yield from islice(multiples, lead, None)
        return
    for acc in islice(multiples, lead, None):
        yield from _walk(add, p, vectors[1:], acc, first)
        first = 0


def _scan_range(payload):
    """(least nonzero count, its first index, the indices whose count is
    under the floor) over the candidates range(start, stop).

    Over GF(p^k) a coefficient's code is k base-p digits, the digit of
    g^i the coefficient of g^i, so a candidate is sum(d * g^i * monomial)
    over the base-p digits d of its index, the most significant first: a
    sum of integer multiples of the M*k basis vectors.  Split the index as
    high * p^L + low, the low part the last L digits.  The candidate
    vanishes exactly where its low part takes the negated value of its
    high part, so each low part's zero count is the bit count of one AND
    of its one-hot int with the negated high part's (one XOR over GF(2);
    see _vectors).  The low table holds every low part's packed int: L is
    half the digits, rounded up and cut until the table fits TABLE_BITS.
    The high parts are walked, not stored.  Where every high basis vector
    is constant (the constant monomial's alone is high), so is every high
    part, and the one-hot int of the constant x is the zero vector's
    shifted x bits: its code is walked, and no lanes are joined per part.
    """
    q, n, monomials, start, stop, floor_num, floor_den = payload
    field = field_of_order(q)
    p, points = field.p, q**n
    basis, zero, add, neg, pack, against = _vectors(field, n, monomials)
    low = (len(basis) + 1) // 2
    while low and p**low * q * points > TABLE_BITS:
        low -= 1
    cut = len(basis) - low
    table = [zero]
    for v in basis[cut:]:
        table = [w for acc in table for w in accumulate(repeat(v, p - 1), add, initial=acc)]
    if pack:
        table = list(map(pack, table))
    span = len(table)
    high, lo = divmod(start, span)
    # more zeros than this put a candidate's nonzero count under the floor:
    # count * floor_den >= floor_num * q^n, kept in integers
    limit = points + (-floor_num * points) // floor_den
    most, best_index, violations = -1, None, []
    vectors = list(map(neg, basis[:cut])) if neg else basis[:cut]  # the negated high basis
    if pack and all(min(v) == max(v) for v in vectors):
        ones = pack(zero)
        highs = _walk(field.add, p, [v[0] for v in vectors], 0, high)
        against = lambda x: (ones << x).__and__
    else:
        highs = _walk(add, p, vectors, zero, high)
    for base, negated in zip(range(high * span, stop, span), highs):
        zeros = list(map(int.bit_count, map(against(negated), table[lo : stop - base])))
        top = max(zeros)
        if top > most:
            most, best_index = top, base + lo + zeros.index(top)
        if top > limit:
            violations.extend(base + lo + k for k, z in enumerate(zeros) if z > limit)
        lo = 0
    return points - most, best_index, violations


def exhaustive_min(
    q: int, n: int, d: int, cap: int = POLY_CAP, workers: int = 1
) -> ExhaustiveMinimum:
    """Minimum nonzero count over every nonzero reduced polynomial.

    Scans all q^M - 1 nonzero coefficient vectors (M monomials with each
    variable degree below q and total degree at most d).  The witness is
    the first polynomial attaining the minimum in the fixed scan order.
    Raises TheoremViolation if any candidate undercuts the floor.  The cap
    bounds the total work: candidates times the q^n points.

    Each candidate costs one AND and one bit count of ints of q * q^n
    bits, against a table of one-hot ints of at most TABLE_BITS bits
    built once per scan (see _scan_range): over GF(3), (3, 2, 3) scans
    6,560 candidates in 1-2 ms.  With workers > 1 the candidate range
    is split across a fork pool only once candidates times points reach
    FORK_POINTS; smaller scans run serially whatever workers is.
    """
    field = field_of_order(q)
    floor = floor_fraction(q, d)
    if n < 0:
        raise ValueError("variable count must be >= 0")
    # q^n > cap already at cap.bit_length() variables; stopping there
    # refuses a huge n without building q^n
    points = q ** min(n, cap.bit_length())
    if points > cap:
        raise SearchSpaceTooLarge(points, cap)
    monomials = _monomials_for(q, n, d)
    candidates = q ** len(monomials) - 1
    if candidates * points > cap:
        raise SearchSpaceTooLarge(candidates * points, cap)
    total = candidates + 1
    num, den = floor.value.numerator, floor.value.denominator
    split = workers if candidates * points >= FORK_POINTS else 1
    payloads = [
        (q, n, monomials, start, stop, num, den) for start, stop in chunk_ranges(1, total, split)
    ]
    results = pool_map(_scan_range, payloads, workers)
    # the least count, and of its candidates the first in scan order
    best, best_index = min((b, i) for b, i, _ in results)
    violations = [i for _, _, v in results for i in v]
    if violations:
        # the scan replays from (q, n, d): bound --q Q --d D --exhaustive N
        first = violations[0]
        poly = _poly_at(first, field, monomials, n).to_text()
        raise TheoremViolation(
            f"polynomial {poly} takes nonzero values below the floor "
            f"{floor.value} of degree {d} over order {q}",
            {"check": "bound", "q": q, "n": n, "d": d, "candidate": first, "poly": poly},
        )
    return ExhaustiveMinimum(
        q=q,
        n=n,
        d=d,
        minimum=best,
        witness=_poly_at(best_index, field, monomials, n),
        candidates=candidates,
        bound=floor.value * q**n,
    )
