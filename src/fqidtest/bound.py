"""Sharp floors for the nonzero-value density of low-degree polynomials.

A nonzero polynomial of total degree d over the field with q elements,
reduced so every variable degree stays below q, takes a nonzero value on
at least a (q - r) / q^(m+1) fraction of all points, where
d = m*(q - 1) + r with 0 <= r < q - 1.  floor_fraction computes that
number, minimize_sequences recovers it by brute force over the defining
minimization, extremal_poly builds a polynomial attaining it, and
exhaustive_min verifies minimality over every candidate polynomial at
desk-scale parameters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .commpoly import CommPoly, zero_counter
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
    return sorted(e for e in product(range(q), repeat=n) if sum(e) <= d)


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
    return CommPoly(field, n, _terms_at(index, field.q, monomials))


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


def _scan_range(payload):
    q, n, monomials, start, stop, floor_num, floor_den = payload
    points = q**n
    zeros = zero_counter(field_of_order(q), n, points)
    best = None
    best_index = None
    violations = []
    for index in range(start, stop):
        count = points - zeros([_terms_at(index, q, monomials)])
        # count * floor_den >= floor_num * q^n, kept in integers
        if count * floor_den < floor_num * points:
            violations.append(index)
        if best is None or count < best:
            best = count
            best_index = index
    return best, best_index, violations


def exhaustive_min(
    q: int, n: int, d: int, cap: int = POLY_CAP, workers: int = 1
) -> ExhaustiveMinimum:
    """Minimum nonzero count over every nonzero reduced polynomial.

    Scans all q^M - 1 nonzero coefficient vectors (M monomials with each
    variable degree below q and total degree at most d).  The witness is
    the first polynomial attaining the minimum in the fixed scan order.
    Raises TheoremViolation if any candidate undercuts the floor.  The cap
    bounds the total work: candidates times the q^n points each one is
    evaluated on.
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
    payloads = [
        (q, n, monomials, start, stop, num, den)
        for start, stop in chunk_ranges(1, total, workers)
    ]
    results = pool_map(_scan_range, payloads, workers)
    best = None
    best_index = None
    violations = []
    for b, i, v in results:
        violations.extend(v)
        if b is not None and (best is None or b < best or (b == best and i < best_index)):
            best, best_index = b, i
    if violations:
        witness = _poly_at(min(violations), field, monomials, n)
        raise TheoremViolation(
            f"polynomial {witness.to_text()} takes nonzero values below the floor "
            f"{floor.value} of degree {d} over order {q}",
            witness,
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
