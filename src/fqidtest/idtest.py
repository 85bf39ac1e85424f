"""Identity testing in finite nonassociative algebras.

The centerpiece: evaluate free polynomials over structure-constant
algebras, measure exact zero probabilities, and check the computed
numbers against the proven density bounds from bound.py.  Every check
here is a theorem, so a failure is reported as TheoremViolation (an
implementation bug), never as a finding.

zero_probability counts on element indices: an element is the int in
range(q**dim) at its position in the canonical order elements() walks, so
0 is the zero element.  _evaluate_raw, on coordinate tuples, is the
reference the index kernel is tested against; evaluate, the coordinate
route and the coset, descent and block checks use it directly.

A note on the threshold comparison: the verdict uses the weak form

    is_identity  OR  probability <= 1 - 2^{-d}.

The bound is attained exactly over GF(2) -- e.g. the 2-dimensional
algebra with b1*b2 = b1 (all other products zero) gives x1*x1 the zero
probability 3/4 = 1 - 2^{-2} without being an identity -- so a strict
comparison would reject correct behavior on extremal inputs.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from multiprocessing import get_context
from operator import itemgetter, not_

from .algebra import (
    Algebra,
    Ideal,
    _check_ambient,
    nilpotency_index,
    quotient,
    restrict,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .bound import floor_fraction, pool_size
from .commpoly import symbolic_coordinates
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


# ---------------------------------------------------------------------------
# deterministic sampling

class SplitMix64:
    """64-bit split-mix generator: linear state walk, mixing output.

    Draws are fully determined by the seed, so sampled runs are
    reproducible bit for bit.  Coordinates are drawn per sample, per
    argument, per coordinate, each as next64() mod q.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n


# ---------------------------------------------------------------------------
# evaluation

def _product_fn(Q: FreePoly, A: Algebra, commutator: bool):
    """Flavor gate: the binary product a term tree is read with."""
    if Q.field != A.field:
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
    q = A.field.q
    for v in args:
        if len(v) != A.dim or any(not 0 <= c < q for c in v):
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


def _kernel(Q: FreePoly, A: Algebra, commutator: bool):
    """e_Q on element indices: a function from n indices to the value's index.

    Products, sums and scalar multiples are looked up in tables that the
    reference arithmetic fills on first use, so only the entries a run
    meets are ever computed.  Pairs are keyed a * order + b.
    """
    prod = _product_fn(Q, A, commutator)
    f = A.field
    q = f.q
    dim = A.dim
    order = A.order()

    def decode(index):
        out = [0] * dim
        for slot in range(dim - 1, -1, -1):
            index, out[slot] = divmod(index, q)
        return tuple(out)

    vec = _Memo(decode).__getitem__

    def index_of(v):
        index = 0
        for c in v:
            index = index * q + c
        return index

    def pair_table(op):
        def entry(key):
            a, b = divmod(key, order)
            return index_of(op(vec(a), vec(b)))

        return _Memo(entry)

    mul = pair_table(prod)

    def tree(t):
        if isinstance(t, int):
            return itemgetter(t - 1)
        left, right = tree(t[0]), tree(t[1])
        return lambda args: mul[left(args) * order + right(args)]

    def chain(term):
        # folded left, as _eval_term reads an assoc word
        head = term[0] - 1
        tail = [i - 1 for i in term[1:]]

        def run(args):
            acc = args[head]
            for i in tail:
                acc = mul[acc * order + args[i]]
            return acc

        return run

    def scaled(part, c):
        table = _Memo(lambda a: index_of(vec_scale(f, c, vec(a))))
        return lambda args: table[part(args)]

    compile_term = chain if Q.flavor is Flavor.ASSOC else tree
    parts = []
    for term, coeff in Q.terms.items():
        part = compile_term(term)
        parts.append(part if coeff == 1 else scaled(part, coeff))

    if f.p == 2:
        # coordinates add as bit fields, so vectors add as their indices' XOR
        def e(args):
            acc = 0
            for part in parts:
                acc ^= part(args)
            return acc

        return e

    add = pair_table(lambda u, v: vec_add(f, u, v))

    def e(args):
        acc = 0
        for part in parts:
            acc = add[acc * order + part(args)]
        return acc

    return e


# ---------------------------------------------------------------------------
# zero probability, exact and sampled

@dataclass(frozen=True)
class EvalReport:
    """Zero statistics of e_Q over A^n, with the threshold verdict.

    In sampled mode probability is the observed fraction and the two
    verdict fields are None (a sample cannot certify an identity).
    functional_floor / functional_consistent are filled in by
    dixon_verdict only.
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
    return 0 if Q.is_zero else Q.degree


def _threshold(degree: int) -> Fraction:
    return 1 - Fraction(1, 1 << degree)


def _count_range(payload):
    """Count zeros of e_Q over A^n with the first argument's index in
    range(start, stop), walking points in canonical order (worker-safe).

    The zero polynomial has no arguments and its one point, the empty
    tuple, is the range (0, 1).
    """
    Q, A, commutator, start, stop = payload
    e = _kernel(Q, A, commutator)
    if Q.n:
        rest = [range(A.order())] * (Q.n - 1)
        points = product(range(start, stop), *rest)
    else:
        points = [()] * (stop - start)
    return sum(map(not_, map(e, points)))


def _count_exact(Q, A, commutator, total, workers):
    first = A.order() if Q.n else 1
    if workers > 1 and total >= 4096:
        chunk = (first - 1) // (workers * 4) + 1
        payloads = [
            (Q, A, commutator, start, min(start + chunk, first))
            for start in range(0, first, chunk)
        ]
        size = pool_size(workers, len(payloads))
        if size > 1:
            with get_context("fork").Pool(size) as pool:
                return sum(pool.map(_count_range, payloads))
    return _count_range((Q, A, commutator, 0, first))


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
    """The exact (or sampled) fraction of A^n mapped to zero by e_Q."""
    _product_fn(Q, A, commutator)  # fail fast on flavor problems
    degree = _poly_degree(Q)
    threshold = _threshold(degree)
    n = Q.n

    if samples is None:
        total = A.order() ** n
        if total > cap:
            raise SearchSpaceTooLarge(total, cap)
        zero_count = _count_exact(Q, A, commutator, total, workers)
        probability = Fraction(zero_count, total)
        is_identity = zero_count == total
        return EvalReport(
            zero_count=zero_count,
            total=total,
            probability=probability,
            degree=degree,
            threshold=threshold,
            is_identity=is_identity,
            verdict_consistent=is_identity or probability <= threshold,
            mode="exact",
        )

    if samples < 1:
        raise ValueError("samples must be a positive integer")
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    e = _kernel(Q, A, commutator)
    below = SplitMix64(seed).below
    q = A.field.q
    dim = A.dim

    def draw():
        index = 0
        for _ in range(dim):
            index = index * q + below(q)
        return index

    points = (tuple(draw() for _ in range(n)) for _ in range(samples))
    zero_count = sum(map(not_, map(e, points)))
    return EvalReport(
        zero_count=zero_count,
        total=samples,
        probability=Fraction(zero_count, samples),
        degree=degree,
        threshold=threshold,
        is_identity=None,
        verdict_consistent=None,
        mode="sampled",
        samples=samples,
        seed=seed,
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
    do, so this must agree with zero_probability on the nose.
    """
    _product_fn(Q, A, commutator)
    coords = [c.reduce() for c in symbolic_coordinates(Q, A, commutator=commutator)]
    q = A.field.q
    width = Q.n * A.dim
    total = q ** width
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    field = A.field
    count = 0
    for point in product(field.elements(), repeat=width):
        if all(c.eval(point) == 0 for c in coords):
            count += 1
    return Fraction(count, total)


# ---------------------------------------------------------------------------
# the threshold verdict

def dixon_verdict(
    Q: FreePoly,
    A: Algebra,
    *,
    cap: int = EXACT_CAP,
    workers: int = 1,
    commutator: bool = False,
) -> EvalReport:
    """Exact verdict with a dual-route cross-check.

    Route one enumerates A^n.  Route two reduces the symbolic coordinate
    polynomials: all zero iff e_Q is an identity, and otherwise each
    nonzero coordinate forces the nonzero fraction up to its density
    floor.  Disagreement on either route is an implementation bug and
    raises TheoremViolation.
    """
    report = zero_probability(Q, A, cap=cap, workers=workers, commutator=commutator)
    reduced = [c.reduce() for c in symbolic_coordinates(Q, A, commutator=commutator)]
    symbolic_identity = all(c.is_zero for c in reduced)
    witness = {
        "poly": Q.to_text(),
        "algebra": A.name or "unnamed",
        "probability": str(report.probability),
        "threshold": str(report.threshold),
    }
    if symbolic_identity != report.is_identity:
        raise TheoremViolation(
            "enumeration and coordinate reduction disagree on identity-ness",
            witness=witness,
        )
    if report.is_identity:
        return replace(report, functional_consistent=True)

    q = A.field.q
    floor = max(
        floor_fraction(q, c.degree).value for c in reduced if not c.is_zero
    )
    if 1 - report.probability < floor:
        raise TheoremViolation(
            f"nonzero fraction {1 - report.probability} under the "
            f"coordinate density floor {floor}",
            witness=witness,
        )
    if report.probability > report.threshold:
        raise TheoremViolation(
            f"non-identity with zero probability {report.probability} "
            f"above 1 - 2^-{report.degree}",
            witness=witness,
        )
    if not report.verdict_consistent:
        raise TheoremViolation("inconsistent verdict flags", witness=witness)
    return replace(report, functional_floor=floor, functional_consistent=True)


# ---------------------------------------------------------------------------
# coset identities

@dataclass(frozen=True)
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


def _canonical_reps(A: Algebra, ideal: Ideal):
    """Canonical coset representatives, ascending in coordinate order."""
    pivots = set(ideal.pivots)
    choices = [
        (0,) if c in pivots else tuple(A.field.elements()) for c in range(A.dim)
    ]
    return [rep for rep in product(*choices)]


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
    deterministic.
    """
    from .algebra import enumerate_ideals

    prod = _product_fn(Q, A, commutator)
    n = Q.n
    per_ideal = A.order() ** n
    if per_ideal > cap:
        raise SearchSpaceTooLarge(per_ideal, cap)
    field = A.field
    witnesses = []
    for ideal in enumerate_ideals(A):
        if ideal.codim > max_codim:
            continue
        reps = _canonical_reps(A, ideal)
        members = list(ideal.elements())
        for rep_tuple in product(reps, repeat=n):
            vanishes = True
            for offs in product(members, repeat=n):
                args = tuple(
                    vec_add(field, rep_tuple[i], offs[i]) for i in range(n)
                )
                if not vec_is_zero(_evaluate_raw(Q, A, args, prod)):
                    vanishes = False
                    break
            if vanishes:
                trivial = ideal.rank == 0 or all(
                    vec_is_zero(r) for r in rep_tuple
                )
                witnesses.append(
                    CosetWitness(
                        ideal=ideal,
                        representatives=rep_tuple,
                        codim=ideal.codim,
                        trivial=trivial,
                    )
                )
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
    one, and stage n says e_Q vanishes on I^n.  Every stage is verified
    by enumeration, and the final claim is recomputed independently on
    the restricted algebra.
    """
    prod = _product_fn(Q, A, commutator)
    if not Q.analyze().multilinear:
        raise NotMultilinear(Q.to_text())
    ideal = witness.ideal
    _check_ambient(A, ideal)
    n = Q.n
    reps = witness.representatives
    if len(reps) != n:
        raise WitnessInvalid(f"expected {n} representatives, got {len(reps)}")
    field = A.field
    members = list(ideal.elements())

    for offs in product(members, repeat=n):
        args = tuple(vec_add(field, reps[i], offs[i]) for i in range(n))
        if not vec_is_zero(_evaluate_raw(Q, A, args, prod)):
            raise WitnessInvalid(
                f"e_Q does not vanish on the coset product at {args!r}"
            )

    steps = []
    for s in range(1, n + 1):
        head = ", ".join(f"y_{i}" for i in range(1, s + 1))
        tail = ", ".join(f"a_{i}" for i in range(s + 1, n + 1))
        inside = head if not tail else f"{head}, {tail}"
        statement = f"e_Q({inside}) = 0 for all ({head}) in I^{s}"
        for ys in product(members, repeat=s):
            args = tuple(ys) + tuple(reps[s:])
            if not vec_is_zero(_evaluate_raw(Q, A, args, prod)):
                raise TheoremViolation(
                    f"descent stage {s} failed at {args!r}",
                    witness={"poly": Q.to_text(), "stage": s},
                )
        steps.append(DescentStep(stage=s, statement=statement, verified=True))

    sub, _ = restrict(A, ideal)
    sub_prod = _product_fn(Q, sub, commutator)
    for args in product(list(sub.elements()), repeat=n):
        if not vec_is_zero(_evaluate_raw(Q, sub, args, sub_prod)):
            raise TheoremViolation(
                "identity on the ideal fails in the restricted algebra",
                witness={"poly": Q.to_text(), "args": args},
            )
    return DescentCertificate(steps=tuple(steps), identity_on_ideal=True)


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
    blocks: tuple
    decay_hypothesis: bool
    decay_holds: bool


def block_statistics(
    Q: FreePoly,
    A: Algebra,
    ideal_i: Ideal,
    ideal_j: Ideal,
    *,
    cap: int = EXACT_CAP,
    commutator: bool = False,
) -> BlockReport:
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

    inner_prod = _product_fn(Q, inner_alg, commutator)
    outer_prod = _product_fn(Q, outer_alg, commutator)

    tallies = {}
    inner_elems = list(inner_alg.elements())
    for args in product(inner_elems, repeat=n):
        key = tuple(outer_map.project(inner_map.lift(v)) for v in args)
        bucket = tallies.setdefault(key, [0, 0])
        bucket[1] += 1
        if vec_is_zero(_evaluate_raw(Q, inner_alg, args, inner_prod)):
            bucket[0] += 1

    block_size = (ideal_i.size() // ideal_j.size()) ** n
    blocks = []
    outer_zero_keys = 0
    for key in product(list(outer_alg.elements()), repeat=n):
        zeros, total = tallies[key]
        if total != block_size:
            raise TheoremViolation(
                f"block over {key!r} has {total} points, expected {block_size}"
            )
        outer_zero = vec_is_zero(_evaluate_raw(Q, outer_alg, key, outer_prod))
        outer_zero_keys += outer_zero
        if not outer_zero and zeros:
            raise TheoremViolation(
                f"zeros in a block over a nonzero of the outer quotient: {key!r}"
            )
        fraction = Fraction(zeros, total)
        identically_zero = zeros == total
        if not identically_zero and fraction > threshold:
            raise TheoremViolation(
                f"non-vanishing block over {key!r} has zero fraction "
                f"{fraction} above {threshold}"
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
    f_inner = zero_probability(Q, inner_alg, cap=cap, commutator=commutator).probability
    weighted = Fraction(sum(b.zero_count for b in blocks), inner_alg.order() ** n)
    if weighted != f_inner:
        raise TheoremViolation(
            f"block zero counts average to {weighted}, "
            f"direct enumeration gives {f_inner}"
        )

    decay_hypothesis = not any(b.outer_zero and b.identically_zero for b in blocks)
    decay_holds = f_inner <= threshold * f_outer
    if decay_hypothesis and not decay_holds:
        raise TheoremViolation(
            f"decay f(Q,J) <= (1 - 2^-{degree}) f(Q,I) fails: "
            f"{f_inner} vs {threshold * f_outer}"
        )
    return BlockReport(
        degree=degree,
        threshold=threshold,
        f_outer=f_outer,
        f_inner=f_inner,
        blocks=tuple(blocks),
        decay_hypothesis=decay_hypothesis,
        decay_holds=decay_holds,
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
    report = zero_probability(power_word(d, A.field), A, cap=cap)
    char = A.field.p
    applicable = char > d
    index = nilpotency_index(A)
    asserted = bool(report.is_identity) and applicable
    if asserted and index is None:
        raise TheoremViolation(
            f"x^{d} is an identity in characteristic {char} > {d} "
            "but no finite nilpotency index was found",
            witness={"algebra": A.name or "unnamed"},
        )
    return NagataHigmanReport(
        d=d,
        char=char,
        power_is_identity=bool(report.is_identity),
        applicable=applicable,
        nilpotency_index=index,
        asserted=asserted,
    )
