"""Tests for evaluation, zero probabilities, and the theorem checks."""

import inspect
import json
import math
import os
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitmix_reference
from splitmix_reference import ScalarSplitMix64

from fqidtest import bound, cli, idtest
from fqidtest.bound import floor_fraction
from fqidtest.commpoly import reduced_coordinates
from fqidtest.algebra import (
    Algebra,
    field_as_algebra,
    from_json_dict,
    full_ideal,
    heisenberg,
    ideal_generated,
    matrix_algebra,
    quotient,
    strictly_upper_triangular_lie,
    truncated,
    upper_triangular,
    vec_is_zero,
    zero_ideal,
)
from fqidtest.errors import (
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
from fqidtest.freepoly import Flavor, FreePoly, parse, power_word, zero
from fqidtest.gf import field_of_order
from fqidtest.idtest import (
    _BLOCK_CEILING,
    CosetWitness,
    EvalReport,
    SplitMix64,
    block_statistics,
    coset_identity_search,
    dixon_verdict,
    engel_report,
    evaluate,
    functional_zero_fraction,
    multilinear_descent,
    nagata_higman_check,
    zero_probability,
)

F2 = field_of_order(2)
F3 = field_of_order(3)


def free(text, field=F2):
    return parse(text, Flavor.FREE, field)


# The extremal 2-dimensional algebra: b1*b2 = b1, all other products zero.
# x1*x1 has zero probability exactly 3/4 = 1 - 2^{-2} without being an
# identity, so it pins the threshold comparison to the weak form.
BOUNDARY = Algebra(F2, 2, [[(0, 0), (1, 0)], [(0, 0), (0, 0)]], name="boundary")


# ---------------------------------------------------------------------------
# the generator

def test_splitmix64_reference_stream():
    # first outputs for seed 0 of the standard split-mix constants, on the
    # scalar reference; the packed stream shares its constants and is
    # checked against it draw by draw below
    rng = ScalarSplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4
    assert rng.next64() == 0x06C45D188009454F
    assert (idtest._MASK64, idtest._GAMMA, idtest._MIX1, idtest._MIX2) == (
        splitmix_reference.MASK64,
        splitmix_reference.GAMMA,
        splitmix_reference.MIX1,
        splitmix_reference.MIX2,
    )


def test_splitmix64_below_is_deterministic():
    a = ScalarSplitMix64(42)
    b = ScalarSplitMix64(42)
    assert [a.below(5) for _ in range(20)] == [b.below(5) for _ in range(20)]


def points_per_block(n):
    """Whole points per full block: up to _BLOCK_CEILING indices, and at
    least one point; a polynomial without variables is one block."""
    return max(1, _BLOCK_CEILING // n) if n else None


def assert_blocks_match_the_reference(seed, q, dim, n, samples):
    """Every index of SplitMix64(seed).points against the scalar
    reference's indices, in order, and the state after every block; the
    blocks hold whole points, per_block of them but the last."""
    stream, reference = SplitMix64(seed), ScalarSplitMix64(seed)
    expected = reference.indices(q, dim)
    sizes = []
    for block in stream.points(q, dim, n, samples):
        points = list(block)
        for point in points:
            assert point == tuple(islice(expected, n))
        assert stream.state == reference.state
        sizes.append(len(points))
    per_block = points_per_block(n) or samples
    assert sizes == [per_block] * (samples // per_block) + [samples % per_block] * (samples % per_block > 0)


# past two block edges of one-argument points (_BLOCK_CEILING indices a
# block) and of three-argument points (_BLOCK_CEILING // 3 points a block)
TWO_BLOCK_EDGES = {1: 2 * _BLOCK_CEILING + 3, 3: 2 * (_BLOCK_CEILING // 3) + 3}


@pytest.mark.parametrize("seed", [0, -3, 1 << 64, (1 << 64) + 12345])
def test_splitmix64_indices_are_repeated_below_draws(seed):
    for q in (2, 3, 4, 5):
        for dim in (1, 2, 3):
            for n, samples in TWO_BLOCK_EDGES.items():
                stream, reference = SplitMix64(seed), ScalarSplitMix64(seed)
                for block in stream.points(q, dim, n, samples):
                    for point in block:
                        for index in point:
                            expected = 0
                            for _ in range(dim):
                                expected = expected * q + reference.below(q)
                            assert index == expected
                    assert stream.state == reference.state


# (n, dim, samples): one to three full blocks and a short last block or
# none, and n * dim at, under and past _BLOCK_CEILING, with one point a
# block from n = 257 on
DIGIT_RUNS = [
    (1, 1, 3 * _BLOCK_CEILING + 5),
    (1, 3, 2 * _BLOCK_CEILING),
    (3, 2, 3 * (_BLOCK_CEILING // 3) + 1),
    (5, 1, _BLOCK_CEILING // 5 - 1),
    (2, 300, 3),
    (257, 2, 4),
    (600, 1, 3),
]


def read_digits(buffer, q):
    """The digit of every 16-byte lane of a digits() buffer over q, read as
    its reader says: the digit's bytes from offset on, translated by
    decode, and the bits from q's on dropped."""
    offset, decode = idtest._digit_reader(q)
    size = ((q - 1).bit_length() + 7) // 8
    runs = (buffer[i + offset:i + offset + size] for i in range(0, len(buffer), 16))
    return [int.from_bytes(run.translate(decode), "little") % q for run in runs]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 256, 65536])
def test_digits_are_the_scalar_draws_mod_q(q):
    # every 16-byte lane of every buffer reads as the next scalar draw mod
    # q, and the state after each block is the scalar state
    for seed in (0, -7, (1 << 64) + 3):
        for n, dim, samples in DIGIT_RUNS:
            stream, reference = SplitMix64(seed), ScalarSplitMix64(seed)
            counts = []
            for count, buffer in stream.digits(q, dim, n, samples):
                assert len(buffer) == 16 * count * n * dim
                digits = read_digits(buffer, q)
                assert digits == [reference.below(q) for _ in digits], (seed, n, dim, len(counts))
                assert stream.state == reference.state
                counts.append(count)
            per_block = points_per_block(n)
            assert counts == [per_block] * (samples // per_block) + [samples % per_block] * (samples % per_block > 0)


@st.composite
def _runs(draw):
    """(n, samples): a point width, and a length just before, at or just
    after one of its first three block edges, or a short one."""
    n = draw(st.integers(0, 5))
    per_block = points_per_block(n) or 64
    edge = draw(st.integers(1, 3)) * per_block
    return n, draw(st.integers(max(1, edge - 2), edge + 2) | st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(1 << 70), -1) | st.integers(0, 1 << 66) | st.integers(1 << 64, 1 << 80),
    q=st.sampled_from((2, 3, 4, 5, 7, 8, 9, 65521, 65536)),
    dim=st.integers(0, 32),
    run=_runs(),
)
def test_packed_indices_match_the_scalar_loop(seed, q, dim, run):
    assert_blocks_match_the_reference(seed, q, dim, *run)


@pytest.mark.parametrize("q", [2, 9])
def test_packed_indices_match_the_scalar_loop_in_dimension_32(q):
    # 2**32 is one digit group, 9**32 two (20 and 12 digits)
    assert_blocks_match_the_reference(-(1 << 64) - 5, q, 32, 1, 2 * _BLOCK_CEILING + 1)


@pytest.mark.parametrize("q, dim", [(65536, 5), (65521, 9), (3, 41), (2, 65)])
def test_packed_indices_match_the_scalar_loop_over_several_digit_groups(q, dim):
    # each order passes 2**64, so its indices join two or three groups
    assert q**dim > 1 << 64
    assert_blocks_match_the_reference((1 << 64) + 7, q, dim, 2, _BLOCK_CEILING // 2 + 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 85, 86, 170, 171, 256, 257, 300, 512, 513])
@pytest.mark.parametrize("dim", [0, 2])
def test_blocks_hold_whole_points_up_to_the_ceiling(n, dim):
    # a zero-dimensional algebra, or a polynomial without variables, draws
    # nothing: the reference's state stays at the seed
    per_block = points_per_block(n) or 150
    assert per_block * n <= max(n, _BLOCK_CEILING)
    assert_blocks_match_the_reference(11, 3, dim, n, 2 * per_block + 1)


# 2 and small primes, powers of 2 and 3, and the orders at and near the
# field limit 2**16
EDGE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 251, 256, 257, 65521, 65536)


def _edge_words(q):
    """64-bit words at the edges of the lane mod: 0, q - 1, q, 2**32 - 1,
    2**32, 2**64 - 1, the multiples of q near 2**64 and one off them, and
    words that fold (high word times 2**32 mod q, plus the low word) to the
    multiples of q near the fold bound and one off them."""
    words = {0, q - 1, q, (1 << 32) - 1, 1 << 32, (1 << 64) - 1}
    top = (1 << 64) - 1
    for k in range(3):
        multiple = top - top % q - k * q
        words |= {multiple - 1, multiple, multiple + 1}
    r, low = pow(2, 32, q), (1 << 32) - 1
    bound = low * (r + 1)  # the fold of 2**64 - 1, (2**32 - 1) * q when r = q - 1
    for k in range(3):
        multiple = bound - bound % q - k * q
        for folded in (multiple - 1, multiple, multiple + 1):
            if low * r <= folded <= bound:
                words.add(low << 32 | (folded - low * r))
    return sorted(w for w in words if 0 <= w <= top)


@pytest.mark.parametrize("q", EDGE_QS)
def test_lane_mod_at_the_edge_values(q):
    words = _edge_words(q)
    lanes = len(words)
    # garbage above each low word, as the last mixing round leaves there
    garbage = random.Random(q).getrandbits(64 * lanes)
    z = 0
    for k, w in enumerate(words):
        z |= (w | ((garbage >> 64 * k) & ((1 << 64) - 1)) << 64) << 128 * k
    digits = idtest._lane_mod(z, q, idtest._lanes(lanes)[3])
    lane = (1 << 128) - 1
    assert [(digits >> 128 * k) & lane for k in range(lanes)] == [w % q for w in words]
    assert digits >> 128 * lanes == 0
    # one Horner group reaches every order up to 2**64
    group = idtest._reduction(q)[3]
    assert q**group <= 1 << 64 < q ** (group + 1)


MAX64 = (1 << 64) - 1


def _feed_words():
    """64-bit words at the edges of the lanes feed: 0, 1, 2, 2**64 - 2 and
    2**64 - 1, the largest words 3a + r for each r and the two below each,
    the words near k * 2**64 / 3, and 2**j - 1, 2**j and 2**j + 1 for each
    digit width j up to 17."""
    words = {0, 1, 2, MAX64 - 1, MAX64}
    for r in range(3):
        top = MAX64 - (MAX64 - r) % 3
        words |= {top, top - 3, top - 6}
    for k in (1, 2):
        near = k * (1 << 64) // 3
        words |= set(range(near - 2, near + 3))
    for j in range(1, 18):
        words |= {(1 << j) - 1, 1 << j, (1 << j) + 1}
    return sorted(words)


@pytest.mark.parametrize("q", [3] + [1 << k for k in range(1, 17)])
def test_digit_lanes_at_the_edge_values(q):
    # each word after a lane of 2**64 - 1, whose product carries the most
    # into the next lane over GF(3), and after a lane of 0; then each word
    # as the last lane of a block, after 2**64 - 1 and alone
    words = _feed_words()
    blocks = [[x for w in words for x in (MAX64, w, 0, w)]]
    blocks += [[MAX64, w] for w in words] + [[w] for w in words]
    garbage = random.Random(q)
    for block in blocks:
        # garbage above each word, as the last mixing round leaves there
        z = sum((w | garbage.getrandbits(64) << 64) << 128 * i for i, w in enumerate(block))
        buffer = idtest._digit_lanes(z, q, len(block)).to_bytes(16 * len(block), "little")
        assert read_digits(buffer, q) == [w % q for w in block]
        if q == 3:
            # the fraction's top byte, far from the thresholds 64 and 128
            # even after the most carry
            tops = {0: {0}, 1: {85, 86}, 2: {170, 171}}
            assert all(buffer[16 * i + 8] in tops[w % 3] for i, w in enumerate(block))


# ---------------------------------------------------------------------------
# evaluation

def test_defining_bracket_of_heisenberg():
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    assert evaluate(Q, H, ((1, 0, 0), (0, 1, 0))) == (0, 0, 1)


def test_fermat_identity_on_the_field():
    A = field_as_algebra(2)
    Q = parse("x1*x1 + x1", Flavor.ASSOC, F2)
    assert evaluate(Q, A, ((1,),)) == (0,)


def test_square_in_truncated_polynomials():
    T = truncated(2, 3)
    Q = parse("x1*x1", Flavor.ASSOC, F2)
    assert evaluate(Q, T, ((1, 1),)) == (0, 1)  # (t + t^2)^2 = t^2


def test_commutator_interpretation_on_matrices():
    M = matrix_algebra(2, 2)
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    e11 = (1, 0, 0, 0)
    e12 = (0, 1, 0, 0)
    # e11 e12 - e12 e11 = e12
    assert evaluate(Q, M, (e11, e12), commutator=True) == e12


def test_flavor_gates():
    H = heisenberg(2)
    M = matrix_algebra(2, 2)
    lie = parse("[x1,x2]", Flavor.LIE, F2)
    assoc = parse("x1*x2", Flavor.ASSOC, F2)
    with pytest.raises(FlavorMismatch):
        evaluate(lie, M, ((0,) * 4, (0,) * 4))  # needs commutator=True
    with pytest.raises(FlavorMismatch):
        evaluate(assoc, H, ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(FlavorMismatch):
        evaluate(lie, H, ((0, 0, 0), (0, 0, 0)), commutator=True)
    with pytest.raises(FlavorMismatch):
        evaluate(assoc, M, ((0,) * 4, (0,) * 4), commutator=True)


def test_free_flavor_runs_on_any_table():
    H = heisenberg(2)
    Q = free("x1*x2")
    assert evaluate(Q, H, ((1, 0, 0), (0, 1, 0))) == (0, 0, 1)


def test_evaluate_argument_validation():
    A = field_as_algebra(2)
    Q = parse("x1*x2", Flavor.ASSOC, F2)
    with pytest.raises(DimensionMismatch):
        evaluate(Q, A, ((1,),))  # one argument for two variables
    with pytest.raises(DimensionMismatch):
        evaluate(Q, A, ((1, 0), (1,)))  # wrong vector length
    with pytest.raises(DimensionMismatch):
        evaluate(Q, A, ((2,), (1,)))  # coordinate out of range
    for v in ((0.5,), (1.0,), ("1",)):  # not an int: once a TypeError or an answer
        with pytest.raises(DimensionMismatch):
            evaluate(Q, A, (v, (1,)))
    with pytest.raises(FieldMismatch):
        evaluate(parse("x1*x2", Flavor.ASSOC, F3), A, ((1,), (1,)))


# ---------------------------------------------------------------------------
# exact zero probability

def test_square_on_the_two_element_field():
    rep = zero_probability(free("x1*x1"), field_as_algebra(2))
    assert rep.zero_count == 1
    assert rep.total == 2
    assert rep.probability == Fraction(1, 2)
    assert not rep.is_identity
    assert rep.verdict_consistent
    assert rep.degree == 2
    assert rep.threshold == Fraction(3, 4)
    assert rep.mode == "exact"


def test_fermat_identity_probability():
    rep = zero_probability(parse("x1*x1 + x1", Flavor.ASSOC, F2), field_as_algebra(2))
    assert rep.probability == 1
    assert rep.is_identity
    assert rep.verdict_consistent


def test_heisenberg_bracket_probability():
    rep = zero_probability(parse("[x1,x2]", Flavor.LIE, F2), heisenberg(2))
    assert rep.zero_count == 40
    assert rep.total == 64
    assert rep.probability == Fraction(10, 16)
    assert rep.verdict_consistent


def test_boundary_case_sits_exactly_on_the_threshold():
    rep = zero_probability(free("x1*x1"), BOUNDARY)
    assert rep.probability == Fraction(3, 4)
    assert rep.threshold == Fraction(3, 4)
    assert not rep.is_identity
    assert rep.verdict_consistent  # weak comparison: equality is allowed


def test_zero_polynomial_is_an_identity():
    rep = zero_probability(zero(F2, Flavor.FREE), field_as_algebra(2))
    assert rep.total == 1
    assert rep.is_identity
    assert rep.degree == 0
    assert rep.threshold == 0
    assert rep.verdict_consistent


def test_worker_counts_agree():
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    H = heisenberg(2)
    seq = zero_probability(Q, H)
    par = zero_probability(Q, H, workers=3)
    assert (seq.zero_count, seq.total) == (par.zero_count, par.total)


def test_exact_cap_is_enforced():
    Q = free("x1*x2")
    with pytest.raises(SearchSpaceTooLarge):
        zero_probability(Q, matrix_algebra(2, 2), cap=100)


# ---------------------------------------------------------------------------
# sampled mode

def test_sampled_requires_seed_and_positive_count():
    Q = free("x1*x1")
    A = field_as_algebra(2)
    with pytest.raises(ValueError):
        zero_probability(Q, A, samples=100)
    with pytest.raises(ValueError):
        zero_probability(Q, A, samples=0, seed=1)


def test_sampled_is_reproducible():
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    H = heisenberg(2)
    a = zero_probability(Q, H, samples=500, seed=20260817)
    b = zero_probability(Q, H, samples=500, seed=20260817)
    assert a.zero_count == b.zero_count == 304
    assert a.probability == Fraction(304, 500)
    assert a.is_identity is None
    assert a.verdict_consistent is None
    assert a.mode == "sampled"
    assert (a.samples, a.seed) == (500, 20260817)


def test_sampled_converges_on_library_cases():
    cases = [
        (free("x1*x1"), field_as_algebra(2)),
        (parse("[x1,x2]", Flavor.LIE, F2), heisenberg(2)),
        (free("x1*x1"), truncated(2, 3)),
    ]
    n = 800
    for Q, A in cases:
        exact = zero_probability(Q, A).probability
        sampled = zero_probability(Q, A, samples=n, seed=20260818).probability
        sigma = math.sqrt(float(exact) * float(1 - exact) / n)
        assert abs(float(sampled) - float(exact)) <= 3 * sigma + 1e-12


# ---------------------------------------------------------------------------
# the threshold verdict

def test_dixon_on_the_field():
    rep = dixon_verdict(free("x1*x1"), field_as_algebra(2))
    assert rep.probability == Fraction(1, 2)
    assert rep.verdict_consistent
    # the lone coordinate polynomial reduces to degree 1
    assert rep.functional_floor == Fraction(1, 2)
    assert rep.functional_consistent


def test_dixon_on_heisenberg():
    rep = dixon_verdict(parse("[x1,x2]", Flavor.LIE, F2), heisenberg(2))
    assert rep.probability == Fraction(10, 16)
    assert rep.functional_floor == Fraction(1, 4)  # reduced degree 2 over GF(2)
    assert rep.verdict_consistent


def test_dixon_identity_route_agreement():
    rep = dixon_verdict(parse("x1*x1 + x1", Flavor.ASSOC, F2), field_as_algebra(2))
    assert rep.is_identity
    assert rep.functional_consistent
    assert rep.functional_floor is None


def test_dixon_accepts_the_boundary_case():
    rep = dixon_verdict(free("x1*x1"), BOUNDARY)
    assert rep.probability == rep.threshold == Fraction(3, 4)
    assert rep.functional_floor == Fraction(1, 4)


def test_dixon_detector_wiring(monkeypatch):
    # force the floor route to report an impossible bound and make sure
    # the cross-check actually trips
    import fqidtest.idtest as mod

    real = mod.floor_fraction

    def inflated(q, d):
        dec = real(q, d)
        return type(dec)(dec.q, dec.d, dec.m, dec.r, Fraction(99, 100))

    monkeypatch.setattr(mod, "floor_fraction", inflated)
    with pytest.raises(TheoremViolation):
        dixon_verdict(free("x1*x1"), field_as_algebra(2))


def test_dixon_nonhomogeneous_accepted():
    rep = dixon_verdict(free("x1*x1 + x1"), truncated(2, 3))
    # (a t + b t^2)^2 + (a t + b t^2) = (a) t + (a + b) t^2: zero iff a = b = 0
    assert rep.probability == Fraction(1, 4)
    assert rep.verdict_consistent


def reference_dixon(Q, A, *, cap=idtest.EXACT_CAP, workers=1, commutator=False):
    """dixon_verdict as it was before its second route read degrees off the
    packed monomials: zero_probability's report, the unpacked reduced
    coordinates, and the bounds compared on Fractions.  It looks the count
    and the floor up on idtest, so a test that patches them patches both."""
    report = idtest.zero_probability(Q, A, cap=cap, workers=workers, commutator=commutator)
    nonzero = [c for c in reduced_coordinates(Q, A, commutator=commutator) if not c.is_zero]

    def violation(message):
        return TheoremViolation(message, witness={
            "check": "dixon",
            "poly": Q.to_text(),
            "n": Q.n,
            "flavor": Q.flavor.value,
            "commutator": commutator,
            "algebra": idtest.to_json_dict(A),
            "zero_count": report.zero_count,
            "total": report.total,
            "route": idtest._count_route(Q, A, report.total)[0],
            "probability": str(report.probability),
            "threshold": str(report.threshold),
        })

    if (not nonzero) != report.is_identity:
        raise violation("enumeration and coordinate reduction disagree on identity-ness")
    if report.is_identity:
        return constructor_report(
            report.zero_count, report.total, report.degree, functional_consistent=True
        )
    floor = idtest.floor_fraction(A.field.q, min(c.degree for c in nonzero)).value
    if 1 - report.probability < floor:
        raise violation(
            f"nonzero fraction {1 - report.probability} under the "
            f"coordinate density floor {floor}"
        )
    if report.probability > report.threshold:
        raise violation(
            f"non-identity with zero probability {report.probability} "
            f"above 1 - 2^-{report.degree}"
        )
    if not report.verdict_consistent:
        raise violation("inconsistent verdict flags")
    return constructor_report(
        report.zero_count, report.total, report.degree,
        functional_floor=floor, functional_consistent=True,
    )


def assert_matches_reference(Q, A, commutator=False):
    got = dixon_verdict(Q, A, commutator=commutator)
    assert got == reference_dixon(Q, A, commutator=commutator), (Q.to_text(), A.table)


def test_dixon_report_is_the_count_report_with_the_functional_fields(monkeypatch):
    # the verdict's report is its count's with the functional fields: the
    # count's own probability and threshold, no second Fraction, and field
    # for field the exact report with those fields
    counted = []

    def recording(*args, **kwargs):
        counted.append(count(*args, **kwargs))
        return counted[-1]

    count = idtest.zero_probability
    monkeypatch.setattr(idtest, "zero_probability", recording)
    cells = list(product(range(2), repeat=2))
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in cli.battery_for(A):
            got = dixon_verdict(Q, A)
            (report,) = counted
            assert got.probability is report.probability and got.threshold is report.threshold
            degrees = [c.degree for c in reduced_coordinates(Q, A) if not c.is_zero]
            floor = floor_fraction(2, min(degrees)).value if degrees else None
            want = replace(report, functional_floor=floor, functional_consistent=True)
            assert got == want == reference_dixon(Q, A), (tbl, Q.to_text())
            counted.clear()
            assert_same_report(got, constructor_report(
                got.zero_count, got.total, Q.degree,
                functional_floor=floor, functional_consistent=True,
            ))
    assert idtest._threshold(3) is idtest._threshold(3) == Fraction(7, 8)


def constructor_report(zero_count, total, degree, **functional):
    """An exact report as idtest once built it: through EvalReport's
    constructor, with the verdict compared on Fractions.  The reference
    for the reports that idtest builds by filling the instance dict."""
    probability = Fraction(zero_count, total)
    threshold = 1 - Fraction(1, 2**degree)
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
        **functional,
    )


def assert_same_report(got, want):
    """got is the report want is, to every reader of a report."""
    assert type(got) is EvalReport
    names = [f.name for f in fields(EvalReport)]
    values = [getattr(got, name) for name in names]
    assert values == [getattr(want, name) for name in names]
    assert list(map(type, values)) == [type(getattr(want, name)) for name in names]
    assert list(vars(got).items()) == list(vars(want).items())  # same keys, same order
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert cli._jsonable(got) == cli._jsonable(want)
    assert pickle.loads(pickle.dumps(got)) == want
    assert replace(got, zero_count=0) == replace(want, zero_count=0)
    with pytest.raises(FrozenInstanceError):
        got.zero_count = 0


def test_reports_are_the_constructors_reports():
    # the builder takes every field, in declared order
    assert list(inspect.signature(idtest._new_report).parameters) == [
        f.name for f in fields(EvalReport)
    ]
    # exact reports on the dimension-2 sweep, the degree walked off the terms
    cells = list(product(range(2), repeat=2))
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in cli.battery_for(A):
            count = zero_probability(Q, A)
            degree = 0 if Q.is_zero else Q.degree
            assert_same_report(count, constructor_report(count.zero_count, count.total, degree))
            got = dixon_verdict(Q, A)
            functional = {"functional_consistent": True}
            if not got.is_identity:
                low = min(c.degree for c in reduced_coordinates(Q, A) if not c.is_zero)
                functional["functional_floor"] = floor_fraction(2, low).value
            assert_same_report(got, constructor_report(got.zero_count, got.total, degree, **functional))
    # the verdict on the integers, on counts either side of every threshold:
    # the count is forced, on totals q**n that exact counts meet, and on
    # degrees 0 (the zero polynomial) to 5
    shapes = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1))
    for q, n in shapes:
        A = field_as_algebra(q)
        polys = [FreePoly(A.field, Flavor.FREE, n, {})]
        words = ("*".join(["x1"] * degree) for degree in range(1, 6))
        polys += [parse(word, Flavor.FREE, A.field, n=n) for word in words]
        for Q in polys:
            degree = 0 if Q.is_zero else Q.degree
            for zero_count in range(q**n + 1):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(idtest, "_count_exact", lambda *args: zero_count)
                    got = zero_probability(Q, A)
                assert_same_report(got, constructor_report(zero_count, q**n, degree))
    # sampled reports
    H = heisenberg(3)
    for text in ("[x1,x2]", "[[x1,x2],x3] + 2*[x2,x1]"):
        Q = parse(text, Flavor.LIE, H.field)
        for samples, seed in ((1, 0), (50, 7), (400, 2**64 + 3)):
            got = zero_probability(Q, H, samples=samples, seed=seed)
            want = EvalReport(
                zero_count=got.zero_count,
                total=samples,
                probability=Fraction(got.zero_count, samples),
                degree=Q.degree,
                threshold=1 - Fraction(1, 2**Q.degree),
                is_identity=None,
                verdict_consistent=None,
                mode="sampled",
                samples=samples,
                seed=seed,
            )
            assert_same_report(got, want)


def test_dixon_matches_the_reference_through_the_commutator():
    brackets = [parse(text, Flavor.LIE, F2) for text in ("[x1,x2]", "[[x1,x2],x1]")]
    cells = list(product(range(2), repeat=2))
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in brackets:
            assert_matches_reference(Q, A, commutator=True)


def test_dixon_matches_the_reference_on_the_library():
    for Q, A in cli.two_path_pairs(1 << 16):
        assert_matches_reference(Q, A)


@st.composite
def dixon_cases(draw):
    """Random tables over GF(2), GF(3) and GF(4) with polynomials that mix a
    linear term and terms of degree 2 to 4."""
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 2))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    A = Algebra(F, dim, [[draw(cell) for _ in range(dim)] for _ in range(dim)])
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(1, 2))
    leaf = st.integers(1, n)
    if flavor is Flavor.ASSOC:
        term = st.lists(leaf, min_size=2, max_size=4).map(tuple)
    else:
        term = st.tuples(leaf, leaf) | st.tuples(st.tuples(leaf, leaf), leaf)
        term = term | st.tuples(st.tuples(leaf, leaf), st.tuples(leaf, leaf))
    coeff = st.integers(1, q - 1)
    terms = draw(st.dictionaries(term, coeff, min_size=1, max_size=3))
    linear = (draw(leaf),) if flavor is Flavor.ASSOC else draw(leaf)
    terms[linear] = draw(coeff)
    # lie input on a plain table is read through the commutator
    return FreePoly(F, flavor, n, terms), A, flavor is Flavor.LIE


@settings(max_examples=80, deadline=None)
@given(dixon_cases())
def test_dixon_matches_the_reference_on_random_tables(case):
    Q, A, commutator = case
    assert_matches_reference(Q, A, commutator)


def forced_verdicts(monkeypatch, Q, A, zeros, floor=None):
    """dixon_verdict and reference_dixon with the count forced to zeros and,
    when given, every density floor forced to floor: each side's report, or
    the (message, witness) of the TheoremViolation it raised."""
    monkeypatch.setattr(idtest, "_count_exact", lambda *args: zeros)
    if floor is not None:
        real = idtest.floor_fraction

        def forced(q, d):
            dec = real(q, d)
            return type(dec)(dec.q, dec.d, dec.m, dec.r, floor)

        monkeypatch.setattr(idtest, "floor_fraction", forced)
    out = []
    for verdict in (dixon_verdict, reference_dixon):
        try:
            out.append(verdict(Q, A))
        except TheoremViolation as exc:
            out.append((str(exc), exc.witness))
    monkeypatch.undo()
    return out


def test_dixon_floor_boundary(monkeypatch):
    # a nonzero fraction exactly on the coordinate floor passes, and one
    # nonzero point fewer falls under it
    cases = [
        (parse("x1*x1", Flavor.FREE, F2, n=2), BOUNDARY, Fraction(1, 4)),  # 4 of 16
        (parse("x1*x2", Flavor.FREE, F3), field_as_algebra(3), Fraction(1, 3)),  # 3 of 9
    ]
    for Q, A, floor in cases:
        total = A.order() ** Q.n
        degree = min(c.degree for c in reduced_coordinates(Q, A) if not c.is_zero)
        assert floor_fraction(A.field.q, degree).value == floor
        assert (floor * total).denominator == 1
        on_floor = total - int(floor * total)
        got, want = forced_verdicts(monkeypatch, Q, A, on_floor)
        assert got == want and got.functional_floor == floor
        assert got.zero_count == on_floor and 1 - got.probability == floor
        got, want = forced_verdicts(monkeypatch, Q, A, on_floor + 1)
        assert got == want
        message, witness = got
        below = Fraction(total - on_floor - 1, total)
        assert message == f"nonzero fraction {below} under the coordinate density floor {floor}"
        assert witness["probability"] == str(1 - below)
        assert witness["threshold"] == str(1 - Fraction(1, 4))
        assert witness["zero_count"] == on_floor + 1 and witness["total"] == total
    # a floor of 1/3 puts 16/3 nonzero points of 16 on no count: 6 pass, 5 fail
    Q = parse("x1*x1", Flavor.FREE, F2, n=2)
    got, want = forced_verdicts(monkeypatch, Q, BOUNDARY, 10, floor=Fraction(1, 3))
    assert got == want and got.functional_floor == Fraction(1, 3)
    got, want = forced_verdicts(monkeypatch, Q, BOUNDARY, 11, floor=Fraction(1, 3))
    assert got == want
    assert got[0] == "nonzero fraction 5/16 under the coordinate density floor 1/3"


def test_dixon_threshold_boundary(monkeypatch):
    # on BOUNDARY the true count sits exactly on 1 - 2^-2 and passes; the
    # threshold test can only fail once the floor test passes, so with n = 2
    # the floor is forced down to 1/16 and one zero past the bound raises
    Q = free("x1*x1")
    got, want = forced_verdicts(monkeypatch, Q, BOUNDARY, 3)
    assert got == want and got.probability == got.threshold == Fraction(3, 4)
    Q = parse("x1*x1", Flavor.FREE, F2, n=2)
    got, want = forced_verdicts(monkeypatch, Q, BOUNDARY, 12, floor=Fraction(1, 16))
    assert got == want and got.probability == got.threshold == Fraction(3, 4)
    assert got.functional_floor == Fraction(1, 16)
    got, want = forced_verdicts(monkeypatch, Q, BOUNDARY, 13, floor=Fraction(1, 16))
    assert got == want
    message, witness = got
    assert message == "non-identity with zero probability 13/16 above 1 - 2^-2"
    assert (witness["probability"], witness["threshold"]) == ("13/16", "3/4")
    assert (witness["zero_count"], witness["total"], witness["n"]) == (13, 16, 2)
    # over GF(3) no count sits on 1 - 2^-1 = 1/2 of 3 points: 1 zero passes, 2 fail
    Q = parse("x1", Flavor.FREE, F3)
    A = field_as_algebra(3)
    got, want = forced_verdicts(monkeypatch, Q, A, 1, floor=Fraction(1, 9))
    assert got == want and got.probability == Fraction(1, 3)
    got, want = forced_verdicts(monkeypatch, Q, A, 2, floor=Fraction(1, 9))
    assert got == want
    message, witness = got
    assert message == "non-identity with zero probability 2/3 above 1 - 2^-1"
    assert (witness["probability"], witness["threshold"]) == ("2/3", "1/2")


# ---------------------------------------------------------------------------
# the lean verdict path against the references

def reference_zeros(Q, A, commutator=False):
    """e_Q's zeros over A^n, one evaluate per point: the reference count."""
    elements = list(A.elements())
    return sum(
        vec_is_zero(evaluate(Q, A, args, commutator=commutator))
        for args in product(elements, repeat=Q.n)
    )


def assert_lean_path_matches(Q, A, commutator=False, cap=idtest.EXACT_CAP, workers=1):
    """Exact zero_probability is the constructor-built report of the
    reference count, and dixon_verdict is reference_dixon's report, field
    for field; over the cap all three raise the same refusal."""
    total = A.order() ** Q.n
    calls = (zero_probability, dixon_verdict, reference_dixon)
    kwargs = {"cap": cap, "workers": workers, "commutator": commutator}
    if total > cap:
        for call in calls:
            with pytest.raises(SearchSpaceTooLarge) as refused:
                call(Q, A, **kwargs)
            assert (refused.value.size, refused.value.cap) == (total, cap)
        return
    degree = 0 if Q.is_zero else Q.degree
    want = constructor_report(reference_zeros(Q, A, commutator), total, degree)
    assert_same_report(zero_probability(Q, A, **kwargs), want)
    assert_same_report(dixon_verdict(Q, A, **kwargs), reference_dixon(Q, A, **kwargs))


def test_lean_path_matches_the_references_on_every_dimension_two_table():
    brackets = [parse(text, Flavor.LIE, F2) for text in ("[x1,x2]", "[[x1,x2],x1]")]
    cells = list(product(range(2), repeat=2))
    for tbl in product(cells, repeat=4):
        A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
        for Q in cli.battery_for(A):
            assert_lean_path_matches(Q, A)
        for Q in brackets:
            assert_lean_path_matches(Q, A, commutator=True)


@st.composite
def lean_cases(draw):
    """Random tables over GF(2), GF(3) and GF(4) with polynomials in 0 to 3
    variables, the zero polynomial among them, and a cap that is either
    the default or one below the count's points."""
    q = draw(st.sampled_from([2, 3, 4]))
    F = field_of_order(q)
    dim = draw(st.integers(1, 2))
    cell = st.tuples(*[st.integers(0, q - 1)] * dim)
    A = Algebra(F, dim, [[draw(cell) for _ in range(dim)] for _ in range(dim)])
    flavor = draw(st.sampled_from(list(Flavor)))
    n = draw(st.integers(0, 3 if q ** (3 * dim) <= 4096 else 2))
    terms = {}
    if n:
        leaf = st.integers(1, n)
        if flavor is Flavor.ASSOC:
            term = st.lists(leaf, min_size=1, max_size=4).map(tuple)
        else:
            term = st.recursive(leaf, lambda t: st.tuples(t, t), max_leaves=4)
        terms = draw(st.dictionaries(term, st.integers(1, q - 1), max_size=3))
    cap = A.order() ** n - 1 if draw(st.booleans()) else idtest.EXACT_CAP
    # lie input on a plain table is read through the commutator
    return FreePoly(F, flavor, n, terms), A, flavor is Flavor.LIE, cap


@settings(max_examples=80, deadline=None)
@given(lean_cases())
def test_lean_path_matches_the_references_on_random_tables(case):
    Q, A, commutator, cap = case
    assert_lean_path_matches(Q, A, commutator, cap)


@settings(max_examples=12, deadline=None)
@given(lean_cases())
def test_lean_path_matches_the_references_on_the_pool(case):
    # two workers, FORK_POINTS at 0 and lanes out of reach: every count
    # of one argument or more forks, and walks its chunks on the pool
    Q, A, commutator, cap = case
    pooled = []
    pool = idtest.pool_map

    def recording(fn, payloads, workers):
        pooled.append(len(payloads))
        return pool(fn, payloads, workers)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "cpu_count", lambda: 2)
        m.setattr(bound, "FORK_POINTS", 0)
        m.setattr(idtest, "LANES_MIN_POINTS", 1 << 64)
        m.setattr(idtest, "pool_map", recording)
        assert_lean_path_matches(Q, A, commutator, cap, workers=2)
    if Q.n and A.order() ** Q.n <= cap:
        assert len(pooled) == 3 and min(pooled) > 1


def test_forced_violations_keep_their_messages_and_witnesses(monkeypatch):
    # each of dixon_verdict's three messages, forced as the boundary tests
    # force them; the witness is reference_dixon's and this literal one,
    # key for key and in order
    Q = parse("x1*x1", Flavor.FREE, F2, n=2)  # 12 zeros of 16, floor 1/4
    identity = parse("x1*x2", Flavor.FREE, F2)
    ZERO = Algebra(F2, 2, [[(0, 0), (0, 0)], [(0, 0), (0, 0)]], name="zero")
    disagree = "enumeration and coordinate reduction disagree on identity-ness"
    cases = [
        # a count of every point where the coordinates are nonzero
        (Q, BOUNDARY, 16, None, disagree, "1"),
        # a nonzero point where every coordinate is zero
        (identity, ZERO, 15, None, disagree, "15/16"),
        (Q, BOUNDARY, 13, None, "nonzero fraction 3/16 under the coordinate density floor 1/4", "13/16"),
        (Q, BOUNDARY, 13, Fraction(1, 16), "non-identity with zero probability 13/16 above 1 - 2^-2", "13/16"),
    ]
    for P, A, zeros, floor, message, probability in cases:
        got, want = forced_verdicts(monkeypatch, P, A, zeros, floor)
        witness = {
            "check": "dixon",
            "poly": P.to_text(),
            "n": 2,
            "flavor": "free",
            "commutator": False,
            "algebra": idtest.to_json_dict(A),
            "zero_count": zeros,
            "total": 16,
            "route": "points",
            "probability": probability,
            "threshold": "3/4",
        }
        assert got[0] == want[0] == message
        assert list(got[1].items()) == list(want[1].items()) == list(witness.items())


# ---------------------------------------------------------------------------
# coset witnesses

def test_coset_search_on_truncated():
    T = truncated(2, 3)
    witnesses = coset_identity_search(free("x1*x1"), T, T.dim)
    facts = [(w.codim, w.ideal.basis, w.representatives, w.trivial) for w in witnesses]
    assert facts == [
        (1, ((0, 1),), ((0, 0),), True),   # I = span{t^2}, rep 0: identity on I
        (2, (), ((0, 0),), True),          # I = {0}: the zeros of x^2
        (2, (), ((0, 1),), True),
    ]
    # the coset t + span{t^2} is not a witness: (t + c t^2)^2 = t^2 != 0
    assert all(w.representatives != ((1, 0),) for w in witnesses)


def test_coset_search_on_upper_triangular():
    U = upper_triangular(2, 2)
    I = ideal_generated(U, [(0, 1, 0)])
    witnesses = [
        w for w in coset_identity_search(free("x1*x2"), U, U.dim) if w.ideal == I
    ]
    reps = [(w.representatives, w.trivial) for w in witnesses]
    assert reps == [
        (((0, 0, 0), (0, 0, 0)), True),
        (((0, 0, 0), (1, 0, 0)), False),
        (((0, 0, 1), (0, 0, 0)), False),
        (((0, 0, 1), (1, 0, 0)), False),
    ]


def test_coset_search_orders_big_ideals_first():
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    witnesses = coset_identity_search(Q, H, H.dim)
    codims = [w.codim for w in witnesses]
    assert codims == sorted(codims)
    center = [w for w in witnesses if w.codim == 2]
    assert len(center) == 10  # pairs of cosets with vanishing determinant form
    assert sum(w.trivial for w in center) == 1


def test_identity_gives_a_full_ideal_witness():
    A = field_as_algebra(2)
    witnesses = coset_identity_search(parse("x1*x1 + x1", Flavor.ASSOC, F2), A, 0)
    assert len(witnesses) == 1
    assert witnesses[0].ideal == full_ideal(A)
    assert witnesses[0].trivial


def test_coset_search_cap():
    with pytest.raises(SearchSpaceTooLarge):
        coset_identity_search(free("x1*x2"), matrix_algebra(2, 2), 4, cap=100)


# ---------------------------------------------------------------------------
# multilinear descent

def test_descent_on_upper_triangular():
    U = upper_triangular(2, 2)
    Q = free("x1*x2")
    I = ideal_generated(U, [(0, 1, 0)])
    witness = CosetWitness(
        ideal=I, representatives=((0, 0, 1), (1, 0, 0)), codim=2, trivial=False
    )
    cert = multilinear_descent(Q, U, witness)
    assert cert.identity_on_ideal
    assert [s.stage for s in cert.steps] == [1, 2]
    assert all(s.verified for s in cert.steps)
    assert cert.steps[0].statement == "e_Q(y_1, a_2) = 0 for all (y_1) in I^1"
    assert cert.steps[1].statement == "e_Q(y_1, y_2) = 0 for all (y_1, y_2) in I^2"
    # every certificate of arity 2 shares its stage records, verified or not
    again = multilinear_descent(Q, U, witness)
    assert again == cert and again.steps is cert.steps
    H = heisenberg(2)
    lie = parse("[x1,x2]", Flavor.LIE, H.field)
    w = coset_identity_search(lie, H, H.dim)[-1]
    assert multilinear_descent(lie, H, w).steps is cert.steps


def test_descent_on_the_heisenberg_center():
    H = heisenberg(2)
    Q = parse("[x1,x2]", Flavor.LIE, F2)
    I = ideal_generated(H, [(0, 0, 1)])
    witness = CosetWitness(
        ideal=I, representatives=((0, 0, 0), (0, 0, 0)), codim=2, trivial=True
    )
    cert = multilinear_descent(Q, H, witness)
    assert cert.identity_on_ideal


def test_descent_rejects_non_multilinear():
    T = truncated(2, 3)
    witness = CosetWitness(
        ideal=ideal_generated(T, [(0, 1)]),
        representatives=((0, 0),),
        codim=1,
        trivial=True,
    )
    with pytest.raises(NotMultilinear):
        multilinear_descent(free("x1*x1"), T, witness)


def test_descent_rejects_bad_witnesses():
    U = upper_triangular(2, 2)
    Q = free("x1*x2")
    I = ideal_generated(U, [(0, 1, 0)])
    with pytest.raises(WitnessInvalid):
        multilinear_descent(
            Q, U, CosetWitness(ideal=I, representatives=((0, 0, 1),), codim=2, trivial=False)
        )
    forged = CosetWitness(
        ideal=I, representatives=((1, 0, 0), (1, 0, 0)), codim=2, trivial=False
    )
    with pytest.raises(WitnessInvalid):
        multilinear_descent(Q, U, forged)  # e11 * e11 = e11 != 0


# ---------------------------------------------------------------------------
# block statistics

def test_blocks_on_truncated_chain():
    T = truncated(2, 4)
    I = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    rep = block_statistics(free("x1*x1"), T, I, zero_ideal(T))
    assert rep.f_outer == 1          # the square vanishes on A/I
    assert rep.f_inner == Fraction(1, 2)
    assert not rep.decay_hypothesis  # the block over 0 is identically zero
    assert rep.decay_holds           # 1/2 <= 3/4 anyway
    facts = [(b.key, b.outer_zero, b.fraction, b.identically_zero) for b in rep.blocks]
    assert facts == [
        ((((0,),), True, Fraction(1), True)),
        ((((1,),), True, Fraction(0), False)),
    ]


def test_blocks_degenerate_nesting():
    T = truncated(2, 4)
    J = zero_ideal(T)
    rep = block_statistics(free("x1*x1"), T, J, J)
    assert all(b.total == 1 for b in rep.blocks)
    assert {b.fraction for b in rep.blocks} == {Fraction(0), Fraction(1)}


def test_blocks_weighted_average_is_exact():
    U = upper_triangular(2, 2)
    rep = block_statistics(
        free("x1*x2"), U, full_ideal(U), ideal_generated(U, [(0, 1, 0)])
    )
    assert rep.f_inner == Fraction(9, 16)
    weighted = Fraction(
        sum(b.zero_count for b in rep.blocks),
        sum(b.total for b in rep.blocks),
    )
    assert weighted == rep.f_inner
    assert rep.decay_hypothesis
    assert rep.decay_holds


def test_blocks_require_nesting():
    T = truncated(2, 4)
    small = ideal_generated(T, [(0, 0, 1)])
    big = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(NotNested):
        block_statistics(free("x1*x1"), T, small, big)


def test_quotient_probability_matches_coset_bucketing():
    T = truncated(2, 4)
    I = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    Q = free("x1*x1")
    quotient_alg, _ = quotient(T, I)
    on_quotient = zero_probability(Q, quotient_alg).probability
    # bucket route: e_Q(a) lands in I for exactly the tuples whose coset
    # image vanishes
    hits = 0
    total = 0
    for a in T.elements():
        total += 1
        hits += I.contains(evaluate(Q, T, (a,)))
    assert Fraction(hits, total) == on_quotient


# ---------------------------------------------------------------------------
# Engel reports

def test_engel_class_two_identity():
    rep = engel_report(heisenberg(2), 2)
    assert rep.probability == 1
    assert rep.is_identity


def test_engel_degree_one():
    rep = engel_report(heisenberg(2), 1)
    assert rep.probability == Fraction(10, 16)
    assert rep.threshold == Fraction(3, 4)
    assert rep.verdict_consistent


def test_engel_on_the_bigger_nilpotent_algebra():
    rep = engel_report(strictly_upper_triangular_lie(4, 2), 2)
    assert not rep.is_identity
    assert rep.probability < Fraction(7, 8)
    assert rep.probability == Fraction(13, 16)


def test_engel_needs_a_bracket():
    with pytest.raises(NotALieAlgebra):
        engel_report(truncated(2, 3), 2)


# ---------------------------------------------------------------------------
# the power-identity shadow

def test_nagata_shadow_asserts_when_applicable():
    rep = nagata_higman_check(truncated(5, 3), 3)
    assert rep.power_is_identity
    assert rep.applicable  # char 5 > 3
    assert rep.nilpotency_index == 3
    assert rep.asserted


def test_nagata_witness_replays(monkeypatch):
    # x^3 vanishes on truncated(5,3) and char 5 > 3, so a nilpotency search
    # that finds nothing is a violation; its witness alone rebuilds the check
    T = truncated(5, 3)
    monkeypatch.setattr(idtest, "nilpotency_index", lambda A: None)
    with pytest.raises(TheoremViolation) as info:
        nagata_higman_check(T, 3)
    monkeypatch.undo()
    witness = json.loads(json.dumps(cli._jsonable(info.value.witness)))
    assert next(iter(witness.items())) == ("check", "nagata")
    assert (witness["d"], witness["char"], witness["nilpotency_index"]) == (3, 5, None)
    A = from_json_dict(witness["algebra"])
    assert A == T
    replay = zero_probability(power_word(witness["d"], A.field), A)
    assert (replay.zero_count, replay.total) == (witness["zero_count"], witness["total"]) == (25, 25)
    assert A.field.p == witness["char"]
    assert nagata_higman_check(A, witness["d"]).nilpotency_index == 3


def test_nagata_shadow_small_characteristic():
    rep = nagata_higman_check(truncated(2, 3), 2)
    assert not rep.power_is_identity  # t^2 != 0
    assert not rep.applicable
    assert not rep.asserted
    rep = nagata_higman_check(truncated(3, 3), 3)
    assert rep.power_is_identity
    assert not rep.applicable  # char 3 is not > 3: no assertion
    assert not rep.asserted
    assert rep.nilpotency_index == 3  # still reported


def test_nagata_shadow_on_matrices():
    rep = nagata_higman_check(matrix_algebra(2, 2), 4)
    assert not rep.power_is_identity  # e11 is idempotent
    assert rep.nilpotency_index is None
    assert not rep.asserted


def test_nagata_shadow_input_checks():
    with pytest.raises(FlavorMismatch):
        nagata_higman_check(heisenberg(2), 2)
    with pytest.raises(ValueError):
        nagata_higman_check(truncated(2, 3), 0)


# ---------------------------------------------------------------------------
# the functional route

def test_functional_route_agrees_with_enumeration():
    cases = [
        (free("x1*x1"), field_as_algebra(2), False),
        (free("x1*x1*x1", F3), field_as_algebra(3), False),
        (parse("[x1,x2]", Flavor.LIE, F2), heisenberg(2), False),
        (parse("[x1,x2]", Flavor.LIE, F2), matrix_algebra(2, 2), True),
        (free("x1*x1"), BOUNDARY, False),
    ]
    for Q, A, commutator in cases:
        direct = zero_probability(Q, A, commutator=commutator).probability
        symbolic = functional_zero_fraction(Q, A, commutator=commutator)
        assert direct == symbolic
