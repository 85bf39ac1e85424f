"""The acceptance gate: ten exact criteria, one printed line each.

Every assertion is exact rational or integer equality — no tolerances.
The suite prints one PASS/FAIL line per criterion (visible in the
terminal summary and under pytest -s).
"""

import json
from fractions import Fraction
from itertools import combinations, product

from fqidtest import cli
from fqidtest.algebra import (
    Algebra,
    full_ideal,
    heisenberg,
    ideal_generated,
    matrix_algebra,
    save_algebra,
    strictly_upper_triangular_lie,
    truncated,
    zero_ideal,
)
from fqidtest.bound import (
    exhaustive_min,
    extremal_poly,
    floor_fraction,
    minimize_sequences,
)
from fqidtest.commpoly import zero_counter
from fqidtest.freepoly import Flavor, parse
from fqidtest.gf import Field
from fqidtest.idtest import (
    block_statistics,
    coset_identity_search,
    dixon_verdict,
    engel_report,
    functional_zero_fraction,
    multilinear_descent,
    nagata_higman_check,
    zero_probability,
)

GRID_Q = (2, 3, 4, 5)
GRID_D = range(0, 13)


def test_criterion_01_floor_formula_matches_oracle(criterion):
    with criterion(1, "floor formula equals the sequence-minimization oracle"):
        for q in GRID_Q:
            for d in GRID_D:
                formula = floor_fraction(q, d).value
                oracle = minimize_sequences(q, d)
                assert formula == oracle.minimum, (q, d)
                assert sum(oracle.witness) == d
        assert floor_fraction(2, 3).value == Fraction(1, 8)
        assert floor_fraction(3, 3).value == Fraction(2, 9)
        assert floor_fraction(5, 6).value == Fraction(3, 25)


def test_criterion_02_floor_inequalities(criterion):
    with criterion(2, "factor-cost and two-power floor inequalities, tight at q=2"):
        for q in GRID_Q:
            for d in GRID_D:
                fd = floor_fraction(q, d).value
                # one extra factor of degree k costs at most (q-k)/q
                for k in range(1, min(q - 1, d) + 1):
                    assert fd <= Fraction(q - k, q) * floor_fraction(q, d - k).value
                assert fd >= Fraction(1, 2**d)
                if q == 2:
                    assert fd == Fraction(1, 2**d)
                elif d > 0:
                    assert fd > Fraction(1, 2**d)


def test_criterion_03_exhaustive_minimum_attains_floor(criterion):
    grid = [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 2, 3)]
    with criterion(3, "exhaustive nonzero-count minimum equals the floor bound"):
        for q, n, d in grid:
            res = exhaustive_min(q, n, d)
            bound = floor_fraction(q, d).value * q**n
            # the scan covers every nonzero reduced polynomial and raises
            # if any drops below the floor, so minimum == bound is tight
            assert res.bound == bound, (q, n, d)
            assert Fraction(res.minimum) == bound, (q, n, d)
            ext = extremal_poly(q, n, d)
            zeros = zero_counter(ext.field, n, q**n)([ext.monomials])
            assert Fraction(q**n - zeros) == bound, (q, n, d)
        assert exhaustive_min(2, 2, 2).minimum == 1
        assert exhaustive_min(3, 2, 3).minimum == 2


def test_criterion_04_dimension_two_sweep(criterion, tmp_path):
    label = "threshold verdicts hold on every dimension-2 table over F(2)"
    with criterion(4, label):
        F2 = Field(2)
        cells = list(product(range(2), repeat=2))
        tables = 0
        boundary_ties = 0
        for tbl in product(cells, repeat=4):
            A = Algebra(F2, 2, [[tbl[0], tbl[1]], [tbl[2], tbl[3]]])
            tables += 1
            for Q in cli.battery_for(A):
                rep = dixon_verdict(Q, A)  # raises on any route disagreement
                assert rep.verdict_consistent is True
                assert rep.probability <= rep.threshold or rep.is_identity
                assert rep.is_identity == (rep.probability == 1)
                if not rep.is_identity and rep.probability == rep.threshold:
                    boundary_ties += 1
        assert tables == 4**4 == 256
        assert boundary_ties == 63  # ties sit exactly at 1 - 2^-d, never above

        # the command-line path returns 0 even on a boundary tie
        tie = Algebra(F2, 2, [[(0, 0), (1, 0)], [(0, 0), (0, 0)]])
        path = tmp_path / "tie.json"
        save_algebra(tie, str(path))
        rc = cli.main(["dixon", "--algebra", str(path), "--poly", "x1*x1"])
        assert rc == 0


def test_criterion_05_two_path_agreement(criterion):
    with criterion(5, "enumeration equals coordinate-reduction zero fraction"):
        pairs = cli.two_path_pairs(1 << 16)
        assert len(pairs) == 52
        for Q, A in pairs:
            direct = zero_probability(Q, A).probability
            reduced = functional_zero_fraction(Q, A)
            assert direct == reduced, (Q.to_text(), A.name)


def test_criterion_06_descent_on_every_witness(criterion):
    with criterion(6, "every coset witness descends to a verified certificate"):
        checked = 0
        for A in cli.library():
            for Q in cli.battery_for(A):
                if not Q.analyze().multilinear:
                    continue
                for w in coset_identity_search(Q, A, A.dim):
                    cert = multilinear_descent(Q, A, w)
                    assert cert.identity_on_ideal is True
                    assert len(cert.steps) == Q.n
                    assert all(step.verified for step in cert.steps)
                    checked += 1
        assert checked == 9358


def test_criterion_07_block_decay_chain(criterion):
    with criterion(7, "block fractions average exactly and decay when hypothesized"):
        T = truncated(2, 4)
        Q = parse("x1*x1", Flavor.FREE, T.field)
        chain = [
            zero_ideal(T),
            ideal_generated(T, [(0, 0, 1)]),
            ideal_generated(T, [(0, 1, 0), (0, 0, 1)]),
            full_ideal(T),
        ]
        seen_hypothesis = 0
        for inner, outer in combinations(chain, 2):
            rep = block_statistics(Q, T, outer, inner)  # raises on any breach
            total_zeros = sum(b.zero_count for b in rep.blocks)
            total_points = sum(b.total for b in rep.blocks)
            assert Fraction(total_zeros, total_points) == rep.f_inner
            for b in rep.blocks:
                assert b.fraction == Fraction(b.zero_count, b.total)
            if rep.decay_hypothesis:
                seen_hypothesis += 1
                assert rep.f_inner <= rep.threshold * rep.f_outer
        assert seen_hypothesis == 2

        spot = block_statistics(Q, T, chain[2], chain[0])
        assert spot.f_outer == 1
        assert spot.f_inner == Fraction(1, 2)
        assert spot.decay_hypothesis is False
        assert spot.decay_holds is True


def test_criterion_08_engel_suite(criterion):
    with criterion(8, "Engel verdicts on the nilpotent Lie algebras"):
        H = heisenberg(2)
        two = engel_report(H, 2)
        assert two.is_identity is True
        assert two.probability == 1

        one = engel_report(H, 1)
        assert one.is_identity is False
        assert one.probability == Fraction(10, 16)

        L = strictly_upper_triangular_lie(4, 2)
        deep = engel_report(L, 2)
        assert deep.is_identity is False
        assert deep.threshold == Fraction(7, 8)
        assert deep.probability < Fraction(7, 8)


def test_criterion_09_power_identity_and_nilpotency(criterion):
    with criterion(9, "cube identity forces nilpotency index 3; matrices resist"):
        rep = nagata_higman_check(truncated(5, 3), 3)
        assert rep.power_is_identity is True
        assert rep.applicable is True
        assert rep.nilpotency_index == 3
        assert rep.asserted is True

        M = matrix_algebra(2, 2)
        for d in (1, 2, 3, 4):
            rep = nagata_higman_check(M, d)
            assert rep.power_is_identity is False
            assert rep.asserted is False


def test_criterion_10_corpus_determinism(criterion, capsys):
    with criterion(10, "corpus reports are byte-identical across runs and workers"):
        assert cli.main(["corpus"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["corpus"]) == 0
        second = capsys.readouterr().out
        assert cli.main(["corpus", "--workers", "3"]) == 0
        parallel = capsys.readouterr().out
        assert first == second == parallel
        doc = json.loads(first)
        assert doc["sampled"][0]["report"]["mode"] == "sampled"
        assert doc["sampled"][0]["report"]["seed"] == 20260817
