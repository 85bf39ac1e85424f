"""Self-tests of the benchmark: the tail rule, self time, tracing, the gate.

    python3 -m pytest perfbench -q
"""

from fractions import Fraction

import pytest

import workloads as W
from run import TAIL_BEYOND, TAIL_LADDER, gate_failures, repeat_failures, tail_rank
from tracer import Tracer, self_times


def test_tail_rank_keeps_ten_jobs_beyond_the_highest_step():
    assert tail_rank(42) == (75.0, 32)
    assert tail_rank(1205) == (99.0, 1193)
    assert tail_rank(11714) == (99.9, 11703)
    assert tail_rank(19) == (100.0, 19)
    for n in range(20, 5000):
        pct, rank = tail_rank(n)
        assert n - rank >= TAIL_BEYOND
        assert rank >= Fraction(int(pct * 10), 1000) * n
        for higher in TAIL_LADDER:
            if higher > pct * 10:
                assert n - -(-higher * n // 1000) < TAIL_BEYOND


def test_self_time_is_span_minus_children():
    spans = [
        ["a", 0, 10, -1, "job"],
        ["b", 1, 3, 0, "job"],
        ["c", 4, 8, 0, "job"],
        ["b", 5, 6, 2, "job"],
    ]
    assert self_times(spans) == {"a": 4, "b": 3, "c": 3}


def test_tracer_nests_spans_counts_calls_and_restores():
    A = W.algebra.heisenberg(2)
    Q = W.freepoly.parse("[x1,x2]", "lie", A.field)
    originals = (W.idtest.zero_probability, W.gf.Field.mul, W.algebra.Algebra.mul)
    tracer = Tracer()
    with tracer:
        tracer.job = "probe"
        W.idtest.dixon_verdict(Q, A)
    assert (W.idtest.zero_probability, W.gf.Field.mul, W.algebra.Algebra.mul) == originals
    names = [rec[0] for rec in tracer.spans]
    outer = names.index("idtest.dixon_verdict")
    inner = names.index("idtest.zero_probability")
    assert tracer.spans[inner][3] == outer
    assert all(rec[4] == "probe" for rec in tracer.spans)
    assert tracer.counts["algebra.mul"] > 0 and tracer.counts["gf.mul"] > 0
    assert tracer.extra["tuples"] == A.order() ** 2


def test_enumerate_gate_fails_on_one_perturbed_constant():
    answers = {label: (z, t, z == t) for label, (z, t) in W.ENUMERATE_EXPECTED.items()}
    assert W.check_fixed_enumerate(answers) == {}
    label = next(iter(W.ENUMERATE_EXPECTED))
    expected = dict(W.ENUMERATE_EXPECTED)
    zeros, total = expected[label]
    expected[label] = (zeros - 1, total)
    assert set(W.check_fixed_enumerate(answers, expected)) == {label}


def test_descent_gate_fails_on_one_perturbed_constant():
    jobs = W.build_descent(0)["jobs"]
    answers = {}
    for label, _, _, seeded in jobs:
        if seeded:
            continue
        witnesses, nontrivial = W.DESCENT_EXPECTED[label]
        answers[f"coset {label}"] = (witnesses, nontrivial)
        answers[f"witnesses {label}"] = [None] * witnesses
        for i in range(witnesses):
            answers[f"descent {label} #{i}"] = True
    assert W.check_fixed_descent(answers, jobs) == {}
    assert W.check_fixed_descent(answers, jobs, total=W.DESCENT_FIXED_DESCENTS + 1)
    label = next(iter(W.DESCENT_EXPECTED))
    expected = dict(W.DESCENT_EXPECTED, **{label: (0, 0)})
    assert f"coset {label}" in W.check_fixed_descent(answers, jobs, expected)
    answers["descent strictly_upper_triangular_lie(4,2) [x1,x2] #5"] = False
    assert "descent strictly_upper_triangular_lie(4,2) [x1,x2] #5" in W.check_fixed_descent(answers, jobs)


@pytest.fixture(scope="module")
def sweep_pass():
    inputs = W.build_sweep(3)
    run = W.Runner()
    W.pass_sweep(inputs, run, timed=False)
    W.pass_sweep(inputs, run)
    return inputs, run


def test_sweep_gate_passes_at_the_recorded_constants(sweep_pass):
    inputs, run = sweep_pass
    assert run.failures == {}
    assert W.check_sweep(inputs, run.answers) == {}


@pytest.mark.parametrize(
    "perturbed, label",
    [
        ({"ties": W.SWEEP_TIES + 1}, "dixon table#255 battery#3"),
        ({"pairs": W.SWEEP_PAIRS - 1}, "pair#51 enumerate"),
        ({"corpus_sha": "0" * 64}, "cli corpus"),
        ({"grid": {**W.SWEEP_GRID, (3, 2, 4): 2}}, "exhaustive_min(3, 2, 4)"),
        ({"hypotheses": W.SWEEP_BLOCK_HYPOTHESES + 1}, "blocks chain#5"),
    ],
)
def test_sweep_gate_fails_on_one_perturbed_constant(sweep_pass, perturbed, label):
    inputs, run = sweep_pass
    assert set(W.check_fixed_sweep(run.answers, inputs, **perturbed)) == {label}


def test_later_pass_must_repeat_the_first(sweep_pass):
    inputs, run = sweep_pass
    again = W.Runner()
    again.answers = dict(run.answers, **{"cli corpus": (0, "f" * 64)})
    again.failures = {"pair#0 functional": "RuntimeError: boom"}
    assert gate_failures(inputs, run, W.check_sweep) == {}
    assert set(repeat_failures(run, again)) == {"cli corpus", "pair#0 functional"}
