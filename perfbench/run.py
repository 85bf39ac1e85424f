"""Benchmark for fqidtest: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` the workload's job list is decided again and again, one job
at a time, for about ``--seconds`` seconds, and the end-to-end metrics are
printed.  With ``--trace 1`` the job list is decided once untraced and
once with spans and counters installed, and the per-layer metrics are
printed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every job returned the expected answer.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from tracer import Tracer, call_costs, self_times
from workloads import SAMPLED_POLY, SAMPLES, WORKLOADS, Runner, algebra, bound, freepoly, idtest

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
POOL_REPEATS = 3
TAIL_LADDER = (999, 990, 950, 900, 750, 500)  # percentiles in tenths
TAIL_BEYOND = 10


def tail_rank(n: int):
    """(percentile, rank) of the highest ladder percentile with at least
    ``TAIL_BEYOND`` of ``n`` jobs beyond it; the rank is nearest-rank and
    1-based.  Below 20 jobs no ladder step qualifies and the slowest job
    is reported as the 100th percentile.
    """
    for tenths in TAIL_LADDER:
        rank = -(-tenths * n // 1000)
        if n - rank >= TAIL_BEYOND:
            return tenths / 10, rank
    return 100.0, n


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Interpreter start until fqidtest is imported and the inputs are built.

    The child prints ``time.monotonic()`` once it has built the inputs;
    that clock is system-wide, so it compares with the parent's.
    """
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def gate_failures(inputs, run, check):
    """Jobs of a pass that raised or failed the gate."""
    bad = dict(run.failures)
    bad.update(check(inputs, run.answers))
    return bad


def repeat_failures(first, run):
    """Jobs of a later pass that raised or did not repeat the first pass."""
    bad = dict(run.failures)
    for label, answer in run.answers.items():
        if first.answers.get(label) != answer:
            bad[label] = "answer differs from the first pass"
    return bad


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics, tracing off.

    The gate-only jobs are decided once.  Then passes over the timed jobs
    repeat while the next one is predicted to end within ``seconds``, with
    ``SETUP_REPEATS`` fresh-interpreter set-ups spread over them.  Other
    tenants of a shared machine slow it by up to about 1.7x for seconds at
    a stretch, so a job's time is its fastest pass, and ``wall_s`` is the
    sum of those.
    """
    build, run_pass, check = WORKLOADS[workload]
    inputs = build(seed)
    gate = Runner()
    run_pass(inputs, gate, timed=False)
    first, walls, setups, later, best = None, [], [], [], {}
    attempted = len(gate.times)
    start = perf_counter()
    while True:
        # the set-ups are spread evenly over the run
        if len(setups) < SETUP_REPEATS and perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(fresh_setup_seconds(workload, seed))
        run = Runner()
        t0 = perf_counter()
        run_pass(inputs, run)
        walls.append(perf_counter() - t0)
        attempted += len(run.times)
        for label, t in run.times.items():
            best[label] = min(t, best.get(label, t))
        if first is None:
            first = run
        else:
            # only the first pass's answers are kept, so memory does not
            # grow with the number of passes
            later.append(repeat_failures(first, run))
        if perf_counter() - start + min(walls) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(fresh_setup_seconds(workload, seed))
    first.answers.update(gate.answers)
    first.failures.update(gate.failures)
    failures = [gate_failures(inputs, first, check)] + later
    failed = sum(len(bad) for bad in failures)
    for i, bad in enumerate(failures):
        for label, why in list(bad.items())[:20]:
            print(f"FAILED pass {i} {label}: {why}", file=sys.stderr)

    job_times = sorted(best.values())
    pct, rank = tail_rank(len(job_times))
    print(
        f"# {workload} seed {seed}: {len(walls)} passes of {len(job_times)} timed jobs "
        f"(median pass {statistics.median(walls):.3f} s) after {len(gate.times)} gate-only jobs; "
        f"job_tail_ms is p{pct:g} with {len(job_times) - rank} jobs beyond it; "
        f"failed_frac {failed / attempted:.6g}"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(job_times), "s"),
        "job_p50_ms": (statistics.median(job_times) * 1e3, "ms"),
        "job_tail_ms": (job_times[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed


def _median_time(fn, repeats):
    times = []
    result = None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def pool_speedup(fn):
    """Median time with one worker over median time with two.

    Two is capped at the cores this process may run on.  Returns the
    ratio and whether both worker counts gave the same answer.
    """
    workers = min(2, len(os.sched_getaffinity(0)))
    one, a = _median_time(lambda: fn(1), POOL_REPEATS)
    two, b = _median_time(lambda: fn(workers), POOL_REPEATS)
    return one / two, a == b


def _grid_answer(workers):
    res = bound.exhaustive_min(3, 2, 3, workers=workers)
    return res.minimum, res.witness.to_text(), res.candidates


def traced(workload: str, seed: int):
    """Per-layer metrics from one traced pass over all jobs, after an untraced one."""
    build, run_pass, check = WORKLOADS[workload]
    t0 = perf_counter()
    inputs = build(seed)
    plain = Runner()
    run_pass(inputs, plain, timed=False)
    run_pass(inputs, plain)
    plain_s = perf_counter() - t0

    tracer = Tracer()
    with tracer:
        t0 = perf_counter()
        traced_inputs = build(seed)
        run = Runner(tracer)
        run_pass(traced_inputs, run, timed=False)
        run_pass(traced_inputs, run)
        traced_s = perf_counter() - t0

    failures = {**gate_failures(inputs, plain, check), **gate_failures(traced_inputs, run, check)}
    for label, why in list(failures.items())[:20]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    attempted = len(plain.times) + len(run.times)
    failed = len(failures)

    H = algebra.heisenberg(3)
    Q = freepoly.parse(SAMPLED_POLY, "lie", H.field)
    sample_s, _ = _median_time(lambda: idtest.zero_probability(Q, H, samples=SAMPLES, seed=seed), 3)
    id_speedup, id_same = pool_speedup(lambda w: idtest.zero_probability(Q, H, workers=w).zero_count)
    bd_speedup, bd_same = pool_speedup(_grid_answer)
    attempted += 4 * POOL_REPEATS
    failed += (not id_same) + (not bd_same)

    extra = {
        "idtest.sampled_us_per_sample": (sample_s / SAMPLES * 1e6, "us"),
        "idtest.pool_speedup_w2": (id_speedup, "ratio"),
        "bound.pool_speedup_w2": (bd_speedup, "ratio"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
    }
    metrics = layer_metrics(tracer, call_costs(tracer))
    metrics.update(extra)

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)
    print(f"# {workload} seed {seed}: {len(tracer.spans)} spans written to {out_dir.name}/")
    return metrics, attempted, failed


def layer_metrics(tracer, costs):
    """The per-layer metrics whose wrapped names exist, from one traced pass."""
    own = self_times(tracer.spans)
    counts = tracer.counts
    extra = tracer.extra
    restrict_calls = tracer.calls("algebra.restrict")
    tuples = extra.get("tuples", 0)
    rows = [
        ("gf.add_calls", "count", "gf.add", lambda: counts["gf.add"]),
        ("gf.sub_calls", "count", "gf.sub", lambda: counts["gf.sub"]),
        ("gf.mul_calls", "count", "gf.mul", lambda: counts["gf.mul"]),
        ("gf.add_ns", "ns", "gf.add", lambda: costs.get("gf.add", 0.0)),
        ("gf.mul_ns", "ns", "gf.mul", lambda: costs.get("gf.mul", 0.0)),
        ("algebra.mul_calls", "count", "algebra.mul", lambda: counts["algebra.mul"]),
        ("algebra.mul_ns", "ns", "algebra.mul", lambda: costs.get("algebra.mul", 0.0)),
        ("algebra.enumerate_ideals_s", "s", "algebra.enumerate_ideals",
         lambda: own.get("algebra.enumerate_ideals", 0.0)),
        ("algebra.ideals", "count", "algebra.enumerate_ideals", lambda: extra.get("ideals", 0)),
        ("algebra.restrict_calls", "count", "algebra.restrict", lambda: restrict_calls),
        ("algebra.restrict_distinct_ratio", "ratio", "algebra.restrict",
         lambda: len(extra.get("restrict_args", ())) / restrict_calls if restrict_calls else 0.0),
        ("algebra.construct_calls", "count", "algebra.construct", lambda: tracer.calls("algebra.construct")),
        ("algebra.construct_s", "s", "algebra.construct", lambda: own.get("algebra.construct", 0.0)),
        ("algebra.quotient_s", "s", "algebra.quotient", lambda: own.get("algebra.quotient", 0.0)),
        ("freepoly.parse_calls", "count", "freepoly.parse", lambda: tracer.calls("freepoly.parse")),
        ("freepoly.parse_s", "s", "freepoly.parse", lambda: own.get("freepoly.parse", 0.0)),
        ("commpoly.symbolic_coordinates_s", "s", "commpoly.symbolic_coordinates",
         lambda: own.get("commpoly.symbolic_coordinates", 0.0)),
        ("commpoly.reduce_s", "s", "commpoly.reduce", lambda: own.get("commpoly.reduce", 0.0)),
        ("commpoly.eval_calls", "count", "commpoly.eval", lambda: counts["commpoly.eval"]),
        ("commpoly.eval_ns", "ns", "commpoly.eval", lambda: costs.get("commpoly.eval", 0.0)),
        ("bound.exhaustive_min_s", "s", "bound.exhaustive_min", lambda: own.get("bound.exhaustive_min", 0.0)),
        ("bound.candidates", "count", "bound.exhaustive_min", lambda: extra.get("candidates", 0)),
        ("idtest.zero_probability_s", "s", "idtest.zero_probability",
         lambda: own.get("idtest.zero_probability", 0.0)),
        ("idtest.tuples", "count", "idtest.zero_probability", lambda: tuples),
        ("idtest.us_per_tuple", "us", "idtest.zero_probability",
         lambda: extra.get("exact_s", 0.0) / tuples * 1e6 if tuples else 0.0),
        ("idtest.dixon_verdict_s", "s", "idtest.dixon_verdict", lambda: own.get("idtest.dixon_verdict", 0.0)),
        ("idtest.functional_zero_fraction_s", "s", "idtest.functional_zero_fraction",
         lambda: own.get("idtest.functional_zero_fraction", 0.0)),
        ("idtest.coset_search_s", "s", "idtest.coset_search", lambda: own.get("idtest.coset_search", 0.0)),
        ("idtest.descent_s", "s", "idtest.descent", lambda: own.get("idtest.descent", 0.0)),
        ("idtest.witnesses", "count", "idtest.coset_search", lambda: extra.get("witnesses", 0)),
        ("idtest.descents", "count", "idtest.descent", lambda: tracer.calls("idtest.descent")),
        ("idtest.block_statistics_s", "s", "idtest.block_statistics",
         lambda: own.get("idtest.block_statistics", 0.0)),
        ("cli.run_corpus_s", "s", "cli.run_corpus", lambda: own.get("cli.run_corpus", 0.0)),
        ("cli.render_s", "s", "cli.render", lambda: own.get("cli.render", 0.0)),
    ]
    return {name: (get(), unit) for name, unit, needs, get in rows if needs in tracer.installed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed)
    else:
        metrics, attempted, failed = measure(args.workload, args.seed, args.seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
