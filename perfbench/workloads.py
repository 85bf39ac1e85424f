"""The benchmark's three workloads: inputs, one closed-loop pass, the gate.

Every workload has a fixed part that does not depend on the seed and is
checked against constants recorded when the benchmark was written, and a
seeded part whose answers are checked by a second route through the
package.

A pass decides either the timed jobs, which repeat for the whole run, or
the gate-only jobs, which are decided once per run so the gate sees their
answers.  Gate-only jobs take seconds each.  The speed of a shared
machine drifts on that scale, and a pass long enough to hold them leaves
too few repeats for a steady best time per job.  Jobs are public calls made through module attributes
(``idtest.dixon_verdict``), so the tracer in ``tracer.py`` sees every call
it wraps.

Importing this module puts the repository's ``src`` directory first on
``sys.path`` and refuses any other copy of ``fqidtest``.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fqidtest  # noqa: E402
from fqidtest import algebra, bound, cli, freepoly, gf, idtest  # noqa: E402

if Path(fqidtest.__file__).resolve().parent != SRC / "fqidtest":
    raise ImportError(f"fqidtest came from {fqidtest.__file__}, not from {SRC}")


class Runner:
    """One caller in a closed loop: each job starts when the previous returns.

    ``times`` and ``answers`` are keyed by job label; a job that raises is
    recorded in ``failures`` and the loop goes on.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}
        self.answers = {}
        self.failures = {}

    def call(self, label, fn, *args, **kwargs):
        if label in self.times:
            raise ValueError(f"duplicate job label {label!r}")
        if self.tracer is not None:
            self.tracer.job = label
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising job is a failed job, not a crash
            self.times[label] = perf_counter() - start
            self.failures[label] = f"{type(exc).__name__}: {exc}"
            return None
        self.times[label] = perf_counter() - start
        return result


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


def _check_equal(failures, label, got, want):
    if got != want:
        failures[label] = f"got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# enumerate: few large algebras, many tuples per algebra

ENUMERATE_FIXED = (
    ("heisenberg(3)", "lie", "[x1,x2,x3]"),
    ("matrix(2,2)", "free", "x1*x2*x3 - x3*x2*x1"),
    ("matrix(2,2)", "free", "x1*x2*x3*x4 - x4*x3*x2*x1"),
    ("strictly_upper_triangular_lie(4,2)", "lie", "[[x1,x2],x3]"),
    ("strictly_upper_triangular_lie(4,2)", "lie", "engel(2)"),
)

# (zero_count, total) of each fixed dixon_verdict job
ENUMERATE_EXPECTED = {
    "dixon heisenberg(3) [x1,x2,x3]": (19683, 19683),
    "dixon matrix(2,2) x1*x2*x3 - x3*x2*x1": (1576, 4096),
    "dixon matrix(2,2) x1*x2*x3*x4 - x4*x3*x2*x1": (28516, 65536),
    "dixon strictly_upper_triangular_lie(4,2) [[x1,x2],x3]": (188416, 262144),
    "dixon strictly_upper_triangular_lie(4,2) engel(2)": (3328, 4096),
}

ENUMERATE_GATE_ONLY = {
    "dixon matrix(2,2) x1*x2*x3*x4 - x4*x3*x2*x1",
    "dixon strictly_upper_triangular_lie(4,2) [[x1,x2],x3]",
}

ENUMERATE_HEISENBERG_POLYS = 16
SAMPLED_POLY = "[x1,x2] + [[x1,x3],x2]"
SAMPLES = 4000

# Every pair of distinct degree-3 words in x1, x2.  Their costs differ by
# up to 2x, so the seed relabels the variables of each pair instead of
# drawing pairs, and the cost of a pass does not depend on the seed.
MATRIX_WORD_PAIRS = tuple(combinations(product((1, 2), repeat=3), 2))


def _relabelled_word_pair(rng, pair):
    swap = {1: 2, 2: 1} if rng.random() < 0.5 else {1: 1, 2: 2}
    return " + ".join("*".join(f"x{swap[i]}" for i in w) for w in pair)


def _random_bracket_poly(rng):
    """A fixed two-variable shape with random nonzero coefficients."""
    c1, c2, c3 = (rng.randint(1, 2) for _ in range(3))
    return f"{c1}*[x1,x2] + {c2}*[x2,x1] + {c3}*[[x1,x2],x1]"


def build_enumerate(seed: int) -> dict:
    rng = random.Random(seed)
    algebras = {}
    jobs = []
    for spec, flavor, text in ENUMERATE_FIXED:
        if spec not in algebras:
            algebras[spec] = algebra.builtin(spec)
        A = algebras[spec]
        Q = freepoly.engel(2, A.field) if text == "engel(2)" else freepoly.parse(text, flavor, A.field)
        jobs.append((f"dixon {spec} {text}", A, Q, False))
    M = algebras["matrix(2,2)"]
    for i, pair in enumerate(MATRIX_WORD_PAIRS):
        text = _relabelled_word_pair(rng, pair)
        jobs.append((f"dixon seeded#{i} matrix(2,2) {text}", M, freepoly.parse(text, "free", M.field), True))
    H = algebras["heisenberg(3)"]
    for i in range(ENUMERATE_HEISENBERG_POLYS):
        text = _random_bracket_poly(rng)
        jobs.append((f"dixon seeded#{i} heisenberg(3) {text}", H, freepoly.parse(text, "lie", H.field), True))
    sampled = (H, freepoly.parse(SAMPLED_POLY, "lie", H.field), rng.getrandbits(63))
    return {"jobs": jobs, "sampled": sampled}


def pass_enumerate(inputs: dict, run: Runner, timed: bool = True):
    for label, A, Q, _ in inputs["jobs"]:
        if (label in ENUMERATE_GATE_ONLY) == timed:
            continue
        rep = run.call(label, idtest.dixon_verdict, Q, A, workers=1)
        if rep is not None:
            run.answers[label] = (rep.zero_count, rep.total, rep.is_identity)
    if not timed:
        return
    A, Q, sample_seed = inputs["sampled"]
    label = f"sampled heisenberg(3) {SAMPLED_POLY}"
    rep = run.call(label, idtest.zero_probability, Q, A, samples=SAMPLES, seed=sample_seed)
    if rep is not None:
        run.answers[label] = (rep.zero_count, rep.total)


class SplitMix64:
    """The sampler's documented generator, restated so the recount is independent."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def below(self, n):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return (z ^ (z >> 31)) % n


def check_fixed_enumerate(answers, expected=ENUMERATE_EXPECTED) -> dict:
    failures = {}
    for label, (zeros, total) in expected.items():
        _check_equal(failures, label, answers.get(label), (zeros, total, zeros == total))
    return failures


def check_enumerate(inputs, answers, expected=ENUMERATE_EXPECTED) -> dict:
    failures = check_fixed_enumerate(answers, expected)
    for label, A, Q, seeded in inputs["jobs"]:
        if seeded and label in answers:
            zeros, total, identity = answers[label]
            other = idtest.functional_zero_fraction(Q, A)
            _check_equal(failures, label, (Fraction(zeros, total), identity), (other, other == 1))
    A, Q, sample_seed = inputs["sampled"]
    label = f"sampled heisenberg(3) {SAMPLED_POLY}"
    if label in answers:
        rng = SplitMix64(sample_seed)
        q, dim = A.field.q, A.dim
        recount = 0
        for _ in range(SAMPLES):
            args = [tuple(rng.below(q) for _ in range(dim)) for _ in range(Q.n)]
            recount += not any(idtest.evaluate(Q, A, args))
        _check_equal(failures, label, answers[label], (recount, SAMPLES))
    return failures


# ---------------------------------------------------------------------------
# descent: many ideals and witnesses, early-exit coset checks

# (witnesses, nontrivial witnesses) of each fixed coset_identity_search job
DESCENT_EXPECTED = {
    'field(2) x1*x2': (3, 0),
    'field(2) x1*x2 + x2*x1': (5, 0),
    'field(3) x1*x2': (5, 0),
    'field(3) x1*x2 + 2*x2*x1': (10, 0),
    'truncated(2,3) x1*x2': (15, 2),
    'truncated(2,3) x1*x2 + x2*x1': (21, 3),
    'truncated(3,3) x1*x2': (50, 4),
    'truncated(3,3) x1*x2 + 2*x2*x1': (91, 8),
    'truncated(2,4) x1*x2': (41, 7),
    'truncated(2,4) x1*x2 + x2*x1': (85, 18),
    'upper_triangular(2,2) x1*x2': (30, 3),
    'upper_triangular(2,2) x1*x2 + x2*x1': (44, 3),
    'heisenberg(2) [x1,x2]': (53, 9),
    'heisenberg(2) [x1,x2] + [x2,x1]': (93, 24),
    'heisenberg(3) [x1,x2]': (334, 32),
    'heisenberg(3) [x1,x2] + 2*[x2,x1]': (334, 32),
    'matrix(2,2) x1*x2': (58, 0),
    'matrix(2,2) x1*x2 + x2*x1': (88, 0),
    'strictly_upper_triangular_lie(3,2) [x1,x2]': (53, 9),
    'strictly_upper_triangular_lie(3,2) [x1,x2] + [x2,x1]': (93, 24),
    'strictly_upper_triangular_lie(4,2) [x1,x2]': (1375, 339),
    'strictly_upper_triangular_lie(4,2) [x1,x2] + [x2,x1]': (6477, 2355),
}
DESCENT_FIXED_DESCENTS = 9358
# the largest library algebra: its descents and two-path pairs are gate-only
GATE_ONLY_ALGEBRA = "strictly_upper_triangular_lie(4,2)"


def build_descent(seed: int) -> dict:
    rng = random.Random(seed)
    jobs = []
    for A in cli.library():
        for Q in cli.battery_for(A):
            if Q.analyze().multilinear:
                jobs.append((f"{A.name} {Q.to_text()}", A, Q, False))
    H = algebra.heisenberg(3)
    M = algebra.matrix_algebra(2, 2)
    T = algebra.truncated(3, 3)
    # each shape has a fixed term count, so its cost does not depend on the seed
    seeded = []
    for i in range(2):
        seeded.append((H, "lie", f"{rng.randint(1, 2)}*[x1,x2]"))
        seeded.append((M, "free", rng.choice(("x1*x2", "x2*x1"))))
        seeded.append((T, "free", f"{rng.randint(1, 2)}*{rng.choice(('x1*x2', 'x2*x1'))}"))
    for i, (A, flavor, text) in enumerate(seeded):
        jobs.append((f"seeded#{i} {A.name} {text}", A, freepoly.parse(text, flavor, A.field), True))
    return {"jobs": jobs}


def pass_descent(inputs: dict, run: Runner, timed: bool = True):
    for label, A, Q, _ in inputs["jobs"]:
        if (A.name == GATE_ONLY_ALGEBRA) == timed:
            continue
        found = run.call(f"coset {label}", idtest.coset_identity_search, Q, A, A.dim)
        if found is None:
            continue
        run.answers[f"coset {label}"] = (len(found), sum(not w.trivial for w in found))
        run.answers[f"witnesses {label}"] = found
        for i, w in enumerate(found):
            dl = f"descent {label} #{i}"
            cert = run.call(dl, idtest.multilinear_descent, Q, A, w)
            if cert is not None:
                run.answers[dl] = cert.identity_on_ideal and len(cert.steps) == Q.n and all(
                    s.verified for s in cert.steps
                )


def _descent_labels(answers, label):
    found = answers.get(f"witnesses {label}") or ()
    return [f"descent {label} #{i}" for i in range(len(found))]


def check_fixed_descent(answers, jobs, expected=DESCENT_EXPECTED, total=DESCENT_FIXED_DESCENTS) -> dict:
    failures = {}
    count = 0
    for label, _, _, seeded in jobs:
        if seeded:
            continue
        _check_equal(failures, f"coset {label}", answers.get(f"coset {label}"), expected[label])
        for dl in _descent_labels(answers, label):
            count += 1
            if answers.get(dl) is not True:
                failures[dl] = "certificate not verified"
    if count != total:
        last = next(label for label, *_, seeded in reversed(jobs) if not seeded)
        failures[f"coset {last}"] = f"{count} fixed descents, expected {total}"
    return failures


def check_descent(inputs, answers, expected=DESCENT_EXPECTED, total=DESCENT_FIXED_DESCENTS) -> dict:
    failures = check_fixed_descent(answers, inputs["jobs"], expected, total)
    for label, A, Q, seeded in inputs["jobs"]:
        if not seeded or f"witnesses {label}" not in answers:
            continue
        found = answers[f"witnesses {label}"]
        # a witness over the zero ideal is one zero of e_Q, and one over the
        # whole algebra says e_Q is an identity: both recount by enumeration
        direct = idtest.zero_probability(Q, A)
        zero_ideal = sum(w.ideal.rank == 0 for w in found)
        whole = any(w.ideal.rank == A.dim for w in found)
        _check_equal(failures, f"coset {label}", (zero_ideal, whole), (direct.zero_count, direct.is_identity))
        for ideal in {w.ideal for w in found}:
            sub, _ = algebra.restrict(A, ideal)
            if not idtest.zero_probability(Q, sub).is_identity:
                failures[f"coset {label}"] = f"not an identity on the rank-{ideal.rank} ideal"
        for dl in _descent_labels(answers, label):
            if answers.get(dl) is not True:
                failures[dl] = "certificate not verified"
    return failures


# ---------------------------------------------------------------------------
# sweep: many tiny algebras, a handful of tuples each

SWEEP_TIES = 63
SWEEP_PAIRS = 52
# SHA-256 of the sorted (label, answer) list of the 1024 dimension-2 verdicts
SWEEP_TABLES_DIGEST = "cd9554e8064a76947c202b8efeb05fdb24109f65f5330693629497b65d610f54"
SWEEP_GRID = {(2, 2, 1): 2, (2, 2, 2): 1, (2, 3, 2): 2, (3, 2, 2): 3, (3, 2, 3): 2, (3, 2, 4): 1}
SWEEP_GATE_ONLY = {(3, 2, 3), (3, 2, 4)}  # 6,560 and 19,682 candidates
SWEEP_BLOCK_HYPOTHESES = 2
CORPUS_SHA256 = "7bae07f1a5dcacfd224dd7fd5a73d7bfba6b43216c522cc38e047367adc31300"
# (dim, q); dimension 3 over GF(3) is left out because its jobs would
# join the fixed pair jobs at the tail and move job_tail_ms with the seed
SWEEP_SEEDED_SHAPES = ((2, 2), (3, 2), (2, 3))
SWEEP_SEEDED_PER_SHAPE = 5


def build_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    F2 = gf.Field(2)
    cells = list(product(range(2), repeat=2))
    tables = []
    for i, t in enumerate(product(cells, repeat=4)):
        A = algebra.Algebra(F2, 2, [[t[0], t[1]], [t[2], t[3]]])
        tables.append((f"table#{i}", A, cli.battery_for(A), False))
    for dim, q in SWEEP_SEEDED_SHAPES:
        F = gf.field_of_order(q)
        for j in range(SWEEP_SEEDED_PER_SHAPE):
            # half of the structure constants nonzero, so the cost of the
            # table's jobs does not depend on the seed
            slots = [0] * dim**3
            for k in rng.sample(range(dim**3), dim**3 // 2):
                slots[k] = rng.randrange(1, q)
            cells = [[slots[(i * dim + j) * dim:(i * dim + j + 1) * dim] for j in range(dim)] for i in range(dim)]
            A = algebra.Algebra(F, dim, cells, name=f"seeded dim{dim} q{q} #{j}")
            tables.append((A.name, A, cli.battery_for(A), True))
    T = algebra.truncated(2, 4)
    chain = [
        algebra.zero_ideal(T),
        algebra.ideal_generated(T, [(0, 0, 1)]),
        algebra.ideal_generated(T, [(0, 1, 0), (0, 0, 1)]),
        algebra.full_ideal(T),
    ]
    return {
        "tables": tables,
        "pairs": cli.two_path_pairs(1 << 16),
        "blocks": (T, freepoly.parse("x1*x1", "free", T.field), chain),
    }


def _corpus_stdout():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["corpus"])
    return code, buf.getvalue()


def pass_sweep(inputs: dict, run: Runner, timed: bool = True):
    for q, n, d in SWEEP_GRID:
        if ((q, n, d) in SWEEP_GATE_ONLY) == timed:
            continue
        label = f"exhaustive_min{(q, n, d)}"
        res = run.call(label, bound.exhaustive_min, q, n, d, workers=1)
        if res is not None:
            run.answers[label] = (res.minimum, res.bound, bound.floor_fraction(q, d).value * q**n)
    for i, (Q, A) in enumerate(inputs["pairs"]):
        # the pairs on the largest library algebra take 30-120 ms each
        if (A.name == GATE_ONLY_ALGEBRA) == timed:
            continue
        rep = run.call(f"pair#{i} enumerate", idtest.zero_probability, Q, A)
        if rep is not None:
            run.answers[f"pair#{i} enumerate"] = rep.probability
        frac = run.call(f"pair#{i} functional", idtest.functional_zero_fraction, Q, A)
        if frac is not None:
            run.answers[f"pair#{i} functional"] = frac
    if not timed:
        # the corpus repeats the descent library's coset sweep: about 0.5 s
        out = run.call("cli corpus", _corpus_stdout)
        if out is not None:
            run.answers["cli corpus"] = (out[0], hashlib.sha256(out[1].encode()).hexdigest())
        return
    for name, A, battery, _ in inputs["tables"]:
        for k, Q in enumerate(battery):
            label = f"dixon {name} battery#{k}"
            rep = run.call(label, idtest.dixon_verdict, Q, A, workers=1)
            if rep is not None:
                run.answers[label] = (rep.zero_count, rep.total, rep.is_identity, rep.probability == rep.threshold)
    T, Q, chain = inputs["blocks"]
    for i, (inner, outer) in enumerate(combinations(chain, 2)):
        label = f"blocks chain#{i}"
        rep = run.call(label, idtest.block_statistics, Q, T, outer, inner)
        if rep is not None:
            zeros = sum(b.zero_count for b in rep.blocks)
            points = sum(b.total for b in rep.blocks)
            run.answers[label] = (
                Fraction(zeros, points) == rep.f_inner,
                rep.decay_hypothesis,
                not rep.decay_hypothesis or rep.f_inner <= rep.threshold * rep.f_outer,
            )


def check_fixed_sweep(
    answers,
    inputs,
    *,
    ties=SWEEP_TIES,
    pairs=SWEEP_PAIRS,
    tables_digest=SWEEP_TABLES_DIGEST,
    grid=SWEEP_GRID,
    hypotheses=SWEEP_BLOCK_HYPOTHESES,
    corpus_sha=CORPUS_SHA256,
) -> dict:
    failures = {}
    fixed = [
        (f"dixon {name} battery#{k}", answers.get(f"dixon {name} battery#{k}"))
        for name, _, battery, seeded in inputs["tables"]
        if not seeded
        for k in range(len(battery))
    ]
    last = fixed[-1][0]
    got_ties = sum(1 for _, a in fixed if a is not None and not a[2] and a[3])
    _check_equal(failures, last, (got_ties, _digest(fixed)), (ties, tables_digest))
    got_pairs = len(inputs["pairs"])
    _check_equal(failures, f"pair#{got_pairs - 1} enumerate", got_pairs, pairs)
    for i in range(got_pairs):
        a, b = answers.get(f"pair#{i} enumerate"), answers.get(f"pair#{i} functional")
        if a is None or a != b:
            failures[f"pair#{i} functional"] = f"enumeration {a} vs coordinates {b}"
    for (q, n, d), minimum in grid.items():
        label = f"exhaustive_min{(q, n, d)}"
        got = answers.get(label)
        if got is None or got[0] != minimum or not got[1] == got[2] == Fraction(minimum):
            failures[label] = f"got {got!r}, expected minimum {minimum} on the floor"
    blocks = [answers.get(f"blocks chain#{i}") for i in range(6)]
    if None in blocks or not all(b[0] and b[2] for b in blocks):
        failures["blocks chain#5"] = f"block accounting failed: {blocks!r}"
    else:
        _check_equal(failures, "blocks chain#5", sum(b[1] for b in blocks), hypotheses)
    _check_equal(failures, "cli corpus", answers.get("cli corpus"), (0, corpus_sha))
    return failures


def check_sweep(inputs, answers, **expected) -> dict:
    failures = check_fixed_sweep(answers, inputs, **expected)
    for name, A, battery, seeded in inputs["tables"]:
        if not seeded:
            continue
        for k, Q in enumerate(battery):
            label = f"dixon {name} battery#{k}"
            if label in answers:
                zeros, total, identity, _ = answers[label]
                other = idtest.functional_zero_fraction(Q, A)
                _check_equal(failures, label, (Fraction(zeros, total), identity), (other, other == 1))
    return failures


WORKLOADS = {
    "enumerate": (build_enumerate, pass_enumerate, check_enumerate),
    "descent": (build_descent, pass_descent, check_descent),
    "sweep": (build_sweep, pass_sweep, check_sweep),
}
