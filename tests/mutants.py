"""Mutation harness: each mutant breaks one spot of src/ and names the
tests that must catch it.

    python3 tests/mutants.py [--only ID]

For each mutant the harness copies src/ into a temporary directory,
replaces the mutant's old text, which must occur exactly once in its file,
with the new text, and runs only the named tests against the copy, for at
most TIMEOUT seconds.  It prints one JSON line per mutant, with its status:

- killed: a named test failed (or the run timed out);
- survived: every named test passed, so the tests miss the fault;
- stale: the old text does not occur exactly once, so the mutant no
  longer fits the code and must be restated.

Before the mutants, the named tests run once on an unmutated copy; if they
fail there, no status would mean anything, and the harness stops with exit
status 2.  It exits 1 if any mutant survived or is stale, 0 otherwise.  A
survivor is a finding: it stays in the table until a test kills it.

Standard library only.  Pytest does not collect this file (its name does
not start with test_); tests/test_mutants.py checks the table itself.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per pytest run; each mutant's tests take a few seconds

Mutant = namedtuple("Mutant", "id path old new tests")

BLOCKS = "tests/test_blocks.py"
FORCED = BLOCKS + "::test_forced_violation_replays_from_its_witness"
COSETS = "tests/test_coset_descent.py"
BOUND = "tests/test_bound.py"
LANES = "tests/test_lanes.py"

MUTANTS = (
    # block statistics: the tally, its keys and its checks
    Mutant(
        "blocks-tally-all-zero",
        "src/fqidtest/idtest.py",
        "        if not e(point):\n            bucket[0] += 1",
        "        if True:\n            bucket[0] += 1",
        (
            BLOCKS + "::test_every_nested_pair_of_every_dimension_two_table_matches_the_reference",
            "tests/test_acceptance.py::test_criterion_07_block_decay_chain",
        ),
    ),
    Mutant(
        "blocks-key-by-inner-index",
        "src/fqidtest/idtest.py",
        "tallies.setdefault(tuple(map(image.__getitem__, point)), [0, 0])",
        "tallies.setdefault(point, [0, 0])",
        (BLOCKS + "::test_every_nested_pair_of_every_dimension_two_table_matches_the_reference",),
    ),
    Mutant(
        "blocks-average-check-skipped",
        "src/fqidtest/idtest.py",
        "    if weighted != f_inner:",
        "    if False:",
        (FORCED + "[average]",),
    ),
    Mutant(
        "blocks-outer-zero-inverted",
        "src/fqidtest/idtest.py",
        "        outer_zero = vec_is_zero(_evaluate_raw(Q, outer_alg, key, outer_prod))",
        "        outer_zero = not vec_is_zero(_evaluate_raw(Q, outer_alg, key, outer_prod))",
        (
            BLOCKS + "::test_every_nested_pair_of_every_dimension_two_table_matches_the_reference",
            "tests/test_idtest.py::test_blocks_on_truncated_chain",
        ),
    ),
    # the fork gate, in each module that applies it
    Mutant(
        "fork-gate-counts-strict",
        "src/fqidtest/idtest.py",
        "workers if points >= bound.FORK_POINTS else 1",
        "workers if points > bound.FORK_POINTS else 1",
        ("tests/test_kernel.py::test_counts_fork_once_the_points_walked_reach_fork_points",),
    ),
    Mutant(
        "fork-gate-scans-strict",
        "src/fqidtest/bound.py",
        "workers if candidates * points >= FORK_POINTS else 1",
        "workers if candidates * points > FORK_POINTS else 1",
        (
            "tests/test_kernel.py"
            "::test_exhaustive_scans_fork_once_candidates_times_points_reach_fork_points",
        ),
    ),
    # the cross-checks
    Mutant(
        "dixon-floor-one-off",
        "src/fqidtest/idtest.py",
        "    if (total - zeros) * floor.denominator < floor.numerator * total:",
        "    if (total - zeros - 1) * floor.denominator < floor.numerator * total:",
        ("tests/test_acceptance.py::test_criterion_04_dimension_two_sweep",),
    ),
    Mutant(
        "descent-final-check-skipped",
        "src/fqidtest/idtest.py",
        "        if nonzero:\n",
        "        if False:\n",
        ("tests/test_coset_descent.py::test_final_check_failure_witness_replays",),
    ),
    Mutant(
        "slice-zeros-xor-over-gf-q",
        "src/fqidtest/idtest.py",
        "    if f.q == 2:\n        def zeros(key):",
        "    if f.p == 2:\n        def zeros(key):",
        ("tests/test_kernel.py::test_slices_match_points_on_random_tables",),
    ),
    # coset search and descent over the zero ideal, and their memos and gates
    Mutant(
        "zero-ideal-witness-not-trivial",
        "src/fqidtest/idtest.py",
        "tuple(map(reps.__getitem__, point)), codim, True)",
        "tuple(map(reps.__getitem__, point)), codim, False)",
        (COSETS + "::test_zero_ideal_route_on_the_library_pairs",),
    ),
    Mutant(
        "zero-ideal-witnesses-nonzeros",
        "src/fqidtest/idtest.py",
        "for point in filterfalse(e, product(range(len(reps)), repeat=n))",
        "for point in filter(e, product(range(len(reps)), repeat=n))",
        (COSETS + "::test_zero_ideal_route_on_the_library_pairs",),
    ),
    Mutant(
        "zero-ideal-coset-check-skipped",
        "src/fqidtest/idtest.py",
        "        bad = tuple(rep_ids) if e(rep_ids) else None",
        "        bad = None",
        (COSETS + "::test_refusals_are_unchanged_cold_and_warm",),
    ),
    Mutant(
        "zero-ideal-stage-misplaced",
        "src/fqidtest/idtest.py",
        "            point = [0] * s + rep_ids[s:]",
        "            point = rep_ids[:s] + [0] * (n - s)",
        (COSETS + "::test_zero_ideal_stage_failure_is_the_reference_failure",),
    ),
    Mutant(
        "representative-range-unchecked",
        "src/fqidtest/idtest.py",
        "                if not (isinstance(c, int) and 0 <= c < q):",
        "                if not isinstance(c, int):",
        (COSETS + "::test_malformed_representative_is_an_invalid_witness",),
    ),
    Mutant(
        "field-gate-identity-only",
        "src/fqidtest/idtest.py",
        "    if not (Q.field is A.field or Q.field == A.field):",
        "    if Q.field is not A.field:",
        (COSETS + "::test_field_and_flavor_gates_run_on_a_warm_kernel",),
    ),
    Mutant(
        "ideal-hash-memo-pickled",
        "src/fqidtest/algebra.py",
        '        state.pop("_hash", None)',
        '        state.get("_hash", None)',
        (COSETS + "::test_pickling_drops_every_memo",),
    ),
    Mutant(
        "ideal-hash-without-field",
        "src/fqidtest/algebra.py",
        "            h = hash((self.field, self.ambient_dim, self.basis, self.pivots))",
        "            h = hash((self.ambient_dim, self.basis, self.pivots))",
        (COSETS + "::test_ideal_hash_memo_is_safe",),
    ),
    # bit-sliced counts over characteristic 2
    Mutant(
        "lanes-commutator-read-as-ab",
        "src/fqidtest/lanes.py",
        "lanes = m[a][b] ^ m[b][a] if commutator else m[a][b]",
        "lanes = m[a][b]",
        (LANES + "::test_lanes_match_points_on_every_dimension_two_table",),
    ),
    Mutant(
        "lanes-and-across-coordinates",
        "src/fqidtest/lanes.py",
        "zeros += size - reduce(or_, acc, 0).bit_count()",
        "zeros += size - reduce(int.__and__, acc, full).bit_count()",
        (LANES + "::test_lanes_match_points_on_every_dimension_two_table",),
    ),
    Mutant(
        "lanes-last-block-dropped",
        "src/fqidtest/lanes.py",
        "    blocks = 1 << (total - bits)",
        "    blocks = max(1, (1 << (total - bits)) - 1)",
        (LANES + "::test_every_block_split_gives_the_count",),
    ),
    Mutant(
        "lanes-coefficient-map-identity",
        "src/fqidtest/lanes.py",
        "                    v = f.mul(c, 1 << i)",
        "                    v = 1 << i",
        (LANES + "::test_lanes_match_points_with_coefficients_over_gf4_and_gf8",),
    ),
    Mutant(
        "lanes-constants-not-expanded",
        "src/fqidtest/lanes.py",
        "v = f.mul(f.mul(1 << i, 1 << j), c) if k > 1 else c",
        "v = c",
        (LANES + "::test_lanes_match_points_with_coefficients_over_gf4_and_gf8",),
    ),
    Mutant(
        "lanes-cost-commutator-ignored",
        "src/fqidtest/lanes.py",
        "                        c ^= table[r][s][t]",
        "                        c ^= 0",
        (LANES + "::test_cost_is_the_constants_of_the_lane_tables",),
    ),
    Mutant(
        "lanes-node-never-dropped",
        "src/fqidtest/lanes.py",
        "                values[node] = None\n        acc",
        "                pass\n        acc",
        (LANES + "::test_a_block_keeps_only_the_nodes_still_to_be_read",),
    ),
    Mutant(
        "lanes-floor-strict",
        "src/fqidtest/idtest.py",
        "points >= lanes.MIN_POINTS",
        "points > lanes.MIN_POINTS",
        (LANES + "::test_route_takes_lanes_from_the_crossover_on",),
    ),
    Mutant(
        "lanes-crossover-strict",
        "src/fqidtest/idtest.py",
        "points >= lanes.RATIO *",
        "points > lanes.RATIO *",
        (LANES + "::test_route_takes_lanes_from_the_crossover_on",),
    ),
    # the exhaustive scan's one-hot tables
    Mutant(
        "scan-high-part-not-negated",
        "src/fqidtest/bound.py",
        "list(map(neg, basis[:cut])) if neg else basis[:cut]",
        "basis[:cut]",
        (BOUND + "::test_scan_matches_the_reference_on_every_split",),
    ),
    Mutant(
        "scan-last-minimizer",
        "src/fqidtest/bound.py",
        "        if top > most:",
        "        if top >= most:",
        (BOUND + "::test_reported_witness_is_first_minimizer",),
    ),
    Mutant(
        "scan-floor-limit-one-off",
        "src/fqidtest/bound.py",
        "    limit = points + (-floor_num * points) // floor_den",
        "    limit = points + (-floor_num * points) // floor_den + 1",
        (BOUND + "::test_scan_finds_the_reference_violations",),
    ),
    Mutant(
        "scan-digit-order-reversed",
        "src/fqidtest/bound.py",
        "        for i in reversed(range(field.k))",
        "        for i in range(field.k)",
        (BOUND + "::test_scan_matches_the_reference_on_every_split",),
    ),
    Mutant(
        "scan-table-budget-ignored",
        "src/fqidtest/bound.py",
        "    while low and p**low * q * points > TABLE_BITS:",
        "    while False:",
        (BOUND + "::test_scan_memory_stays_within_the_table_budget",),
    ),
)


def _pytest(src: Path, tests):
    """Run the tests against the package under src; True if all passed,
    False if one failed, None on timeout."""
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def _copy(mutant=None) -> tempfile.TemporaryDirectory:
    """A temporary copy of src/, with the mutant applied when given."""
    tmp = tempfile.TemporaryDirectory(prefix="mutant-")
    shutil.copytree(ROOT / "src", Path(tmp.name) / "src")
    if mutant is not None:
        path = Path(tmp.name) / mutant.path
        text = path.read_text()
        path.write_text(text.replace(mutant.old, mutant.new, 1))
    return tmp


def occurrences(mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.old)


def run(mutant) -> dict:
    if occurrences(mutant) != 1:
        return {"id": mutant.id, "status": "stale"}
    with _copy(mutant) as tmp:
        passed = _pytest(Path(tmp) / "src", mutant.tests)
    status = "survived" if passed else "killed"
    return {"id": mutant.id, "status": status, "timeout": passed is None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="ID", help="run this mutant alone")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.id)]
    if not chosen:
        parser.error(f"no mutant {args.only!r}")
    tests = sorted({t for m in chosen for t in m.tests})
    with _copy() as tmp:
        if not _pytest(Path(tmp) / "src", tests):
            print(json.dumps({"baseline": "failed", "tests": tests}))
            return 2
    failed = False
    for mutant in chosen:
        result = run(mutant)
        print(json.dumps(result), flush=True)
        failed |= result["status"] != "killed"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
