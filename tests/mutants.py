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
KERNEL_CALLS = COSETS + "::test_zero_ideal_descent_makes_one_kernel_call_per_stage"
ZERO_ON_LANES = COSETS + "::test_zero_ideal_on_lanes_matches_the_kernel_walk_and_the_reference"
BOUND = "tests/test_bound.py"
LANES = "tests/test_lanes.py"
SAMPLER = "tests/test_idtest.py"
SAMPLED = "tests/test_kernel.py::test_sampled_mode_matches_the_recount_at_block_edges"
FEED_EDGES = SAMPLER + "::test_digit_lanes_at_the_edge_values"
FEED_DRAWS = SAMPLER + "::test_digits_are_the_scalar_draws_mod_q"
COORDS = "tests/test_coordinates.py"
SLICES = "tests/test_kernel.py::test_slices_match_points_on_random_tables"
ZERO_FLAGS = LANES + "::test_zero_flags_match_the_kernel_on_every_dimension_two_table"
ROUTE = LANES + "::test_route_takes_lanes_from_the_floor_on"
GF3_ROUTE = LANES + "::test_gf3_route_takes_lanes_from_the_floor_on"
DENSE = LANES + "::test_counts_on_dense_tables_match_the_point_walk"
GF3_LIBRARY = LANES + "::test_gf3_lanes_match_points_on_the_library"
GF3_RANDOM = LANES + "::test_gf3_lanes_match_points_on_random_tables"
SAMPLED_LANES = LANES + "::test_sampled_lanes_match_the_kernel_at_block_edges"

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
        "points >= bound.FORK_POINTS",
        "points > bound.FORK_POINTS",
        ("tests/test_kernel.py::test_counts_fork_once_the_points_walked_reach_fork_points",),
    ),
    # a serial count is one walker call; counts that fork still chunk
    Mutant(
        "serial-shortcut-taken-at-fork-points",
        "src/fqidtest/idtest.py",
        "    if workers > 1 and points >= bound.FORK_POINTS:",
        "    if False and workers > 1 and points >= bound.FORK_POINTS:",
        (
            "tests/test_kernel.py::test_a_serial_count_is_one_walker_call_on_the_whole_range",
            "tests/test_kernel.py::test_counts_fork_once_the_points_walked_reach_fork_points",
        ),
    ),
    Mutant(
        "fraction-cache-keyed-by-zero-count",
        "src/fqidtest/idtest.py",
        "def _fraction(zero_count: int, total: int) -> Fraction:\n    return Fraction(zero_count, total)",
        "def _fraction(zero_count: int, total: int, _by_zeros={}) -> Fraction:\n"
        "    return _by_zeros.setdefault(zero_count, Fraction(zero_count, total))",
        (
            SAMPLER + "::test_lean_path_matches_the_references_on_every_dimension_two_table",
            SAMPLER + "::test_reports_are_the_constructors_reports",
        ),
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
    # the exact-count walker and its slice memo
    Mutant(
        "slice-zeros-offset-dropped",
        "src/fqidtest/idtest.py",
        "vec(add[r * order + minus_c] if c else r)",
        "vec(r)",
        (SLICES,),
    ),
    Mutant(
        "slice-rank-exponent-off-by-one",
        "src/fqidtest/idtest.py",
        "return f.q ** (dim - len(rows))",
        "return f.q ** (dim + 1 - len(rows))",
        (SLICES,),
    ),
    Mutant(
        "slice-membership-skipped",
        "src/fqidtest/idtest.py",
        "if any(reduce_against(f, rows, pivots, vec(c))):",
        "if False:",
        (SLICES,),
    ),
    Mutant(
        "walker-probe-slot-not-moved",
        "src/fqidtest/idtest.py",
        "    if j != n - 1:",
        "    if False:",
        (SLICES,),
    ),
    Mutant(
        "walker-chunk-range-ignored",
        "src/fqidtest/idtest.py",
        "walked[0] = range(start, stop)",
        "walked[0] = range(order)",
        ("tests/test_kernel.py::test_chunks_and_workers_give_the_serial_count",),
    ),
    # coset search and descent over the zero ideal, and their memos and gates
    Mutant(
        "zero-ideal-witness-not-trivial",
        "src/fqidtest/idtest.py",
        "repeat(codim), repeat(True),\n",
        "repeat(codim), repeat(False),\n",
        (COSETS + "::test_zero_ideal_route_on_the_library_pairs",),
    ),
    Mutant(
        "zero-ideal-witnesses-nonzeros",
        "src/fqidtest/idtest.py",
        "map(not_, map(e, product(range(order), repeat=n)))",
        "map(e, product(range(order), repeat=n))",
        (ZERO_ON_LANES,),
    ),
    Mutant(
        "zero-ideal-listing-by-bool",
        "src/fqidtest/idtest.py",
        "map(not_, map(e, product(range(order), repeat=n)))",
        "map(bool, map(e, product(range(order), repeat=n)))",
        (ZERO_ON_LANES,),
    ),
    Mutant(
        "zero-ideal-lanes-route-unused",
        "src/fqidtest/idtest.py",
        'if _count_route(Q, A, order**n)[0] == "lanes":',
        'if _count_route(Q, A, order**n)[0] == "never":',
        (COSETS + "::test_a_lanes_zero_ideal_makes_no_kernel_call",),
    ),
    Mutant(
        "representative-filter-all",
        "src/fqidtest/idtest.py",
        "map(not_, map(any, map(at_pivots, elements)))",
        "map(not_, map(all, map(at_pivots, elements)))",
        (COSETS + "::test_representatives_are_the_algebras_shared_element_tuples",),
    ),
    Mutant(
        "verified-ideals-shared-between-entries",
        "src/fqidtest/idtest.py",
        "tables.product(commutator, prod)), set())",
        "tables.product(commutator, prod)), next(iter(tables.kernels.values()), (0, set()))[1])",
        (COSETS + "::test_verification_is_kept_per_polynomial",),
    ),
    Mutant(
        "witness-slot-setters-swapped",
        "src/fqidtest/idtest.py",
        "_set_ideal, _set_representatives, _set_codim, _set_trivial = (",
        "_set_ideal, _set_representatives, _set_trivial, _set_codim = (",
        (COSETS + "::test_zero_ideal_route_on_the_library_pairs",),
    ),
    Mutant(
        "zero-ideal-coset-check-skipped",
        "src/fqidtest/idtest.py",
        "        points = [rep_ids]\n",
        "        points = [[0] * n]\n",
        (COSETS + "::test_refusals_are_unchanged_cold_and_warm",),
    ),
    Mutant(
        "zero-ideal-stage-misplaced",
        "src/fqidtest/idtest.py",
        "            points.append([0] * s + rep_ids[s:])",
        "            points.append(rep_ids[:s] + [0] * (n - s))",
        (COSETS + "::test_zero_ideal_stage_failure_is_the_reference_failure",),
    ),
    Mutant(
        "zero-ideal-stage-dropped",
        "src/fqidtest/idtest.py",
        "        for s in range(1, last + 1):",
        "        for s in range(1, last):",
        (KERNEL_CALLS,),
    ),
    Mutant(
        "kernel-key-without-commutator",
        "src/fqidtest/idtest.py",
        "    key = (Q, commutator)",
        "    key = (Q, False)",
        (COSETS + "::test_a_warm_kernel_still_refuses_other_readings_and_fields",),
    ),
    Mutant(
        "representative-range-unchecked",
        "src/fqidtest/idtest.py",
        "            if not (isinstance(c, int) and 0 <= c < q):",
        "            if not isinstance(c, int):",
        (COSETS + "::test_malformed_representative_is_an_invalid_witness",),
    ),
    Mutant(
        "checked-representative-by-equality",
        "src/fqidtest/idtest.py",
        "            seen = kept is r\n",
        "            seen = True\n",
        (
            COSETS + "::test_representatives_are_refused_as_the_reference_refuses",
            COSETS + "::test_malformed_representative_is_an_invalid_witness",
        ),
    ),
    Mutant(
        "field-gate-identity-only",
        "src/fqidtest/idtest.py",
        "    if not (Q.field is A.field or Q.field == A.field):",
        "    if Q.field is not A.field:",
        (COSETS + "::test_field_and_flavor_gates_run_on_a_warm_kernel",),
    ),
    Mutant(
        "walk-ideals-memo-before-end",
        "src/fqidtest/algebra.py",
        "    found = []\n    for r in range(d + 1):",
        "    found = A._memo[_walk_ideals] = []\n    for r in range(d + 1):",
        (COSETS + "::test_enumerate_ideals_memo_keeps_the_cap_and_hands_out_copies",),
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
    # bit-plane counts over GF(2^k) and GF(3)
    Mutant(
        "lanes-commutator-read-as-ab",
        "src/fqidtest/lanes.py",
        "outs = arith.outs(arith.sub(m[a][b], m[b][a]) if commutator else m[a][b])",
        "outs = arith.outs(m[a][b])",
        (LANES + "::test_lanes_match_points_on_every_dimension_two_table",),
    ),
    Mutant(
        "lanes-and-across-coordinates",
        "src/fqidtest/lanes.py",
        "return reduce(or_, acc or (), 0)\n",
        "return reduce(int.__and__, acc or (), -1)\n",
        (LANES + "::test_lanes_match_points_on_every_dimension_two_table",),
    ),
    Mutant(
        "lanes-last-block-dropped",
        "src/fqidtest/lanes.py",
        "digits, p ** (total - digits)\n",
        "digits, max(1, p ** (total - digits) - 1)\n",
        (LANES + "::test_every_block_split_gives_the_count",),
    ),
    Mutant(
        "zero-flags-inverted",
        "src/fqidtest/lanes.py",
        '_FLAGS = bytes.maketrans(b"01", b"\\x01\\x00")',
        '_FLAGS = bytes.maketrans(b"01", b"\\x00\\x01")',
        (ZERO_FLAGS,),
    ),
    Mutant(
        "zero-flags-unpadded",
        "src/fqidtest/lanes.py",
        'format(mask, "b").zfill(size)[::-1]',
        'format(mask, "b")[::-1]',
        (ZERO_FLAGS,),
    ),
    Mutant(
        "zero-flags-bit-order-kept",
        "src/fqidtest/lanes.py",
        ".zfill(size)[::-1].encode()",
        ".zfill(size).encode()",
        (ZERO_FLAGS,),
    ),
    Mutant(
        "zero-flags-blocks-reversed",
        "src/fqidtest/lanes.py",
        "for mask in _block_masks(Q, A, commutator, digits, 0, blocks)",
        "for mask in [*_block_masks(Q, A, commutator, digits, 0, blocks)][::-1]",
        (LANES + "::test_counts_and_flags_of_several_blocks",),
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
        "lanes-rows-commutator-ignored",
        "src/fqidtest/lanes.py",
        "arith.sub(m[a][b], m[b][a]) if commutator",
        "m[a][b] if commutator",
        (DENSE,),
    ),
    Mutant(
        "lanes-node-never-dropped",
        "src/fqidtest/lanes.py",
        "            values[node] = None\n    acc = None",
        "            pass\n    acc = None",
        (LANES + "::test_a_block_keeps_only_the_nodes_still_to_be_read",),
    ),
    Mutant(
        "lanes-floor-strict",
        "src/fqidtest/idtest.py",
        "points >= LANES_MIN_POINTS",
        "points > LANES_MIN_POINTS",
        (ROUTE,),
    ),
    Mutant(
        "lanes-floor-strict-gf3",
        "src/fqidtest/idtest.py",
        "points >= LANES_MIN_POINTS",
        "points > LANES_MIN_POINTS",
        (GF3_ROUTE,),
    ),
    Mutant(
        "gate-drops-gf3",
        "src/fqidtest/idtest.py",
        "A.field.p == 2 or A.field.q == 3",
        "A.field.p == 2",
        (GF3_ROUTE,),
    ),
    Mutant(
        "gf3-sum-drops-m1m2",
        "src/fqidtest/lanes.py",
        "out += ((x ^ p) & ~(y | m) | y & m, ",
        "out += ((x ^ p) & ~(y | m), ",
        (GF3_LIBRARY, GF3_RANDOM),
    ),
    Mutant(
        "gf3-product-sum-drops-m1m2",
        "src/fqidtest/lanes.py",
        "out[i] = (x ^ P) & ~(y | M) | y & M",
        "out[i] = (x ^ P) & ~(y | M)",
        (GF3_LIBRARY, GF3_RANDOM),
    ),
    Mutant(
        "gf3-scale-by-two-not-swapped",
        "src/fqidtest/lanes.py",
        "tuple(t ^ 1 for t in range(2 * self.width))",
        "tuple(t for t in range(2 * self.width))",
        (GF3_LIBRARY, GF3_RANDOM, LANES + "::test_gf3_coefficient_two_is_a_plane_permutation"),
    ),
    Mutant(
        "gf3-commutator-read-as-sum",
        "src/fqidtest/lanes.py",
        "return tuple(_add3(c, (d[1], d[0])))",
        "return tuple(_add3(c, d))",
        (GF3_LIBRARY, GF3_RANDOM),
    ),
    Mutant(
        "lanes-mask-period-one-digit-short",
        "src/fqidtest/lanes.py",
        "        period = run * p\n",
        "        period = run\n",
        (LANES + "::test_lane_masks_are_the_bits_of_the_point_index", GF3_LIBRARY),
    ),
    Mutant(
        "sampled-digit-read-from-its-first-byte",
        "src/fqidtest/lanes.py",
        "(dim - 1 - b // k, b % k // 8, ",
        "(dim - 1 - b // k, 0, ",
        (LANES + "::test_sampled_lanes_read_digits_past_one_byte",),
    ),
    Mutant(
        "sampled-column-stride-off-by-one",
        "src/fqidtest/lanes.py",
        "column = buffer[(a * dim + s) * draw + byte :: stride]",
        "column = buffer[(a * dim + s) * draw + byte :: stride + 1]",
        (LANES + "::test_sampled_lanes_match_the_kernel_at_block_edges",),
    ),
    # the coordinate route's plan and its products
    # the GF(2) coordinate builds: one-monomial products and inline degrees
    Mutant(
        "coords-singleton-product-xor",
        "src/fqidtest/commpoly.py",
        "terms = {a | b}",
        "terms = {a ^ b}",
        (COORDS + "::test_route_on_every_dimension_two_table",),
    ),
    Mutant(
        "coords-gf2-degree-by-len",
        "src/fqidtest/commpoly.py",
        "max(map(int.bit_count, c))",
        "len(c)",
        (COORDS + "::test_route_on_every_dimension_two_table",),
    ),
    # the packed builds' fast paths: the one-variable parity, the popcount
    # degree and the cached generic arguments
    Mutant(
        "coords-one-variable-partner-flipped",
        "src/fqidtest/commpoly.py",
        "terms = {a | b for a in x if a ^ b not in x}",
        "terms = {a | b for a in x if a ^ b in x}",
        (
            COORDS + "::test_one_variable_products_keep_the_odd_parity",
            COORDS + "::test_one_variable_products_on_colliding_monomials",
        ),
    ),
    Mutant(
        # bit 1 of a lane, of weight 2, counted with weight 1
        "coords-popcount-weight-two-read-as-one",
        "src/fqidtest/commpoly.py",
        "total += (m & mask).bit_count() << b",
        "total += (m & mask).bit_count() << (b >> 1)",
        (COORDS + "::test_popcount_degree_is_the_greatest_lane_sum", COORDS + "::test_route_on_explicit_plans"),
    ),
    Mutant(
        "coords-cached-argument-not-copied",
        "src/fqidtest/commpoly.py",
        "coords = list(map(ring.zero, values[node])) if node < Q.n else list(values[node])",
        "coords = list(values[node])",
        (COORDS + "::test_cached_arguments_are_unchanged_by_the_builds",),
    ),
    # the prime-field point counter sums plain ints
    Mutant(
        "point-counter-mod-p-skipped",
        "src/fqidtest/commpoly.py",
        "                if value % p:",
        "                if value:",
        (
            COORDS + "::test_point_counter_matches_the_field_call_reference",
            COORDS + "::test_point_counter_reduces_sums_past_p",
        ),
    ),
    # the GF(3) counter on bit planes
    Mutant(
        "gf3-even-power-read-as-odd",
        "src/fqidtest/commpoly.py",
        "                if e & 1:  # x^e = x",
        "                if e:  # x^e = x",
        (
            COORDS + "::test_point_counter_matches_the_field_call_reference",
            COORDS + "::test_gf3_planes_on_edge_cases",
        ),
    ),
    Mutant(
        "gf3-coefficient-two-not-swapped",
        "src/fqidtest/commpoly.py",
        "            if c == 2:\n                p, m = m, p\n",
        "",
        (
            COORDS + "::test_point_counter_matches_the_field_call_reference",
            COORDS + "::test_gf3_planes_on_edge_cases",
        ),
    ),
    Mutant(
        "gf3-sum-twos-plane-unswapped",
        "src/fqidtest/commpoly.py",
        "(vm ^ m) & ~(vp | p) | vp & p",
        "(vp ^ p) & ~(vm | m) | vm & m",
        (
            COORDS + "::test_point_counter_matches_the_field_call_reference",
            COORDS + "::test_gf3_planes_on_edge_cases",
        ),
    ),
    Mutant(
        "gf3-twos-run-at-ones-offset",
        "src/fqidtest/commpoly.py",
        "tuple(ones << d * run for d in range(q - 1))",
        "tuple(ones for d in range(q - 1))",
        (
            COORDS + "::test_point_counter_matches_the_field_call_reference",
            COORDS + "::test_gf3_planes_on_edge_cases",
        ),
    ),
    Mutant(
        "coords-disjoint-flag-forced",
        "src/fqidtest/commpoly.py",
        "steps.append((left, right, not args[left] & args[right]))",
        "steps.append((left, right, True))",
        (COORDS + "::test_route_on_explicit_plans",),
    ),
    Mutant(
        "coords-chain-key-drops-last-letter",
        "src/fqidtest/commpoly.py",
        "            prefix = word[:end]",
        "            prefix = word[:end - 1]",
        (COORDS + "::test_route_on_explicit_plans",),
    ),
    Mutant(
        "coords-commutator-reverse-dropped",
        "src/fqidtest/commpoly.py",
        "            combine(out, mul(v, u, disjoint), minus_one)\n",
        "",
        (COORDS + "::test_route_on_explicit_plans",),
    ),
    Mutant(
        "coords-first-coefficient-ignored",
        "src/fqidtest/commpoly.py",
        "    if terms and terms[0][1] == 1:",
        "    if terms:",
        (COORDS + "::test_route_on_explicit_plans",),
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
        "scan-constant-high-part-shifted-one-more",
        "src/fqidtest/bound.py",
        "against = lambda x: (ones << x).__and__",
        "against = lambda x: (ones << x + 1).__and__",
        (BOUND + "::test_scan_matches_the_reference_on_every_split",),
    ),
    Mutant(
        "scan-table-budget-ignored",
        "src/fqidtest/bound.py",
        "    while low and p**low * q * points > TABLE_BITS:",
        "    while False:",
        (BOUND + "::test_scan_memory_stays_within_the_table_budget",),
    ),
    # the sampler's packed blocks: lane mod q, Horner digits, the state
    Mutant(
        "sampler-barrett-plus-one-dropped",
        "src/fqidtest/idtest.py",
        "(1 << shift) // q + 1",
        "(1 << shift) // q",
        (SAMPLER + "::test_lane_mod_at_the_edge_values", SAMPLED),
    ),
    Mutant(
        "sampler-fold-by-one",
        "src/fqidtest/idtest.py",
        "return pow(2, 32, q), ",
        "return 1, ",
        (SAMPLER + "::test_lane_mod_at_the_edge_values",),
    ),
    Mutant(
        "sampler-horner-digits-reversed",
        "src/fqidtest/idtest.py",
        "for j in range(first, last):",
        "for j in reversed(range(first, last)):",
        (SAMPLER + "::test_packed_indices_match_the_scalar_loop", SAMPLED),
    ),
    Mutant(
        "sampler-state-not-carried",
        "src/fqidtest/idtest.py",
        "state = self.state = (state + draws * _GAMMA) & _MASK64",
        "self.state = (state + draws * _GAMMA) & _MASK64",
        (SAMPLER + "::test_splitmix64_indices_are_repeated_below_draws", SAMPLED),
    ),
    Mutant(
        "sampler-advance-one-draw-short",
        "src/fqidtest/idtest.py",
        "advance = (draws * _GAMMA & _MASK64) * R",
        "advance = ((draws - 1) * _GAMMA & _MASK64) * R",
        (SAMPLER + "::test_digits_are_the_scalar_draws_mod_q",),
    ),
    Mutant(
        "sampler-fold-by-one-drops-high-word",
        "src/fqidtest/idtest.py",
        "        y += z >> 32 & low32\n",
        "        y += 0\n",
        (SAMPLER + "::test_lane_mod_at_the_edge_values", SAMPLER + "::test_digits_are_the_scalar_draws_mod_q"),
    ),
    Mutant(
        "sampler-group-weight-full",
        "src/fqidtest/idtest.py",
        "repeat(q ** (last - first))",
        "repeat(q ** group)",
        (SAMPLER + "::test_packed_indices_match_the_scalar_loop_over_several_digit_groups",),
    ),
    Mutant(
        "sampler-group-past-64-bits",
        "src/fqidtest/idtest.py",
        "while q ** (group + 1) <= 1 << 64:",
        "while q ** (group + 1) <= 1 << 65:",
        (SAMPLER + "::test_packed_indices_match_the_scalar_loop_over_several_digit_groups",),
    ),
    # the lanes feed: GF(3) digits off a fixed-point third, GF(2^k) off the raw low bits
    Mutant(
        "feed-third-rounded-down",
        "src/fqidtest/idtest.py",
        "_THIRD = ((1 << 72) + 2) // 3",
        "_THIRD = (1 << 72) // 3",
        (FEED_EDGES, FEED_DRAWS, SAMPLED_LANES),
    ),
    Mutant(
        "feed-third-64-bit-mask-dropped",
        "src/fqidtest/idtest.py",
        "return (z & ones) * _THIRD",
        "return z * _THIRD",
        (FEED_EDGES, FEED_DRAWS, SAMPLED_LANES),
    ),
    Mutant(
        "feed-third-top-lane-mask-dropped",
        "src/fqidtest/idtest.py",
        " * _THIRD & low72",
        " * _THIRD",
        (FEED_EDGES, FEED_DRAWS, SAMPLED_LANES),
    ),
    Mutant(
        "feed-third-byte-7",
        "src/fqidtest/idtest.py",
        "return (8, _THIRDS)",
        "return (7, _THIRDS)",
        (FEED_EDGES, FEED_DRAWS, SAMPLED_LANES),
    ),
    Mutant(
        # byte 86 reads digit 1 only after the most carry from the lane below
        "feed-third-one-below-86",
        "src/fqidtest/idtest.py",
        "1 if v < 128 else 2",
        "1 if v < 86 else 2",
        (FEED_EDGES,),
    ),
    Mutant(
        "feed-raw-from-bit-1",
        "src/fqidtest/idtest.py",
        "        return z\n",
        "        return z >> 1\n",
        (FEED_EDGES, FEED_DRAWS, SAMPLED_LANES),
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
