"""Command-line interface: exit codes, payload shapes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqidtest import algebra, bound, cli, idtest
from fqidtest.algebra import (
    BUILDERS,
    STRUCTURE_CAP,
    builtin,
    field_as_algebra,
    from_json_dict,
    save_algebra,
    to_json_dict,
    truncated,
)
from fqidtest.errors import TheoremViolation
from fqidtest.freepoly import MAX_DEPTH, Flavor, parse
from fqidtest.gf import field_of_order


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# the library

def test_library_names_unique():
    names = [A.name for A in cli.library()]
    assert len(names) == len(set(names))
    assert "field(2)" in names
    assert "matrix(2,2)" in names


def test_descent_library_drops_the_large_lie_algebra():
    names = [A.name for A in cli.descent_library()]
    assert "strictly_upper_triangular_lie(4,2)" not in names
    assert len(names) == len(cli.library()) - 1


def test_battery_flavor_follows_the_algebra():
    plain = cli.battery_for(field_as_algebra(2))
    assert all(Q.flavor is Flavor.FREE for Q in plain)
    from fqidtest.algebra import heisenberg

    lie = cli.battery_for(heisenberg(2))
    assert all(Q.flavor is Flavor.LIE for Q in lie)
    assert len(plain) == len(cli.BATTERY_TEXTS)


def test_two_path_pairs_respect_the_limit():
    for Q, A in cli.two_path_pairs(1 << 16):
        assert A.order() ** Q.n <= 1 << 16
    assert len(cli.two_path_pairs(1)) == 0


# ---------------------------------------------------------------------------
# exit codes

def test_bound_prints_exact_rational(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--q", "3", "--d", "3")
    assert rc == 0
    assert out == '"2/9"\n'


def test_bound_refuses_a_floor_too_large_to_print(capsys):
    # 3^10001 has 4,772 digits, past Python's int-to-str limit: this was a
    # traceback from the encoder, and degree 10^8 ran for seconds
    for d, m in (("20000", 10001), ("100000000", 50000001)):
        rc, out, err = run_cli(capsys, "bound", "--q", "3", "--d", d)
        assert (rc, out) == (2, ""), d
        assert err == (
            f"error: degree {d} over order 3: the floor's denominator 3^{m} "
            "exceeds 8192 bits\n"
        )
    # the largest degrees that pass still print
    rc, out, _ = run_cli(capsys, "bound", "--q", "2", "--d", "8191")
    assert (rc, out) == (0, f'"1/{2**8191}"\n')  # 2/2^8192
    rc, out, _ = run_cli(capsys, "bound", "--q", "3", "--d", "8191")
    assert (rc, out) == (0, f'"2/{3**4096}"\n')


def test_dixon_payload_fields(capsys):
    rc, out, _ = run_cli(
        capsys, "dixon",
        "--algebra", "builtin:field(2)", "--poly", "x1*x1", "--flavor", "assoc",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["probability"] == "1/2"
    assert doc["threshold"] == "3/4"
    assert doc["is_identity"] is False
    assert doc["verdict_consistent"] is True
    assert doc["functional_floor"] == "1/2"
    assert doc["mode"] == "exact"


def test_samples_without_seed_is_a_usage_error(capsys):
    rc, out, err = run_cli(
        capsys, "probability",
        "--algebra", "builtin:field(2)", "--poly", "x1*x1",
        "--samples", "1000",
    )
    assert rc == 2
    assert out == ""
    assert "seed" in err


def test_unknown_builtin_is_a_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "check-identity",
        "--algebra", "builtin:nosuch(2)", "--poly", "x1*x1",
    )
    assert rc == 2
    assert "nosuch" in err


def test_bad_polynomial_is_a_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "check-identity",
        "--algebra", "builtin:field(2)", "--poly", "x1 +",
    )
    assert rc == 2
    assert err


def test_missing_algebra_file_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys, "check-identity",
        "--algebra", str(tmp_path / "nope.json"), "--poly", "x1*x1",
    )
    assert rc == 2
    assert err


def test_theorem_violation_exits_one_with_witness(capsys, monkeypatch):
    def boom(*a, **k):
        raise TheoremViolation("forced breach", witness={"poly": "x1*x1"})

    monkeypatch.setattr(cli, "dixon_verdict", boom)
    rc, out, _ = run_cli(
        capsys, "dixon", "--algebra", "builtin:field(2)", "--poly", "x1*x1"
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["theorem_violation"] == "forced breach"
    assert doc["witness"] == {"poly": "x1*x1"}


def test_exhaustive_violation_exits_one_with_a_replayable_witness(capsys, monkeypatch):
    # a floor of 1 puts every polynomial with a zero under it; the witness
    # names the scan and its first offending candidate, whose polynomial
    # the scan order rebuilds
    one = lambda q, d: bound.FloorDecomposition(q, d, 0, 0, Fraction(1))
    monkeypatch.setattr(bound, "floor_fraction", one)
    rc, out, _ = run_cli(capsys, "bound", "--q", "2", "--d", "2", "--exhaustive", "2")
    assert rc == 1
    doc = json.loads(out)
    witness = doc["witness"]
    assert witness == {"check": "bound", "q": 2, "n": 2, "d": 2, "candidate": 1, "poly": "x1*x2"}
    assert doc["theorem_violation"] == "polynomial x1*x2 takes nonzero values below the floor 1 of degree 2 over order 2"
    monomials = bound._monomials_for(2, 2, 2)
    replayed = bound._poly_at(witness["candidate"], field_of_order(2), monomials, 2)
    assert replayed.to_text() == witness["poly"]
    monkeypatch.undo()
    rc, out, _ = run_cli(capsys, "bound", "--q", "2", "--d", "2", "--exhaustive", "2")
    assert rc == 0


def all_zero_degrees(Q, A, commutator=False):
    """A coordinate route that finds every coordinate zero."""
    return [None] * A.dim


@pytest.mark.parametrize(
    "spec, flavor, text, commutator, route",
    [
        ("heisenberg(3)", "lie", "[x1,x2] + [[x1,x2],x2]", False, "slice"),
        ("heisenberg(3)", "lie", "[x1,x2] + [[x1,x2],x2]", False, "lanes"),
        ("matrix(2,3)", "lie", "[x1,x2]", True, "lanes"),
        ("matrix(2,2)", "lie", "[x1,x2]", True, "slice"),
        ("truncated(2,3)", "free", "x1*x1 + x1*x1*x1", False, "points"),
        ("matrix(2,2)", "free", "x1*x2*x3 - x3*x2*x1", False, "lanes"),
        ("matrix(2,4)", "lie", "[x1,x2]", True, "lanes"),
    ],
)
def test_dixon_witness_replays_through_the_cli(
    capsys, monkeypatch, tmp_path, spec, flavor, text, commutator, route
):
    A = builtin(spec)
    Q = parse(text, Flavor(flavor), A.field)
    A = from_json_dict(to_json_dict(A))  # unnamed, as the sweep's tables are
    if route != "lanes":
        # GF(2^k) and GF(3) count these on lanes; the witness of a count on
        # the point or slice route replays on whichever route the CLI takes
        monkeypatch.setattr(idtest, "LANES_MIN_POINTS", 1 << 64)
    # forced disagreement: the coordinate route claims e_Q is an identity
    monkeypatch.setattr(idtest, "reduced_degrees", all_zero_degrees)
    with pytest.raises(TheoremViolation) as info:
        idtest.dixon_verdict(Q, A, commutator=commutator)
    monkeypatch.undo()
    witness = info.value.witness
    assert witness["route"] == route
    assert (witness["flavor"], witness["commutator"]) == (flavor, commutator)
    path = tmp_path / "witness_algebra.json"
    path.write_text(json.dumps(cli._jsonable(witness)["algebra"]))
    argv = ["dixon", "--algebra", str(path), "--poly", witness["poly"], "--flavor", witness["flavor"]]
    rc, out, _ = run_cli(capsys, *argv, *(["--commutator"] if witness["commutator"] else []))
    assert rc == 0
    doc = json.loads(out)
    assert (doc["zero_count"], doc["total"]) == (witness["zero_count"], witness["total"])
    assert witness["zero_count"] < witness["total"]


def test_dixon_witness_records_the_variable_count(monkeypatch):
    # x1*x1 built with n = 2 counts 16 points on truncated(2,3), but its text
    # names x1 only and re-parses with n = 1 (4 points); the witness's n
    # rebuilds the count
    T = truncated(2, 3)
    Q = parse("x1*x1", Flavor.FREE, T.field, n=2)
    monkeypatch.setattr(idtest, "reduced_degrees", all_zero_degrees)
    with pytest.raises(TheoremViolation) as info:
        idtest.dixon_verdict(Q, T)
    monkeypatch.undo()
    witness = json.loads(json.dumps(cli._jsonable(info.value.witness)))
    assert (witness["poly"], witness["n"], witness["total"]) == ("x1*x1", 2, 16)
    A = from_json_dict(witness["algebra"])
    assert idtest.zero_probability(parse(witness["poly"], Flavor.FREE, A.field), A).total == 4
    replay = idtest.zero_probability(parse(witness["poly"], Flavor.FREE, A.field, n=witness["n"]), A)
    assert (replay.zero_count, replay.total) == (witness["zero_count"], witness["total"])


def test_witness_sanitizer_handles_rich_values():
    from dataclasses import dataclass
    from fractions import Fraction

    from fqidtest.algebra import ideal_generated

    class Thing:
        def to_text(self):
            return "x1*x2"

    @dataclass(frozen=True)
    class Pair:
        second: Fraction
        first: tuple

    ideal = ideal_generated(truncated(2, 3), [(0, 1)])
    doc = cli._jsonable({
        "f": Fraction(1, 3), "p": Thing(), "t": (1, (2, 3)),
        "d": Pair(Fraction(2, 4), (None, True)), "i": ideal,
    })
    assert doc == {
        "f": "1/3", "p": "x1*x2", "t": [1, [2, 3]],
        "d": {"second": "1/2", "first": [None, True]},
        "i": {"basis": [[0, 1]], "rank": 1, "codim": 1},
    }
    assert list(doc["d"]) == ["second", "first"]  # declared order, not sorted


# ---------------------------------------------------------------------------
# payloads

def test_check_identity_on_an_identity(capsys):
    rc, out, _ = run_cli(
        capsys, "check-identity",
        "--algebra", "builtin:heisenberg(2)", "--poly", "[x1,x2,x3]",
        "--flavor", "lie",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["is_identity"] is True
    assert doc["probability"] == "1/1"


def test_probability_sampled_payload(capsys):
    rc, out, _ = run_cli(
        capsys, "probability",
        "--algebra", "builtin:heisenberg(2)", "--poly", "[x1,x2]",
        "--flavor", "lie", "--samples", "500", "--seed", "20260817",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "sampled"
    assert doc["zero_count"] == 304
    assert doc["samples"] == 500
    assert doc["seed"] == 20260817
    assert doc["is_identity"] is None
    assert doc["verdict_consistent"] is None


def test_cap_bounds_the_sample_count(capsys, monkeypatch):
    monkeypatch.delenv("FQIDTEST_CAP", raising=False)
    argv = (
        "probability", "--algebra", "builtin:heisenberg(3)", "--poly", "[x1,x2]",
        "--flavor", "lie", "--seed", "1",
    )
    # this ran until killed before the cap bounded sampled work
    rc, out, err = run_cli(capsys, *argv, "--samples", "1000000000")
    assert (rc, out) == (2, "")
    assert "search space of size 1000000000 exceeds cap 16777216" in err
    rc, _, err = run_cli(capsys, *argv, "--samples", "101", "--cap", "100")
    assert rc == 2 and "exceeds cap 100" in err
    rc, out, _ = run_cli(capsys, *argv, "--samples", "100", "--cap", "100")
    assert rc == 0 and json.loads(out)["total"] == 100


def test_commutator_flag(capsys):
    rc, out, _ = run_cli(
        capsys, "probability",
        "--algebra", "builtin:matrix(2,2)", "--poly", "[x1,x2]",
        "--flavor", "lie", "--commutator",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["total"] == 16 ** 2
    rc2, _, err = run_cli(
        capsys, "probability",
        "--algebra", "builtin:matrix(2,2)", "--poly", "[x1,x2]",
        "--flavor", "lie",
    )
    assert rc2 == 2  # lie polynomial needs a bracket table or --commutator
    assert err


def test_coset_search_payload(capsys):
    rc, out, _ = run_cli(
        capsys, "coset-search",
        "--algebra", "builtin:truncated(2,3)", "--poly", "x1*x2",
        "--max-codim", "1",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["nontrivial"] == 2
    assert doc["witnesses"][0]["ideal"]["basis"] == [[0, 1]]
    assert doc["witnesses"][0]["trivial"] is True


def test_descent_payload(capsys):
    rc, out, _ = run_cli(
        capsys, "descent",
        "--algebra", "builtin:upper_triangular(2,2)", "--poly", "x1*x2",
        "--max-codim", "2",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] > 0
    for item in doc["certificates"]:
        cert = item["certificate"]
        assert cert["identity_on_ideal"] is True
        assert [s["stage"] for s in cert["steps"]] == [1, 2]
        assert all(s["verified"] for s in cert["steps"])
    statements = {s["statement"] for i in doc["certificates"] for s in i["certificate"]["steps"]}
    assert "e_Q(y_1, a_2) = 0 for all (y_1) in I^1" in statements


def test_descent_of_a_non_multilinear_polynomial_is_a_usage_error(capsys):
    # with --max-codim 0 the search finds no witness, and this exited 0 with
    # an empty certificate list
    for extra in ((), ("--max-codim", "0")):
        rc, out, err = run_cli(
            capsys, "descent", "--algebra", "builtin:field(2)", "--poly", "x1*x1", *extra
        )
        assert (rc, out) == (2, ""), extra
        assert err == "error: descent needs a multilinear polynomial, got x1*x1\n"


def test_negative_max_codim_is_a_usage_error(capsys):
    for command in ("coset-search", "descent"):
        rc, out, err = run_cli(
            capsys, command,
            "--algebra", "builtin:truncated(2,3)", "--poly", "x1*x2",
            "--max-codim", "-1",
        )
        assert (rc, out, err) == (2, "", "error: max_codim must be >= 0, got -1\n"), command


def test_coset_search_refuses_over_cap_work_during_the_walk(capsys, monkeypatch):
    # truncated(4,7) has 565,723 subspaces; with order**1 = 4096 points per
    # ideal the search passes a 4096 cap at its second ideal, the rank-1
    # (x^6), which the walk reaches after 1 + 1,365 subspaces
    steps = []
    invariant = algebra._is_invariant

    def counting(*args):
        steps.append(None)
        return invariant(*args)

    monkeypatch.setattr(algebra, "_is_invariant", counting)
    argv = ("coset-search", "--algebra", "builtin:truncated(4,7)", "--poly", "x1", "--cap", "4096")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: search space of size 8192 exceeds cap 4096\n")
    assert len(steps) == 1366
    # the per-ideal refusal still comes before any walk step
    steps.clear()
    rc, _, err = run_cli(capsys, *argv[:-1], "4095")
    assert (rc, err, steps) == (2, "error: search space of size 4096 exceeds cap 4095\n", [])


def test_nagata_refuses_a_power_over_the_cap_before_building_it(capsys, monkeypatch):
    def no_word(*args):
        raise AssertionError("power_word was built")

    monkeypatch.setattr(idtest, "power_word", no_word)
    for d, cap, size in (("20000000", "4096", 500_000_000), ("1000000000", None, 25 * 10**9), ("5", "124", 125)):
        rc, out, err = run_cli(
            capsys, "nagata", "--algebra", "builtin:truncated(5,3)", "--d", d, *(["--cap", cap] if cap else [])
        )
        assert (rc, out) == (2, ""), d
        assert err == f"error: search space of size {size} exceeds cap {cap or 1 << 24}\n"
    monkeypatch.undo()
    # order * d at the cap still answers
    rc, out, _ = run_cli(capsys, "nagata", "--algebra", "builtin:truncated(5,3)", "--d", "5", "--cap", "125")
    assert rc == 0 and json.loads(out)["power_is_identity"] is True


def test_blocks_payload_and_ideal_specs(capsys):
    rc, out, _ = run_cli(
        capsys, "blocks",
        "--algebra", "builtin:truncated(2,4)", "--poly", "x1*x1",
        "--ideal-i", "0,1,0;0,0,1", "--ideal-j", "zero",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["f_outer"] == "1/1"
    assert doc["f_inner"] == "1/2"
    assert doc["decay_hypothesis"] is False
    assert doc["decay_holds"] is True
    assert len(doc["blocks"]) == 2

    rc, out, _ = run_cli(
        capsys, "blocks",
        "--algebra", "builtin:truncated(2,3)", "--poly", "x1*x1",
        "--ideal-i", "full", "--ideal-j", "zero",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["blocks"]) == 1  # the full ideal has a single coset


def test_blocks_not_nested_is_a_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "blocks",
        "--algebra", "builtin:truncated(2,3)", "--poly", "x1*x1",
        "--ideal-i", "zero", "--ideal-j", "full",
    )
    assert rc == 2
    assert err


def test_bad_ideal_spec_is_a_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "blocks",
        "--algebra", "builtin:truncated(2,3)", "--poly", "x1*x1",
        "--ideal-i", "0,banana", "--ideal-j", "zero",
    )
    assert rc == 2
    assert err
    # generators that are not coordinate vectors over GF(2): an entry
    # outside the field (once a traceback from Field.inv), a negative
    # entry, a wrong length
    for spec in ("0,5,0", "0,-1,0", "0,1"):
        rc, out, err = run_cli(
            capsys, "blocks",
            "--algebra", "builtin:truncated(2,4)", "--poly", "x1*x1",
            "--ideal-i", spec, "--ideal-j", "zero",
        )
        assert rc == 2 and not out, spec
        v = tuple(int(x) for x in spec.split(","))
        assert err == f"error: generator {v!r} is not a coordinate vector of length 3\n"


def test_engel_payload(capsys):
    rc, out, _ = run_cli(capsys, "engel", "--algebra", "builtin:heisenberg(2)", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["is_identity"] is True
    rc, out, _ = run_cli(capsys, "engel", "--algebra", "builtin:heisenberg(2)", "--m", "1")
    assert json.loads(out)["probability"] == "5/8"


def test_nesting_past_the_limit_is_a_usage_error(capsys):
    deep = "x1"
    for _ in range(350):
        deep = f"[{deep},x2]"
    for argv in (
        ("engel", "--algebra", "builtin:heisenberg(2)", "--m", "350"),
        ("engel", "--algebra", "builtin:heisenberg(2)", "--m", "1000"),
        ("dixon", "--algebra", "builtin:heisenberg(2)", "--flavor", "lie", "--poly", deep),
        ("dixon", "--algebra", "builtin:matrix(2,2)", "--poly", "*".join(["x1"] * 1200)),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, ""), argv[:4]
        assert f"at most {MAX_DEPTH} levels deep" in err
    rc, out, _ = run_cli(capsys, "engel", "--algebra", "builtin:heisenberg(2)", "--m", str(MAX_DEPTH))
    assert rc == 0 and json.loads(out)["degree"] == MAX_DEPTH + 1
    # a flat associative word does not nest
    rc, out, _ = run_cli(capsys, "nagata", "--algebra", "builtin:truncated(5,3)", "--d", "5000")
    assert rc == 0 and json.loads(out)["power_is_identity"] is True


def test_engel_requires_a_bracket_table(capsys):
    rc, _, err = run_cli(capsys, "engel", "--algebra", "builtin:matrix(2,2)", "--m", "1")
    assert rc == 2
    # this was the bare algebra name
    assert err == "error: the Engel word needs a bracket table, and matrix(2,2) has none\n"


def test_nagata_payload(capsys):
    rc, out, _ = run_cli(capsys, "nagata", "--algebra", "builtin:truncated(5,3)", "--d", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "d": 3,
        "char": 5,
        "power_is_identity": True,
        "applicable": True,
        "nilpotency_index": 3,
        "asserted": True,
    }


def test_bound_oracle_and_exhaustive(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--q", "2", "--d", "3", "--oracle")
    assert rc == 0
    doc = json.loads(out)
    assert doc["formula"] == "1/8"
    assert doc["oracle"] == "1/8"
    assert doc["agree"] is True

    rc, out, _ = run_cli(capsys, "bound", "--q", "2", "--d", "2", "--exhaustive", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["minimum"] == 1
    assert doc["bound"] == "1/1"
    assert doc["candidates"] == 15

    # refused before any point is built: a negative variable count, and
    # 2^30 points for a single candidate
    rc, out, err = run_cli(capsys, "bound", "--q", "2", "--d", "0", "--exhaustive", "-1")
    assert (rc, out, err) == (2, "", "error: variable count must be >= 0\n")
    rc, out, err = run_cli(capsys, "bound", "--q", "2", "--d", "0", "--exhaustive", "30")
    assert rc == 2 and not out and "exceeds cap" in err


def test_algebra_from_file(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    save_algebra(truncated(2, 3), str(path))
    rc, out, _ = run_cli(capsys, "dixon", "--algebra", str(path), "--poly", "x1*x1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["probability"] == "1/2"


@pytest.mark.parametrize(
    "key, value",
    [("bracket", "false"), ("bracket", 0), ("dim", "3"), ("dim", 3.9), ("dim", True),
     ("p", "2"), ("k", 1.0), ("basis_names", 5), ("basis_names", "abc")],
)
def test_algebra_file_with_wrong_json_types_is_a_usage_error(capsys, tmp_path, key, value):
    # heisenberg(2) is a valid Lie bracket table, so a string "false" read
    # as truthy would load silently rather than fail the axiom check
    from fqidtest.algebra import heisenberg, to_json_dict

    doc = to_json_dict(heisenberg(2))
    (doc["field"] if key in ("p", "k") else doc)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "dixon", "--algebra", str(path), "--poly", "x1*x2")
    assert rc == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize(
    "cell, message",
    [("2*", "expected a variable"), ("x1", "a field literal has no variables"),
     ("[g,1]", "brackets are only meaningful"), ("h", "unknown variable 'h'")],
)
def test_algebra_file_with_a_refused_cell_is_a_usage_error(capsys, tmp_path, cell, message):
    doc = to_json_dict(truncated(2, 3))
    doc["table"][0][0][0] = cell
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "dixon", "--algebra", str(path), "--poly", "x1*x1")
    assert (rc, out) == (2, "")
    assert message in err


def test_algebra_file_cells_read_products(capsys, tmp_path):
    # GF(4) as an algebra over itself, its one cell 1 = g^3 = (g+1)^3
    # written as products
    doc = to_json_dict(field_as_algebra(4))
    assert doc["table"] == [[["1"]]]
    doc["table"] = [[["g*g*g + (g+1)*(g+1)*(g+1) + 1"]]]
    path = tmp_path / "gf4.json"
    path.write_text(json.dumps(doc))
    assert from_json_dict(doc) == field_as_algebra(4)
    rc, _, _ = run_cli(capsys, "dixon", "--algebra", str(path), "--poly", "x1*x1")
    assert rc == 0


BIG_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "argv, field",
    [(["bound", "--q", str(BIG_PRIME), "--d", "1"], None),
     (["dixon", "--algebra", f"builtin:field({BIG_PRIME})", "--poly", "x1"], None),
     (["dixon", "--poly", "x1"], {"p": BIG_PRIME}),
     (["dixon", "--poly", "x1"], {"p": 2, "k": 100000000000})],
    ids=["bound-q", "builtin-field", "file-p", "file-k"],
)
def test_oversized_field_is_a_usage_error(capsys, tmp_path, argv, field):
    # refused on its size before trial division or p**k, which ran for
    # longer than the suite could wait
    if field is not None:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"field": field, "dim": 1, "table": [[[0]]]}))
        argv = argv + ["--algebra", str(path)]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "exceeds the supported" in err


@pytest.mark.parametrize(
    "spec, dim",
    [("truncated(2,300)", 299), ("upper_triangular(30,2)", 465), ("truncated(2,99999)", 99998)],
)
def test_builtin_over_the_structure_cap_is_a_usage_error(capsys, spec, dim):
    # refused before any table is built: the first ran to hundreds of MB,
    # the second to a MemoryError traceback, the third for seconds
    rc, out, err = run_cli(
        capsys, "check-identity", "--algebra", f"builtin:{spec}", "--poly", "x1", "--cap", "8"
    )
    assert (rc, out) == (2, "")
    assert err == (
        f"error: dimension {dim} needs {dim**3} structure constants, "
        f"over the cap of {STRUCTURE_CAP}\n"
    )


def test_cap_flag_and_env(capsys, monkeypatch):
    rc, _, err = run_cli(
        capsys, "check-identity",
        "--algebra", "builtin:matrix(2,2)", "--poly", "x1*x2",
        "--cap", "10",
    )
    assert rc == 2
    assert "cap" in err or "10" in err

    monkeypatch.setenv("FQIDTEST_CAP", "10")
    rc, _, err = run_cli(
        capsys, "check-identity",
        "--algebra", "builtin:matrix(2,2)", "--poly", "x1*x2",
    )
    assert rc == 2


def test_human_rendering(capsys):
    rc, out, _ = run_cli(
        capsys, "dixon",
        "--algebra", "builtin:field(2)", "--poly", "x1*x1", "--out", "human",
    )
    assert rc == 0
    assert "probability: 1/2" in out
    assert "verdict_consistent: true" in out
    assert "{" not in out


# ---------------------------------------------------------------------------
# determinism

def test_json_output_is_stable(capsys):
    argv = ("dixon", "--algebra", "builtin:heisenberg(2)", "--poly", "x1*x2", "--flavor", "lie")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "out, digest",
    [
        ("json", "7bae07f1a5dcacfd224dd7fd5a73d7bfba6b43216c522cc38e047367adc31300"),
        ("human", "d248277055d250ce5dfd2de8af01d70827058bc142b18a0446d0eb92e190dc86"),
    ],
)
def test_corpus_stdout_is_pinned(capsys, out, digest):
    rc, text, _ = run_cli(capsys, "corpus", "--out", out)
    assert rc == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_corpus_is_byte_identical_across_runs_and_workers(capsys):
    rc, first, _ = run_cli(capsys, "corpus")
    assert rc == 0
    rc, second, _ = run_cli(capsys, "corpus")
    assert rc == 0
    rc, parallel, _ = run_cli(capsys, "corpus", "--workers", "3")
    assert rc == 0
    assert first == second
    assert first == parallel
    doc = json.loads(first)
    assert {e["algebra"] for e in doc["entries"]} == {
        A.name for A in cli.descent_library()
    }
    assert len(doc["sampled"]) == 2


def test_console_entry_point_runs():
    # the child does not inherit pytest's pythonpath setting, so it is
    # given the source directory itself
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fqidtest", "bound", "--q", "2", "--d", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == '"1/2"\n'


# ---------------------------------------------------------------------------
# fuzzing

SUBCOMMANDS = (
    "check-identity", "probability", "dixon", "coset-search", "descent", "blocks", "engel",
    "nagata", "bound", "corpus",
)
OVER_CAP = ("truncated(2,300)", "upper_triangular(30,2)", "truncated(2,99999)")
POLY_TEXTS = (
    "x1", "x1*x1", "x1*x2", "x1*x2 - x2*x1", "x1*x1*x1", "2*x1*x2", "x1^2", "0",
    "[x1,x2]", "[[x1,x2],x3]", "[x1,x2,x2]", "x1*x2*x3",
)
POLY_TOKENS = ("x1", "x2", "x3", "*", "+", "-", "[", "]", ",", "(", ")", "2", "^", "0", " ")
IDEAL_SPECS = ("zero", "full", "0,1,0", "0,0,1", "1", "1,0;0,1", "0,5,0", "banana")


@st.composite
def algebra_args(draw):
    if draw(st.integers(0, 9)) == 0:
        spec = draw(st.sampled_from(OVER_CAP))
    else:
        name = draw(st.sampled_from(sorted(BUILDERS)))
        arity = BUILDERS[name][1]
        count = draw(st.sampled_from((arity, arity, arity, 3)))
        values = draw(st.lists(st.integers(0, 8), min_size=count, max_size=count))
        spec = f"{name}({','.join(map(str, values))})"
    return ["--algebra", f"builtin:{spec}"]


@st.composite
def poly_args(draw):
    text = draw(st.one_of(
        st.sampled_from(POLY_TEXTS),
        st.lists(st.sampled_from(POLY_TOKENS), max_size=7).map("".join),
    ))
    # --poly=text, so that a text starting with "-" is not read as a flag
    args = [f"--poly={text}", "--flavor", draw(st.sampled_from(("free", "assoc", "lie")))]
    if draw(st.booleans()):
        args.append("--commutator")
    return args


def _optional(draw, flag, values):
    return [flag, str(draw(values))] if draw(st.booleans()) else []


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [
        command, "--cap", str(draw(st.integers(0, 4096))), "--workers", "1",
        "--out", draw(st.sampled_from(("json", "human"))),
    ]
    if command == "coset-search" and draw(st.integers(0, 3)) == 0:
        # an in-cap search of truncated(4,7) walks all 565,723 subspaces
        # (about 12 s), so only searches in at least one variable and with
        # no codimension limit are drawn: each passes the cap by its second
        # ideal, and must be refused early in the walk
        text = draw(st.sampled_from([t for t in POLY_TEXTS if t != "0"]))
        argv[2] = str(draw(st.sampled_from((4096, 4095, 1, 0))))
        argv += ["--algebra", "builtin:truncated(4,7)", "--poly", text]
        return argv + ["--flavor", draw(st.sampled_from(("free", "assoc", "lie")))]
    if command not in ("bound", "corpus"):
        argv += draw(algebra_args())
    if command in ("check-identity", "probability", "dixon", "coset-search", "descent", "blocks"):
        argv += draw(poly_args())
    if command == "probability":
        # a block holds 256, 128 or 85 whole points of one, two or three
        # arguments; the last nine lengths straddle those block edges
        edges = st.sampled_from((84, 85, 86, 127, 128, 129, 255, 256, 257))
        samples = st.integers(0, 16) | st.integers(60, 72) | edges
        argv += _optional(draw, "--samples", samples)
        argv += _optional(draw, "--seed", st.integers(0, 99))
    if command in ("coset-search", "descent"):
        argv += _optional(draw, "--max-codim", st.integers(-2, 4))
    if command == "blocks":
        for flag in ("--ideal-i", "--ideal-j"):
            argv += [flag, draw(st.sampled_from(IDEAL_SPECS))]
    if command == "engel":
        argv += ["--m", str(draw(st.one_of(st.integers(-1, 3), st.integers(4, 2000))))]
    if command == "nagata":
        argv += ["--d", str(draw(st.one_of(st.integers(-1, 4), st.integers(5, 10**9))))]
    if command == "bound":
        argv += ["--q", str(draw(st.integers(0, 8))), "--d", str(draw(st.integers(-2, 8)))]
        if draw(st.booleans()):
            argv.append("--oracle")
        argv += _optional(draw, "--exhaustive", st.integers(-1, 4))
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
def test_fuzzed_command_lines_exit_zero_or_two(argv):
    rc = cli.main(argv)
    assert rc in (0, 2), argv
