"""Command-line interface: exit codes, payload shapes, determinism."""

import json
import subprocess
import sys

import pytest

from fqidtest import cli
from fqidtest.algebra import field_as_algebra, save_algebra, truncated
from fqidtest.errors import TheoremViolation
from fqidtest.freepoly import Flavor


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


def test_witness_sanitizer_handles_rich_values():
    from fractions import Fraction

    class Thing:
        def to_text(self):
            return "x1*x2"

    doc = cli._jsonable({"f": Fraction(1, 3), "p": Thing(), "t": (1, (2, 3))})
    assert doc == {"f": "1/3", "p": "x1*x2", "t": [1, [2, 3]]}


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


def test_engel_payload(capsys):
    rc, out, _ = run_cli(capsys, "engel", "--algebra", "builtin:heisenberg(2)", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["is_identity"] is True
    rc, out, _ = run_cli(capsys, "engel", "--algebra", "builtin:heisenberg(2)", "--m", "1")
    assert json.loads(out)["probability"] == "5/8"


def test_engel_requires_a_bracket_table(capsys):
    rc, _, err = run_cli(capsys, "engel", "--algebra", "builtin:matrix(2,2)", "--m", "1")
    assert rc == 2
    assert err


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
     ("p", "2"), ("k", 1.0)],
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
    proc = subprocess.run(
        [sys.executable, "-m", "fqidtest", "bound", "--q", "2", "--d", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '"1/2"\n'
