"""Command-line entry point and the built-in demonstration corpus.

Subcommands wire the engines together: probabilities and verdicts,
coset search and descent, block refinement, Engel and power-identity
reports, and the density-floor table.  Handlers return report objects
and one encoder, _jsonable, turns them into JSON data (rationals as
"num/den" strings).  Output is JSON by default; --out human renders an
indented table with each report's fields in declared order.

Exit codes: 0 for consistent verdicts, 1 when a theorem check fails on
concrete data (always an implementation bug; the witness is printed),
2 for usage errors.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import __version__
from .algebra import (
    Algebra,
    Ideal,
    builtin,
    field_as_algebra,
    full_ideal,
    heisenberg,
    ideal_generated,
    load_algebra,
    matrix_algebra,
    strictly_upper_triangular_lie,
    truncated,
    upper_triangular,
    zero_ideal,
)
from .bound import exhaustive_min, floor_fraction, minimize_sequences
from .errors import FqidtestError, NotMultilinear, TheoremViolation
from .freepoly import Flavor, engel, parse
from .idtest import (
    EXACT_CAP,
    block_statistics,
    coset_identity_search,
    dixon_verdict,
    engel_report,
    multilinear_descent,
    nagata_higman_check,
    zero_probability,
)

CORPUS_SEED = 20260817
CORPUS_SAMPLES = 400


# ---------------------------------------------------------------------------
# the library

BATTERY_TEXTS = ("x1*x1", "x1*x2", "x1*x2 - x2*x1", "x1*x1*x1")


def library():
    """The algebras the test suite and the corpus sweep."""
    return [
        field_as_algebra(2),
        field_as_algebra(3),
        truncated(2, 3),
        truncated(3, 3),
        truncated(2, 4),
        upper_triangular(2, 2),
        heisenberg(2),
        heisenberg(3),
        matrix_algebra(2, 2),
        strictly_upper_triangular_lie(3, 2),
        strictly_upper_triangular_lie(4, 2),
    ]


def descent_library():
    """The library members small enough for full per-ideal coset sweeps."""
    return [A for A in library() if A.name != "strictly_upper_triangular_lie(4,2)"]


def battery_for(A: Algebra):
    """The four battery polynomials, parsed in the algebra's natural flavor."""
    flavor = Flavor.LIE if A.bracket else Flavor.FREE
    return [parse(text, flavor, A.field) for text in BATTERY_TEXTS]


def two_path_pairs(limit: int = 1 << 16):
    """Library (Q, A) pairs whose full state space fits under the limit."""
    pairs = []
    for A in library():
        polys = list(battery_for(A))
        if A.bracket:
            polys.append(engel(1, A.field))
            polys.append(engel(2, A.field))
        for Q in polys:
            if A.order() ** Q.n <= limit:
                pairs.append((Q, A))
    return pairs


# ---------------------------------------------------------------------------
# serialization

def _jsonable(value):
    """JSON-safe data for a report, a payload or a witness.

    Rationals become "num/den" strings, an Ideal its basis, rank and
    codim, and any other dataclass a dict of its fields in declared
    order, which is the order --out human prints them in.
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Ideal):
        return {"basis": _jsonable(value.basis), "rank": value.rank, "codim": value.codim}
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "to_text"):
        return value.to_text()
    return str(value)


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _human_lines(value, indent: str = ""):
    if isinstance(value, dict):
        items = [(f"{k}:", v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [("-", v) for v in value]
    else:
        return [f"{indent}{_scalar_text(value)}"]
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{indent}{head}")
            lines.extend(_human_lines(v, indent + "  "))
        else:
            lines.append(f"{indent}{head} {_scalar_text(v)}")
    return lines


def render(payload, out: str) -> str:
    if out == "human":
        return "\n".join(_human_lines(payload))
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# flag plumbing

def _resolved_cap(args) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get("FQIDTEST_CAP")
        cap = int(env) if env is not None else EXACT_CAP
    if cap < 1:
        raise ValueError("cap must be positive")
    return cap


def _resolved_workers(args) -> int:
    workers = args.workers
    if workers < 1:
        raise ValueError("workers must be positive")
    return workers


def _algebra_arg(text: str) -> Algebra:
    if text.startswith("builtin:"):
        return builtin(text[len("builtin:"):])
    return load_algebra(text)


def _poly_arg(args, A: Algebra):
    return parse(args.poly, Flavor(args.flavor), A.field)


def _ideal_arg(A: Algebra, text: str):
    if text == "zero":
        return zero_ideal(A)
    if text == "full":
        return full_ideal(A)
    vectors = []
    for part in text.split(";"):
        vectors.append(tuple(int(x) for x in part.split(",")))
    return ideal_generated(A, vectors)


# ---------------------------------------------------------------------------
# subcommands

def cmd_probability(args):
    A = _algebra_arg(args.algebra)
    Q = _poly_arg(args, A)
    if args.samples is not None and args.seed is None:
        raise ValueError("sampled mode requires --seed")
    return zero_probability(
        Q, A, samples=args.samples, seed=args.seed,
        cap=_resolved_cap(args), workers=_resolved_workers(args),
        commutator=args.commutator,
    )


def cmd_dixon(args):
    A = _algebra_arg(args.algebra)
    Q = _poly_arg(args, A)
    payload = _jsonable(dixon_verdict(
        Q, A, cap=_resolved_cap(args), workers=_resolved_workers(args),
        commutator=args.commutator,
    ))
    if not Q.is_zero and not Q.analyze().homogeneous:
        payload["note"] = (
            "polynomial is not homogeneous; degree is the maximum term degree"
        )
    return payload


def cmd_coset_search(args):
    A = _algebra_arg(args.algebra)
    Q = _poly_arg(args, A)
    max_codim = args.max_codim if args.max_codim is not None else A.dim
    witnesses = coset_identity_search(
        Q, A, max_codim, cap=_resolved_cap(args), commutator=args.commutator
    )
    return {
        "count": len(witnesses),
        "nontrivial": sum(not w.trivial for w in witnesses),
        "witnesses": witnesses,
    }


def cmd_descent(args):
    A = _algebra_arg(args.algebra)
    Q = _poly_arg(args, A)
    if not Q.analyze().multilinear:
        # refused before the search, which could otherwise find no witness
        # and report an empty list
        raise NotMultilinear(Q.to_text())
    max_codim = args.max_codim if args.max_codim is not None else A.dim
    witnesses = coset_identity_search(
        Q, A, max_codim, cap=_resolved_cap(args), commutator=args.commutator
    )
    certificates = [
        {"witness": w, "certificate": multilinear_descent(Q, A, w, commutator=args.commutator)}
        for w in witnesses
    ]
    return {"count": len(certificates), "certificates": certificates}


def cmd_blocks(args):
    A = _algebra_arg(args.algebra)
    Q = _poly_arg(args, A)
    outer = _ideal_arg(A, args.ideal_i)
    inner = _ideal_arg(A, args.ideal_j)
    return block_statistics(
        Q, A, outer, inner, cap=_resolved_cap(args), commutator=args.commutator
    )


def cmd_engel(args):
    A = _algebra_arg(args.algebra)
    return engel_report(
        A, args.m, cap=_resolved_cap(args), workers=_resolved_workers(args)
    )


def cmd_nagata(args):
    A = _algebra_arg(args.algebra)
    return nagata_higman_check(A, args.d, cap=_resolved_cap(args))


def cmd_bound(args):
    base = floor_fraction(args.q, args.d)
    if args.exhaustive is not None:
        res = exhaustive_min(
            args.q, args.exhaustive, args.d,
            cap=_resolved_cap(args), workers=_resolved_workers(args),
        )
        return {
            "formula": base.value,
            "minimum": res.minimum,
            "witness": res.witness,
            "candidates": res.candidates,
            "bound": res.bound,
        }
    if args.oracle:
        oracle = minimize_sequences(args.q, args.d)
        return {
            "formula": base.value,
            "oracle": oracle.minimum,
            "witness": oracle.witness,
            "agree": base.value == oracle.minimum,
        }
    return base.value


def cmd_corpus(args):
    return run_corpus(
        workers=_resolved_workers(args), cap=_resolved_cap(args)
    )


# ---------------------------------------------------------------------------
# the demonstration corpus

def run_corpus(workers: int = 1, cap: int = EXACT_CAP) -> dict:
    """Sweep the library: verdicts, descents, blocks, and a sampled run.

    Everything here is exact or fixed-seed, so the emitted report is
    byte-identical across runs and worker counts.
    """
    entries = []
    for A in descent_library():
        entry = {
            "algebra": A.name,
            "dim": A.dim,
            "order": A.order(),
            "bracket": A.bracket,
            "battery": [],
        }
        for Q in battery_for(A):
            rep = dixon_verdict(Q, A, cap=cap, workers=workers)
            item = {
                "poly": Q.to_text(),
                "flavor": Q.flavor.value,
                "report": _jsonable(rep),
            }
            if Q.analyze().multilinear:
                witnesses = coset_identity_search(Q, A, A.dim, cap=cap)
                verified = 0
                for w in witnesses:
                    cert = multilinear_descent(Q, A, w)
                    verified += cert.identity_on_ideal
                item["coset_witnesses"] = len(witnesses)
                item["nontrivial_witnesses"] = sum(not w.trivial for w in witnesses)
                item["descents_verified"] = verified
            entry["battery"].append(item)
        if A.bracket:
            entry["engel"] = {
                str(m): _jsonable(engel_report(A, m, cap=cap, workers=workers))
                for m in (1, 2)
            }
        else:
            entry["nagata"] = _jsonable(nagata_higman_check(A, 3, cap=cap))
        entries.append(entry)

    T = truncated(2, 4)
    chain_outer = ideal_generated(T, [(0, 1, 0), (0, 0, 1)])
    blocks = block_statistics(
        parse("x1*x1", Flavor.FREE, T.field), T, chain_outer, zero_ideal(T), cap=cap
    )

    sampled = [
        {
            "algebra": A.name,
            "poly": text,
            "report": _jsonable(
                zero_probability(
                    parse(text, flavor, A.field), A,
                    samples=CORPUS_SAMPLES, seed=CORPUS_SEED,
                )
            ),
        }
        for A, text, flavor in (
            (heisenberg(2), "[x1,x2]", Flavor.LIE),
            (field_as_algebra(2), "x1*x1", Flavor.FREE),
        )
    ]

    return {
        "version": __version__,
        "entries": entries,
        "blocks_example": {
            "algebra": T.name,
            "poly": "x1*x1",
            "report": _jsonable(blocks),
        },
        "sampled": sampled,
    }


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqidtest",
        description="Exact polynomial identity testing on finite algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, help="enumeration cap (default FQIDTEST_CAP or 2^24)")
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--out", choices=("json", "human"), default="json")

    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument("--algebra", required=True, help="JSON file path or builtin:name(args)")

    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--poly", required=True, help="polynomial text, e.g. 'x1*x2 - x2*x1'")
    poly.add_argument("--flavor", choices=("free", "assoc", "lie"), default="free")
    poly.add_argument(
        "--commutator", action="store_true",
        help="read lie brackets as ab - ba over a plain product table",
    )

    p = sub.add_parser("check-identity", parents=[common, alg, poly],
                       help="exact identity check by full enumeration")
    p.set_defaults(handler=cmd_probability, samples=None, seed=None)

    p = sub.add_parser("probability", parents=[common, alg, poly],
                       help="exact or sampled zero probability")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_probability)

    p = sub.add_parser("dixon", parents=[common, alg, poly],
                       help="threshold verdict with the dual-route cross-check")
    p.set_defaults(handler=cmd_dixon)

    p = sub.add_parser("coset-search", parents=[common, alg, poly],
                       help="find all vanishing coset products over small-codim ideals")
    p.add_argument("--max-codim", type=int)
    p.set_defaults(handler=cmd_coset_search)

    p = sub.add_parser("descent", parents=[common, alg, poly],
                       help="multilinear descent certificates for every coset witness")
    p.add_argument("--max-codim", type=int)
    p.set_defaults(handler=cmd_descent)

    p = sub.add_parser("blocks", parents=[common, alg, poly],
                       help="per-block zero statistics over nested ideals")
    p.add_argument("--ideal-i", required=True,
                   help="'zero', 'full', or generators '0,1,0;0,0,1'")
    p.add_argument("--ideal-j", required=True,
                   help="'zero', 'full', or generators '0,1,0;0,0,1'")
    p.set_defaults(handler=cmd_blocks)

    p = sub.add_parser("engel", parents=[common, alg],
                       help="verdict for the Engel word [x, y, ..., y]")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=cmd_engel)

    p = sub.add_parser("nagata", parents=[common, alg],
                       help="x^d identity check and the nilpotency it forces")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=cmd_nagata)

    p = sub.add_parser("bound", parents=[common],
                       help="density floor f_q(d), oracle, or exhaustive minimum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--exhaustive", type=int, metavar="N")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("corpus", parents=[common],
                       help="run the full demonstration corpus (JSON output)")
    p.set_defaults(handler=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args), 0
    except TheoremViolation as exc:
        payload, code = {"theorem_violation": str(exc), "witness": exc.witness}, 1
    except (FqidtestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(_jsonable(payload), args.out))
    return code


if __name__ == "__main__":
    sys.exit(main())
