"""Command-line front end.

Verbs: info, apply, char, decompose, invariant-check, steinberg, induce,
cover, selftest. Groups are named types (A1 A2 A3 B2 B3 C2 C3 D4 G2) or a
JSON Cartan matrix. Weights are integer lists in fundamental coordinates.

Exit codes: 0 success; 1 domain errors (every WeylkitError: bad input, parse
failures, non-invariant elements) and usage errors; 2 anything else, internal
invariant violations included, which always indicates a bug in the package
rather than in the input and is reported in one line on stderr.

Output is deterministic for fixed inputs: dictionaries are emitted in
sorted or structurally fixed order, JSON is compact with no whitespace, and
timing (never deterministic) goes to stderr only. Only selftest draws random
inputs, and it takes --seed; the other verbs take no seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .charring import CharElt
from .covers import build_cover, decompose_cover, pullback
from .errors import InternalInvariantError, ParseError, WeylkitError
from .hecke import is_ideal_invariant, is_weyl_invariant
from .parsing import (
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    parse_char_expression,
    parse_operator_expression,
    parse_weight,
)
from .repring import (
    decompose_into_irreducibles,
    decompose_over_invariants,
    induce,
    irreducible_character,
    steinberg_basis,
)
from .rootdata import RootDatum, build_root_datum
from .selftest import run_selftest
from .weyl import _longest, _order

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that to the domain
    # exit code instead, reserving 2 for internal invariant violations
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _int_matrix(text: str, what: str) -> list[list[int]]:
    """A JSON list of equal-length lists of integers (not booleans or floats)."""
    try:
        matrix = json.loads(text)
    except ValueError as exc:  # also an integer longer than int() reads
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    if not (
        isinstance(matrix, list)
        and all(isinstance(row, list) for row in matrix)
        and len({len(row) for row in matrix}) <= 1
        and all(type(c) is int for row in matrix for c in row)
    ):
        raise ParseError(f"{what} must be a list of equal-length lists of integers")
    return matrix


def _load_datum(spec: str) -> RootDatum:
    text = spec.strip()
    if text.startswith("["):
        return build_root_datum(_int_matrix(text, "group matrix"))
    return build_root_datum(text)


def _group_name(datum: RootDatum) -> str:
    return datum.label or "custom"


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(_dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_info(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    order = _order(datum)
    longest = list(_longest(datum).word)
    lines = [
        f"type: {_group_name(datum)}",
        f"rank: {datum.rank}",
        f"weyl_order: {order}",
        f"positive_roots: {datum.num_positive_roots}",
        f"longest_word: [{','.join(map(str, longest))}]",
        f"cartan: {_dumps([list(r) for r in datum.cartan])}",
    ]
    payload = {
        "type": _group_name(datum),
        "rank": datum.rank,
        "weyl_order": order,
        "positive_roots": datum.num_positive_roots,
        "longest_word": longest,
        "cartan": [list(r) for r in datum.cartan],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    u = parse_char_expression(args.expr, datum.rank)
    op = parse_operator_expression(args.operator, datum.rank, operand=u)
    result = op.apply(datum, u, strict=True if args.strict else None)
    _emit(args, [str(result)], {"result": result.to_json()})
    return 0


def _cmd_char(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    lam = parse_weight(args.weight, datum.rank)
    strict = True if args.strict else None
    if args.method == "both":
        via_demazure = irreducible_character(datum, lam, strict=strict, method="demazure")
        via_weyl = irreducible_character(datum, lam, strict=strict, method="weyl")
        agree = via_demazure == via_weyl
        lines = [str(via_demazure), str(via_weyl), "AGREE" if agree else "DISAGREE"]
        payload = {
            "weight": list(lam),
            "method": "both",
            "demazure": via_demazure.to_json(),
            "weyl": via_weyl.to_json(),
            "agree": agree,
        }
        _emit(args, lines, payload)
        if not agree:
            raise InternalInvariantError(
                f"character routes disagree at weight {list(lam)}"
            )
        return 0
    result = irreducible_character(datum, lam, strict=strict, method=args.method)
    _emit(
        args,
        [str(result)],
        {"weight": list(lam), "method": args.method, "result": result.to_json()},
    )
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    u = parse_char_expression(args.expr, datum.rank)
    dec = decompose_into_irreducibles(datum, u, strict=True if args.strict else None)
    _emit(args, [str(dec)], dec.to_json())
    return 0


def _cmd_induce(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    u = parse_char_expression(args.expr, datum.rank)
    dec = induce(datum, u, strict=True if args.strict else None)
    _emit(args, [str(dec)], dec.to_json())
    return 0


def _cmd_invariant_check(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    u = parse_char_expression(args.expr, datum.rank)
    weyl_ok, weyl_wit = is_weyl_invariant(datum, u)
    ideal_ok, ideal_wit = is_ideal_invariant(datum, u)
    lines = [f"weyl: {str(weyl_ok).lower()}", f"ideal: {str(ideal_ok).lower()}"]
    payload: dict = {"weyl": weyl_ok, "ideal": ideal_ok}
    if weyl_wit is not None:
        j, image = weyl_wit
        lines.append(f"weyl witness: j={j}, s_j(u) = {image}")
        payload["weyl_witness"] = {"j": j, "image": image.to_json()}
    if ideal_wit is not None:
        j, image = ideal_wit
        lines.append(f"ideal witness: j={j}, dp_j(u) = {image}")
        payload["ideal_witness"] = {"j": j, "image": image.to_json()}
    _emit(args, lines, payload)
    return 0


def _cmd_steinberg(args: argparse.Namespace) -> int:
    datum = _load_datum(args.group)
    basis = steinberg_basis(datum)
    lines = [f"formula: {basis.formula_tag}"]
    basis_json = []
    for w, lam in basis.items():
        word = ",".join(map(str, w.word))
        lines.append(f"w=[{word}] weight=[{','.join(map(str, lam))}]")
        basis_json.append({"word": list(w.word), "weight": list(lam)})
    payload: dict = {"formula": basis.formula_tag, "basis": basis_json}
    if args.decompose is not None:
        u = parse_char_expression(args.decompose, datum.rank)
        coords = decompose_over_invariants(datum, u, basis, strict=True if args.strict else None)
        dec_json = []
        for w, _ in basis.items():
            dec = coords[w]
            word = ",".join(map(str, w.word))
            lines.append(f"coord w=[{word}]: {dec}")
            dec_json.append({"word": list(w.word), "coeff": dec.to_json()})
        payload["decomposition"] = dec_json
    _emit(args, lines, payload)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    """Entries of the matrix are bounded like weight coordinates, and the
    number of cosets decompose prints like the terms of a power."""
    matrix = _int_matrix(args.matrix, "cover matrix")
    largest = max((abs(c) for row in matrix for c in row), default=0)
    if largest > MAX_POWER_DEGREE:
        raise ParseError(f"cover matrix entries must be at most {MAX_POWER_DEGREE} in absolute value")
    cover = build_cover(matrix)
    if args.action == "decompose" and cover.index > MAX_POWER_TERMS:
        raise ParseError(f"cover decompose would print |det M| > {MAX_POWER_TERMS} cosets")
    u = parse_char_expression(args.expr, cover.rank)
    if args.action == "pullback":
        result = pullback(cover, u)
        _emit(args, [str(result)], {"result": result.to_json()})
        return 0
    parts = decompose_cover(cover, u)
    lines = []
    cosets = []
    for index, rep in enumerate(cover.coset_reps):
        part = parts[rep]
        rep_txt = ",".join(map(str, rep))
        lines.append(f"coset {index} rep=[{rep_txt}]: {part}")
        cosets.append({"index": index, "rep": list(rep), "component": part.to_json()})
    _emit(args, lines, {"index": cover.index, "cosets": cosets})
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    return run_selftest(args.groups, seed=args.seed, out=sys.stdout, err=sys.stderr)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit compact JSON")
    common.add_argument(
        "--strict",
        action="store_true",
        help="verify operator compositions along every reduced word",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="reserved; all current computations are single-threaded",
    )
    parser = _Parser(prog="weylkit", description="Exact divided-difference calculus on character rings")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", parents=[common], help="group facts")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("apply", parents=[common], help="apply an operator word to an expression")
    p.add_argument("group")
    p.add_argument("operator")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("char", parents=[common], help="irreducible character of a weight")
    p.add_argument("group")
    p.add_argument("weight")
    p.add_argument(
        "--method",
        choices=("demazure", "weyl", "both"),
        default="demazure",
        help="computation route; 'both' cross-checks and flags agreement",
    )
    p.set_defaults(fn=_cmd_char)

    p = sub.add_parser("decompose", parents=[common], help="write an invariant element in irreducibles")
    p.add_argument("group")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("invariant-check", parents=[common], help="test Weyl and ideal invariance")
    p.add_argument("group")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_invariant_check)

    p = sub.add_parser("steinberg", parents=[common], help="monomial basis of R(T) over R(G)")
    p.add_argument("group")
    p.add_argument("--decompose", metavar="EXPR", help="also decompose EXPR over the basis")
    p.add_argument("--verify", action="store_true", help="accepted and ignored: every basis is certified free when it is built")
    p.set_defaults(fn=_cmd_steinberg)

    p = sub.add_parser("induce", parents=[common], help="project to invariants and decompose")
    p.add_argument("group")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_induce)

    p = sub.add_parser("cover", parents=[common], help="torus cover pullback / decomposition")
    p.add_argument("action", choices=("pullback", "decompose"))
    p.add_argument("expr")
    p.add_argument("--matrix", required=True, help="JSON integer matrix with nonzero determinant")
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("selftest", help="run seeded property suites")
    p.add_argument("groups", nargs="*", default=["A1", "A2", "B2", "G2"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "threads", 1) < 1:
        print("usage error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except WeylkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # InternalInvariantError or any other library bug
        message = " ".join(str(exc).splitlines())
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
