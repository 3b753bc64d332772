"""Batch command-line front-end.

Subcommands: tableaux, rep, verify, bratteli, dims, schurweyl,
semisimple.  All numeric output is exact strings (integers, fractions,
polynomials in q); output is deterministic for a fixed invocation, and
the exit code is 0 exactly when every requested check passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import forked
from .errors import DegenerateContent, DivisionByZero, InvalidArgument, PoleAtPoint
from .presentations import (
    projector_matrices,
    relations_A_algebra,
    relations_Ak_presentation,
    relations_Bprime,
    relations_cyclotomic,
    relations_rook,
    semisimple_cyclotomic,
    semisimple_rook,
    verify,
)
from .qfield import as_ratfunc
from .rook import enumerate_rook, generators_q1, rook_cardinality
from .seminormal import (
    calibrated_skew_module,
    cyclotomic_module,
    shifted_skew_module,
)
from .shapes import (
    FAMILY_A_QUOTIENT,
    FAMILY_TYPE_B,
    bratteli,
    count_standard_tableaux,
    enumerate_standard_tableaux,
    graph_to_json,
    index_set_A,
    parse_multipartition,
    parse_skew,
    tableau_to_json,
)
from .tensor import GradedBasis, verify_phiP


def parse_u_list(spec: str):
    """Comma-separated exact values in the grammar of
    ``RatFunc.from_string``, such as ``2``, ``3/2`` or ``2*q^2``."""
    if spec is None:
        raise InvalidArgument("--u is required here")
    return tuple(as_ratfunc(part) for part in spec.split(","))


def parse_q(spec: str):
    """'symbolic' -> None, otherwise a value without q, read as a rational."""
    if spec == "symbolic":
        return None
    if "q" in spec:
        raise InvalidArgument(f"bad q value {spec!r}: it may not contain q")
    return as_ratfunc(spec).specialize(0)  # a constant, so any point will do


_encode_str = json.encoder.encode_basestring_ascii


def _emit(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte,
    for the types the commands emit: dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError.  tests/test_cli.py pins
    the equality with json.dumps.

    A list of strings, such as a matrix row, costs one escape check and
    one join: its items are joined into one string, and when encoding that
    string only adds the two quotes, no item needs escaping and the row is
    written between quotes as it stands.  Otherwise each item is encoded.
    The argparse parser that main() reads the command line with is built
    once per process (build_parser)."""
    out = []
    _write(payload, "\n", out)
    return "".join(out)


def _write(x, pad: str, out: list):
    """Append the text of one value to out; pad is a newline and the
    indentation of the line x starts on."""
    if isinstance(x, str):
        out.append(_encode_str(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, list):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        # type(x[0]) first, so a list of numbers, lists or dicts raises no
        # TypeError in the join; escaping only ever lengthens a string
        if type(x[0]) is str:
            try:
                flat = "".join(x)
            except TypeError:
                pass
            else:
                if len(_encode_str(flat)) == len(flat) + 2:
                    out += ("[", inner, '"', ('",' + inner + '"').join(x), '"', pad, "]")
                else:
                    out += ("[", inner, ("," + inner).join(map(_encode_str, x)), pad, "]")
                return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in x):
            raise TypeError("JSON object keys must be str")
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(x):
            out += (sep, _encode_str(key), ": ")
            _write(x[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    else:
        raise TypeError(f"{type(x).__name__} is not emitted as JSON")


def cmd_tableaux(args) -> tuple:
    if args.multi is not None:
        shape = parse_multipartition(args.multi)
    else:
        shape = parse_skew(args.skew)
    tabs = enumerate_standard_tableaux(shape)
    return _emit([tableau_to_json(t) for t in tabs]), 0


def _check_rep_options(args, kind, *used):
    """Reject a rep option that the module kind does not read, and a
    missing one that it does."""
    for name in ("u", "k", "d", "u1"):
        given = getattr(args, name) is not None
        if given != (name in used):
            fault = f"--{name} does not apply to {kind}" if given else f"{kind} requires --{name}"
            raise InvalidArgument(fault)


def cmd_rep(args) -> tuple:
    if args.multi is not None:
        _check_rep_options(args, "--multi", "u")
        rep = cyclotomic_module(parse_multipartition(args.multi), parse_u_list(args.u))
    elif args.skew is not None:
        _check_rep_options(args, "--skew", "k")
        rep = calibrated_skew_module(parse_skew(args.skew), args.k)
    else:
        _check_rep_options(args, "the shifted module", "k", "d", "u1")
        rep = shifted_skew_module(args.k, args.d, as_ratfunc(args.u1))
    return _emit(rep.to_json()), 0


# family -> relation suite for (k, u)
SUITES = {
    "rook": lambda k, u: relations_rook(k),
    "Ak": lambda k, u: relations_Ak_presentation(k),
    "cyclo": lambda k, u: relations_cyclotomic(k, u),
    "aAlg": lambda k, u: relations_A_algebra(k, *u),
    "Bprime": lambda k, u: relations_Bprime(k),
}


# families whose relation suite is written in the projector letters P_i
PROJECTOR_FAMILIES = ("rook", "Bprime")


def _module_cost(shape) -> int:
    """Estimated cost of checking the module of shape: its dimension.
    The time of a module's suite grows about linearly with it (the
    generators are sparse), not with its square."""
    return count_standard_tableaux(shape)


def _verify_family(family: str, k: int, u, q0):
    """Run the family's relation suite over every two-component module
    with a one-row first component; returns (payload, passed).  The
    modules are independent, so they are built and checked in
    forked._map_forked's processes.  The rook family at q = 1 runs on the
    monoid's own 0/1 matrices instead."""
    if family not in SUITES:
        raise InvalidArgument(f"unknown family {family!r}")
    if family == "rook" and q0 == 1:
        report = verify(generators_q1(k), relations_rook(k), q0=q0)
        return report, report["passed"]
    if u is None:
        u = (as_ratfunc(0), as_ratfunc(1))
    shapes = index_set_A(k)
    if family == "aAlg" and len(u) != 2:
        raise InvalidArgument("aAlg needs exactly two u values")
    rels = SUITES[family](k, u)

    def check(i):
        asg = cyclotomic_module(shapes[i], u).matrices
        if family in PROJECTOR_FAMILIES:
            asg = projector_matrices(asg, k)
        return verify(asg, rels, q0=q0)

    reports = forked._map_forked(check, [_module_cost(shape) for shape in shapes])
    passed = all(report["passed"] for report in reports)
    modules = {json.dumps(shape): report for shape, report in zip(shapes, reports)}
    return {"passed": passed, "modules": modules}, passed


# families whose relation suite is written for u = (0, 1) only
FIXED_U_FAMILIES = ("rook", "Ak", "Bprime")


def _reject_fixed_u(args):
    if args.family in FIXED_U_FAMILIES and args.u is not None:
        raise InvalidArgument(f"--u does not apply to the {args.family} family")


def cmd_verify(args) -> tuple:
    _reject_fixed_u(args)
    q0 = parse_q(args.q)
    u = parse_u_list(args.u) if args.u is not None else None
    payload, passed = _verify_family(args.family, args.k, u, q0)
    return _emit(payload), 0 if passed else 1


def cmd_bratteli(args) -> tuple:
    family = FAMILY_TYPE_B if args.family == "B" else FAMILY_A_QUOTIENT
    graph = bratteli(args.levels, family)
    if args.format == "dot":
        return graph.to_dot(), 0
    return _emit(graph_to_json(graph)), 0


def cmd_dims(args) -> tuple:
    if args.rook < 1:
        raise InvalidArgument("--rook must be >= 1")
    table = {}
    ok = True
    for k in range(1, args.rook + 1):
        by_formula = rook_cardinality(k)
        by_enum = len(enumerate_rook(k)) if k <= 4 else None
        by_squares = sum(
            count_standard_tableaux(s) ** 2 for s in index_set_A(k)
        )
        entry = {"formula": by_formula, "tableau_squares": by_squares}
        if by_enum is not None:
            entry["enumeration"] = by_enum
            ok = ok and by_enum == by_formula
        ok = ok and by_squares == by_formula
        table[str(k)] = entry
    payload = {"agree": ok, "dimensions": table}
    return _emit(payload), 0 if ok else 1


def cmd_schurweyl(args) -> tuple:
    try:
        dims = tuple(map(_ascii_int, args.m.split(",")))
    except ValueError as exc:
        raise InvalidArgument(f"bad graded dimensions {args.m!r}") from exc
    basis = GradedBasis(dims)
    u = parse_u_list(args.u)
    payload = verify_phiP(args.k, basis, u)
    return _emit(payload), 0 if payload["passed"] else 1


def cmd_semisimple(args) -> tuple:
    _reject_fixed_u(args)
    q0 = parse_q(args.q)
    if args.family == "rook":
        result = semisimple_rook(args.k, q0=q0)
    else:
        u = parse_u_list(args.u)
        if args.family == "aAlg" and len(u) != 2:
            raise InvalidArgument("aAlg needs exactly two u values")
        result = semisimple_cyclotomic(u, args.k, q0=q0)
    payload = {"family": args.family, "k": args.k, "semisimple": result}
    return _emit(payload), 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qrook argument parser, built once per process: main() reuses it
    on every call.  Each subcommand's parser holds, as its ``func``
    default, the cmd_* function it was built with, so a cmd_* rebound
    after the first call is not seen."""
    top = argparse.ArgumentParser(prog="qrook")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableaux", help="enumerate standard tableaux")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--multi", help='multipartition, e.g. "[[2],[1]]"')
    g.add_argument("--skew", help='skew shape, e.g. "[2,1]/[1]"')
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("rep", help="export a seminormal module")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--multi")
    g.add_argument("--skew")
    p.add_argument("--u", help="comma-separated exact parameters")
    p.add_argument("--k")
    p.add_argument("--d")
    p.add_argument("--u1")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("verify", help="run a relation suite on modules")
    p.add_argument(
        "--family",
        required=True,
        choices=["rook", "Ak", "cyclo", "aAlg", "Bprime"],
    )
    p.add_argument("--k", required=True)
    p.add_argument("--u")
    p.add_argument("--q", default="symbolic")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bratteli", help="export a branching graph")
    p.add_argument("--family", required=True, choices=["B", "A"])
    p.add_argument("--levels", required=True)
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.set_defaults(func=cmd_bratteli)

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("--rook", required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("schurweyl", help="tensor-space action report")
    p.add_argument("--m", required=True, help="graded dimensions, e.g. 1,2")
    p.add_argument("--k", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(func=cmd_schurweyl)

    p = sub.add_parser("semisimple", help="semisimplicity predicates")
    p.add_argument(
        "--family", required=True, choices=["rook", "cyclo", "aAlg"]
    )
    p.add_argument("--k", required=True)
    p.add_argument("--u")
    p.add_argument("--q", default="symbolic")
    p.set_defaults(func=cmd_semisimple)

    return top


def _ascii_int(text: str) -> int:
    """text as an integer: an optional "-" and ASCII digits, with blanks
    allowed around them, or ValueError.  int() alone also reads "1_0" as
    10 and digits outside ASCII."""
    text = text.strip()
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)  # ValueError past int()'s digit limit too


# options read by _ascii_int, which argparse would read with int()
INT_OPTIONS = ("k", "d", "levels", "rook")

# options whose value may start with "-": a negative number, a fraction
# or a list such as -1,3
SIGNED_VALUE_OPTIONS = ("--u", "--q", "--u1")


def _join_signed_values(argv: list) -> list:
    """argv with `--u -1,3` written as `--u=-1,3`: argparse reads a value
    that starts with "-" and is not a plain number as an option name and
    fails with "expected one argument", while the `=` form works.  A
    following option name (`--...` or `-h`) is left alone."""
    out = []
    for tok in argv:
        if (
            out
            and out[-1] in SIGNED_VALUE_OPTIONS
            and tok.startswith("-")
            and not tok.startswith("--")
            and tok != "-h"
        ):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        values = vars(args)
        # argparse before Python 3.13 reads "--opt=--" as an empty list
        for name, value in values.items():
            if isinstance(value, list):
                raise InvalidArgument(f"argument --{name} needs one value")
        for name in INT_OPTIONS:
            if values.get(name) is not None:
                try:
                    values[name] = _ascii_int(values[name])
                except ValueError as exc:
                    raise InvalidArgument(f"bad integer {values[name]!r} for --{name}") from exc
        output, code = args.func(args)
    except (InvalidArgument, DivisionByZero, PoleAtPoint, DegenerateContent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; silence the interpreter's own flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
