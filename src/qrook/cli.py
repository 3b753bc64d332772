"""Batch command-line front-end.

Subcommands: tableaux, rep, verify, bratteli, dims, schurweyl,
semisimple.  All numeric output is exact strings (integers, fractions,
polynomials in q); output is deterministic for a fixed invocation, and
the exit code is 0 exactly when every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from fractions import Fraction

from .errors import DegenerateContent, DivisionByZero, InvalidArgument, PoleAtPoint
from .presentations import (
    Report,
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
    """Comma-separated exact values: integers, fractions, or q-power
    expressions like ``2*q^2``."""
    if spec is None:
        raise InvalidArgument("--u is required here")
    return tuple(as_ratfunc(part.strip()) for part in spec.split(","))


def parse_q(spec: str):
    """'symbolic' -> None, otherwise an exact rational."""
    if spec == "symbolic":
        return None
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgument(f"bad q value {spec!r}") from exc


_encode_str = json.encoder.encode_basestring_ascii


def _emit(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte,
    for the types the commands emit: dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError.  A list of strings,
    such as a matrix row, is encoded by one join.  tests/test_cli.py pins
    the equality with json.dumps."""
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
        if set(map(type, x)) == {str}:
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


def cmd_rep(args) -> tuple:
    if args.multi is not None:
        if args.u is None:
            raise InvalidArgument("--multi requires --u")
        rep = cyclotomic_module(parse_multipartition(args.multi), parse_u_list(args.u))
    elif args.skew is not None:
        rep = calibrated_skew_module(parse_skew(args.skew), args.k)
    else:
        if args.k is None or args.d is None or args.u1 is None:
            raise InvalidArgument("shifted module requires --k, --d, --u1")
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


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _worker_count(jobs: int) -> int:
    """Processes to run `jobs` independent checks in: one per CPU and at
    most one per job.  It is 1 without os.fork, and while another thread
    runs, since a forked child would hold that thread's locks but not the
    thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), jobs))


def _module_cost(shape) -> int:
    """Estimated cost of checking the module of shape: its dimension.
    The time of a module's suite grows about linearly with it (the
    generators are sparse), not with its square."""
    return count_standard_tableaux(shape)


def _split(costs: list, workers: int) -> list:
    """The indices of costs in `workers` shares, each in increasing
    order: the costliest first, each to the least-loaded share, ties
    broken by index, so the split depends on the costs alone."""
    loads = [0] * workers
    shares = [[] for _ in range(workers)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += costs[i]
    return [sorted(share) for share in shares]


def _run_share(check, share) -> tuple:
    """("ok", {i: check(i)}) over share in order, or ("error", i, exc)
    for its first i whose check raises."""
    results = {}
    for i in share:
        try:
            results[i] = check(i)
        except Exception as exc:
            return ("error", i, exc)
    return ("ok", results)


def _map_forked(check, costs: list) -> list:
    """[check(i) for i in range(len(costs))], the indices split by cost
    across _worker_count processes: this one and children forked from it.
    A child runs its share, sends the pickled outcome through its own
    pipe and ends in os._exit.  The exception raised is the one of the
    smallest failing index, which the serial loop would have raised,
    since each share runs in increasing order and stops at its first
    failure.  A child that ends without a readable outcome has its share
    run here.  Every child is reaped before this returns or raises."""
    shares = _split(costs, _worker_count(len(costs)))
    if len(shares) > 1:  # neither start-up nor the one-CPU path pays for these
        import pickle
        import signal
    children = []
    done = False
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(pickle.dumps(_run_share(check, share)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), share))
        outcomes = [_run_share(check, shares[0])]
        for _, pipe, share in children:
            try:
                outcomes.append(pickle.loads(pipe.read()))
            except Exception:  # the child died, or its exception does not unpickle
                outcomes.append(_run_share(check, share))
        done = True
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [outcome[1:] for outcome in outcomes if outcome[0] == "error"]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    results = {}
    for _, share_results in outcomes:
        results.update(share_results)
    return [results[i] for i in range(len(costs))]


def _verify_family(family: str, k: int, u, q0):
    """Run the family's relation suite over every two-component module
    with a one-row first component; returns (payload, passed).  The
    modules are independent, so they are built and checked in
    _map_forked's processes.  The rook family at q = 1 runs on the
    monoid's own 0/1 matrices instead."""
    if family not in SUITES:
        raise InvalidArgument(f"unknown family {family!r}")
    if family == "rook" and q0 == 1:
        report = verify(generators_q1(k), relations_rook(k), q0=q0)
        return report.to_json(), report.passed
    if u is None:
        u = (as_ratfunc(0), as_ratfunc(1))
    shapes = index_set_A(k)
    if family == "aAlg" and len(u) != 2:
        raise InvalidArgument("aAlg needs exactly two u values")
    rels = SUITES[family](k, u)

    def check(i):
        asg = cyclotomic_module(shapes[i], u).matrices
        if family == "rook":
            asg = projector_matrices(asg, k)
        return verify(asg, rels, q0=q0).to_json()

    reports = _map_forked(check, [_module_cost(shape) for shape in shapes])
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
        dims = tuple(int(x) for x in args.m.split(","))
    except ValueError as exc:
        raise InvalidArgument(f"bad graded dimensions {args.m!r}") from exc
    basis = GradedBasis(dims)
    u = parse_u_list(args.u)
    reports = verify_phiP(args.k, basis, u)
    del reports["assignment"]
    payload = {
        name: value.to_json() if isinstance(value, Report) else value
        for name, value in reports.items()
    }
    return _emit(payload), 0 if reports["passed"] else 1


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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--u1")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("verify", help="run a relation suite on modules")
    p.add_argument(
        "--family",
        required=True,
        choices=["rook", "Ak", "cyclo", "aAlg", "Bprime"],
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u")
    p.add_argument("--q", default="symbolic")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bratteli", help="export a branching graph")
    p.add_argument("--family", required=True, choices=["B", "A"])
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.set_defaults(func=cmd_bratteli)

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("--rook", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("schurweyl", help="tensor-space action report")
    p.add_argument("--m", required=True, help="graded dimensions, e.g. 1,2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(func=cmd_schurweyl)

    p = sub.add_parser("semisimple", help="semisimplicity predicates")
    p.add_argument(
        "--family", required=True, choices=["rook", "cyclo", "aAlg"]
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u")
    p.add_argument("--q", default="symbolic")
    p.set_defaults(func=cmd_semisimple)

    return top


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
        # argparse before Python 3.13 reads "--opt=--" as an empty list
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise InvalidArgument(f"argument --{name} needs one value")
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
