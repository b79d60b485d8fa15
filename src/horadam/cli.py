"""Command-line interface.

Subcommands: seq (evaluate a sequence window), derive (build a 3x3 system
and optionally compare two power evaluations), verify (run the identity
suite over a parameter grid), bench (time the evaluation strategies) and
registry (list or add named parameter sets).

Each subcommand's handler takes the parsed arguments and returns
(params, results, exit code); it neither prints nor builds the output
record.  ``main`` wraps params and results as {"command", "params",
"results"}, writes the record once through ``_emit`` and returns the
code; a usage or domain error a handler raises becomes one "error: ..."
line on stderr and exit code 2.

All numbers cross this boundary as exact text: decimal integer strings or
"p/q" fraction strings, never floats.  Exit codes: 0 success, 1 a
verification failure, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from collections import Counter
from fractions import Fraction

from .derivation import KernelPattern, classic_for, closed_power, derive
from .errors import HoradamError
from .identities import default_grid, matrix_mismatches, run_suite, FAIL
from .matrices import companion
from .registry import (
    RegistryEntry,
    load_registry,
    parse_fraction,
    registry_path,
    resolve,
    upsert_entry,
)
from .sequences import (
    RecurrenceParams,
    fast_gen_fib,
    gen_fib,
    horadam_range,
    roots,
)

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_INT_RE = re.compile(r"^-?\d+$")

STRATEGIES = ("iterative", "matrix-pow", "fast-doubling")


def _matrix_strings(rows) -> list[list[str]]:
    return [[str(entry) for entry in row] for row in rows]


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            yield from _flatten(sub, f"{prefix}.{index}")
    else:
        yield prefix, value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(record: dict, fmt: str) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["key", "value"])
        for key, value in _flatten(record):
            writer.writerow([key, _csv_cell(value)])
        sys.stdout.write(buffer.getvalue())
    else:
        print(json.dumps(record, indent=2))


def _resolve_params(args) -> tuple[str | None, RecurrenceParams]:
    """Name and/or individual fraction flags to RecurrenceParams."""
    name = None
    values = {"a": Fraction(0), "b": Fraction(1)}
    if args.name is not None:
        entry = resolve(args.name, registry_path(args.registry))
        name = entry.name
        values = {field: getattr(entry, field) for field in "abrs"}
    elif args.r is None or args.s is None:
        raise ValueError("either a sequence name or both --r and --s are required")
    for field in "abrs":
        text = getattr(args, field, None)
        if text is not None:
            values[field] = parse_fraction(text)
    return name, RecurrenceParams(**values)


def _cmd_seq(args) -> tuple[dict, dict, int]:
    if args.name is not None and args.span is None and _RANGE_RE.match(args.name):
        args.span = args.name
        args.name = None
    start, stop = args.start, args.stop
    if args.span is not None:
        match = _RANGE_RE.match(args.span)
        if not match:
            raise ValueError(f"range must look like FROM..TO, got {args.span!r}")
        if start is None:
            start = int(match.group(1))
        if stop is None:
            stop = int(match.group(2))
    if start is None or stop is None:
        raise ValueError("an index range is required: FROM..TO or --from/--to")
    if start > stop:
        raise ValueError(f"empty index range [{start}, {stop}]")
    name, params = _resolve_params(args)
    values = [{"index": v.index, "value": str(v.value)} for v in horadam_range(params, start, stop)]
    return {
        "name": name,
        "a": str(params.a),
        "b": str(params.b),
        "r": str(params.r),
        "s": str(params.s),
        "from": start,
        "to": stop,
    }, {"values": values}, 0


def _cmd_derive(args) -> tuple[dict, dict, int]:
    r = parse_fraction(args.r)
    s = parse_fraction(args.s)
    pattern = KernelPattern.from_string(args.pattern)
    t = parse_fraction(args.t)
    system = derive(r, s, pattern, t)
    alpha, beta = roots(r, s)
    results = {
        "matrix": _matrix_strings(system.matrix.rows),
        "projector": _matrix_strings(system.projector.rows),
        "eigenvectors": _matrix_strings(system.eigenvectors),
        "alpha": str(alpha),
        "beta": str(beta),
        "validity": system.validity,
    }
    if args.n is not None:
        closed = closed_power(system, args.n)
        direct = system.matrix ** args.n
        results["power"] = {
            "n": args.n,
            "closed_form": _matrix_strings(closed.rows),
            "matrix_power": _matrix_strings(direct.rows),
            "equal": closed == direct,
        }
    classic = classic_for(r, s, pattern)
    if classic is not None:
        mismatches = matrix_mismatches(system.matrix, classic.reference)
        results["reference"] = {
            "name": classic.name,
            "matches": not mismatches,
            "mismatches": [
                {"row": i, "col": j, "derived": lhs, "reference": rhs}
                for i, j, lhs, rhs in mismatches
            ],
        }
    return {"r": str(r), "s": str(s), "pattern": str(pattern), "t": str(t), "n": args.n}, results, 0


def _parse_grid(spec: str) -> list[RecurrenceParams]:
    return [_parse_pair(chunk.strip()) for chunk in spec.split(";") if chunk.strip()]


def _parse_pair(spec: str) -> RecurrenceParams:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2:
        raise ValueError(f"parameter pair must look like R,S, got {spec!r}")
    return RecurrenceParams(0, 1, parse_fraction(parts[0]), parse_fraction(parts[1]))


def _cmd_verify(args) -> tuple[dict, dict, int]:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    grid = [] if args.grid is None else _parse_grid(args.grid)
    grid += [_parse_pair(spec) for spec in args.params or ()]
    if args.defaults or (args.grid is None and not args.params):
        grid += default_grid()
    reports = run_suite(grid, args.n_max)
    summary = Counter(report.status for report in reports)
    params = {"grid": [[str(p.r), str(p.s)] for p in grid], "n_max": args.n_max}
    results = {"reports": [report.to_dict() for report in reports], "summary": summary}
    return params, results, 1 if summary[FAIL] else 0


def _cmd_bench(args) -> tuple[dict, dict, int]:
    tokens = [t for t in (args.name, args.n, args.strategies) if t is not None]
    args.name = tokens.pop(0) if tokens and not _INT_RE.match(tokens[0]) else None
    if not tokens or not _INT_RE.match(tokens[0]):
        raise ValueError("bench requires an index: bench [NAME] N [STRATEGIES]")
    n = int(tokens[0])
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = tokens[1] if len(tokens) > 1 else "*"
    chosen = list(STRATEGIES) if spec == "*" else [p.strip() for p in spec.split(",") if p.strip()]
    unknown = [c for c in chosen if c not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; pick from {list(STRATEGIES)}")
    if not chosen:
        raise ValueError("strategy list is empty")
    name, recurrence = _resolve_params(args)
    r, s = recurrence.r, recurrence.s

    runners = {
        "iterative": lambda: gen_fib(r, s, n),
        "matrix-pow": lambda: (companion(r, s) ** n)[1, 0],
        "fast-doubling": lambda: fast_gen_fib(r, s, n)[0],
    }
    timings = []
    values = []
    for strategy in chosen:
        begin = time.perf_counter()
        value = runners[strategy]()
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        timings.append({"strategy": strategy, "ms": f"{elapsed_ms:.3f}"})
        values.append(value)
    all_equal = all(value == values[0] for value in values[1:])
    params = {"name": name, "r": str(r), "s": str(s), "n": n, "strategies": chosen}
    results = {
        "digits": len(str(abs(values[0].numerator))),
        "all_equal": all_equal,
        "timings": timings,
    }
    return params, results, 0 if all_equal else 1


def _cmd_registry(args) -> tuple[dict, dict, int]:
    path = registry_path(args.registry)
    params = {"action": args.action, "path": str(path) if path else None}
    if args.action == "list":
        entries = load_registry(path)
        return params, {"entries": [entries[key].to_dict() for key in sorted(entries)]}, 0
    if path is None:
        raise ValueError("no registry file to write: pass --registry PATH or set HORADAM_REGISTRY")
    values = [parse_fraction(getattr(args, field)) for field in "abrs"]
    entry = RegistryEntry(args.entry_name, *values, source="user")
    upsert_entry(path, entry)
    return params, {"entries": [entry.to_dict()]}, 0


# Built once per process: main() may run many times in one process, and
# every parser left behind is cyclic garbage.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horadam",
        description="Exact Horadam / generalized Fibonacci sequences, "
        "derived 3x3 matrices, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")

    p_seq = sub.add_parser("seq", help="evaluate a sequence over an index window")
    p_seq.add_argument("name", nargs="?", help="registry name, e.g. fibonacci")
    p_seq.add_argument("span", nargs="?", metavar="FROM..TO",
                       help="index range; for negative bounds use --from/--to")
    p_seq.add_argument("--from", dest="start", type=int, help="first index")
    p_seq.add_argument("--to", dest="stop", type=int, help="last index")
    p_seq.add_argument("--a", help="H(0) as a fraction string")
    p_seq.add_argument("--b", help="H(1) as a fraction string")
    p_seq.add_argument("--r", help="recurrence coefficient r")
    p_seq.add_argument("--s", help="recurrence coefficient s")
    p_seq.add_argument("--registry", help="path to a user registry file")
    add_common(p_seq)
    p_seq.set_defaults(handler=_cmd_seq)

    p_derive = sub.add_parser("derive", help="derive a 3x3 system from a kernel pattern")
    p_derive.add_argument("--r", required=True)
    p_derive.add_argument("--s", required=True)
    p_derive.add_argument("--pattern", required=True,
                          help='kernel sign pattern, e.g. "+-+" (use --pattern=-++ '
                               "for a leading minus)")
    p_derive.add_argument("--t", default="1", help="kernel scale (display only)")
    p_derive.add_argument("--n", type=int,
                          help="also evaluate A^n two ways and compare")
    add_common(p_derive)
    p_derive.set_defaults(handler=_cmd_derive)

    p_verify = sub.add_parser("verify", help="run the identity suite over a grid")
    p_verify.add_argument("--defaults", action="store_true",
                          help="include the default parameter grid")
    p_verify.add_argument("--grid", help='grid spec "R,S;R,S;..." (may be empty)')
    p_verify.add_argument("--params", action="append", metavar="R,S",
                          help="add one parameter pair (repeatable)")
    p_verify.add_argument("--n-max", type=int, default=64)
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_bench = sub.add_parser("bench", help="time the evaluation strategies at one index")
    p_bench.add_argument("name", nargs="?", help="registry name")
    p_bench.add_argument("n", nargs="?", help="index to evaluate")
    p_bench.add_argument("strategies", nargs="?",
                         help='comma list from {%s} or "*"' % ", ".join(STRATEGIES))
    p_bench.add_argument("--r")
    p_bench.add_argument("--s")
    p_bench.add_argument("--registry", help="path to a user registry file")
    add_common(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)

    p_registry = sub.add_parser("registry", help="list or extend the sequence registry")
    reg_sub = p_registry.add_subparsers(dest="action", required=True)
    p_list = reg_sub.add_parser("list", help="show built-in and user entries")
    p_list.add_argument("--registry", help="path to a user registry file")
    add_common(p_list)
    p_list.set_defaults(handler=_cmd_registry)
    p_add = reg_sub.add_parser("add", help="add or replace a user entry")
    p_add.add_argument("entry_name", metavar="name")
    p_add.add_argument("--a", default="0")
    p_add.add_argument("--b", default="1")
    p_add.add_argument("--r", required=True)
    p_add.add_argument("--s", required=True)
    p_add.add_argument("--registry", help="path to the user registry file to write")
    add_common(p_add)
    p_add.set_defaults(handler=_cmd_registry)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Printed integers may have any number of digits: lift CPython's int->str
    # limit for this call and give the caller back its own, also on SystemExit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        params, results, code = args.handler(args)
        _emit({"command": args.command, "params": params, "results": results}, args.format)
        return code
    except (HoradamError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
