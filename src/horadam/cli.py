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
import json
import re
import sys
import time
from collections import Counter

from .derivation import KernelPattern, classic_for, closed_power, derive
from .errors import HoradamError
from .exact import decimal_text, decimal_walk, narrow, unlimited_int_digits
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
)

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_INT_RE = re.compile(r"^-?\d+$")

#: The bench strategies, each a runner(r, s, n) of h(n).  The kernels are looked up at
#: call time, so a wrapper put on one of this module's globals takes effect.
STRATEGIES = {
    "iterative": lambda r, s, n: gen_fib(r, s, n),
    "matrix-pow": lambda r, s, n: (companion(r, s) ** n)[1, 0],
    "fast-doubling": lambda r, s, n: fast_gen_fib(r, s, n)[0],
}


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
    if record["command"] == "seq":
        _emit_seq(record["params"], record["results"]["values"], fmt)
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value"])
        for key, value in _flatten(record):
            writer.writerow([key, _csv_cell(value)])
    else:
        print(json.dumps(record, indent=2))


def _emit_seq(params: dict, values, fmt: str) -> None:
    """The seq record, byte for byte as _emit writes the others, streamed: the head, then one
    fixed row per (index, text) pair of ``values`` ({0} its place, {1} its index, {2} its
    text, {3} the comma after the row before), then the tail.  It calls no indented
    json.dumps, whose pure-Python encoder leaves a reference cycle behind."""
    write = sys.stdout.write
    if fmt == "csv":
        csv.writer(sys.stdout).writerows([("key", "value"), ("command", "seq"),
                                          *[(f"params.{k}", _csv_cell(v)) for k, v in params.items()]])
        row, tail = "results.values.{0}.index,{1}\r\nresults.values.{0}.value,{2}\r\n", ""
    else:
        fields = ",\n".join(f"    {json.dumps(key)}: {json.dumps(value)}" for key, value in params.items())
        write('{\n  "command": "seq",\n  "params": {\n' + fields + '\n  },\n  "results": {\n    "values": [')
        row = '{3}\n      {{\n        "index": {1},\n        "value": "{2}"\n      }}'
        tail = "\n    ]\n  }\n}\n"
    for place, (index, text) in enumerate(values):
        write(row.format(place, index, text, "," if place else ""))
    write(tail)


def _resolve_params(args) -> tuple[str | None, RecurrenceParams]:
    """Name and/or individual fraction flags to RecurrenceParams."""
    name = None
    values = {"a": 0, "b": 1}
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
    name, params = _resolve_params(args)
    if start > stop:
        raise ValueError(f"empty index range [{start}, {stop}]")
    return {
        "name": name,
        "a": str(params.a),
        "b": str(params.b),
        "r": str(params.r),
        "s": str(params.s),
        "from": start,
        "to": stop,
    }, {"values": zip(range(start, stop + 1), _seq_texts(params, start, stop))}, 0


def _seq_texts(params: RecurrenceParams, start: int, stop: int):
    """The text of H(start), H(start+1), ..., at least up to H(stop): one walk in decimal when
    r, s, H(start) and H(start+1) are integral, else decimal_text of each value."""
    first, second = (narrow(v.value) for v in horadam_range(params, start, start + 1))
    r, s = narrow(params.r), narrow(params.s)
    if all(type(x) is int for x in (r, s, first, second)):
        return decimal_walk(r, s, first, second)
    rest = horadam_range(RecurrenceParams(first, second, r, s), 0, stop - start)
    return (decimal_text(v.value) for v in rest)


def _cmd_derive(args) -> tuple[dict, dict, int]:
    r = parse_fraction(args.r)
    s = parse_fraction(args.s)
    pattern = KernelPattern.from_string(args.pattern)
    t = parse_fraction(args.t)
    system = derive(r, s, pattern, t)
    alpha, beta = system.eigenvectors[0][:2]
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


def _decimal_digits(n: int) -> int:
    """len(str(abs(n))) without int->str, which is quadratic in CPython 3.11."""
    n = abs(n)
    # 1233/4096 < log10(2), so this starts at or below the count.
    digits = 1 + (max(n.bit_length() - 1, 0) * 1233 >> 12)
    bound = 10 ** digits
    while n >= bound:
        digits += 1
        bound *= 10
    return digits


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
    timings = []
    values = []
    for strategy in chosen:
        begin = time.perf_counter()
        value = STRATEGIES[strategy](r, s, n)
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        timings.append({"strategy": strategy, "ms": f"{elapsed_ms:.3f}"})
        values.append(value)
    all_equal = all(value == values[0] for value in values[1:])
    params = {"name": name, "r": str(r), "s": str(s), "n": n, "strategies": chosen}
    results = {
        "digits": _decimal_digits(values[0].numerator),
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
    with unlimited_int_digits():
        try:
            args = _build_parser().parse_args(argv)
            params, results, code = args.handler(args)
            _emit({"command": args.command, "params": params, "results": results}, args.format)
            return code
        except (HoradamError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
