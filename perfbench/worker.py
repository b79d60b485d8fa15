"""One workload process, started by run.py.

It imports horadam from the checkout's src/, generates the workload's
operations from the seed, runs one untimed warm-up call and prints
"ready" with its import time.  In mode "probe" it stops there.  In mode
"measure" it runs a closed loop with one caller for --seconds of busy
time: each operation is one in-process horadam.cli.main(argv) call with
stdout and stderr captured, timed from argv in to captured text out, then
checked by the oracle with the clock paused.  In mode "trace" it replays
the workload's leading operations, each untraced and traced, and reports
per-layer metrics.  The last stdout line is one JSON object.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
_import_start = time.perf_counter()
import horadam.cli  # noqa: E402  (timed: a fresh-interpreter import)
IMPORT_MS = (time.perf_counter() - _import_start) * 1e3
sys.path.insert(0, str(ROOT))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

from perfbench import oracles, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def call(argv) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = horadam.cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a traceback on stderr, counted as a failure
            traceback.print_exc()
            code = None
    text = out.getvalue()
    return code, text, err.getvalue(), time.perf_counter() - start


class Checker:
    """Runs the oracle on each output and keeps the failure count."""

    def __init__(self, workload: str) -> None:
        self.oracle = oracles.ORACLES[workload]
        self.attempted = 0
        self.failed = 0
        self.digits: list[int] = []

    def check(self, op, code, out, err, problems=(), **extra) -> None:
        self.attempted += 1
        problems = list(problems)
        if "Traceback" in err:
            problems.append(f"traceback: {err[-300:]!r}")
        else:
            verdict = self.oracle(op.spec, code, out, err, **extra)
            problems += verdict.problems
            self.digits.append(verdict.digits)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(op.argv)[:160]}: {problems[:3]}", file=sys.stderr)


def _prop_counts(ops) -> dict[str, int]:
    ops = list(ops)
    return {"ops": len(ops), **Counter(prop for op in ops for prop in op.props)}


def measure(workload, ops, seconds: float) -> dict:
    checker = Checker(workload.name)
    times: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    while True:
        op = ops[len(times) % len(ops)]
        code, out, err, elapsed = call(op.argv)
        times.append(elapsed)
        check_start = time.perf_counter()
        checker.check(op, code, out, err)
        del out, err
        paused += time.perf_counter() - check_start
        busy = time.perf_counter() - start - paused
        if busy >= seconds:
            break
    return {
        "times_ms": [t * 1e3 for t in times],
        "busy_s": busy,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "digits": checker.digits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "props": _prop_counts(ops[i % len(ops)] for i in range(len(times))),
    }


def trace(workload, ops) -> dict:
    """Each operation untraced and traced, alternating which goes first.

    Outputs of the two calls must match byte for byte.
    """
    checker = Checker(workload.name)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    out_bytes = 0
    for op_id, op in enumerate(ops):
        plain_first = op_id % 2 == 0
        if plain_first:
            plain = call(op.argv)
        tracer.install()
        tracer.begin_op(op_id)
        try:
            code, out, err, elapsed = call(op.argv)
        finally:
            counts = tracer.end_op()
            tracer.uninstall()
        if not plain_first:
            plain = call(op.argv)
        traced += elapsed
        untraced += plain[3]
        out_bytes += len(out.encode())
        same = (code, out, err) == plain[:3]
        extra = {"indices_checked": counts["identities.indices_checked"]} if workload.name == "verify" else {}
        checker.check(op, code, out, err, () if same else ["traced output differs from untraced"], **extra)
    metrics = tracer.metrics(workload.name, len(ops))
    metrics["cli.out_bytes"] = out_bytes / len(ops)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return {"metrics": metrics, "attempted": checker.attempted, "failed": checker.failed,
            "digits": checker.digits, "spans": len(tracer.spans), "props": _prop_counts(ops)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    call(workload.warmup)
    print("ready " + json.dumps({"import_ms": IMPORT_MS}), flush=True)
    if args.mode == "probe":
        return 0
    if args.mode == "measure":
        result = measure(workload, ops, args.seconds)
    else:
        result = trace(workload, ops[:workload.trace_ops])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
