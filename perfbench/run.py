"""The horadam benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout holding src/horadam.  With --trace 0 it
times set-up in five fresh workload processes (the median), lets the
third of them run the closed loop for --seconds, and reports the
end-to-end metrics.  With --trace 1 it reports the per-layer metrics of a
traced replay instead.  Every output is checked by the benchmark's own
oracles.  Human-readable lines and a JSON report (environment, tail
percentile, input-property shares) come first; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when a
result was produced, whether or not every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, FAILED_FRAC, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh processes timed per run for setup_s, before and after the one that
#: runs the loop (which is timed too).  Spreading them over the run makes
#: their median follow the CPU's speed over the whole run rather than over
#: the few seconds before it.
SETUPS_BEFORE, SETUPS_AFTER = 2, 2
#: Whole-run limit; the benchmark must end within 180 s.
DEADLINE_S = 170.0
#: A fixed glibc mmap threshold: large buffers are mapped and unmapped per
#: operation instead of the dynamic threshold rising after the first free
#: and leaving the heap fragmented.  peak_rss_mb then follows each
#: operation's footprint, as in a one-call-per-process CLI, rather than the
#: allocation history of a long in-process loop.
WORKER_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


class WorkerError(RuntimeError):
    pass


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise WorkerError("workload process timed out")
    line = proc.stdout.readline()
    if not line:
        raise WorkerError(f"workload process exited with {proc.wait()} before reporting")
    return line.decode()


def start_worker(workload: str, seed: int, mode: str, seconds: int, deadline: float):
    """(process, set-up seconds, ready info) once the process is ready to time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, env=WORKER_ENV)
    try:
        line = _read_line(proc, deadline)
        setup = time.perf_counter() - start
        if not line.startswith("ready "):
            raise WorkerError(f"unexpected worker line {line[:200]!r}")
        return proc, setup, json.loads(line[len("ready "):])
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "int_info": dict(zip(("bits_per_digit", "sizeof_digit", "default_max_str_digits",
                              "str_digits_check_threshold"), sys.int_info)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "op_count": WORKLOADS[workload].op_count,
        "generator": WORKLOADS[workload].generator,
    }


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile of times and the number of samples beyond it."""
    ordered = sorted(times)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def shares(props: dict[str, int], digits: list[int]) -> dict:
    """Share of operations with each input property, and the printed-digit quartiles."""
    out = {prop: round(count / props["ops"], 4) for prop, count in sorted(props.items()) if prop != "ops"}
    if any(digits):
        q = statistics.quantiles(digits, n=4) if len(digits) > 1 else digits * 3
        out["printed_digits_per_op"] = {"min": min(digits), "q1": q[0], "median": q[1], "q3": q[2], "max": max(digits)}
    return out


def run(workload_name: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """(result line, report) of one run."""
    workload = WORKLOADS[workload_name]
    deadline = time.monotonic() + DEADLINE_S
    setups, import_ms = [], []

    def probe() -> None:
        proc, setup, info = start_worker(workload_name, seed, "probe", seconds, deadline)
        stop(proc)
        setups.append(setup)
        import_ms.append(info["import_ms"])

    for _ in range(SETUPS_BEFORE):
        probe()
    proc, setup, info = start_worker(workload_name, seed, "trace" if traced else "measure", seconds, deadline)
    try:
        setups.append(setup)
        import_ms.append(info["import_ms"])
        result = json.loads(_read_line(proc, deadline))
        if proc.wait(max(1.0, deadline - time.monotonic())) != 0:
            raise WorkerError(f"workload process exited with {proc.returncode}")
    finally:
        stop(proc)
    for _ in range(SETUPS_AFTER):
        probe()

    report = {"env": environment(workload_name, seed, seconds),
              "shares": shares(result["props"], result["digits"])}
    if traced:
        values = dict(result["metrics"], **{"cli.import_ms": statistics.median(import_ms)})
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        report["spans"] = result["spans"]
    else:
        times = result["times_ms"]
        tail_ms, beyond = tail(times, workload.tail_percentile)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / result["busy_s"],
            "op_p50_ms": statistics.median(times),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {name: unit for name, unit, _, _, _ in END_TO_END}
        report["tail"] = {"percentile": workload.tail_percentile, "samples": len(times), "beyond": beyond}
        report["setup_samples_s"] = setups
        report[FAILED_FRAC[0]] = {"value": result["failed"] / result["attempted"], "unit": FAILED_FRAC[1]}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return line, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one horadam benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "horadam" / "cli.py").is_file():
        print(f"error: no src/horadam under {ROOT}; run from a horadam checkout", file=sys.stderr)
        return 2
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}, {'traced' if args.trace else 'untraced'}: "
          f"{line['attempted']} ops, {line['failed']} failed")
    for name, metric in line["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']}")
    if not args.trace:
        frac = report[FAILED_FRAC[0]]
        print(f"  {FAILED_FRAC[0]:44s} {frac['value']:14.4f} {frac['unit']}")
        print(f"  (op_tail_ms is p{report['tail']['percentile']} of {report['tail']['samples']} ops, "
              f"{report['tail']['beyond']} beyond it)")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
