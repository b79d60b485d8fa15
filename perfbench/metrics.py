"""Every metric the benchmark reports: name, unit, better direction, and
what it is for.  BENCHMARK.json lists the same names; a self-test keeps
the two in step.

End-to-end metrics are measured with tracing off.  Their bound is the
share of the parent commit's median by which a change may worsen them.
Per-layer metrics come from the traced run, per operation, and name the
end-to-end metric and workload each should move.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: (name, unit, better, bound, definition)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "process start to first timed op: interpreter, import horadam, input generation, one warm-up op; "
     "median of 5 fresh processes, 2 started before the timed loop and 2 after it"),
    ("ops_per_s", "1/s", "higher", 0.25, "ops completed in the timed phase / its wall time, oracle excluded"),
    ("op_p50_ms", "ms", "lower", 0.25, "median per-op wall time, argv in to captured text out"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "per-op time at the workload's fixed tail percentile, the highest with 10 of op_count ops beyond it"),
    ("peak_rss_mb", "MB", "lower", 0.1, "ru_maxrss of the workload process"),
)

#: Reported with the others but not bounded: it is 0 at a correct commit.
#: The result line carries it as `failed` / `attempted`.
FAILED_FRAC = ("failed_frac", "ratio",
               "ops with an unexpected exit code, a traceback on stderr or an oracle mismatch / ops attempted")

#: (name, unit, better, should move)
PER_LAYER = (
    ("cli.main.self_ms", "ms/op", "lower", "op_p50_ms on bigindex, window (parse plus value stringify)"),
    ("cli.emit_ms", "ms/op", "lower", "op_p50_ms and peak_rss_mb on window (serialize and write)"),
    ("cli.out_bytes", "B/op", "lower", "must stay equal on every workload: output is byte-identical"),
    ("cli.import_ms", "ms", "lower", "setup_s on all workloads (fresh-interpreter import)"),
    ("registry.resolve.calls", "1/op", "lower", "predicted flat; a guard on window and bigindex"),
    ("registry.resolve.ms", "ms/op", "lower", "predicted flat; a guard on window and bigindex"),
    ("identities.run_suite.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("identities.ms_per_index", "ms", "lower", "ops_per_s on verify"),
    *((f"identities.check_{c}.ms", "ms/op", "lower", "op_p50_ms on verify") for c in (
        "cassini", "cubic", "power_form", "power_det_zero", "closed_power", "projector_algebra",
        "companion_power", "companion_decomposition", "binet", "linear_approximation",
        "reference_matrix", "reference_power")),
    ("identities.indices_checked", "1/op", "higher", "guard: must not drop on verify"),
    ("derivation.derive.calls", "1/op", "lower",
     "ops_per_s on verify (about a third of its op time); derive, run by hand, isolates it"),
    ("derivation.derive.ms", "ms/op", "lower",
     "ops_per_s on verify (about a third of its op time); derive, run by hand, isolates it"),
    ("derivation.derive.distinct_ratio", "ratio", "higher",
     "ops_per_s on verify (classic_systems re-derives on every reference check)"),
    ("derivation.closed_power.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("derivation.power_form.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("derivation.reference_power.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("matrices.Matrix.mul.calls", "1/op", "lower", "ops_per_s on verify; op_p50_ms on derive (by hand)"),
    ("matrices.Matrix.mul.ms", "ms/op", "lower", "ops_per_s on verify; op_p50_ms on derive (by hand)"),
    ("matrices.Matrix.pow.ms", "ms/op", "lower", "ops_per_s on verify; op_p50_ms on derive (by hand)"),
    ("matrices.Matrix.inverse.calls", "1/op", "lower", "ops_per_s on verify; op_p50_ms on derive (by hand)"),
    ("matrices.Matrix.inverse.ms", "ms/op", "lower", "ops_per_s on verify; op_p50_ms on derive (by hand)"),
    ("matrices.companion_power_form.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("matrices.companion_decomposition_check.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("sequences.fast_gen_fib.calls", "1/op", "lower", "op_p50_ms on bigindex; verify"),
    ("sequences.fast_gen_fib.ms", "ms/op", "lower", "op_p50_ms on bigindex; verify"),
    ("sequences.gen_fib.calls", "1/op", "lower", "ops_per_s on verify"),
    ("sequences.gen_fib.steps", "1/op", "lower", "ops_per_s on verify (sum of |n|: the O(n^2) recomputation)"),
    ("sequences.horadam_range.ms", "ms/op", "lower", "op_p50_ms on window"),
    ("sequences.horadam_range.values", "1/op", "lower", "op_p50_ms on window (equal unless the windows change)"),
    ("sequences.binet_eval.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("sequences.linear_approx_check.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("exact.QuadElem.new", "1/op", "lower", "ops_per_s on verify; derive (by hand)"),
    ("exact.QuadElem.pow.calls", "1/op", "lower", "ops_per_s on verify"),
    ("exact.QuadElem.pow.ms", "ms/op", "lower", "ops_per_s on verify"),
    ("trace.op_ms", "ms/op", "lower", "none; traced op time, the base of dominant_share"),
    ("trace.dominant_share", "ratio", "higher",
     "none; share of traced op time in the workload's named dominant layer, confirms why it exists"),
    ("trace.overhead_frac", "ratio", "lower", "none; traced / untraced time of the same ops, minus 1"),
)
