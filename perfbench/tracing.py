"""Spans at horadam's layer boundaries, recorded from outside the package.

`Tracer.install` replaces public functions and a few methods of the
horadam modules with wrappers that record a span per call: name, start,
end, parent span and operation id.  Modules import functions by name
(`from .sequences import gen_fib`), so a wrapper is put into every horadam
module namespace that holds the original; methods are wrapped on their
class.  Spans stay in memory until `metrics` folds them into per-layer
numbers at the end of the run.  Nothing under src/ is edited.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

CHECKS = (
    "cassini", "cubic", "power_form", "power_det_zero", "closed_power", "projector_algebra",
    "companion_power", "companion_decomposition", "binet", "linear_approximation",
    "reference_matrix", "reference_power",
)

#: (module, attribute, span name) of every spanned call.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.emit"),
    ("registry", "resolve", "registry.resolve"),
    ("identities", "run_suite", "identities.run_suite"),
    *(("identities", f"check_{c}", f"identities.check_{c}") for c in CHECKS),
    ("derivation", "derive", "derivation.derive"),
    ("derivation", "closed_power", "derivation.closed_power"),
    ("derivation", "power_form", "derivation.power_form"),
    ("derivation", "reference_power", "derivation.reference_power"),
    ("matrices", "Matrix.__mul__", "matrices.Matrix.mul"),
    ("matrices", "Matrix.__pow__", "matrices.Matrix.pow"),
    ("matrices", "Matrix.inverse", "matrices.Matrix.inverse"),
    ("matrices", "companion_power_form", "matrices.companion_power_form"),
    ("matrices", "companion_decomposition_check", "matrices.companion_decomposition_check"),
    ("sequences", "fast_gen_fib", "sequences.fast_gen_fib"),
    ("sequences", "gen_fib", "sequences.gen_fib"),
    ("sequences", "horadam_range", "sequences.horadam_range"),
    ("sequences", "binet_eval", "sequences.binet_eval"),
    ("sequences", "linear_approx_check", "sequences.linear_approx_check"),
    ("exact", "QuadElem.__pow__", "exact.QuadElem.pow"),
)
#: Calls too frequent for a span: counted only.
COUNTED = (("exact", "QuadElem.__init__", "exact.QuadElem.new"),)

#: Spans whose time makes up each workload's named dominant layer.
DOMINANT = {
    "verify": ("identities.run_suite",),
    "derive": ("derivation.derive", "derivation.closed_power"),
    "bigindex": ("sequences.fast_gen_fib", "cli.main.self"),
    "window": ("cli.main.self", "cli.emit", "sequences.horadam_range"),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _indices(check: str, args, kwargs) -> int:
    """Indices a check_* call covers, from its arguments."""
    if check == "reference_matrix":
        return 1
    if check == "projector_algebra":
        return 3
    if check == "reference_power":
        return _arg(args, kwargs, 1, "n_max")
    if check in ("power_form", "power_det_zero", "closed_power"):
        return _arg(args, kwargs, 3, "n_max")
    n_max = _arg(args, kwargs, 2, "n_max")
    if check == "cubic":
        return n_max - 1
    if check == "binet":
        n_min = _arg(args, kwargs, 3, "n_min", -10)
        if _arg(args, kwargs, 1, "s") == 0:
            n_min = max(n_min, 0)
        return n_max - n_min + 1
    return n_max


class Tracer:
    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent index or -1, op id, nested in a same-name span)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op_counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._derive_keys: set = set()
        self._patches_made: list | None = None

    # -- operation bookkeeping -------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_counts.clear()
        self._derive_keys.clear()

    def end_op(self) -> Counter:
        """Fold the operation's counts into the run totals and return them."""
        self.op_counts["derivation.derive.distinct"] = len(self._derive_keys)
        self.counts.update(self.op_counts)
        return self.op_counts

    def _after(self, name: str, args, kwargs, result) -> None:
        counts = self.op_counts
        if name == "sequences.gen_fib":
            counts["sequences.gen_fib.steps"] += abs(_arg(args, kwargs, 2, "n"))
        elif name == "sequences.horadam_range":
            counts["sequences.horadam_range.values"] += _arg(args, kwargs, 2, "hi") - _arg(args, kwargs, 1, "lo") + 1
        elif name == "derivation.derive":
            r, s = (Fraction(_arg(args, kwargs, i, key)) for i, key in ((0, "r"), (1, "s")))
            self._derive_keys.add((r, s, str(_arg(args, kwargs, 2, "pattern"))))
        elif name.startswith("identities.check_") and result.status == "pass":
            counts["identities.indices_checked"] += _indices(name[len("identities.check_"):], args, kwargs)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter_ns
        hooked = name in ("sequences.gen_fib", "sequences.horadam_range", "derivation.derive") \
            or name.startswith("identities.check_")

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[index] = (name, start, end, parent, self.op_id, depth[name] > 0)
            if hooked:
                self._after(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.op_counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a wrapper goes."""
        modules = [m for key, m in list(sys.modules.items()) if key == "horadam" or key.startswith("horadam.")]
        patches = []
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module, attr, name in table:
                home = sys.modules[f"horadam.{module}"]
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[method]
                    patches.append((owner, method, original, make(name, original)))
                    continue
                original = getattr(home, attr)
                wrapper = make(name, original)
                patches += [(mod, key, original, wrapper)
                            for mod in modules for key, value in vars(mod).items() if value is original]
        return patches

    def install(self) -> None:
        """Put the wrappers in place; `uninstall` restores the originals."""
        if self._patches_made is None:
            self._patches_made = self._patches()
        for owner, key, _, wrapper in self._patches_made:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches_made or ():
            setattr(owner, key, original)

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(inclusive ns, self ns, calls) per span name.

        Self time is a span's duration minus that of its direct children;
        inclusive time counts only the outermost of nested same-name spans.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, _, _, nested) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[index]
            if not nested:
                incl[name] += end - start
        return incl, own, calls

    def metrics(self, workload: str, ops: int) -> dict[str, float]:
        """Per-layer metrics, per operation, named as in perfbench.metrics.PER_LAYER."""
        incl, own, calls = self.totals()
        ms = {name: ns / 1e6 / ops for name, ns in incl.items()}
        ms["cli.main.self"] = own["cli.main"] / 1e6 / ops
        per_op = {name: n / ops for name, n in calls.items()}
        counts = {name: n / ops for name, n in self.counts.items()}
        out = {
            "cli.main.self_ms": ms["cli.main.self"],
            "cli.emit_ms": ms.get("cli.emit", 0.0),
            "registry.resolve.calls": per_op.get("registry.resolve", 0.0),
            "registry.resolve.ms": ms.get("registry.resolve", 0.0),
            "identities.run_suite.ms": ms.get("identities.run_suite", 0.0),
            "identities.ms_per_index": (incl["identities.run_suite"] / 1e6 / self.counts["identities.indices_checked"]
                                        if self.counts["identities.indices_checked"] else 0.0),
            "identities.indices_checked": counts.get("identities.indices_checked", 0.0),
        }
        for check in CHECKS:
            out[f"identities.check_{check}.ms"] = ms.get(f"identities.check_{check}", 0.0)
        derive_calls = calls["derivation.derive"]
        out.update({
            "derivation.derive.calls": per_op.get("derivation.derive", 0.0),
            "derivation.derive.ms": ms.get("derivation.derive", 0.0),
            "derivation.derive.distinct_ratio": (self.counts["derivation.derive.distinct"] / derive_calls
                                                 if derive_calls else 0.0),
        })
        for name in ("derivation.closed_power", "derivation.power_form", "derivation.reference_power",
                     "matrices.Matrix.mul", "matrices.Matrix.pow", "matrices.Matrix.inverse",
                     "matrices.companion_power_form", "matrices.companion_decomposition_check",
                     "sequences.fast_gen_fib", "sequences.horadam_range", "sequences.binet_eval",
                     "sequences.linear_approx_check", "exact.QuadElem.pow"):
            out[f"{name}.ms"] = ms.get(name, 0.0)
        for name in ("matrices.Matrix.mul", "matrices.Matrix.inverse", "sequences.fast_gen_fib",
                     "sequences.gen_fib", "exact.QuadElem.pow"):
            out[f"{name}.calls"] = per_op.get(name, 0.0)
        for name in ("sequences.gen_fib.steps", "sequences.horadam_range.values", "exact.QuadElem.new"):
            out[name] = counts.get(name, 0.0)
        op_ms = ms.get("cli.main", 0.0)
        out["trace.op_ms"] = op_ms
        out["trace.dominant_share"] = sum(ms.get(name, 0.0) for name in DOMINANT[workload]) / op_ms if op_ms else 0.0
        return out
