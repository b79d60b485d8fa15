"""Self-tests of the benchmark: generators, oracles, metric names, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import metrics, oracles, worker  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PATTERNS, WINDOW_CELLS, WORKLOADS, make_derive, make_window, window_choices,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_seeded(name):
    make = WORKLOADS[name].make_ops
    first, again, other = make(7), make(7), make(8)
    assert len(first) == WORKLOADS[name].op_count
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.argv for op in first] != [op.argv for op in other]


def test_generator_shares_are_fixed_by_the_strata():
    derive = make_derive(3)
    assert {op.spec["pattern"] for op in derive} == set(PATTERNS)
    assert sum("expected_rejection" in op.props for op in derive) == len(derive) // 16
    assert sum("rational" in op.props for op in derive) == len(derive) // 8
    window = make_window(3)
    for kind in ("general_seed", "negative_bound", "csv"):
        assert sum(kind in op.props for op in window) == len(window) // 4
    assert all(2000 <= op.spec["hi"] - op.spec["lo"] + 1 <= 6000 for op in window)
    for kind, width, target in WINDOW_CELLS:
        choices = window_choices(width, target, kind == "negative_bound")
        assert sum(name is None for name, _, _ in choices) >= 3


def _run(argv):
    code, out, err, _ = worker.call(argv)
    return code, out, err


def test_seq_residues_match_exact_recurrence():
    a, b, r, s = Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-3)
    values = {0: a, 1: b}
    for n in range(2, 31):
        values[n] = r * values[n - 1] + s * values[n - 2]
    for n in range(-1, -21, -1):
        values[n] = (values[n + 2] - r * values[n + 1]) / s
    for lo, hi in ((-20, 30), (0, 30), (7, 12)):
        want = [oracles.text_residue(str(values[n])) for n in range(lo, hi + 1)]
        assert oracles.seq_residues(a, b, r, s, lo, hi) == want


@pytest.mark.parametrize("text", ["-0", "007", "3/1", "1_000", "12a", "", "-", "4/0"])
def test_text_residue_rejects_non_canonical_text(text):
    assert oracles.text_residue(text) is None


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_seq_oracle_rejects_one_flipped_digit(fmt):
    op = next(op for op in make_window(5) if op.spec["format"] == fmt)
    code, out, err = _run(op.argv)
    assert oracles.check_seq(op.spec, code, out, err).problems == []
    # Flip a digit deep inside the longest printed value.
    at = out.rindex("9", 0, len(out) // 2)
    corrupted = out[:at] + "8" + out[at + 1:]
    assert oracles.check_seq(op.spec, code, corrupted, err).problems


def test_bigindex_oracle_rejects_one_flipped_digit():
    op = WORKLOADS["bigindex"].make_ops(1)[0]
    code, out, err = _run(op.argv)
    assert oracles.check_seq(op.spec, code, out, err).problems == []
    at = out.index('"value": "') + 5000
    flipped = "1" if out[at] != "1" else "2"
    assert oracles.check_seq(op.spec, code, out[:at] + flipped + out[at + 1:], err).problems


def test_derive_oracle_rejects_one_changed_matrix_entry():
    op = next(op for op in make_derive(2) if not op.spec["degenerate"])
    code, out, err = _run(op.argv)
    assert oracles.check_derive(op.spec, code, out, err).problems == []
    record = json.loads(out)
    record["results"]["matrix"][1][2] = str(Fraction(record["results"]["matrix"][1][2]) + 1)
    assert oracles.check_derive(op.spec, code, json.dumps(record, indent=2), err).problems


def test_derive_oracle_requires_degenerate_inputs_to_exit_2():
    op = next(op for op in make_derive(2) if op.spec["degenerate"])
    code, out, err = _run(op.argv)
    assert (code, out) == (2, "") and err.startswith("error:")
    assert oracles.check_derive(op.spec, code, out, err).problems == []
    assert oracles.check_derive(op.spec, 1, out, err).problems
    assert oracles.check_derive(op.spec, 2, out, "Traceback (most recent call last):\n").problems


def test_verify_oracle_rejects_a_pass_rewritten_as_fail():
    spec = {"pairs": [(Fraction(3), Fraction(-1))], "n_max": 16}
    code, out, err = _run(("verify", "--grid=3,-1", "--n-max", "16"))
    assert oracles.check_verify(spec, code, out, err).problems == []
    corrupted = out.replace('"status": "pass"', '"status": "fail"', 1)
    assert oracles.check_verify(spec, code, corrupted, err).problems
    assert oracles.check_verify(spec, code, out, err, indices_checked=1).problems


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [m[0] for m in metrics.END_TO_END] + [metrics.FAILED_FRAC[0]] + [m[0] for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.fullmatch(name) for name in names)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bound}
                                   for n, u, b, bound, _ in metrics.END_TO_END]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER]
    # derive runs by hand only: its uniform costs make its median too unsteady to gate on.
    gated = [w for w in WORKLOADS.values() if w.name != "derive"]
    assert [w["name"] for w in bench["workloads"]] == [w.name for w in gated]
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in gated]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    workload = WORKLOADS[name]
    ops = [op for op in workload.make_ops(4) if op.spec.get("n_max", 0) <= 24][:2]
    result = worker.trace(workload, ops)
    # worker.trace counts an op as failed when its traced output differs.
    assert (result["attempted"], result["failed"]) == (2, 0)
    produced = set(result["metrics"]) | {"cli.import_ms"}
    assert produced == {m[0] for m in metrics.PER_LAYER}
    # Every wrapper is gone again.
    from horadam import cli, derivation, matrices
    for fn in (cli.main, derivation.fast_gen_fib, matrices.Matrix.__mul__, matrices.QuadElem.__init__):
        assert not hasattr(fn, "__wrapped__")


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
