"""End-to-end CLI behavior: output schemas, formats, exit codes."""

import argparse
import csv
import decimal
import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horadam
from horadam import RecurrenceParams, gen_fib, horadam_eval, registry
from horadam.cli import _decimal_digits, main
from horadam.exact import _STR_BITS, unlimited_int_digits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def caller_digit_limit():
    """CPython's default int->str digit limit, as a fresh interpreter has it
    (tests/test_acceptance.py lifts it at import); restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int->str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def flatten(value, prefix=""):
    """Independent re-implementation of the CSV flattening scheme."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            yield from flatten(sub, f"{prefix}.{index}")
    else:
        yield prefix, value


#: Full `derive` results, pinned byte for byte: (r, s, pattern, results).
DERIVE_GOLDEN = [
    ("1", "1", "+-+", {
        "matrix": [["1", "0", "-1"], ["-1", "-1", "0"], ["0", "1", "1"]],
        "projector": [["1", "1", "1"], ["-1", "-1", "-1"], ["1", "1", "1"]],
        "eigenvectors": [
            ["1/2 + 1/2*sqrt(5)", "1/2 - 1/2*sqrt(5)", "1"],
            ["1/2 - 1/2*sqrt(5)", "1/2 + 1/2*sqrt(5)", "-1"],
            ["-1", "-1", "1"],
        ],
        "alpha": "1/2 + 1/2*sqrt(5)",
        "beta": "1/2 - 1/2*sqrt(5)",
        "validity": "r != 0",
        "reference": {"name": "fibonacci", "matches": True, "mismatches": []},
    }),
    ("3", "1", "+++", {
        "matrix": [["13/5", "-2/5", "-11/5"], ["-1/5", "-1/5", "2/5"], ["-4/5", "1/5", "3/5"]],
        "projector": [["1/5", "1/5", "3/5"], ["1/5", "1/5", "3/5"], ["1/5", "1/5", "3/5"]],
        "eigenvectors": [
            ["3/2 + 1/2*sqrt(13)", "3/2 - 1/2*sqrt(13)", "1"],
            ["3/2 - 1/2*sqrt(13)", "3/2 + 1/2*sqrt(13)", "1"],
            ["-1", "-1", "1"],
        ],
        "alpha": "3/2 + 1/2*sqrt(13)",
        "beta": "3/2 - 1/2*sqrt(13)",
        "validity": "det(P) != 0 for the supplied pattern",
    }),
    ("7/3", "-1", "++-", {
        "matrix": [["19/3", "4", "31/3"], ["3", "3", "6"], ["-4", "-3", "-7"]],
        "projector": [["-3", "-3", "-7"], ["-3", "-3", "-7"], ["3", "3", "7"]],
        "eigenvectors": [
            ["7/6 + 1/2*sqrt(13/9)", "7/6 - 1/2*sqrt(13/9)", "1"],
            ["7/6 - 1/2*sqrt(13/9)", "7/6 + 1/2*sqrt(13/9)", "1"],
            ["-1", "-1", "-1"],
        ],
        "alpha": "7/6 + 1/2*sqrt(13/9)",
        "beta": "7/6 - 1/2*sqrt(13/9)",
        "validity": "r not in {0, 2}",
    }),
]


GOLDEN = Path(__file__).parent / "golden"
#: A grid that reaches every skip path: r = 0, the r = 2 hole of pattern 2,
#: s = 0, D < 0 and a rational pair.
SKIP_GRID = "--grid=0,1;2,1;3,0;1,-1;7/2,-2/3"


class TestSeq:
    def test_fibonacci_window(self, capsys):
        record = run_json(capsys, "seq", "fibonacci", "0..10")
        values = [v["value"] for v in record["results"]["values"]]
        assert values == ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34", "55"]
        assert record["params"]["r"] == "1"

    def test_negative_single_index(self, capsys):
        record = run_json(capsys, "seq", "fibonacci", "--from=-1", "--to=-1")
        assert record["results"]["values"] == [{"index": -1, "value": "1"}]

    def test_params_instead_of_name(self, capsys):
        record = run_json(capsys, "seq", "--r", "6", "--s", "-1", "0..4")
        values = [v["value"] for v in record["results"]["values"]]
        assert values == ["0", "1", "6", "35", "204"]

    def test_fast_window_matches_iteration(self, capsys):
        narrow = run_json(capsys, "seq", "fibonacci", "120..122")
        wide = run_json(capsys, "seq", "fibonacci", "0..122")
        assert narrow["results"]["values"] == wide["results"]["values"][120:]

    def test_general_seed_flags(self, capsys):
        record = run_json(capsys, "seq", "--a", "2", "--b", "1", "--r", "1", "--s", "1", "0..6")
        values = [v["value"] for v in record["results"]["values"]]
        assert values == ["2", "1", "3", "4", "7", "11", "18"]

    def test_flags_override_named_entry(self, capsys):
        record = run_json(capsys, "seq", "fibonacci", "0..4", "--a", "2")
        values = [v["value"] for v in record["results"]["values"]]
        assert values == ["2", "1", "3", "4", "7"]

    def test_double_dash_allows_negative_range(self, capsys):
        record = run_json(capsys, "seq", "fibonacci", "--", "-2..2")
        values = [v["value"] for v in record["results"]["values"]]
        assert values == ["-1", "1", "0", "1", "1"]

    def test_fractional_values_appear_as_fraction_strings(self, capsys):
        record = run_json(capsys, "seq", "--r", "4", "--s", "3", "--from=-2", "--to=0")
        values = [v["value"] for v in record["results"]["values"]]
        assert values == ["-4/9", "1/3", "0"]

    def test_huge_values_print_as_str(self, capsys):
        # F(100000) has 20,899 digits, above the size where decimal_text stops calling str().
        n = 100_000
        h_n, h_next = 0, 1
        for _ in range(n):
            h_n, h_next = h_next, h_n + h_next
        assert h_n.bit_length() > _STR_BITS
        with unlimited_int_digits():
            expected = [str(h_n), str(h_next)]
        record = run_json(capsys, "seq", "fibonacci", f"{n}..{n + 1}")
        assert [v["value"] for v in record["results"]["values"]] == expected
        code, out, _ = run_cli(capsys, "seq", "fibonacci", f"{n}..{n + 1}", "--format", "csv")
        rows = dict(list(csv.reader(io.StringIO(out)))[1:])
        assert code == 0
        assert [rows["results.values.0.value"], rows["results.values.1.value"]] == expected

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seq", "unknown", "0..3")
        assert code == 2 and "unknown" in err

    def test_negative_index_with_zero_s(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--r", "3", "--s", "0", "--from=-2", "--to=0")
        assert code == 2 and "s != 0" in err

    def test_empty_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "seq", "fibonacci", "5..4")
        assert code == 2

    def test_malformed_fraction(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--r", "x", "--s", "1", "0..3")
        assert code == 2 and "malformed" in err

    def test_missing_range(self, capsys):
        code, _, _ = run_cli(capsys, "seq", "fibonacci")
        assert code == 2

    def test_params_need_both_r_and_s(self, capsys):
        assert run_cli(capsys, "seq", "0..3", "--r", "1") == (
            2, "", "error: either a sequence name or both --r and --s are required\n")

    def test_huge_exponent_rejected(self, capsys, monkeypatch):
        # --r is parsed first, so the patched Fraction fails the test if the text reaches it.
        monkeypatch.setattr(registry, "Fraction", mock.Mock(side_effect=AssertionError("Fraction reached")))
        assert run_cli(capsys, "seq", "--r", "1e1000000", "--s", "1", "0..2") == (
            2, "", "error: fraction '1e1000000' has an exponent of magnitude above 10000\n")


def seq_argv(a, b, r, s, lo, hi, *extra):
    return ["seq", f"--a={a}", f"--b={b}", f"--r={r}", f"--s={s}", f"--from={lo}", f"--to={hi}", *extra]


def printed_values(out):
    return [v["value"] for v in json.loads(out)["results"]["values"]]


def list_route(name, params, lo, hi, fmt):
    """A seq record as the list-of-dicts route writes it: every value a dict of
    str(horadam_eval(...)), then json.dumps(indent=2) or one csv.writer row per
    flattened key."""
    record = {
        "command": "seq",
        "params": {"name": name, **{field: str(getattr(params, field)) for field in "abrs"},
                   "from": lo, "to": hi},
        "results": {"values": [{"index": n, "value": str(horadam_eval(params, n))} for n in range(lo, hi + 1)]},
    }
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    for key, value in flatten(record):
        writer.writerow([key, "" if value is None else str(value)])
    return out.getvalue()


class TestSeqWalk:
    """seq's printed values against str() of the Fraction iteration in horadam_eval."""

    @settings(max_examples=80, deadline=None)
    @given(a=st.integers(-9, 9), b=st.integers(-9, 9), r=st.integers(-9, 9),
           s=st.integers(-9, 9).filter(bool), lo=st.integers(-60, 60), width=st.integers(1, 25))
    def test_every_value_is_str_of_eval(self, a, b, r, s, lo, width):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(seq_argv(a, b, r, s, lo, lo + width - 1))
        params = RecurrenceParams(a, b, r, s)
        assert code == 0
        assert printed_values(out.getvalue()) == [str(horadam_eval(params, n)) for n in range(lo, lo + width)]

    @pytest.mark.parametrize("a,b,r,s,lo,hi", [
        (0, 0, -2, -3, 0, 12),   # all zero: every product is -0 in decimal
        (0, 0, -1, -1, -12, 12),
        (-1, 0, -1, 0, 0, 8),    # s = 0: 0 * H(n) carries H(n)'s sign
        (-1, -1, 0, 0, 0, 8),
        (1, 1, 1, -1, -13, 13),  # crosses zero in both directions, period 6
        (1, 0, -1, -1, -13, 13),
        (4, 2, 2, -1, -9, 9),    # an arithmetic progression through 0
    ])
    def test_zero_prints_without_sign(self, capsys, a, b, r, s, lo, hi):
        values = printed_values(run_cli(capsys, *seq_argv(a, b, r, s, lo, hi))[1])
        assert "0" in values and "-0" not in values
        assert values == [str(horadam_eval(RecurrenceParams(a, b, r, s), n)) for n in range(lo, hi + 1)]

    def test_window_above_the_split_size(self, capsys):
        # H(20000) for (2, -7, 3, 1) has about 34,500 bits, so H(lo) is converted by the split.
        lo, hi = 20_000, 20_004
        prev, cur = 2, -7
        for _ in range(lo):
            prev, cur = cur, 3 * cur + prev
        expected = []
        for _ in range(lo, hi + 1):
            expected.append(prev)
            prev, cur = cur, 3 * cur + prev
        assert abs(expected[0]).bit_length() > _STR_BITS
        with unlimited_int_digits():
            expected = [str(value) for value in expected]
        assert printed_values(run_cli(capsys, *seq_argv(2, -7, 3, 1, lo, hi))[1]) == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("a,b,r,s,lo,hi", [
        ("0", "1", "1", "1", 0, 90),            # integral
        ("2", "-7", "3", "-1", -40, 40),        # integral below 0: s = -1
        ("0", "1", "4", "3", -6, 6),            # Fractions below 0 only
        ("1/2", "3", "7/2", "-2/3", -5, 12),    # rational throughout
        ("0", "1", "2", "1", 7, 7),             # a single value
    ])
    def test_bytes_match_the_list_route(self, capsys, monkeypatch, a, b, r, s, lo, hi, fmt):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        params = RecurrenceParams(*(Fraction(text) for text in (a, b, r, s)))
        code, out, err = run_cli(capsys, *seq_argv(a, b, r, s, lo, hi, "--format", fmt))
        assert (code, err) == (0, "")
        assert out == list_route(None, params, lo, hi, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_name_that_needs_escaping(self, capsys, tmp_path, fmt):
        name = 'a"b,cé'
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{"name": name, "a": "3", "b": "-1", "r": "2", "s": "-1"}]))
        code, out, err = run_cli(capsys, "seq", name, "--from=-10", "--to=10", "--registry", str(path),
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert out == list_route(name, RecurrenceParams(3, -1, 2, -1), -10, 10, fmt)


#: seq errors, one per kind: empty range, backward with s = 0, unknown name, bad range, bad fraction.
SEQ_ERRORS = [
    ("seq", "fibonacci", "5..4"),
    ("seq", "--r", "3", "--s", "0", "--from=-2", "--to=0"),
    ("seq", "nosuch", "0..3"),
    ("seq", "fibonacci", "0-10"),
    ("seq", "--r", "x", "--s", "1", "0..3"),
]


class FailingStdout(io.StringIO):
    """A stdout whose writes raise OSError once `limit` characters are written.
    It keeps the decimal context current at each write: the caller's code runs there."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.contexts = []

    def write(self, text):
        self.contexts.append(decimal.getcontext())
        if self.tell() + len(text) > self.limit:
            raise OSError(28, "No space left on device")
        return super().write(text)


class TestSeqStreaming:
    """seq writes its values as it walks: nothing before validation, nothing left behind."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", SEQ_ERRORS, ids=[" ".join(a) for a in SEQ_ERRORS])
    def test_error_before_the_first_byte(self, capsys, monkeypatch, argv, fmt):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_failed_write_leaves_the_callers_decimal_context(self, capsys, monkeypatch):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        argv = ["seq", "fibonacci", "--from=-5", "--to=30"]
        with decimal.localcontext() as caller:
            decimal.getcontext().prec = 5
            before = (caller.prec, caller.Emax, caller.Emin, dict(caller.traps), dict(caller.flags))
            stdout, err = FailingStdout(400), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(err):
                assert main(argv) == 2
            assert 0 < len(stdout.getvalue()) <= 400
            assert stdout.contexts and all(context is caller for context in stdout.contexts)
            assert err.getvalue() == "error: [Errno 28] No space left on device\n"
            assert decimal.getcontext() is caller
            assert (caller.prec, caller.Emax, caller.Emin, dict(caller.traps), dict(caller.flags)) == before
            code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / "seq_fibonacci_from-5_to30.json").read_bytes().decode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_call_leaves_no_garbage(self, capsys, fmt):
        # An indented json.dumps leaves its pure-Python encoder as a 33-object cycle.
        argv = ["seq", "fibonacci", "--from=-5", "--to=30", "--format", fmt]
        main(argv)
        gc.collect()
        gc.disable()
        try:
            main(argv)
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


class TestDerive:
    def test_fibonacci_matrix(self, capsys):
        record = run_json(capsys, "derive", "--r", "1", "--s", "1", "--pattern", "+-+")
        assert record["results"]["matrix"] == [
            ["1", "0", "-1"],
            ["-1", "-1", "0"],
            ["0", "1", "1"],
        ]
        assert record["results"]["reference"]["matches"] is True

    def test_pell_discrepancy_reported(self, capsys):
        record = run_json(capsys, "derive", "--r", "2", "--s", "1", "--pattern", "+-+")
        reference = record["results"]["reference"]
        assert reference["name"] == "pell"
        assert reference["matches"] is False
        assert reference["mismatches"] == [
            {"row": 2, "col": 0, "derived": "-1/2", "reference": "0"}
        ]

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--r", "0", "--s", "1", "--pattern", "+-+")
        assert code == 2 and "r != 0" in err

    def test_power_comparison(self, capsys):
        record = run_json(capsys, "derive", "--r", "3", "--s", "2", "--pattern", "+-+", "--n", "6")
        power = record["results"]["power"]
        assert power["equal"] is True
        assert power["closed_form"] == power["matrix_power"]

    def test_leading_minus_pattern(self, capsys):
        record = run_json(capsys, "derive", "--r", "1", "--s", "1", "--pattern=-++")
        assert record["params"]["pattern"] == "-++"

    def test_eigenvalue_strings(self, capsys):
        record = run_json(capsys, "derive", "--r", "1", "--s", "1", "--pattern", "+-+")
        assert record["results"]["alpha"] == "1/2 + 1/2*sqrt(5)"
        assert record["results"]["beta"] == "1/2 - 1/2*sqrt(5)"

    @pytest.mark.parametrize("r,s,pattern,results", DERIVE_GOLDEN,
                             ids=[f"{r},{s},{p}" for r, s, p, _ in DERIVE_GOLDEN])
    def test_golden_record(self, capsys, r, s, pattern, results):
        code, out, err = run_cli(capsys, "derive", "--r", r, "--s", s, f"--pattern={pattern}")
        record = {
            "command": "derive",
            "params": {"r": r, "s": s, "pattern": pattern, "t": "1", "n": None},
            "results": results,
        }
        assert code == 0 and err == ""
        assert out == json.dumps(record, indent=2) + "\n"


class TestVerify:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--defaults", "--n-max", "12")
        assert code == 0
        record = json.loads(out)
        summary = record["results"]["summary"]
        assert summary.get("fail", 0) == 0
        assert summary["discrepancy"] == 2
        identities = {r["identity"] for r in record["results"]["reports"]}
        assert "cassini" in identities and "reference_power_pell" in identities

    def test_empty_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid", "")
        assert code == 0
        record = json.loads(out)
        assert record["results"]["reports"] == []

    def test_single_pair_small_range(self, capsys):
        record = run_json(capsys, "verify", "--params", "1/1,1/1", "--n-max", "1")
        reports = record["results"]["reports"]
        cassini = next(r for r in reports if r["identity"] == "cassini")
        assert cassini["status"] == "pass" and cassini["range"] == [1, 1]

    def test_grid_spec(self, capsys):
        record = run_json(capsys, "verify", "--grid", "3,2;6,-1", "--n-max", "8")
        assert record["params"]["grid"] == [["3", "2"], ["6", "-1"]]

    def test_skips_annotated(self, capsys):
        record = run_json(capsys, "verify", "--params", "0,1", "--n-max", "4")
        statuses = {r["status"] for r in record["results"]["reports"]}
        assert "skipped" in statuses and "fail" not in statuses

    def test_malformed_grid(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--grid", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, capsys, n_max):
        code, out, err = run_cli(capsys, "verify", "--params", "1,1", "--n-max", n_max)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--n-max" in err


class TestVerifyGolden:
    """Full `verify` stdout, pinned byte for byte."""

    @pytest.mark.parametrize("argv,golden", [
        (("--defaults", "--n-max", "16"), "verify_defaults_n16.json"),
        ((SKIP_GRID, "--n-max", "1"), "verify_grid_n1.json"),
        ((SKIP_GRID, "--n-max", "2"), "verify_grid_n2.json"),
        ((SKIP_GRID, "--n-max", "24"), "verify_grid_n24.json"),
        ((SKIP_GRID, "--n-max", "6", "--format", "csv"), "verify_grid_n6.csv"),
    ], ids=["defaults-16", "grid-1", "grid-2", "grid-24", "grid-6-csv"])
    def test_output_is_pinned(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_bytes().decode()


#: Usage errors, pinned as (argv, exit code, stderr).
USAGE_ERRORS = [
    (("seq", "nosuch", "0..3"), 2,
     "error: unknown sequence name 'nosuch' (known: balancing, fibonacci, jacobsthal, pell)\n"),
    (("seq", "--r", "x", "--s", "1", "0..3"), 2,
     "error: malformed fraction 'x': Invalid literal for Fraction: 'x'\n"),
    (("seq", "fibonacci", "5..4"), 2, "error: empty index range [5, 4]\n"),
    (("seq", "fibonacci"), 2, "error: an index range is required: FROM..TO or --from/--to\n"),
    (("seq", "fibonacci", "0-10"), 2, "error: range must look like FROM..TO, got '0-10'\n"),
    (("bench", "fibonacci", "10", "warp"), 2,
     "error: unknown strategies ['warp']; pick from ['iterative', 'matrix-pow', 'fast-doubling']\n"),
    (("bench", "fibonacci", "0"), 2, "error: n must be >= 1, got 0\n"),
    (("verify", "--params", "1,1", "--n-max", "0"), 2, "error: --n-max must be >= 1, got 0\n"),
    (("registry", "add", "x", "--r", "1", "--s", "1"), 2,
     "error: no registry file to write: pass --registry PATH or set HORADAM_REGISTRY\n"),
]


class TestCliGolden:
    """Full stdout of the other commands, and the usage errors, pinned byte for byte."""

    @pytest.mark.parametrize("argv,golden", [
        (("seq", "fibonacci", "--from=-5", "--to=30"), "seq_fibonacci_from-5_to30.json"),
        (("seq", "--a", "2", "--b", "1", "--r", "1", "--s", "1", "0..40", "--format", "csv"),
         "seq_lucas_0_40.csv"),
        (("seq", "--r", "4", "--s", "3", "--from=-3", "--to=5"), "seq_r4_s3_from-3_to5.json"),
        (("derive", "--r", "2", "--s", "1", "--pattern", "+-+", "--n", "12", "--format", "csv"),
         "derive_pell_n12.csv"),
        (("registry", "list"), "registry_list.json"),
        (("registry", "list", "--format", "csv"), "registry_list.csv"),
    ], ids=["seq-fibonacci", "seq-lucas-csv", "seq-fractional", "derive-pell-csv",
            "registry-json", "registry-csv"])
    def test_output_is_pinned(self, capsys, monkeypatch, argv, golden):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_bytes().decode()

    @pytest.mark.parametrize("argv,code,err", USAGE_ERRORS, ids=[" ".join(a) for a, _, _ in USAGE_ERRORS])
    def test_usage_error_is_pinned(self, capsys, monkeypatch, argv, code, err):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        assert run_cli(capsys, *argv) == (code, "", err)


class TestBench:
    def test_all_strategies_agree(self, capsys):
        record = run_json(capsys, "bench", "fibonacci", "50", "*")
        assert record["results"]["all_equal"] is True
        assert record["results"]["digits"] == len(str(gen_fib(1, 1, 50)))
        names = [t["strategy"] for t in record["results"]["timings"]]
        assert names == ["iterative", "matrix-pow", "fast-doubling"]

    def test_trivial_index(self, capsys):
        record = run_json(capsys, "bench", "fibonacci", "1")
        assert record["results"]["digits"] == 1
        assert record["results"]["all_equal"] is True

    def test_strategy_subset(self, capsys):
        record = run_json(capsys, "bench", "pell", "500", "iterative,fast-doubling")
        names = [t["strategy"] for t in record["results"]["timings"]]
        assert names == ["iterative", "fast-doubling"]
        assert record["results"]["all_equal"] is True

    def test_params_without_name(self, capsys):
        record = run_json(capsys, "bench", "--r", "1", "--s", "2", "64", "fast-doubling")
        assert record["params"]["name"] is None
        assert record["results"]["digits"] == len(str(gen_fib(1, 2, 64)))

    def test_unknown_strategy(self, capsys):
        code, _, err = run_cli(capsys, "bench", "fibonacci", "10", "warp")
        assert code == 2 and "unknown strategies" in err

    def test_zero_index_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "fibonacci", "0")
        assert code == 2

    def test_missing_index(self, capsys):
        assert run_cli(capsys, "bench") == (
            2, "", "error: bench requires an index: bench [NAME] N [STRATEGIES]\n")

    def test_empty_strategy_list(self, capsys):
        assert run_cli(capsys, "bench", "fibonacci", "10", ",") == (2, "", "error: strategy list is empty\n")

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_no_seed_flags(self, capsys, flag):
        # h(n) does not depend on the seeds, so bench takes none.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fibonacci", "10", flag, "2"])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    def test_timings_are_decimal_strings(self, capsys):
        record = run_json(capsys, "bench", "fibonacci", "10")
        for timing in record["results"]["timings"]:
            float(timing["ms"])  # parseable
            assert isinstance(timing["ms"], str)

    def test_digit_count_matches_decimal_text(self):
        for n in [0, 9, 10] + [n for k in range(1, 51) for n in (10 ** k - 1, 10 ** k)]:
            assert _decimal_digits(n) == _decimal_digits(-n) == len(str(n)), n

    def test_million_index_digit_count(self, capsys, caller_digit_limit):
        record = run_json(capsys, "bench", "fibonacci", "1000000", "fast-doubling")
        assert record["results"]["digits"] == 208988
        assert sys.get_int_max_str_digits() == caller_digit_limit


class TestDigitLimit:
    def test_main_restores_the_callers_limit(self, capsys, monkeypatch, caller_digit_limit):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        assert run_cli(capsys, "registry", "list")[0] == 0
        assert sys.get_int_max_str_digits() == caller_digit_limit
        assert run_cli(capsys, "derive", "--r", "0", "--s", "1", "--pattern", "+-+")[0] == 2
        assert sys.get_int_max_str_digits() == caller_digit_limit
        with pytest.raises(SystemExit):
            main(["verify", "--n-max", "x"])
        assert sys.get_int_max_str_digits() == caller_digit_limit


class TestRegistryCommand:
    def test_add_then_use(self, capsys, tmp_path):
        path = str(tmp_path / "reg.json")
        record = run_json(capsys, "registry", "add", "lucas-like",
                          "--a", "2", "--b", "1", "--r", "1", "--s", "1",
                          "--registry", path)
        assert record["results"]["entries"][0]["name"] == "lucas-like"
        listing = run_json(capsys, "registry", "list", "--registry", path)
        names = [e["name"] for e in listing["results"]["entries"]]
        assert "lucas-like" in names and "fibonacci" in names
        seq = run_json(capsys, "seq", "lucas-like", "0..6", "--registry", path)
        assert [v["value"] for v in seq["results"]["values"]] == [
            "2", "1", "3", "4", "7", "11", "18",
        ]

    def test_env_var_paths(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        monkeypatch.setenv("HORADAM_REGISTRY", str(path))
        run_json(capsys, "registry", "add", "shadow", "--r", "3", "--s", "-2")
        listing = run_json(capsys, "registry", "list")
        assert any(e["name"] == "shadow" for e in listing["results"]["entries"])

    def test_user_entry_shadows_builtin(self, capsys, tmp_path):
        path = str(tmp_path / "reg.json")
        run_json(capsys, "registry", "add", "fibonacci",
                 "--a", "5", "--b", "5", "--r", "1", "--s", "1",
                 "--registry", path)
        seq = run_json(capsys, "seq", "fibonacci", "0..3", "--registry", path)
        assert [v["value"] for v in seq["results"]["values"]] == ["5", "5", "10", "15"]

    def test_add_to_array_of_non_objects(self, capsys, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("[1]")
        code, out, err = run_cli(capsys, "registry", "add", "x", "--r", "1", "--s", "1",
                                 "--registry", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert path.read_text() == "[1]"

    def test_value_text_length_bound(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "reg.json"
        entry = {"name": "long", "a": "9" * 10_000, "b": "1", "r": "1", "s": "1"}
        path.write_text(json.dumps([entry]))
        listing = run_json(capsys, "registry", "list", "--registry", str(path))
        assert dict(entry, source="user") in listing["results"]["entries"]
        # CPython 3.11 parses long decimal text in quadratic time: fail if this text reaches Fraction.
        monkeypatch.setattr(registry, "Fraction", mock.Mock(side_effect=AssertionError("Fraction reached")))
        # A bare JSON number reaches the same check as its text: not as an int, nor as a float
        # whose text would be short ("1.0").
        for value in ('"' + "9" * 10_001 + '"', "9" * 10_001, "1." + "0" * 9_999):
            path.write_text('[{"name": "long", "a": %s, "b": "1", "r": "1", "s": "1"}]' % value)
            assert run_cli(capsys, "registry", "list", "--registry", str(path)) == (
                2, "", "error: fraction text of 10001 characters is longer than 10000\n")

    def test_add_without_target(self, capsys, monkeypatch):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        code, _, err = run_cli(capsys, "registry", "add", "x", "--r", "1", "--s", "1")
        assert code == 2 and "registry" in err


class TestClosedStdout:
    def test_broken_pipe_is_one_error_line(self):
        # The reader stops after a few bytes of output far larger than a pipe buffer.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(horadam.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-m", "horadam", "seq", "fibonacci", "0..3000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            proc.stdout.read(16)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read().decode() == "error: [Errno 32] Broken pipe\n"
        finally:
            proc.kill()
            proc.stderr.close()


class TestOptimizedInterpreter:
    """No check is an assert: under `python -O` the CLI still prints the pinned bytes."""

    @pytest.mark.parametrize("argv,golden", [
        (("verify", "--defaults", "--n-max", "16"), "verify_defaults_n16.json"),
        (("derive", "--r", "2", "--s", "1", "--pattern", "+-+", "--n", "12", "--format", "csv"),
         "derive_pell_n12.csv"),
        (("seq", "fibonacci", "--from=-5", "--to=30"), "seq_fibonacci_from-5_to30.json"),
        (("seq", "--a", "2", "--b", "1", "--r", "1", "--s", "1", "0..40", "--format", "csv"),
         "seq_lucas_0_40.csv"),
    ], ids=["verify-defaults-16", "derive-pell-csv", "seq-fibonacci", "seq-lucas-csv"])
    def test_output_is_pinned(self, argv, golden):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(horadam.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        env.pop("HORADAM_REGISTRY", None)
        proc = subprocess.run([sys.executable, "-O", "-m", "horadam", *argv],
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / golden).read_bytes()


class TestOutputContracts:
    def test_csv_and_json_encode_the_same_values(self, capsys):
        argv = ["seq", "--r", "4", "--s", "3", "--from=-3", "--to", "5"]
        record = run_json(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        csv_map = dict(rows[1:])
        flat = dict(flatten(record))
        assert len(csv_map) == len(flat)
        for key, value in flat.items():
            if value is None:
                expected = ""
            elif isinstance(value, bool):
                expected = "true" if value else "false"
            else:
                expected = str(value)
            assert csv_map[key] == expected

    def test_verify_csv_has_matching_statuses(self, capsys):
        record = run_json(capsys, "verify", "--params", "3,2", "--n-max", "4")
        code, out, _ = run_cli(capsys, "verify", "--params", "3,2", "--n-max", "4",
                               "--format", "csv")
        assert code == 0
        csv_map = dict(list(csv.reader(io.StringIO(out)))[1:])
        for index, report in enumerate(record["results"]["reports"]):
            assert csv_map[f"results.reports.{index}.status"] == report["status"]

    def test_json_round_trip_reproduces_values(self, capsys):
        first = run_json(capsys, "seq", "--r", "6", "--s", "-1", "0..9")
        params = first["params"]
        second = run_json(
            capsys, "seq",
            "--a", params["a"], "--b", params["b"],
            "--r", params["r"], "--s", params["s"],
            "--from", str(params["from"]), "--to", str(params["to"]),
        )
        assert second["results"] == first["results"]

    def test_derive_output_is_deterministic(self, capsys):
        argv = ["derive", "--r", "3", "--s", "2", "--pattern", "+-+", "--n", "4"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0 and out1 == out2

    def test_matrices_are_three_by_three_fraction_strings(self, capsys):
        record = run_json(capsys, "derive", "--r", "5", "--s", "3", "--pattern", "+-+")
        matrix = record["results"]["matrix"]
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
        assert all(isinstance(cell, str) for row in matrix for cell in row)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--bogus-flag"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_main_leaves_no_parser_garbage(self, capsys):
        argv = ["seq", "--r", "1", "--s", "1", "0..3"]
        main(argv)
        gc.collect()
        debug = gc.get_debug()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
        capsys.readouterr()
        assert parsers == []


# Small value sets, mostly good with some malformed, so every drawn command runs quickly.
def _mostly(good, bad):
    return st.sampled_from(tuple(good) * 4 + tuple(bad))


FUZZ_FRACTION = _mostly(("0", "1", "-1", "2", "6", "3/2", "-2/3", "0.5"), ("1/0", "x", "", "2/", "--3"))
FUZZ_PATTERN = _mostly(("+++", "++-", "+-+", "-+-", "---"), ("+-", "++++", "ab+", ""))
FUZZ_NAME = _mostly(("fibonacci", "pell", "balancing"), ("nosuch", "3..5"))
FUZZ_PAIR = _mostly(("1,1", "3,2", "-3/2,5", "0,1", "2,1", "1,-1", "7/2,-2/3", "3,0"), ("1", "a,b", ""))


def _flags(draw, names, values, optional=True):
    return [f"--{name}={draw(values)}" for name in names if not optional or draw(st.booleans())]


@st.composite
def cli_argv(draw):
    fmt = ["--format", draw(_mostly(("json", "csv"), ("xml",)))] if draw(st.booleans()) else []
    command = draw(st.sampled_from(("seq", "derive", "verify", "bench", "registry")))
    named = draw(st.booleans())
    if command == "seq":
        argv = ["seq"] + ([draw(FUZZ_NAME)] if named else [])
        span = draw(st.sampled_from(("dots", "flags", "malformed", "none")))
        if span == "dots":
            lo = draw(st.integers(0, 50))
            argv.append(f"{lo}..{lo + draw(st.integers(-2, 50 - lo))}")
        elif span == "flags":
            lo = draw(st.integers(-50, 50))
            argv += [f"--from={lo}", f"--to={lo + draw(st.integers(-2, 50 - lo))}"]
        elif span == "malformed":
            argv.append(draw(st.sampled_from(("3..", "a..b", "-2..4", "5"))))
        argv += _flags(draw, ("r", "s"), FUZZ_FRACTION, optional=named)
        argv += _flags(draw, ("a", "b"), FUZZ_FRACTION)
    elif command == "derive":
        argv = ["derive"] + _flags(draw, ("r", "s"), FUZZ_FRACTION, optional=False)
        argv += _flags(draw, ("pattern",), FUZZ_PATTERN, optional=False)
        argv += _flags(draw, ("t",), FUZZ_FRACTION)
        argv += _flags(draw, ("n",), _mostly([str(n) for n in range(-2, 9)], ("x",)))
    elif command == "verify":
        argv = ["verify", f"--n-max={draw(st.integers(-2, 8))}"]
        if draw(st.booleans()):
            argv.append(f"--grid={';'.join(draw(st.lists(FUZZ_PAIR, max_size=3)))}")
        argv += [f"--params={p}" for p in draw(st.lists(FUZZ_PAIR, max_size=2))]
        argv += ["--defaults"] if draw(st.booleans()) else []
    elif command == "bench":
        argv = ["bench"] + ([draw(FUZZ_NAME)] if named else [])
        argv.append(draw(_mostly([str(n) for n in range(-2, 65)], ("x",))))
        if draw(st.booleans()):
            argv.append(draw(_mostly(("*", "iterative", "fast-doubling,matrix-pow"), ("bogus", ","))))
        argv += _flags(draw, ("r", "s"), FUZZ_FRACTION, optional=named)
    else:
        argv = ["registry", "list"]
    return argv + fmt


class TestArgvFuzz:
    """No argv reaches the user as a traceback; exit codes stay 0, 1 or 2."""

    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argv())
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("HORADAM_REGISTRY", None)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
