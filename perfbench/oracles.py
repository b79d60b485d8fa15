"""Checks of horadam's printed output that share no code with horadam.

Each oracle takes an operation's spec, exit code, stdout and stderr and
returns the problems it found; an empty list means the output is right.
They run outside the timed interval.

- seq (bigindex, window): every printed value is reduced modulo a large
  prime in time linear in its length and compared with this module's own
  residue of H(n), from a 2x2 companion power or a plain recurrence mod P.
  This avoids int(str), which is quadratic on CPython 3.11.
- derive: A and E are parsed as fractions and checked against the
  eigen-equations on the rational vectors u = (r, r, -2), v = (1, -1, 0)
  and the kernel direction z, against E^2 = E, E*A = 0, E*z = z, and the
  printed A^n against this module's own power of A.
- verify: names, ranges and statuses of every report, the summary, and
  (in a traced run) the indices the identity checks were asked to cover.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

P = (1 << 61) - 1
_CHUNK = 500
_CHUNK_SCALE = pow(10, _CHUNK, P)


class Verdict(NamedTuple):
    problems: list[str]
    #: Decimal digits printed in the values of a seq output, else 0.
    digits: int = 0


def _digits_mod(digits: str) -> int:
    if len(digits) <= _CHUNK:
        return int(digits) % P
    head = len(digits) % _CHUNK or _CHUNK
    acc = int(digits[:head])
    for i in range(head, len(digits), _CHUNK):
        acc = (acc * _CHUNK_SCALE + int(digits[i:i + _CHUNK])) % P
    return acc


def _is_digits(text: str) -> bool:
    # bytes.isdigit is ASCII-only and an order of magnitude faster than str.isdigit.
    return text.isascii() and text.encode().isdigit()


def text_residue(text: str) -> int | None:
    """num * den^-1 mod P of a printed "-n" or "n/d"; None unless the text
    is in canonical form (no leading zeros, no "-0", no "/1")."""
    negative = text[:1] == "-"
    num, slash, den = text[negative:].partition("/")
    if not _is_digits(num) or (num[0] == "0" and (len(num) > 1 or negative)):
        return None
    value = _digits_mod(num)
    if slash:
        if not _is_digits(den) or den[0] == "0" or den == "1":
            return None
        value = value * pow(_digits_mod(den), -1, P) % P
    return -value % P if negative else value


def _mod(q: Fraction) -> int:
    return q.numerator * pow(q.denominator, -1, P) % P


def _mat2_mul(x, y):
    return (
        ((x[0][0] * y[0][0] + x[0][1] * y[1][0]) % P, (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % P),
        ((x[1][0] * y[0][0] + x[1][1] * y[1][0]) % P, (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % P),
    )


def _mat2_pow(m, n: int):
    result = ((1, 0), (0, 1))
    while n:
        if n & 1:
            result = _mat2_mul(result, m)
        m = _mat2_mul(m, m)
        n >>= 1
    return result


def seq_residues(a: Fraction, b: Fraction, r: Fraction, s: Fraction, lo: int, hi: int) -> list[int]:
    """H(n) mod P for n in [lo, hi], with H(0) = a, H(1) = b.

    [[r, s], [1, 0]]^n has bottom row (h(n), s*h(n-1)), so
    H(n) = b*h(n) + a*s*h(n-1) is read off one 2x2 power for n >= 0; below
    zero the recurrence is stepped backward from H(0), H(1).
    """
    a, b, r, s = map(_mod, (a, b, r, s))
    if lo >= 0:
        m = _mat2_pow(((r, s), (1, 0)), lo)
        cur = (b * m[1][0] + a * m[1][1]) % P
        nxt = (b * (r * m[1][0] + m[1][1]) + a * s * m[1][0]) % P  # H(lo+1)
    else:
        s_inv = pow(s, -1, P)
        cur, nxt = a, b
        for _ in range(-lo):
            cur, nxt = (nxt - r * cur) * s_inv % P, cur
    out = []
    for _ in range(lo, hi + 1):
        out.append(cur)
        cur, nxt = nxt, (r * nxt + s * cur) % P
    return out


def _parse_seq(text: str, fmt: str) -> tuple[dict, list[tuple[int, str]]]:
    if fmt == "json":
        record = json.loads(text)
        values = [(v["index"], v["value"]) for v in record["results"]["values"]]
        return record["params"], values
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["key", "value"]:
        raise ValueError(f"csv header {rows[0]}")
    flat = dict(rows[1:])
    params = {key: flat.get(f"params.{key}") for key in ("name", "a", "b", "r", "s", "from", "to")}
    params["name"] = params["name"] or None
    params["from"], params["to"] = int(params["from"]), int(params["to"])
    count = sum(1 for key in flat if key.startswith("results.values.") and key.endswith(".index"))
    values = [(int(flat[f"results.values.{i}.index"]), flat[f"results.values.{i}.value"]) for i in range(count)]
    if flat.get("command") != "seq" or len(flat) != 8 + 2 * count:
        raise ValueError("unexpected csv keys")
    return params, values


def check_seq(spec: dict, code, out: str, err: str) -> Verdict:
    problems = []
    if code != 0 or err:
        return Verdict([f"exit {code}, stderr {err[:200]!r}"])
    try:
        params, values = _parse_seq(out, spec["format"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict([f"unparsable {spec['format']} output: {exc}"])
    for key in ("a", "b", "r", "s"):
        if Fraction(params[key]) != spec[key]:
            problems.append(f"params.{key} = {params[key]}")
    if (params["name"], params["from"], params["to"]) != (spec["name"], spec["lo"], spec["hi"]):
        problems.append(f"params {params}")
    lo, hi = spec["lo"], spec["hi"]
    if [index for index, _ in values] != list(range(lo, hi + 1)):
        return Verdict(problems + [f"indices do not run {lo}..{hi}"])
    expected = seq_residues(spec["a"], spec["b"], spec["r"], spec["s"], lo, hi)
    digits = 0
    for (index, text), want in zip(values, expected):
        digits += len(text) - text.count("-") - text.count("/")
        if text_residue(text) != want:
            problems.append(f"H({index}) wrong: {text[:40]}...")
            if len(problems) > 5:
                break
    return Verdict(problems, digits)


def _matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    matrix = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
    if len(matrix) != 3 or any(len(row) != 3 for row in matrix):
        raise ValueError("not 3x3")
    return matrix


def _mat_vec(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


def _mat_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def _mat_pow(m, n: int):
    result = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    while n:
        if n & 1:
            result = _mat_mul(result, m)
        m = _mat_mul(m, m)
        n >>= 1
    return result


def check_derive(spec: dict, code, out: str, err: str) -> Verdict:
    if spec["degenerate"]:
        ok = code == 2 and not out and err.startswith("error:") and "Traceback" not in err
        return Verdict([] if ok else [f"degenerate input: exit {code}, stderr {err[:200]!r}"])
    if code != 0 or err:
        return Verdict([f"exit {code}, stderr {err[:200]!r}"])
    r, s, n = spec["r"], spec["s"], spec["n"]
    z = tuple(Fraction(1 if ch == "+" else -1) for ch in spec["pattern"])
    zero = (Fraction(0),) * 3
    try:
        record = json.loads(out)
        params, results = record["params"], record["results"]
        a = _matrix(results["matrix"])
        e = _matrix(results["projector"])
        power = results["power"]
        closed = _matrix(power["closed_form"])
        direct = _matrix(power["matrix_power"])
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict([f"unparsable derive output: {exc}"])
    problems = []
    if (Fraction(params["r"]), Fraction(params["s"]), params["pattern"], params["n"]) != (r, s, spec["pattern"], n):
        problems.append(f"params {params}")
    facts = [
        ("A*u", _mat_vec(a, (r, r, -2)), (r * r + 2 * s, -2 * s, -r)),
        ("A*v", _mat_vec(a, (1, -1, 0)), (r, 0, -1)),
        ("A*z", _mat_vec(a, z), zero),
        ("E*E", _mat_mul(e, e), e),
        ("E*A", _mat_mul(e, a), (zero,) * 3),
        ("E*z", _mat_vec(e, z), z),
    ]
    a_n = _mat_pow(a, n)
    facts += [("closed_form", closed, a_n), ("matrix_power", direct, a_n),
              ("power.n", power["n"], n), ("power.equal", power["equal"], True)]
    problems += [f"{name} wrong" for name, got, want in facts if got != want]
    return Verdict(problems)


_VARIANT_CHECKS = ("power_form", "power_det_zero", "closed_power")
#: Tabulated classic systems and the status their comparison must have: the
#: commonly quoted Pell matrix differs from the derivation in one entry.
REFERENCES = {"fibonacci": ((1, 1), "pass"), "jacobsthal": ((1, 2), "pass"), "pell": ((2, 1), "discrepancy")}


def expected_reports(pairs, n_max: int) -> dict[tuple[str, Fraction, Fraction], tuple[int, int, str]]:
    """(identity, r, s) -> (lo, hi, status) of every report verify must print."""
    per_pair = {"cassini": 1, "cubic": 2, "companion_power": 1, "companion_decomposition": 1,
                "binet_recurrence": -10, "linear_approximation": 1}
    per_pair.update({f"{check}_{v}": 1 for check in _VARIANT_CHECKS for v in (1, 2, 3)})
    expected = {}
    for r, s in pairs:
        for name, lo in per_pair.items():
            expected[(name, r, s)] = (lo, n_max, "pass")
        for v in (1, 2, 3):
            expected[(f"projector_algebra_{v}", r, s)] = (1, 3, "pass")
    for name, ((r, s), status) in REFERENCES.items():
        expected[(f"reference_matrix_{name}", Fraction(r), Fraction(s))] = (1, 1, status)
        expected[(f"reference_power_{name}", Fraction(r), Fraction(s))] = (1, n_max, status)
    return expected


def check_verify(spec: dict, code, out: str, err: str, indices_checked: int | None = None) -> Verdict:
    if code != 0 or err:
        return Verdict([f"exit {code}, stderr {err[:200]!r}"])
    try:
        record = json.loads(out)
        reports = record["results"]["reports"]
        got = {(rep["identity"], Fraction(rep["params"]["r"]), Fraction(rep["params"]["s"])):
               (rep["range"][0], rep["range"][1], rep["status"]) for rep in reports}
        grid = [(Fraction(r), Fraction(s)) for r, s in record["params"]["grid"]]
        summary = record["results"]["summary"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict([f"unparsable verify output: {exc}"])
    problems = []
    if grid != spec["pairs"] or record["params"]["n_max"] != spec["n_max"]:
        problems.append("params do not echo the grid")
    expected = expected_reports(spec["pairs"], spec["n_max"])
    if len(reports) != len(expected) or got != expected:
        wrong = sorted({key[0] for key in expected.keys() ^ got.keys()}
                       | {key[0] for key in expected.keys() & got.keys() if expected[key] != got[key]})
        problems.append(f"{len(reports)} reports, expected {len(expected)}; differing: {wrong[:6]}")
    if any(rep["status"] == "fail" for rep in reports):
        problems.append("a check failed")
    if summary != dict(Counter(rep["status"] for rep in reports)):
        problems.append(f"summary {summary} disagrees with the reports")
    if indices_checked is not None:
        covered = sum(rep["range"][1] - rep["range"][0] + 1 for rep in reports if rep["status"] == "pass")
        if indices_checked != covered:
            problems.append(f"identities.indices_checked {indices_checked} != {covered} covered by pass reports")
    return Verdict(problems)


ORACLES = {"verify": check_verify, "derive": check_derive, "bigindex": check_seq, "window": check_seq}
