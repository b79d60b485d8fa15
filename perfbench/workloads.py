"""Seeded inputs for the four benchmark workloads.

A generator turns a seed into a fixed-length list of operations.  An
operation is one horadam argv plus the parameters the oracle needs to
check its output; horadam itself sees only the argv.  Every list is built
from rounds of fixed strata (sizes, sign patterns, input kinds) and the
seed picks the parameters inside each stratum and the order of a round,
so the inputs change with the seed while the cost mix of a run hardly
does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

#: The registry's built-in sequences, as (r, s) with a = 0, b = 1.
BUILTINS = {"fibonacci": (1, 1), "pell": (2, 1), "jacobsthal": (1, 2), "balancing": (6, -1)}

PATTERNS = ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")

#: Estimated JSON or CSV bytes around one printed value of a seq window.
_BYTES_PER_VALUE = 60


@dataclass
class Op:
    """One CLI call: its argv, what the oracle checks it against, and the
    input properties counted in the share report."""

    argv: tuple[str, ...]
    spec: dict
    props: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: Callable[[int], list[Op]]
    #: Untimed first call of a process; fixed so set-up time does not depend on the seed.
    warmup: tuple[str, ...]
    #: Operations generated per seed; the timed loop cycles through them.
    op_count: int
    #: Leading operations replayed untraced and then traced in a trace run.
    trace_ops: int
    generator: str

    @property
    def tail_percentile(self) -> int:
        """The highest whole percentile with at least 10 of op_count samples beyond it."""
        return math.floor(100 * (1 - 10 / self.op_count))


def _flag(name: str, value) -> str:
    return f"--{name}={value}"


def _dominant_log10(r: Fraction, s: Fraction) -> float:
    """log10 of the larger root magnitude, the growth rate per index of h."""
    return math.log10((abs(r) + math.sqrt(r * r + 4 * s)) / 2)


def _int_pair(rng: random.Random, accept: Callable[[int, int], bool]) -> tuple[Fraction, Fraction]:
    while True:
        r, s = rng.randint(-9, 9), rng.randint(-9, 9)
        if r * r + 4 * s > 0 and accept(r, s):
            return Fraction(r), Fraction(s)


def _rational_pair(rng: random.Random, accept: Callable[[Fraction, Fraction], bool]) -> tuple[Fraction, Fraction]:
    """A pair with small denominators, at least one entry not an integer."""
    while True:
        r = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        s = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        if r.denominator == s.denominator == 1 or r * r + 4 * s <= 0:
            continue
        if accept(r, s):
            return r, s


def _rounds(rng: random.Random, cells: list, count: int) -> list:
    """count cells, taken round by round, each round in a seeded order."""
    out = []
    while len(out) < count:
        round_ = list(cells)
        rng.shuffle(round_)
        out.extend(round_)
    return out[:count]


# --- verify -----------------------------------------------------------------

#: Growth bands of integer pairs, as ranges of log10 of the larger root.
GROWTH_BANDS = ((0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.01))
#: One round: (n_max, pair slots), a slot being a growth band or "q" for a
#: rational pair.  Two cells of two pairs at n_max 16 and six of one pair at
#: n_max 24-64, with the bands fixed per cell, spread the operations' costs
#: evenly over about 1x-2.3x of the cheapest, the same for every seed.  A
#: flat spread of costs keeps the median from jumping when a shared CPU's
#: speed shifts under other tenants' load (it follows the mean shift
#: instead), and the operations are short enough for a run to time most of
#: the list.
VERIFY_CELLS = ((16, (0, 3)), (16, (2, "q")), (24, (1,)), (32, ("q",)),
                (40, (2,)), (48, (3,)), (56, (0,)), (64, (1,)))


def _verify_pair_ok(r, s) -> bool:
    return r not in (0, 2) and s != 0


def make_verify(seed: int) -> list[Op]:
    rng = random.Random(f"verify:{seed}")
    ops = []
    for n_max, slots in _rounds(rng, list(VERIFY_CELLS), VERIFY.op_count):
        pairs: list[tuple[Fraction, Fraction]] = []
        for slot in slots:
            while True:
                if slot == "q":
                    pair = _rational_pair(rng, _verify_pair_ok)
                else:
                    lo, hi = GROWTH_BANDS[slot]
                    pair = _int_pair(rng, lambda r, s: _verify_pair_ok(r, s) and lo <= _dominant_log10(r, s) < hi)
                if pair not in pairs:
                    pairs.append(pair)
                    break
        grid = ";".join(f"{r},{s}" for r, s in pairs)
        ops.append(Op(
            ("verify", _flag("grid", grid), "--n-max", str(n_max)),
            {"pairs": pairs, "n_max": n_max},
            frozenset({"rational"} if "q" in slots else ()),
        ))
    return ops


# --- derive -----------------------------------------------------------------


def _kernel_det(r: Fraction, pattern: str) -> Fraction:
    """det[u v z] for u = (r, r, -2), v = (1, -1, 0) and z the sign pattern."""
    z1, z2, z3 = (1 if ch == "+" else -1 for ch in pattern)
    return -2 * r * z3 - 2 * (z1 + z2)


def _derive_ok(pattern: str) -> Callable:
    # (r = 0, "++-") is left out: det[u v z] = -4 there, yet the preset's
    # domain rejects it, so its exit code is a policy choice, not a fact.
    return lambda r, s: _kernel_det(Fraction(r), pattern) != 0 and not (pattern == "++-" and r == 0)


def make_derive(seed: int) -> list[Op]:
    rng = random.Random(f"derive:{seed}")
    # Per round of 16: the 8 patterns twice, one of those calls made degenerate
    # (its pattern drawn at random) and two rational.
    cells = [(p, "int") for p in PATTERNS] * 2
    cells[0], cells[1], cells[2] = ("?", "degenerate"), (PATTERNS[1], "rational"), (PATTERNS[2], "rational")
    ops = []
    for pattern, kind in _rounds(rng, cells, DERIVE.op_count):
        if kind == "degenerate":
            pattern = rng.choice(PATTERNS)
            z1, z2, z3 = (1 if ch == "+" else -1 for ch in pattern)
            r = Fraction(-(z1 + z2), z3)  # the root of det[u v z] = 0
            s = Fraction(rng.choice([v for v in range(-9, 10) if r * r + 4 * v > 0]))
        elif kind == "rational":
            r, s = _rational_pair(rng, _derive_ok(pattern))
        else:
            r, s = _int_pair(rng, _derive_ok(pattern))
        n = rng.randint(8, 64)
        props = {"rational": {"rational"}, "degenerate": {"expected_rejection"}}.get(kind, set())
        ops.append(Op(
            ("derive", _flag("r", r), _flag("s", s), _flag("pattern", pattern), "--n", str(n)),
            {"r": r, "s": s, "pattern": pattern, "n": n, "degenerate": kind == "degenerate"},
            frozenset(props),
        ))
    return ops


# --- seq: bigindex and window ------------------------------------------------


def _seq_op(name, a, b, r, s, lo, hi, fmt, props) -> Op:
    # Positionals first: argparse drops an optional positional that follows a flag.
    argv = ["seq"]
    if name is not None:
        argv.append(name)
    if lo < 0:
        argv += [_flag("from", lo), _flag("to", hi)]
    else:
        argv.append(f"{lo}..{hi}")
    if name is None:
        argv += [_flag("r", r), _flag("s", s)]
    if (a, b) != (0, 1):
        argv += [_flag("a", a), _flag("b", b)]
    if fmt == "csv":
        argv += ["--format", "csv"]
    spec = {"name": name, "a": Fraction(a), "b": Fraction(b), "r": Fraction(r),
            "s": Fraction(s), "lo": lo, "hi": hi, "format": fmt}
    return Op(tuple(argv), spec, frozenset(props))


BIGINDEX_DIGITS = (21_000, 30_000, 39_000, 48_000, 57_000, 66_000, 75_000)
BIGINDEX_N = (100_000, 400_000)


def make_bigindex(seed: int) -> list[Op]:
    """h(N), h(N+1) at a target printed size; N follows from the growth rate."""
    rng = random.Random(f"bigindex:{seed}")
    lo_n, hi_n = BIGINDEX_N
    ops = []
    for digits in _rounds(rng, list(BIGINDEX_DIGITS) + [None], BIGINDEX.op_count):
        if digits is None:
            r, s = _rational_pair(rng, lambda r, s: s != 0 and _dominant_log10(r, s) > 0.1)
            n = rng.randint(20_000, 50_000)
            ops.append(_seq_op(None, 0, 1, r, s, n, n + 1, "json", {"rational"}))
            continue
        # Parameters whose N for this size lies in [lo_n, hi_n]: built-ins
        # and fresh seeded integer pairs, one kind picked at random.
        fits = lambda r, s: r != 0 and s != 0 and lo_n <= digits / _dominant_log10(Fraction(r), Fraction(s)) <= hi_n
        named = [name for name, (r, s) in BUILTINS.items() if fits(r, s)]
        if named and rng.random() < 0.5:
            name = rng.choice(named)
            r, s = map(Fraction, BUILTINS[name])
        else:
            name = None
            r, s = _int_pair(rng, fits)
        n = round(digits / _dominant_log10(r, s))
        ops.append(_seq_op(name, 0, 1, r, s, n, n + 1, "json", set()))
    return ops


#: One round: (kind, values in the window, target output bytes).
WINDOW_CELLS = (
    ("plain", 2500, 2.5e6), ("plain", 5000, 5.0e6),
    ("general_seed", 3000, 3.0e6), ("general_seed", 4500, 4.0e6),
    ("negative_bound", 3000, 2.5e6), ("negative_bound", 5000, 4.5e6),
    ("csv", 2000, 2.0e6), ("csv", 4000, 3.5e6),
)
_MAX_WINDOW_START = 20_000


def _window_bounds(width: int, growth: float, target: float, negative: bool) -> tuple[int, int] | None:
    """(lo, hi) of a window of `width` indices whose estimated output is `target` bytes."""
    digits = target - _BYTES_PER_VALUE * width
    if not negative:
        # sum over n in [lo, lo+width) of n*growth = digits
        lo = round((digits / growth - width * (width - 1) / 2) / width)
        if not 0 <= lo <= _MAX_WINDOW_START:
            return None
        return lo, lo + width - 1
    # lo = -k: sum |n| = k(k+1)/2 + (width-1-k)(width-k)/2, rising in k above width/2
    def total(k):
        return growth * (k * (k + 1) / 2 + (width - 1 - k) * (width - k) / 2)
    k_lo, k_hi = width // 2, width - 1
    if not total(k_lo) <= digits <= total(k_hi):
        return None
    while k_lo < k_hi:
        mid = (k_lo + k_hi) // 2
        if total(mid) < digits:
            k_lo = mid + 1
        else:
            k_hi = mid
    return -k_lo, width - 1 - k_lo


def window_choices(width: int, target: float, negative: bool) -> dict:
    """(name or None, r, s) -> (lo, hi) for every parameter set that fits the cell.

    Built-ins and integer pairs with 0.2 <= log10(larger root) <= 0.8;
    backward extension stays integral only for s = +-1.
    """
    candidates = [(name, r, s) for name, (r, s) in BUILTINS.items()]
    candidates += [(None, r, s) for r in range(-9, 10) for s in range(-9, 10)
                   if r != 0 and s != 0 and r * r + 4 * s > 0 and 0.2 <= _dominant_log10(r, s) <= 0.8]
    choices = {}
    for name, r, s in candidates:
        if negative and abs(s) != 1:
            continue
        bounds = _window_bounds(width, _dominant_log10(r, s), target, negative)
        if bounds is not None:
            choices[(name, r, s)] = bounds
    return choices


def make_window(seed: int) -> list[Op]:
    """Contiguous windows of 2000-6000 values sized to 2-5 MB of output."""
    rng = random.Random(f"window:{seed}")
    choices_by_cell = {cell: window_choices(cell[1], cell[2], cell[0] == "negative_bound") for cell in WINDOW_CELLS}
    ops = []
    for cell in _rounds(rng, list(WINDOW_CELLS), WINDOW.op_count):
        kind = cell[0]
        choices = choices_by_cell[cell]
        named = sorted(key for key in choices if key[0] is not None)
        pairs = sorted(key for key in choices if key[0] is None)
        name, r, s = rng.choice(named if named and (not pairs or rng.random() < 0.5) else pairs)
        a, b = 0, 1
        if kind == "general_seed":
            while (a, b) in ((0, 0), (0, 1)):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        fmt = "csv" if kind == "csv" else "json"
        ops.append(_seq_op(name, a, b, r, s, *choices[(name, r, s)], fmt, {kind} if kind != "plain" else set()))
    return ops


VERIFY = Workload(
    "verify",
    "the identities engine does almost all the work: each check recomputes every index from scratch",
    make_verify,
    ("verify", "--grid=3,-1", "--n-max", "32"),
    op_count=80,
    trace_ops=16,
    generator="verify --grid: 8 cells per round, 2 distinct pairs at n_max 16 (2 cells), 1 at 24-64 (6 cells), "
    "each pair slot fixed to a growth band of integer pairs (|r|,|s| <= 9, r not in {0,2}, s != 0, D > 0) or rational "
    "(1 in 5 slots, denominators <= 3)",
)
DERIVE = Workload(
    "derive",
    "the exact Q(sqrt D) solve in derivation and exact dominates; identities is idle",
    make_derive,
    ("derive", "--r=3", "--s=-1", "--pattern=+-+", "--n", "32"),
    op_count=2400,
    trace_ops=320,
    generator="derive --r --s --pattern --n: all 8 patterns twice per round of 16, n in 8..64, "
    "(r,s) in [-9,9]^2 with D > 0; per round 1 degenerate (det[u v z] = 0, must exit 2) and 2 rational",
)
BIGINDEX = Workload(
    "bigindex",
    "a few huge-integer operations: the fast-doubling kernel and int-to-decimal text dominate",
    make_bigindex,
    ("seq", "fibonacci", "200000..200001"),
    op_count=200,
    trace_ops=32,
    generator="seq NAME|--r --s N..N+1: printed size 21k-75k digits in 7 strata, N in 1e5..4e5 from the "
    "growth rate, built-ins or integer pairs; 1 in 8 a rational pair at N in 2e4..5e4",
)
WINDOW = Workload(
    "window",
    "thousands of small recurrence steps: per-value text and JSON/CSV serialization dominate",
    make_window,
    ("seq", "fibonacci", "1000..4999"),
    op_count=128,
    trace_ops=32,
    generator="seq windows: 8 cells per round of fixed (kind, 2000-6000 values, 2-5 MB); kinds plain, "
    "general --a/--b seeds, negative lower bound (s = +-1), --format csv, a quarter each; the seed picks "
    "parameters that fit the cell and the seeds a, b",
)

WORKLOADS = {w.name: w for w in (VERIFY, DERIVE, BIGINDEX, WINDOW)}
