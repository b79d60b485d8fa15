"""Named parameter sets: built-ins plus optional user registries.

A registry file is a JSON array of objects with keys name, a, b, r, s;
numeric values are fraction strings, and a bare JSON number is read as its
text.  User entries are merged over the built-ins and win on
(case-insensitive) name collision.
"""

from __future__ import annotations

import json
import os
import re
import stat
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exact import unlimited_int_digits

ENV_VAR = "HORADAM_REGISTRY"

#: Largest exponent magnitude accepted in fraction text such as "1e10000":
#: Fraction expands the exponent into an integer with that many digits.
_MAX_EXPONENT = 10_000
#: Longest fraction text accepted: CPython 3.11 parses decimal text in quadratic time.
_MAX_TEXT = 10_000
_EXPONENT_RE = re.compile(r"e[-+]?([\d_]+)\Z", re.IGNORECASE)
#: Longest text quoted whole in an error message.
_MAX_QUOTE = 40


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    a: Fraction
    b: Fraction
    r: Fraction
    s: Fraction
    source: str = "builtin"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "a": str(self.a),
            "b": str(self.b),
            "r": str(self.r),
            "s": str(self.s),
            "source": self.source,
        }


BUILTIN_ENTRIES: tuple[RegistryEntry, ...] = (
    RegistryEntry("fibonacci", Fraction(0), Fraction(1), Fraction(1), Fraction(1)),
    RegistryEntry("pell", Fraction(0), Fraction(1), Fraction(2), Fraction(1)),
    RegistryEntry("jacobsthal", Fraction(0), Fraction(1), Fraction(1), Fraction(2)),
    RegistryEntry("balancing", Fraction(0), Fraction(1), Fraction(6), Fraction(-1)),
)


def parse_fraction(text: str) -> Fraction:
    """Exact fraction from CLI text such as "3", "-3/4", "0.5" or "1e-3".

    The stripped text may be at most 10,000 characters long and an
    exponent's magnitude at most 10,000; either excess raises ValueError
    before any integer is built from the text.  Within those bounds the
    result does not depend on the caller's int<->str digit limit.
    """
    stripped = str(text).strip()
    if len(stripped) > _MAX_TEXT:
        raise ValueError(f"fraction text of {len(stripped)} characters is longer than {_MAX_TEXT}")
    exponent = _EXPONENT_RE.search(stripped)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        # Length first: int() of a long digit string is itself slow.
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"fraction {_quoted(text)} has an exponent of magnitude above {_MAX_EXPONENT}")
    try:
        with unlimited_int_digits():
            return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction's own message repeats the text, so a long text gets none.
        detail = f": {exc}" if len(str(text)) <= _MAX_QUOTE else ""
        raise ValueError(f"malformed fraction {_quoted(text)}{detail}") from None


def _quoted(text) -> str:
    """repr(text), or for a long text the repr of its start and its length."""
    shown = str(text)
    return repr(text) if len(shown) <= _MAX_QUOTE else f"{shown[:_MAX_QUOTE]!r}... ({len(shown)} characters)"


def registry_path(explicit: str | None, env: dict | None = None) -> Path | None:
    """Resolve the user registry path: explicit flag first, then the
    HORADAM_REGISTRY environment variable."""
    if explicit:
        return Path(explicit)
    env = os.environ if env is None else env
    from_env = env.get(ENV_VAR)
    return Path(from_env) if from_env else None


def _parse_entry(record: object, source: str) -> RegistryEntry:
    if not isinstance(record, dict):
        raise ValueError(f"registry entries must be objects, got {type(record).__name__}")
    missing = {"name", "a", "b", "r", "s"} - set(record)
    if missing:
        raise ValueError(f"registry entry missing keys: {sorted(missing)}")
    name = str(record["name"]).strip()
    if not name:
        raise ValueError("registry entry has an empty name")
    return RegistryEntry(
        name,
        parse_fraction(record["a"]),
        parse_fraction(record["b"]),
        parse_fraction(record["r"]),
        parse_fraction(record["s"]),
        source,
    )


def _read_records(path: Path) -> list:
    """The records of a registry file.  JSON numbers stay text: converting
    them to int or float and back would take quadratic time on a long
    number and run before the length check in :func:`parse_fraction`."""
    raw = json.loads(Path(path).read_text(), parse_int=str, parse_float=str)
    if not isinstance(raw, list):
        raise ValueError("registry file must contain a JSON array")
    return raw


def load_registry(path: Path | None) -> dict[str, RegistryEntry]:
    """Built-ins merged with the user file at ``path`` (user wins).

    Keys are lower-cased names, enforcing case-insensitive uniqueness.
    """
    entries = {entry.name.lower(): entry for entry in BUILTIN_ENTRIES}
    if path is not None:
        for record in _read_records(path):
            entry = _parse_entry(record, source="user")
            entries[entry.name.lower()] = entry
    return entries


def resolve(name: str, path: Path | None) -> RegistryEntry:
    entries = load_registry(path)
    entry = entries.get(name.lower())
    if entry is None:
        known = ", ".join(sorted(entries))
        raise ValueError(f"unknown sequence name {name!r} (known: {known})")
    return entry


def upsert_entry(path: Path, entry: RegistryEntry) -> None:
    """Add or replace ``entry`` in the user registry file at ``path``.

    Every existing record must parse as :func:`load_registry` would read it.
    The file is replaced atomically, so a failed write leaves it unchanged.
    """
    records: list[dict] = []
    mode = 0o644
    if path.exists():
        records = [r for r in _read_records(path)
                   if _parse_entry(r, source="user").name.lower() != entry.name.lower()]
        mode = stat.S_IMODE(path.stat().st_mode)
    record = entry.to_dict()
    del record["source"]
    records.append(record)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(records, indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
