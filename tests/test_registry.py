"""Registry loading, merging and persistence."""

import json
import sys
from fractions import Fraction
from unittest import mock

import pytest

from horadam import BUILTIN_ENTRIES, RegistryEntry, load_registry, parse_fraction, registry
from horadam.registry import registry_path, resolve, upsert_entry


@pytest.fixture
def default_digit_limit():
    """CPython's default int->str digit limit, restored afterwards
    (tests/test_acceptance.py lifts the limit for the whole session)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int->str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


class TestBuiltins:
    def test_expected_entries(self):
        table = {e.name: (e.a, e.b, e.r, e.s) for e in BUILTIN_ENTRIES}
        assert table == {
            "fibonacci": (0, 1, 1, 1),
            "pell": (0, 1, 2, 1),
            "jacobsthal": (0, 1, 1, 2),
            "balancing": (0, 1, 6, -1),
        }

    def test_load_without_file(self):
        entries = load_registry(None)
        assert set(entries) == {"fibonacci", "pell", "jacobsthal", "balancing"}
        assert all(e.source == "builtin" for e in entries.values())


class TestParseFraction:
    @pytest.mark.parametrize(
        "text, expected",
        [("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), (" 5/2 ", Fraction(5, 2)),
         ("0.5", Fraction(1, 2)), ("1e10000", Fraction(10 ** 10000)),
         ("1e-10000", Fraction(1, 10 ** 10000))],
    )
    def test_valid(self, text, expected):
        assert parse_fraction(text) == expected

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "1E+10001", "2.5e0_0010001"])
    def test_exponent_bound(self, monkeypatch, text):
        # Fraction would spend seconds to minutes expanding these: fail, do not hang, if one reaches it.
        monkeypatch.setattr(registry, "Fraction", mock.Mock(side_effect=AssertionError("Fraction reached")))
        with pytest.raises(ValueError, match="exponent of magnitude above 10000"):
            parse_fraction(text)

    @pytest.mark.parametrize("text", ["", "x", "1/0", "3/-4x"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)

    def test_independent_of_the_callers_digit_limit(self, default_digit_limit):
        assert parse_fraction("7" * 5_000) == 7 * (10 ** 5_000 - 1) // 9
        assert sys.get_int_max_str_digits() == default_digit_limit
        with pytest.raises(ValueError) as exc:
            parse_fraction("7" * 4_999 + "x")
        assert sys.get_int_max_str_digits() == default_digit_limit
        assert str(exc.value).startswith("malformed fraction '777") and len(str(exc.value)) < 200


class TestUserRegistry:
    def test_merge_and_precedence(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps([
            {"name": "Fibonacci", "a": "1", "b": "1", "r": "1", "s": "1"},
            {"name": "mersenne-like", "a": "0", "b": "1", "r": "3", "s": "-2"},
        ]))
        entries = load_registry(path)
        # user entry wins case-insensitively
        assert entries["fibonacci"].a == 1
        assert entries["fibonacci"].source == "user"
        assert entries["mersenne-like"].r == 3
        assert entries["pell"].source == "builtin"

    def test_resolve_unknown(self, tmp_path):
        with pytest.raises(ValueError):
            resolve("nope", None)

    def test_resolve_case_insensitive(self):
        assert resolve("PELL", None).name == "pell"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_registry(path)
        path.write_text(json.dumps([{"name": "x", "a": "1"}]))
        with pytest.raises(ValueError):
            load_registry(path)

    def test_empty_name_rejected(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps([{"name": "  ", "a": "0", "b": "1", "r": "1", "s": "1"}]))
        with pytest.raises(ValueError, match="registry entry has an empty name"):
            load_registry(path)

    def test_bare_numbers_read_as_text(self, tmp_path, default_digit_limit):
        path = tmp_path / "registry.json"
        long_text = '{"name": "long", "a": 0.1000000000000000000001, "b": %s, "r": 1, "s": 1}' % ("7" * 5_000)
        path.write_text('[{"name": "bare", "a": 5, "b": -3, "r": 0.5, "s": 1}, %s]' % long_text)
        entries = load_registry(path)
        bare, long = entries["bare"], entries["long"]
        assert (bare.a, bare.b, bare.r, bare.s) == (5, -3, Fraction(1, 2), 1)
        # Neither rounded through a float nor converted to an int under the caller's digit limit.
        assert (long.a, long.b) == (Fraction(10 ** 21 + 1, 10 ** 22), 7 * (10 ** 5_000 - 1) // 9)
        # Rewriting the file keeps each record's text but writes it as a string.
        upsert_entry(path, RegistryEntry("other", Fraction(0), Fraction(1), Fraction(1), Fraction(1)))
        assert json.loads(path.read_text())[0] == {"name": "bare", "a": "5", "b": "-3", "r": "0.5", "s": "1"}

    def test_upsert_creates_and_replaces(self, tmp_path):
        path = tmp_path / "registry.json"
        entry = RegistryEntry("custom", Fraction(1), Fraction(2), Fraction(3), Fraction(4), "user")
        upsert_entry(path, entry)
        assert load_registry(path)["custom"].b == 2
        replacement = RegistryEntry("CUSTOM", Fraction(0), Fraction(9), Fraction(3), Fraction(4), "user")
        upsert_entry(path, replacement)
        entries = load_registry(path)
        assert entries["custom"].b == 9
        assert len(json.loads(path.read_text())) == 1

    def test_upsert_failed_replace_leaves_file_unchanged(self, tmp_path, monkeypatch):
        path = tmp_path / "registry.json"
        upsert_entry(path, RegistryEntry("old", Fraction(0), Fraction(1), Fraction(1), Fraction(1)))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr("horadam.registry.os.replace", failing_replace)
        with pytest.raises(OSError):
            upsert_entry(path, RegistryEntry("new", Fraction(0), Fraction(1), Fraction(2), Fraction(1)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]


class TestRegistryPath:
    def test_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HORADAM_REGISTRY", str(tmp_path / "env.json"))
        assert registry_path(str(tmp_path / "flag.json")).name == "flag.json"

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HORADAM_REGISTRY", str(tmp_path / "env.json"))
        assert registry_path(None).name == "env.json"

    def test_absent(self, monkeypatch):
        monkeypatch.delenv("HORADAM_REGISTRY", raising=False)
        assert registry_path(None) is None
