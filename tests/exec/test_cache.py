"""ResultCache: keys, round-trips, invalidation, corruption tolerance."""

import ast
import dataclasses
import json
import math
import pathlib

import pytest

import repro
from repro.core.experiments import PAPER_EXPERIMENTS, _run_payload, run_experiment
from repro.errors import ConfigurationError
from repro.exec import ResultCache, canonical, stable_key
from repro.hw.battery.kibam import PAPER_BATTERY
from repro.hw.power import PAPER_POWER_MODEL, PowerMode

from tests.conftest import tiny_battery_factory


class TestStableKey:
    def test_deterministic(self):
        spec = PAPER_EXPERIMENTS["2B"]
        assert stable_key(spec, salt="s") == stable_key(spec, salt="s")

    def test_differs_across_specs(self):
        keys = {stable_key(spec) for spec in PAPER_EXPERIMENTS.values()}
        assert len(keys) == len(PAPER_EXPERIMENTS)

    def test_salt_changes_key(self):
        spec = PAPER_EXPERIMENTS["1"]
        assert stable_key(spec, salt="a") != stable_key(spec, salt="b")

    def test_field_change_changes_key(self):
        spec = PAPER_EXPERIMENTS["1"]
        changed = dataclasses.replace(spec, deadline_s=2.4)
        assert stable_key(spec) != stable_key(changed)

    def test_kwargs_change_changes_key(self):
        assert stable_key({"seed": 0}) != stable_key({"seed": 1})

    def test_dict_order_irrelevant(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})

    def test_int_float_distinguished(self):
        assert stable_key(1) != stable_key(1.0)


class TestCanonical:
    def test_json_serializable(self):
        for spec in PAPER_EXPERIMENTS.values():
            json.dumps(canonical(spec))

    def test_handles_enums_and_objects(self):
        encoded = json.dumps(canonical(PAPER_POWER_MODEL))
        assert "io_activity" in encoded
        assert PowerMode.IDLE.name in encoded

    def test_function_by_qualname(self):
        assert canonical(PAPER_BATTERY) == ["fn", "repro.hw.battery.kibam.PAPER_BATTERY"]

    def test_rejects_lambdas(self):
        with pytest.raises(ConfigurationError):
            canonical(lambda: None)

    def test_private_attributes_ignored(self):
        class Thing:
            def __init__(self):
                self.value = 1
                self._derived = object()  # would not encode

        assert canonical(Thing())[2] == [["value", 1]]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="s")
        key = cache.key_for("config")
        assert cache.get(key) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_salt_invalidates(self, tmp_path):
        old = ResultCache(root=tmp_path, salt="v1")
        old.put(old.key_for("config"), {"stale": True})
        new = ResultCache(root=tmp_path, salt="v2")
        assert new.get(new.key_for("config")) is None

    def test_spec_invalidates(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="s")
        spec = PAPER_EXPERIMENTS["1"]
        cache.put(cache.key_for(spec), {"t": 6.1})
        changed = dataclasses.replace(spec, deadline_s=9.9)
        assert cache.get(cache.key_for(changed)) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="s")
        key = cache.key_for("config")
        cache.put(key, {"good": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        # And the corrupted file was removed, so a re-put works cleanly.
        cache.put(key, {"good": 2})
        assert cache.get(key) == {"good": 2}

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="s")
        key = cache.key_for("config")
        cache.put(key, {"payload": list(range(100))})
        full = cache.path_for(key).read_text(encoding="utf-8")
        cache.path_for(key).write_text(full[: len(full) // 2], encoding="utf-8")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="s")
        for i in range(3):
            cache.put(cache.key_for(i), i)
        assert cache.clear() == 3
        assert cache.get(cache.key_for(0)) is None

    def test_default_salt_includes_version(self):
        import repro

        cache = ResultCache(root="unused")
        assert repro.__version__ in cache.salt

    def test_clear_removes_leftover_temp_files(self, tmp_path):
        cache = ResultCache(root=tmp_path, salt="s")
        key = cache.key_for("config")
        cache.put(key, {"kept": False})
        # What a writer killed between its write and its rename leaves.
        orphan = cache.path_for(key).with_name(f"{key}.json.4242.tmp")
        orphan.write_text('{"__repro_cache__":1', encoding="utf-8")
        assert cache.clear() == 2
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_unserializable_put_leaves_no_file(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root=root, salt="s")
        with pytest.raises(TypeError):
            cache.put("ab" * 32, {"bad": object()})
        assert [p for p in root.rglob("*") if p.is_file()] == []
        assert cache.clear() == 0


def _streamed(envelope):
    """The bytes ``json.dump`` streamed through the pure-Python encoder."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    return "".join(encoder.iterencode(envelope)).encode("utf-8")


class TestEntryEncoding:
    """Entries are byte-identical to the old streaming encoding, so a
    cache written before the one-pass encoder still hits and diffs clean."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"sum": 0.1 + 0.2, "tiny": 1e-300, "subnormal": 5e-324, "neg": -0.0},
            {"inf": math.inf, "ninf": -math.inf, "nan": math.nan},
            {"outer": {1: {2: [1, 2.5, None, True]}, "k": {"x": [[]]}}},
            {"text": "Ωmega — naïve ✓", "emoji": "\U0001f50b", "ctl": "a\nb\t"},
            [1, "two", 3.0],
        ],
        ids=["floats", "non-finite", "int-keys", "non-ascii", "bare-list"],
    )
    def test_bytes_match_streaming_encoder(self, tmp_path, payload):
        self._check(tmp_path, payload)

    def test_run_payload_with_telemetry(self, tmp_path):
        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            max_frames=6,
            telemetry=True,
        )
        payload = _run_payload(run)
        assert payload["obs"]["events"]
        self._check(tmp_path, payload)

    @staticmethod
    def _check(tmp_path, payload):
        cache = ResultCache(root=tmp_path, salt="s")
        key = cache.key_for("entry")
        cache.put(key, payload)
        envelope = {"__repro_cache__": 1, "salt": "s", "payload": payload}
        assert cache.path_for(key).read_bytes() == _streamed(envelope)
        # get decodes to the same value as re-reading the streamed bytes
        # (a plain == would fail on nan and on int keys turned strings).
        expected = json.loads(_streamed(payload))
        assert json.dumps(cache.get(key)) == json.dumps(expected)


def _json_dump_calls(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name == "dump" for alias in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dump"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_streaming_json_dump_in_package():
    """``json.dump`` never uses the C encoder; write ``json.dumps`` text."""
    src = pathlib.Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(src.parent)}:{line}"
        for path in sorted(src.rglob("*.py"))
        for line in _json_dump_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_dump_scan_detects_both_spellings():
    tree = ast.parse("import json\njson.dump(x, fh)\nfrom json import dump\n")
    assert _json_dump_calls(tree) == [2, 3]
