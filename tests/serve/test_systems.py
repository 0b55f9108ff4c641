"""The body scanner and the daemon's system cache (no server needed)."""

from __future__ import annotations

import json

import pytest

from repro.resilience.pool.protocol import (
    system_from_payload,
    system_to_payload,
    system_wire,
)
from repro.serve import systems
from repro.serve.systems import SystemCache, parse_body


class TestParseBody:
    def test_object_parses_like_json_loads_and_yields_system_text(self):
        text = '{"k": 3, "system" :  {"n": 2, "sets": [[[0, 1], 1.0, null]]} ,"s": 0.5}'
        payload, system_text = parse_body(text)
        assert payload == json.loads(text)
        assert list(payload) == list(json.loads(text))
        assert system_text == '{"n": 2, "sets": [[[0, 1], 1.0, null]]}'

    def test_duplicate_system_keys_last_wins(self):
        text = '{"system": {"n": 1}, "k": 1, "system": {"n": 2, "sets": []}}'
        payload, system_text = parse_body(text)
        assert payload == json.loads(text)
        assert payload["system"] == {"n": 2, "sets": []}
        assert system_text == '{"n": 2, "sets": []}'

    def test_only_the_top_level_system_counts(self):
        text = '{"requests": [{"system": {"n": 1}}], "k": 2}'
        assert parse_body(text) == (json.loads(text), None)

    def test_empty_object(self):
        assert parse_body(" { } ") == ({}, None)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3", '"system"'])
    def test_non_object_bodies_parse_without_a_span(self, text):
        assert parse_body(text) == (json.loads(text), None)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            '{"system": }',
            '{"system" {"n": 1}}',
            '{"a": 1,}',
            '{"a": 1 "b": 2}',
            '{1: 2}',
            '{"a": 1} x',
            '{"a": 1}{}',
            "\ufeff{}",
            '{"a": [1, 2}',
        ],
    )
    def test_malformed_json_raises_what_json_loads_raises(self, text):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as got:
            parse_body(text)
        assert str(got.value) == str(want.value)


def body_text(system, indent=None) -> str:
    return json.dumps(system_to_payload(system), indent=indent)


def cached(cache: SystemCache, text: str):
    """Look ``text`` up, building and storing it on a miss, as the
    handler does for an accepted request: ``(system, built)``."""
    system = cache.get(text)
    if system is not None:
        return system, False
    system = system_from_payload(json.loads(text))
    cache.put(text, system)
    return system, True


class TestSystemCache:
    def test_repeat_text_is_a_hit_on_the_same_object(self, random_system):
        cache = SystemCache()
        text = body_text(random_system(seed=1))
        assert cache.get(text) is None
        first, built = cached(cache, text)
        assert built
        assert cache.get(text) is first
        # The stored system travels as the body's own text.
        assert system_wire(first)[0] == text

    def test_other_spelling_is_a_miss(self, random_system):
        cache = SystemCache()
        system = random_system(seed=1)
        compact, spaced = body_text(system), body_text(system, indent=1)
        first, _ = cached(cache, compact)
        assert cache.get(spaced) is None
        second, _ = cached(cache, spaced)
        assert second is not first and second.sets == first.sets

    def test_first_put_is_kept(self, random_system):
        cache = SystemCache()
        text = body_text(random_system(seed=1))
        first, _ = cached(cache, text)
        other = system_from_payload(json.loads(text))
        cache.put(text, other)
        assert cache.get(text) is first
        assert cache._bytes == len(text)
        # The later build still travels as the body's text.
        assert system_wire(other)[0] == text

    def test_budget_evicts_least_recently_used(
        self, random_system, monkeypatch
    ):
        texts = [body_text(random_system(seed=seed)) for seed in range(3)]
        # Room for any two of the three texts, never for all three.
        budget = len(texts[0]) + max(len(texts[1]), len(texts[2]))
        monkeypatch.setattr(systems, "SYSTEM_CACHE_BYTES", budget)
        cache = SystemCache()
        for text in texts[:2]:
            cached(cache, text)
        cached(cache, texts[0])  # texts[1] is now oldest
        cached(cache, texts[2])
        assert cache.get(texts[0]) is not None
        assert cache.get(texts[1]) is None
        assert cache._bytes <= budget

    def test_concurrent_lookups_keep_the_budget_exact(
        self, random_system, monkeypatch
    ):
        import sys
        import threading

        texts = [body_text(random_system(seed=seed)) for seed in range(6)]
        budget = 3 * max(map(len, texts))
        monkeypatch.setattr(systems, "SYSTEM_CACHE_BYTES", budget)
        cache = SystemCache()
        wrong = []

        def hammer(offset: int) -> None:
            for i in range(60):
                text = texts[(i + offset) % len(texts)]
                system, _ = cached(cache, text)
                if system_wire(system)[0] != text:
                    wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        held = list(cache._systems.values())
        assert cache._bytes == sum(size for _, size in held)
        assert cache._bytes <= budget
