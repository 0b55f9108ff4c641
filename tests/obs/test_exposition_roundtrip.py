"""Property test: metrics exposition → exposition parse is lossless.

A ``/metrics`` scraper trusts that whatever label values the serve layer
puts in the registry (endpoint paths, shed reasons, error strings) come
back byte-identical after a trip through the Prometheus text format. The
escaping lives in ``repro.obs.metrics._escape_label_value`` and its
inverse in ``tests.obs.exposition_oracle._parse_labels``; this test
hammers the pair with adversarial values — backslashes, quotes, embedded
newlines, braces, the escape sequences themselves — in both hand-picked
and seeded-random form.
"""

from __future__ import annotations

import random

from repro.obs.metrics import MetricsRegistry, _escape_label_value
from tests.obs.exposition_oracle import (
    MetricsSnapshot,
    _parse_labels,
    parse_exposition,
)

#: Every character class that has ever broken a hand-rolled parser.
_ADVERSARIAL = [
    "\\",
    '"',
    "\n",
    "\\n",
    '\\"',
    "\\\\",
    "{",
    "}",
    ",",
    "=",
    " ",
    "a",
    "ü",
    "0",
]

_NASTY_VALUES = [
    "plain",
    "back\\slash",
    'quo"te',
    "new\nline",
    "trailing\\",
    '\\"',
    "\\n",
    'a="b",c="d"',
    "{}",
    "} 42",
    "",
    " leading and trailing ",
    'all\\of"it\ntogether\\"',
]


def _random_value(rng: random.Random) -> str:
    return "".join(
        rng.choice(_ADVERSARIAL) for _ in range(rng.randint(0, 12))
    )


def _roundtrip_one(value: str, extra: str = "ok") -> None:
    registry = MetricsRegistry()
    counter = registry.counter("rt_total", "round trip")
    counter.inc(2.5, tenant=value, other=extra)
    samples = parse_exposition(registry.exposition())
    matching = [s for s in samples if s.name == "rt_total"]
    assert len(matching) == 1, f"value {value!r} produced {matching}"
    assert matching[0].labels == {"tenant": value, "other": extra}
    assert matching[0].value == 2.5


class TestLabelEscapingRoundTrip:
    def test_hand_picked_nasty_values(self):
        for value in _NASTY_VALUES:
            _roundtrip_one(value)

    def test_seeded_random_values(self):
        rng = random.Random(20260807)
        for trial in range(200):
            _roundtrip_one(_random_value(rng), extra=_random_value(rng))

    def test_escape_parse_inverse_directly(self):
        rng = random.Random(99)
        for _ in range(200):
            value = _random_value(rng)
            line = f'k="{_escape_label_value(value)}"'
            assert _parse_labels(line) == {"k": value}

    def test_multi_metric_page_with_hostile_labels(self):
        """A whole page — counter + gauge + histogram — survives, and the
        snapshot query API finds the hostile label set."""
        registry = MetricsRegistry()
        hostile = 'ten"ant\\with\neverything'
        registry.counter("req_total", "requests").inc(3, tenant=hostile)
        registry.gauge("depth", "queue depth").set(7, tenant=hostile)
        registry.histogram("lat_seconds", "latency").observe(
            0.25, tenant=hostile
        )
        snapshot = MetricsSnapshot.parse(registry.exposition())
        assert snapshot.value("req_total", tenant=hostile) == 3
        assert snapshot.value("depth", tenant=hostile) == 7
        count = [
            s
            for s in snapshot.get("lat_seconds_count")
            if s.labels.get("tenant") == hostile
        ]
        assert len(count) == 1 and count[0].value == 1
