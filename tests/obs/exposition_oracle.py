"""A Prometheus text-exposition reader: the oracle for label escaping.

:func:`parse_exposition` turns a ``/metrics`` page into samples and
:func:`_parse_labels` undoes the escaping that
:func:`repro.obs.metrics._escape_label_value` applies (backslash,
double quote, newline). The round-trip test holds the writer to this
reader: any label value must come back byte-identical.
"""

from __future__ import annotations

from typing import Iterable


class Sample:
    """One exposition line: metric name, label dict, float value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict, value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:
        return f"Sample({self.name!r}, {self.labels!r}, {self.value!r})"


def _parse_labels(text: str) -> dict:
    """Parse ``key="value",...`` with Prometheus escape sequences."""
    labels: dict[str, str] = {}
    i = 0
    n = len(text)
    while i < n:
        eq = text.index("=", i)
        key = text[i:eq].strip()
        i = eq + 1
        if i >= n or text[i] != '"':
            raise ValueError(f"expected quoted label value in {text!r}")
        i += 1
        out: list[str] = []
        while i < n and text[i] != '"':
            ch = text[i]
            if ch == "\\" and i + 1 < n:
                nxt = text[i + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
                i += 2
            else:
                out.append(ch)
                i += 1
        if i >= n:
            raise ValueError(f"unterminated label value in {text!r}")
        labels[key] = "".join(out)
        i += 1  # closing quote
        while i < n and text[i] in ", ":
            i += 1
    return labels


def parse_exposition(text: str) -> list[Sample]:
    """Parse Prometheus text exposition into samples (HELP/TYPE skipped)."""
    samples: list[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # name{labels} value   |   name value
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = _parse_labels(label_text)
        else:
            name, value_text = line.split(None, 1)
            labels = {}
        try:
            value = float(value_text.strip())
        except ValueError:
            continue
        samples.append(Sample(name.strip(), labels, value))
    return samples


class MetricsSnapshot:
    """Queryable view over one parsed page."""

    def __init__(self, samples: Iterable[Sample]) -> None:
        self._by_name: dict[str, list[Sample]] = {}
        for sample in samples:
            self._by_name.setdefault(sample.name, []).append(sample)

    @classmethod
    def parse(cls, text: str) -> "MetricsSnapshot":
        return cls(parse_exposition(text))

    def get(self, name: str) -> list[Sample]:
        return self._by_name.get(name, [])

    def value(self, name: str, default: float | None = None, **labels):
        """First sample of ``name`` whose labels include ``labels``."""
        for sample in self.get(name):
            if all(sample.labels.get(k) == v for k, v in labels.items()):
                return sample.value
        return default
