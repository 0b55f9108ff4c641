"""Decode each distinct request system once.

Most ``/solve`` traffic repeats a set system the daemon has already
seen, with another ``k`` or coverage target. :func:`parse_body` parses a
body exactly as :func:`json.loads` does and also returns the raw text of
its top-level ``system`` value; :class:`SystemCache` keys built systems
by the SHA-256 of that text. A repeat then costs one parse and one hash:
no ``SetSystem`` build, no re-encode for the worker frame (the system's
wire text is the body's own, see
:func:`repro.resilience.pool.protocol.system_wire`), and no text on the
frame at all when the worker holds the fingerprint too.

The key is the exact text, so a hit can never be a different system; a
body that spells the same system differently (other whitespace, other
key order) is a miss and is built again.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import OrderedDict

from repro.core.setsystem import SetSystem
from repro.resilience.pool.protocol import system_wire

__all__ = ["SYSTEM_CACHE_BYTES", "SystemCache", "parse_body"]

#: Budget of the daemon's system cache, counted in wire text. Built
#: systems are lean (CSR arrays plus labels), so the cache's resident
#: cost is of the same order as its text.
SYSTEM_CACHE_BYTES = 16 * 1024 * 1024

_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _skip(text: str, pos: int) -> int:
    return _WHITESPACE.match(text, pos).end()


def _scan_object(text: str) -> tuple[dict, tuple[int, int] | None] | None:
    """A top-level JSON object and the span of its last ``system``
    value; ``None`` when the body is not an object. Raises
    :class:`ValueError` on anything :func:`json.loads` would reject."""
    pos = _skip(text, 0)
    if not text.startswith("{", pos):
        return None
    payload: dict = {}
    span = None
    pos = _skip(text, pos + 1)
    if text.startswith("}", pos):
        pos += 1
    else:
        while True:
            key, pos = _DECODER.raw_decode(text, pos)
            if not isinstance(key, str):
                raise ValueError("object key is not a string")
            pos = _skip(text, pos)
            if not text.startswith(":", pos):
                raise ValueError("missing ':' after an object key")
            start = _skip(text, pos + 1)
            # Duplicate keys: the last one wins, as in json.loads.
            payload[key], pos = _DECODER.raw_decode(text, start)
            if key == "system":
                span = (start, pos)
            pos = _skip(text, pos)
            if text.startswith(",", pos):
                pos = _skip(text, pos + 1)
            elif text.startswith("}", pos):
                pos += 1
                break
            else:
                raise ValueError("missing ',' or '}' in an object")
    if _skip(text, pos) != len(text):
        raise ValueError("extra data after the object")
    return payload, span


def parse_body(text: str) -> tuple[object, str | None]:
    """``(json.loads(text), system_text)``.

    ``system_text`` is the raw text of the body's top-level ``system``
    value (``None`` when the body is not an object or has no such key).
    The body is parsed once; malformed JSON raises the very
    :class:`json.JSONDecodeError` that :func:`json.loads` raises.
    """
    try:
        scanned = _scan_object(text)
    except ValueError:
        scanned = None
    if scanned is None:
        return json.loads(text), None
    payload, span = scanned
    return payload, None if span is None else text[span[0]:span[1]]


class SystemCache:
    """Bounded LRU of systems built from request bodies.

    Keyed by the SHA-256 of each system's raw JSON text and bounded by
    the total length of those texts (:data:`SYSTEM_CACHE_BYTES`). The
    handler looks a body's text up before validating the request and
    stores the system validation built only once the whole request is
    accepted, so a rejected body never takes cache room. Safe to share
    between handler threads; two concurrent first requests for one
    system may both build it, and the first stored is kept.
    """

    def __init__(self) -> None:
        self._systems: OrderedDict[str, tuple[SetSystem, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, text: str) -> SetSystem | None:
        """The system built from the JSON text ``text``, if held."""
        digest = _sha256(text)
        with self._lock:
            entry = self._systems.get(digest)
            if entry is None:
                return None
            self._systems.move_to_end(digest)
            return entry[0]

    def put(self, text: str, system: SetSystem) -> None:
        """Hold ``system``, built from the JSON text ``text``; it then
        travels to workers as that text."""
        digest = _sha256(text)
        system_wire(system, text, digest)
        with self._lock:
            if digest in self._systems:
                return
            self._systems[digest] = (system, len(text))
            self._bytes += len(text)
            while self._bytes > SYSTEM_CACHE_BYTES:
                _, (_, size) = self._systems.popitem(last=False)
                self._bytes -= size
