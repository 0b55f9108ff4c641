"""Length-prefixed JSON IPC between the pool supervisor and its workers.

Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON encoding a single object. The
format is deliberately dumb — no pickling, no shared memory — because
the failure model includes workers that die mid-write, OOM-killed
processes leaving half a frame in the pipe, and chaos-injected garbage.
Decoding therefore never trusts the stream: implausible lengths, bodies
that are not valid JSON objects, and streams that end mid-frame all
raise :class:`~repro.errors.ProtocolError`, which the supervisor treats
as "this worker is unhealthy" rather than letting it crash the parent.

Frame kinds (the ``kind`` key):

========  =========  ===================================================
kind      direction  meaning
========  =========  ===================================================
ready     w -> s     worker finished importing and can accept requests
solve     s -> w     run one solve request (see :func:`encode_request`)
stage     w -> s     a chain stage is starting (powers circuit-breaker
                     blame and provenance)
result    w -> s     terminal answer for one request id, with the
                     fingerprints of the systems the worker holds
ping      s -> w     liveness probe
pong      w -> s     liveness reply
shutdown  s -> w     drain and exit 0
========  =========  ===================================================

A ``solve`` frame carries its set system as ``system``, the JSON text
of a :func:`system_to_payload` object, plus ``system_fp``, the SHA-256
of exactly that text. A system the daemon decoded from a request body
travels as the body's own text; any other system as its canonical
(sorted-keys, compact) encoding, made once per system. Each worker
keeps its most recent systems by fingerprint, and every ``result``
frame lists them under ``systems``; the supervisor leaves ``system``
out of the frame when the worker already holds that fingerprint. A
frame whose fingerprint the worker does not hold and that carries no
text is a :class:`~repro.errors.ProtocolError`.

Inside that text, labels are *not* pickled: each label travels as its
``repr`` text plus (when the label defines one) its ``sort_key()``
tuple, and is rebuilt as a :class:`RemoteLabel` shim on the worker side.
The shim reproduces both the label's ``repr`` and its tie-break ordering
(:func:`repro.core.greedy_common.canonical_key`), so a worker solving a
serialized system selects *exactly* the sets the parent would have —
which is what makes pool requeues and ``--workers`` grids deterministic.
"""

from __future__ import annotations

import hashlib
import json
import struct
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import BinaryIO

from repro.core.setsystem import SetSystem
from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "SYSTEM_CACHE_SIZE",
    "FrameReader",
    "RemoteLabel",
    "RemoteSortedLabel",
    "SolveRequest",
    "encode_frame",
    "encode_request",
    "held_systems",
    "holds_system",
    "read_frame",
    "request_from_payload",
    "system_from_payload",
    "system_payload_and_fingerprint",
    "system_to_payload",
    "system_wire",
    "write_frame",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame body; anything larger is treated as garbage.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON body)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def write_frame(stream: BinaryIO, payload: dict, injector=None) -> None:
    """Encode and write one frame, flushing so the peer sees it now.

    ``injector`` is the chaos hook: a
    :class:`~repro.resilience.faults.FaultInjector` may corrupt the
    encoded bytes (worker write path) to exercise the supervisor's
    tolerant decoding.
    """
    data = encode_frame(payload)
    if injector is not None:
        data = injector.corrupt_frame(data)
    stream.write(data)
    stream.flush()


def _decode_body(body: bytes) -> dict:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF before any byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"stream ended mid-frame ({n - remaining} of {n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> dict | None:
    """Blocking frame read (worker side). ``None`` means clean EOF."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    body = _read_exact(stream, length)
    if body is None:
        raise ProtocolError("stream ended between header and body")
    return _decode_body(body)


class FrameReader:
    """Incremental decoder for the supervisor's non-blocking reads.

    Feed it whatever ``os.read`` returned; it yields every complete
    frame and buffers the tail. Garbage raises
    :class:`~repro.errors.ProtocolError` immediately — once a stream has
    lied about one length prefix there is no way to resynchronize, so
    the supervisor kills the worker and starts a fresh pipe.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        frames: list[dict] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            frames.append(_decode_body(body))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# ----------------------------------------------------------------------
# Label shims: repr + tie-break fidelity across the process boundary
# ----------------------------------------------------------------------
class RemoteLabel:
    """A label rebuilt from its ``repr`` on the worker side.

    ``repr(shim)`` returns the original label's ``repr`` text, so results
    serialized by the worker (labels travel as ``repr`` strings) are
    byte-identical to what the parent would have produced, and
    ``canonical_key``'s ``repr`` fallback orders shims exactly like the
    originals.
    """

    __slots__ = ("_repr_text",)

    def __init__(self, repr_text: str) -> None:
        self._repr_text = repr_text

    def __repr__(self) -> str:
        return self._repr_text

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RemoteLabel)
            and self._repr_text == other._repr_text
        )

    def __hash__(self) -> int:
        return hash(self._repr_text)


class RemoteSortedLabel(RemoteLabel):
    """Shim for labels that define ``sort_key()`` (patterns).

    Kept as a separate class so ``canonical_key``'s ``getattr(label,
    "sort_key")`` probe sees the method only when the original had one —
    labels within one system must stay homogeneous. ``sort_key`` may be
    the JSON array the key arrived as: it becomes a tuple on the first
    :meth:`sort_key` call, which a daemon that only verifies answers
    never makes.
    """

    __slots__ = ("_sort_key",)

    def __init__(self, repr_text: str, sort_key: tuple | list) -> None:
        super().__init__(repr_text)
        self._sort_key = sort_key

    def sort_key(self) -> tuple:
        if isinstance(self._sort_key, list):
            self._sort_key = _tuplize(self._sort_key)
        return self._sort_key


def _tuplize(value: list) -> tuple:
    """JSON arrays back to tuples, recursively (sort keys are tuples)."""
    return tuple([
        _tuplize(item) if isinstance(item, list) else item for item in value
    ])


def _label_to_payload(label):
    if label is None:
        return None
    sort_key = getattr(label, "sort_key", None)
    if sort_key is not None:
        return {"r": repr(label), "k": sort_key()}
    return {"r": repr(label)}


def _label_from_payload(payload):
    if payload is None:
        return None
    if not isinstance(payload, dict) or "r" not in payload:
        raise ProtocolError(f"malformed label payload: {payload!r}")
    if "k" in payload:
        return RemoteSortedLabel(payload["r"], payload["k"])
    return RemoteLabel(payload["r"])


# ----------------------------------------------------------------------
# Set systems
# ----------------------------------------------------------------------
def system_to_payload(system: SetSystem) -> dict:
    """A :class:`SetSystem` as JSON-safe lists (see module docstring).

    Reads the system's CSR, whose element lists are already sorted, so
    no :class:`WeightedSet` is needed.
    """
    indptr, indices, costs = system.csr()
    elements, bounds = indices.tolist(), indptr.tolist()
    return {
        "n": system.n_elements,
        "sets": [
            [
                elements[start:end],
                cost,
                _label_to_payload(system.label_of(set_id)),
            ]
            for set_id, (start, end, cost) in enumerate(
                zip(bounds, bounds[1:], costs.tolist())
            )
        ],
    }


def system_from_payload(payload: dict) -> SetSystem:
    """Rebuild a :class:`SetSystem` sent by :func:`system_to_payload`."""
    try:
        n_elements = int(payload["n"])
        raw_sets = payload["sets"]
        benefits = [entry[0] for entry in raw_sets]
        costs = [entry[1] for entry in raw_sets]
        labels = [_label_from_payload(entry[2]) for entry in raw_sets]
    except (KeyError, TypeError, IndexError, ValueError) as error:
        raise ProtocolError(
            f"malformed set-system payload: {error!r}"
        ) from error
    return SetSystem.from_iterables(n_elements, benefits, costs, labels=labels)


#: Parent-side cache: serializing a big system once per *request* would
#: dominate `scwsc batch` fan-out, but systems are immutable, so the
#: payload and its fingerprint are computed once per system. Weak keys:
#: dropping the system drops the cached payload.
_PAYLOAD_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(system: SetSystem) -> tuple[dict, str]:
    payload = system_to_payload(system)
    return payload, json.dumps(payload, separators=(",", ":"), sort_keys=True)


def system_payload_and_fingerprint(system: SetSystem) -> tuple[dict, str]:
    """The (cached) payload of a system plus its content fingerprint.

    The fingerprint is the SHA-256 of the canonical (sorted-keys,
    compact) JSON encoding of the payload, so two systems fingerprint
    equal exactly when their payloads are identical — same universe,
    same benefit sets, same costs, same label reprs/sort keys. It is
    the ``system_fp`` of any system not decoded from a request body
    (:func:`system_wire`).
    """
    try:
        cached = _PAYLOAD_CACHE.get(system)
    except TypeError:  # unhashable/unweakrefable stand-in: build fresh
        cached = None
    if cached is not None:
        return cached
    payload, body = _canonical(system)
    cached = (payload, _sha256(body))
    try:
        _PAYLOAD_CACHE[system] = cached
    except TypeError:  # pragma: no cover - stand-in objects only
        pass
    return cached


#: Parent-side wire forms: ``system -> (text, fingerprint)``, the JSON
#: text a worker decodes and its SHA-256. Weak keys, as above.
_WIRE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def system_wire(
    system: SetSystem, text: str | None = None, fingerprint: str | None = None
) -> tuple[str, str]:
    """``(text, fingerprint)``: the JSON text a ``solve`` frame carries
    for ``system`` and the SHA-256 of that text.

    ``text`` (with its ``fingerprint``) records the text ``system`` was
    decoded from, so a served system travels as its request body's own
    bytes and is never re-encoded. A system without a recorded text is
    encoded canonically once (the fingerprint then equals
    :func:`system_payload_and_fingerprint`'s).
    """
    try:
        wire = _WIRE_CACHE.get(system)
    except TypeError:  # unhashable/unweakrefable stand-in: build fresh
        wire = None
    if wire is not None:
        return wire
    if text is None:
        text = _canonical(system)[1]
        fingerprint = None
    wire = (text, fingerprint or _sha256(text))
    try:
        _WIRE_CACHE[system] = wire
    except TypeError:  # pragma: no cover - stand-in objects only
        pass
    return wire


#: Worker-side cache: most recently deserialized systems, keyed by the
#: supervisor's fingerprint. Repeated requests against one system (a
#: `scwsc batch` run, a daemon's repeat traffic) skip the parse and the
#: ``from_iterables`` build (and share the per-system solver caches:
#: mask table, owners index, canonical keys). Bounded so long-lived
#: workers under ``--memory-limit`` don't accumulate dead systems; a
#: worker evicts only while it decodes a request's system, and reports
#: what it holds on that request's result frame.
SYSTEM_CACHE_SIZE = 4

_SYSTEM_CACHE: "OrderedDict[str, SetSystem]" = OrderedDict()


def holds_system(fingerprint) -> bool:
    """Whether this worker holds the system with ``fingerprint``."""
    return isinstance(fingerprint, str) and fingerprint in _SYSTEM_CACHE


def held_systems() -> list[str]:
    """The fingerprints this worker holds (the ``systems`` a result
    frame reports)."""
    return list(_SYSTEM_CACHE)


def _system_from_text(text) -> SetSystem:
    if not isinstance(text, str):
        raise ProtocolError(
            f"'system' must be JSON text, got {type(text).__name__}"
        )
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"system text is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("system text must encode a JSON object")
    return system_from_payload(payload)


def _system_of_frame(frame: dict) -> SetSystem:
    """The frame's system: the held one for its fingerprint, else its
    text decoded (and held, when it has a fingerprint).

    The fingerprint is trusted — the supervisor computed it from the
    exact text it framed — so a hit skips even reading the text.
    """
    fingerprint = frame.get("system_fp")
    if not isinstance(fingerprint, str):
        return _system_from_text(frame["system"])
    system = _SYSTEM_CACHE.get(fingerprint)
    if system is not None:
        _SYSTEM_CACHE.move_to_end(fingerprint)
        return system
    if "system" not in frame:
        raise ProtocolError(
            f"solve frame names system {fingerprint[:12]}, which this "
            "worker does not hold, and carries no system text"
        )
    system = _system_from_text(frame["system"])
    _SYSTEM_CACHE[fingerprint] = system
    while len(_SYSTEM_CACHE) > SYSTEM_CACHE_SIZE:
        _SYSTEM_CACHE.popitem(last=False)
    return system


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass
class SolveRequest:
    """One unit of pool work.

    ``solver`` is either ``"resilient"`` (run the fallback chain via
    :func:`repro.resilience.resilient_solve`) or the name of a single
    solver known to the worker (``cwsc``, ``cmc``, ``cmc_epsilon``,
    ``exact``, ``lp_rounding``, ``universal``, ``greedy_partial``) —
    the latter is what experiment grids use so pool cells match their
    sequential counterparts exactly.

    ``timeout`` is the *cooperative* budget handed to the solver. The
    supervisor independently enforces ``timeout`` plus its grace period
    with SIGKILL, which is what makes the limit hard.
    """

    system: SetSystem
    k: int
    s_hat: float
    solver: str = "resilient"
    chain: tuple[str, ...] | None = None
    timeout: float | None = None
    stage_options: dict | None = None
    options: dict | None = None
    seed: int = 0
    tag: str | None = None
    #: Ask the worker to capture its solver spans and ship them home in
    #: the result frame. The supervisor also forces this on whenever the
    #: parent process has a tracer configured.
    trace: bool = False
    #: W3C ``traceparent`` of the originating request, when one exists.
    #: Parent-side only: the supervisor replays the worker's captured
    #: spans under its trace id, rooted at its span.
    traceparent: str | None = None
    #: Parent-side only: whether the daemon built ``system`` for this
    #: request (``False`` when its system cache held it). ``None`` for
    #: requests that did not come from a request body.
    system_decoded: bool | None = None


def encode_request(request: SolveRequest, request_id: int) -> dict:
    """The ``solve`` frame for one request.

    The system travels as its wire text (:func:`system_wire`, made at
    most once per system) with its ``system_fp`` fingerprint, so workers
    decode each system once; the supervisor drops ``system`` from the
    frame when the worker already holds the fingerprint.
    """
    text, fingerprint = system_wire(request.system)
    return {
        "kind": "solve",
        "id": request_id,
        "solver": request.solver,
        "system": text,
        "system_fp": fingerprint,
        "k": request.k,
        "s_hat": request.s_hat,
        "chain": list(request.chain) if request.chain is not None else None,
        "timeout": request.timeout,
        "stage_options": request.stage_options or {},
        "options": request.options or {},
        "seed": request.seed,
        "trace": request.trace,
    }


def request_from_payload(payload: dict) -> tuple[int, SolveRequest]:
    """Decode a ``solve`` frame on the worker side."""
    try:
        request_id = int(payload["id"])
        chain = payload.get("chain")
        request = SolveRequest(
            system=_system_of_frame(payload),
            k=int(payload["k"]),
            s_hat=float(payload["s_hat"]),
            solver=str(payload.get("solver", "resilient")),
            chain=tuple(chain) if chain is not None else None,
            timeout=payload.get("timeout"),
            stage_options=dict(payload.get("stage_options") or {}),
            options=dict(payload.get("options") or {}),
            seed=int(payload.get("seed", 0)),
            trace=bool(payload.get("trace", False)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"malformed solve request: {error!r}"
        ) from error
    return request_id, request
