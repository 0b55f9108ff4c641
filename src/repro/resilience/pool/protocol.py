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
result    w -> s     terminal answer for one request id
ping      s -> w     liveness probe
pong      w -> s     liveness reply
shutdown  s -> w     drain and exit 0
========  =========  ===================================================

Set systems cross the boundary as plain lists. Labels are *not*
pickled: each label travels as its ``repr`` text plus (when the label
defines one) its ``sort_key()`` tuple, and is rebuilt as a
:class:`RemoteLabel` shim on the worker side. The shim reproduces both
the label's ``repr`` and its tie-break ordering
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
    "read_frame",
    "request_from_payload",
    "system_from_payload",
    "system_payload_and_fingerprint",
    "system_to_payload",
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
    labels within one system must stay homogeneous.
    """

    __slots__ = ("_sort_key",)

    def __init__(self, repr_text: str, sort_key: tuple) -> None:
        super().__init__(repr_text)
        self._sort_key = sort_key

    def sort_key(self) -> tuple:
        return self._sort_key


def _tuplize(value):
    """JSON arrays back to tuples, recursively (sort keys are tuples)."""
    if isinstance(value, list):
        return tuple(_tuplize(item) for item in value)
    return value


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
        return RemoteSortedLabel(payload["r"], _tuplize(payload["k"]))
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
    except (KeyError, TypeError, IndexError) as error:
        raise ProtocolError(
            f"malformed set-system payload: {error!r}"
        ) from error
    return SetSystem.from_iterables(n_elements, benefits, costs, labels=labels)


#: Parent-side cache: serializing a big system once per *request* would
#: dominate `scwsc batch` fan-out, but systems are immutable, so the
#: payload and its fingerprint are computed once per system. Weak keys:
#: dropping the system drops the cached payload.
_PAYLOAD_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def system_payload_and_fingerprint(system: SetSystem) -> tuple[dict, str]:
    """The (cached) wire payload of a system plus its content fingerprint.

    The fingerprint is the SHA-256 of the canonical (sorted-keys,
    compact) JSON encoding of the payload, so two systems fingerprint
    equal exactly when their wire forms are identical — same universe,
    same benefit sets, same costs, same label reprs/sort keys.
    """
    try:
        cached = _PAYLOAD_CACHE.get(system)
    except TypeError:  # unhashable/unweakrefable stand-in: build fresh
        cached = None
    if cached is not None:
        return cached
    payload = system_to_payload(system)
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    cached = (payload, hashlib.sha256(body.encode("utf-8")).hexdigest())
    try:
        _PAYLOAD_CACHE[system] = cached
    except TypeError:  # pragma: no cover - stand-in objects only
        pass
    return cached


#: Worker-side cache: most recently deserialized systems, keyed by the
#: supervisor's fingerprint. `scwsc batch` sends every request of a run
#: against the same system, so all but the first skip the
#: ``from_iterables`` re-parse (and share the per-system solver caches:
#: mask table, owners index, canonical keys). Bounded so long-lived
#: workers under ``--memory-limit`` don't accumulate dead systems.
SYSTEM_CACHE_SIZE = 4

_SYSTEM_CACHE: "OrderedDict[str, SetSystem]" = OrderedDict()


def _system_from_payload_cached(
    payload: dict, fingerprint: str | None
) -> SetSystem:
    """LRU-cached deserialization; plain rebuild without a fingerprint.

    The fingerprint is trusted — the supervisor computed it from the
    exact payload it framed — so a hit skips even reading the payload.
    """
    if fingerprint is None:
        return system_from_payload(payload)
    system = _SYSTEM_CACHE.get(fingerprint)
    if system is not None:
        _SYSTEM_CACHE.move_to_end(fingerprint)
        return system
    system = system_from_payload(payload)
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


def encode_request(request: SolveRequest, request_id: int) -> dict:
    """The ``solve`` frame for one request.

    The system payload is cached per system
    (:func:`system_payload_and_fingerprint`) and travels with its
    ``system_fp`` fingerprint so workers can skip re-parsing repeats —
    requeues and batch runs re-encode cheaply and deserialize once.
    """
    payload, fingerprint = system_payload_and_fingerprint(request.system)
    return {
        "kind": "solve",
        "id": request_id,
        "solver": request.solver,
        "system": payload,
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
        fingerprint = payload.get("system_fp")
        request = SolveRequest(
            system=_system_from_payload_cached(
                payload["system"],
                fingerprint if isinstance(fingerprint, str) else None,
            ),
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
