"""Pool IPC: framing, garbage tolerance, and label/system fidelity."""

from __future__ import annotations

import io
import json
import struct

import pytest

from repro.core.cwsc import cwsc
from repro.errors import ProtocolError
from repro.resilience.pool.protocol import (
    MAX_FRAME_BYTES,
    FrameReader,
    RemoteLabel,
    RemoteSortedLabel,
    SolveRequest,
    encode_frame,
    encode_request,
    read_frame,
    request_from_payload,
    system_from_payload,
    system_to_payload,
    write_frame,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"kind": "ping", "n": 3, "x": [1.5, None, "text"]}
        stream = io.BytesIO(encode_frame(payload))
        assert read_frame(stream) == payload
        assert read_frame(stream) is None  # clean EOF

    def test_write_frame_flushes(self):
        class Recorder(io.BytesIO):
            flushed = False

            def flush(self):
                self.flushed = True

        stream = Recorder()
        write_frame(stream, {"kind": "pong"})
        assert stream.flushed

    def test_eof_mid_body_raises(self):
        data = encode_frame({"kind": "ready"})
        stream = io.BytesIO(data[:-3])
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(stream)

    def test_eof_mid_header_raises(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(ProtocolError):
            read_frame(stream)

    def test_implausible_length_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(io.BytesIO(header + b"x"))

    def test_non_json_body_rejected(self):
        body = b"\x00\xff garbage"
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(ProtocolError, match="JSON"):
            read_frame(io.BytesIO(frame))

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2]).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(ProtocolError, match="object"):
            read_frame(io.BytesIO(frame))


class TestFrameReader:
    def test_byte_at_a_time(self):
        payloads = [{"kind": "ready", "i": i} for i in range(3)]
        data = b"".join(encode_frame(p) for p in payloads)
        reader = FrameReader()
        seen = []
        for i in range(len(data)):
            seen.extend(reader.feed(data[i : i + 1]))
        assert seen == payloads
        assert reader.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        payloads = [{"kind": "stage", "stage": f"s{i}"} for i in range(5)]
        reader = FrameReader()
        assert reader.feed(
            b"".join(encode_frame(p) for p in payloads)
        ) == payloads

    def test_partial_frame_buffers(self):
        data = encode_frame({"kind": "result", "id": 7})
        reader = FrameReader()
        assert reader.feed(data[:5]) == []
        assert reader.pending_bytes == 5
        assert reader.feed(data[5:]) == [{"kind": "result", "id": 7}]

    def test_lying_length_prefix_raises(self):
        reader = FrameReader()
        with pytest.raises(ProtocolError, match="exceeds"):
            reader.feed(struct.pack(">I", MAX_FRAME_BYTES * 2) + b"xxxx")

    def test_garbage_body_raises(self):
        reader = FrameReader()
        body = b"\xde\xad\xbe\xef"
        with pytest.raises(ProtocolError):
            reader.feed(struct.pack(">I", len(body)) + body)


class TestFrameReaderAdversarial:
    """Hostile byte streams: partial writes and interleaved garbage.

    These pin the supervisor-facing contract: single-byte dribble is
    fine, any garbage raises, and the *caller* (which kills the worker
    and discards its pipe) is responsible for recovery — a reader that
    saw a lying length prefix can never resynchronize.
    """

    def test_single_byte_writes_with_trailing_partial(self):
        payloads = [{"kind": "ready", "i": i} for i in range(2)]
        trailing = encode_frame({"kind": "result", "id": 99})
        data = b"".join(encode_frame(p) for p in payloads) + trailing[:-4]
        reader = FrameReader()
        seen = []
        for i in range(len(data)):
            seen.extend(reader.feed(data[i : i + 1]))
        assert seen == payloads
        assert reader.pending_bytes == len(trailing) - 4
        # Completing the partial frame later yields it intact.
        assert reader.feed(trailing[-4:]) == [{"kind": "result", "id": 99}]
        assert reader.pending_bytes == 0

    def test_garbage_frame_between_valid_frames_across_feeds(self):
        reader = FrameReader()
        assert reader.feed(encode_frame({"kind": "a"})) == [{"kind": "a"}]
        garbage = b"\xde\xad\xbe\xef"
        with pytest.raises(ProtocolError, match="JSON"):
            reader.feed(struct.pack(">I", len(garbage)) + garbage)
        # A garbage *body* is consumed whole, so the stream position is
        # past it: a subsequent valid frame still decodes. (In
        # production the supervisor never reads on: it kills the
        # worker; this documents the reader's own state.)
        assert reader.feed(encode_frame({"kind": "b"})) == [{"kind": "b"}]

    def test_garbage_in_same_chunk_raises_and_drops_earlier_frames(self):
        reader = FrameReader()
        garbage = b"not json"
        chunk = (
            encode_frame({"kind": "early"})
            + struct.pack(">I", len(garbage))
            + garbage
            + encode_frame({"kind": "late"})
        )
        # The raise wins over partial results: frames decoded earlier in
        # the same feed() call are lost with it. Callers that care must
        # feed frame-by-frame — the supervisor instead treats any raise
        # as worker death, so nothing is silently dropped in practice.
        with pytest.raises(ProtocolError):
            reader.feed(chunk)
        assert reader.feed(b"") == [{"kind": "late"}]

    def test_garbage_body_fed_byte_by_byte_raises_on_final_byte(self):
        garbage = b"\x00\xffnope"
        data = struct.pack(">I", len(garbage)) + garbage
        reader = FrameReader()
        for i in range(len(data) - 1):
            assert reader.feed(data[i : i + 1]) == []
        with pytest.raises(ProtocolError):
            reader.feed(data[-1:])

    def test_lying_length_prefix_poisons_the_reader(self):
        reader = FrameReader()
        with pytest.raises(ProtocolError, match="exceeds"):
            reader.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
        # The prefix is unconsumed and unresynchronizable: every
        # subsequent feed raises again, valid bytes or not.
        with pytest.raises(ProtocolError, match="exceeds"):
            reader.feed(encode_frame({"kind": "fine"}))


class TestLabelShims:
    def test_remote_label_repr_fidelity(self):
        shim = RemoteLabel("Pattern('A', ALL)")
        assert repr(shim) == "Pattern('A', ALL)"

    def test_plain_shim_has_no_sort_key(self):
        # canonical_key probes getattr(label, "sort_key"); a label that
        # never had one must not grow one in transit.
        assert getattr(RemoteLabel("x"), "sort_key", None) is None

    def test_sorted_shim_round_trips_tuples(self):
        shim = RemoteSortedLabel("p", (1, (0, "A"), (1, "*")))
        assert shim.sort_key() == (1, (0, "A"), (1, "*"))

    def test_shim_equality_and_hash(self):
        assert RemoteLabel("a") == RemoteLabel("a")
        assert RemoteLabel("a") != RemoteLabel("b")
        assert hash(RemoteLabel("a")) == hash(RemoteLabel("a"))


class TestSystemPayload:
    def test_round_trip_preserves_structure(self, random_system):
        system = random_system(n_elements=15, n_sets=9, seed=3)
        clone = system_from_payload(
            json.loads(json.dumps(system_to_payload(system)))
        )
        assert clone.n_elements == system.n_elements
        assert clone.n_sets == system.n_sets
        for original, copied in zip(system.sets, clone.sets):
            assert set(copied.benefit) == set(original.benefit)
            assert copied.cost == original.cost

    def test_round_trip_preserves_greedy_selection(self, entities_system):
        # The determinism contract: a solver on the round-tripped system
        # (pattern labels with sort keys) picks exactly the same sets.
        clone = system_from_payload(
            json.loads(json.dumps(system_to_payload(entities_system)))
        )
        original = cwsc(entities_system, 3, 0.5)
        remote = cwsc(clone, 3, 0.5)
        assert remote.set_ids == original.set_ids
        assert remote.total_cost == original.total_cost
        assert [repr(label) for label in remote.labels] == [
            repr(label) for label in original.labels
        ]

    def test_malformed_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed"):
            system_from_payload({"n": 3})
        with pytest.raises(ProtocolError, match="malformed"):
            system_from_payload({"n": 3, "sets": [[1]]})
        with pytest.raises(ProtocolError, match="label"):
            system_from_payload(
                {"n": 3, "sets": [[[0], 1.0, {"bogus": True}]]}
            )


class TestRequestPayload:
    def test_round_trip(self, random_system):
        system = random_system()
        request = SolveRequest(
            system=system,
            k=4,
            s_hat=0.75,
            solver="resilient",
            chain=("cwsc", "universal"),
            timeout=2.5,
            stage_options={"cmc": {"b": 2.0}},
            options={"max_retries": 1},
            seed=11,
            tag="cell-1",
        )
        request_id, decoded = request_from_payload(
            json.loads(json.dumps(encode_request(request, 42)))
        )
        assert request_id == 42
        assert decoded.k == 4
        assert decoded.s_hat == 0.75
        assert decoded.chain == ("cwsc", "universal")
        assert decoded.timeout == 2.5
        assert decoded.stage_options == {"cmc": {"b": 2.0}}
        assert decoded.options == {"max_retries": 1}
        assert decoded.seed == 11
        assert decoded.system.n_sets == system.n_sets

    def test_malformed_request_raises(self):
        with pytest.raises(ProtocolError, match="malformed solve request"):
            request_from_payload({"kind": "solve", "id": 1})


class TestSystemFingerprintCache:
    """Payload/fingerprint caching on both sides of the pipe."""

    @pytest.fixture(autouse=True)
    def _fresh_worker_cache(self):
        from repro.resilience.pool import protocol

        protocol._SYSTEM_CACHE.clear()
        yield
        protocol._SYSTEM_CACHE.clear()

    def test_payload_cached_per_system(self, random_system):
        from repro.resilience.pool.protocol import (
            system_payload_and_fingerprint,
        )

        system = random_system(n_elements=10, n_sets=6, seed=1)
        first = system_payload_and_fingerprint(system)
        assert system_payload_and_fingerprint(system) is first

    def test_fingerprint_tracks_content(self, random_system):
        from repro.resilience.pool.protocol import (
            system_payload_and_fingerprint,
        )

        a = random_system(n_elements=10, n_sets=6, seed=1)
        b = random_system(n_elements=10, n_sets=6, seed=1)
        c = random_system(n_elements=10, n_sets=6, seed=2)
        assert (
            system_payload_and_fingerprint(a)[1]
            == system_payload_and_fingerprint(b)[1]
        )
        assert (
            system_payload_and_fingerprint(a)[1]
            != system_payload_and_fingerprint(c)[1]
        )

    def test_encode_request_carries_fingerprint(self, random_system):
        from repro.resilience.pool.protocol import (
            system_payload_and_fingerprint,
        )

        system = random_system()
        frame = encode_request(SolveRequest(system=system, k=2, s_hat=0.5), 7)
        assert frame["system_fp"] == system_payload_and_fingerprint(system)[1]

    def test_worker_reuses_system_for_repeated_fingerprint(
        self, random_system
    ):
        system = random_system(n_elements=12, n_sets=7, seed=5)
        frame = json.loads(
            json.dumps(
                encode_request(SolveRequest(system=system, k=2, s_hat=0.5), 1)
            )
        )
        _, first = request_from_payload(dict(frame))
        _, second = request_from_payload(dict(frame))
        assert second.system is first.system

    def test_frames_without_fingerprint_still_decode(self, random_system):
        system = random_system()
        frame = encode_request(SolveRequest(system=system, k=2, s_hat=0.5), 1)
        frame.pop("system_fp")
        _, decoded = request_from_payload(frame)
        assert decoded.system.n_sets == system.n_sets

    def test_worker_cache_is_bounded(self, random_system):
        from repro.resilience.pool import protocol

        for seed in range(protocol.SYSTEM_CACHE_SIZE + 2):
            system = random_system(n_elements=8, n_sets=4, seed=seed)
            request_from_payload(
                encode_request(SolveRequest(system=system, k=1, s_hat=0.5), seed)
            )
        assert len(protocol._SYSTEM_CACHE) == protocol.SYSTEM_CACHE_SIZE


class TestSystemTextOnce:
    """Frames carry a system's text until the worker holds it."""

    @pytest.fixture(autouse=True)
    def _fresh_worker_cache(self):
        from repro.resilience.pool import protocol

        protocol._SYSTEM_CACHE.clear()
        yield
        protocol._SYSTEM_CACHE.clear()

    def test_frame_system_is_the_wire_text(self, random_system):
        from repro.resilience.pool.protocol import (
            system_payload_and_fingerprint,
            system_wire,
        )

        system = random_system()
        frame = encode_request(SolveRequest(system=system, k=2, s_hat=0.5), 1)
        text, fingerprint = system_wire(system)
        assert frame["system"] is text
        assert json.loads(text) == system_payload_and_fingerprint(system)[0]

    def test_recorded_text_travels_unchanged(self, random_system):
        from repro.resilience.pool.protocol import system_wire

        text = json.dumps(system_to_payload(random_system()), indent=1)
        system = system_from_payload(json.loads(text))
        assert system_wire(system, text, "f" * 64) == (text, "f" * 64)
        frame = encode_request(SolveRequest(system=system, k=2, s_hat=0.5), 1)
        assert frame["system"] is text and frame["system_fp"] == "f" * 64

    def test_held_system_needs_no_text(self, random_system):
        from repro.resilience.pool.protocol import held_systems, holds_system

        frame = encode_request(
            SolveRequest(system=random_system(), k=2, s_hat=0.5), 1
        )
        fingerprint = frame["system_fp"]
        assert not holds_system(fingerprint)
        _, first = request_from_payload(dict(frame))
        assert holds_system(fingerprint) and held_systems() == [fingerprint]
        bare = {key: value for key, value in frame.items() if key != "system"}
        _, second = request_from_payload(bare)
        assert second.system is first.system

    def test_unheld_system_without_text_is_a_protocol_error(
        self, random_system
    ):
        frame = encode_request(
            SolveRequest(system=random_system(), k=2, s_hat=0.5), 1
        )
        del frame["system"]
        with pytest.raises(ProtocolError, match="does not hold"):
            request_from_payload(frame)

    def test_system_text_must_be_a_json_object(self, random_system):
        frame = encode_request(
            SolveRequest(system=random_system(), k=2, s_hat=0.5), 1
        )
        for text in ("[1]", "{", {"n": 1}):
            with pytest.raises(ProtocolError):
                request_from_payload(dict(frame, system=text, system_fp=None))
