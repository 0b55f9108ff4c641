"""Acceptance: end-to-end request tracing and the access log.

Drives a mix of requests — concurrent solves, an admission shed, a
chaos-forced pool requeue, and a single-stage greedy solve — through a
live daemon and asserts the observability contract: every HTTP request
yields exactly one schema-valid ``access`` record, and every traced
request's worker spans replay under the originating trace id in one
schema-valid tree.
"""

from __future__ import annotations

import threading

from repro.obs import trace as obs_trace
from repro.obs.report import load_trace
from repro.obs.schema import validate_trace_file
from repro.resilience import faults
from repro.resilience.faults import FaultConfig
from repro.resilience.pool.protocol import system_to_payload


def traceparent(tid: str) -> str:
    return f"00-{tid}-{'cd' * 8}-01"


def access_records(path) -> list[dict]:
    """An access log's records: a strictly valid trace holding a meta
    record and then only ``access`` records."""
    assert validate_trace_file(str(path), strict=True) == []
    meta, *records = load_trace(str(path))
    assert meta["type"] == "meta"
    assert {r["type"] for r in records} <= {"access"}
    return records


def spans_for(records: list[dict], tid: str) -> list[dict]:
    """The worker spans replayed under trace id ``tid``."""
    return [
        r
        for r in records
        if r.get("type") == "span"
        and r.get("attrs", {}).get("trace_id") == tid
        and "worker" in r["attrs"]
    ]


class TestObservabilityAcceptance:
    def test_trace_and_access_log(
        self, make_server, solve_body, random_system, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        access_path = tmp_path / "access.jsonl"
        obs_trace.configure(str(trace_path), command="observability-test")
        try:
            server = make_server(
                workers=1,
                access_log=str(access_path),
                max_requeues=1,
                max_inflight=3,
            )
            sent: list[str] = []  # trace ids we handed the server

            # -- three concurrent plain solves ------------------------
            tids = [f"{i:02x}" * 16 for i in (0xA1, 0xA2, 0xA3)]
            outcomes: dict[str, tuple[int, dict]] = {}
            lock = threading.Lock()

            def fire(tid: str) -> None:
                code, decoded, _ = server.post(
                    "/solve",
                    solve_body(seed=1),
                    headers={"traceparent": traceparent(tid)},
                )
                with lock:
                    outcomes[tid] = (code, decoded)

            threads = [
                threading.Thread(target=fire, args=(tid,)) for tid in tids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive(), "request hung"
            sent += tids
            for tid in tids:
                code, decoded = outcomes[tid]
                assert code == 200, decoded
                assert decoded["trace_id"] == tid

            # -- one single-stage greedy solve -------------------------
            greedy_tid = "b1" * 16
            code, decoded, _ = server.post(
                "/solve",
                solve_body(seed=2, chain=["cwsc"]),
                headers={"traceparent": traceparent(greedy_tid)},
            )
            sent.append(greedy_tid)
            assert code == 200, decoded
            assert decoded["status"] == "ok"

            # -- one chaos-forced pool requeue ------------------------
            # The supervisor SIGKILLs the worker 50ms after dispatch.
            # The worker spends far longer than that decoding and
            # solving a ~5 MB system (6 000 elements, 600 sets; about
            # 0.5 s on 2 vCPU), so the kill always lands mid-attempt.
            requeue_tid = "c1" * 16
            large = random_system(n_elements=6000, n_sets=600, seed=3)
            with faults.chaos(
                FaultConfig(worker_kill=1.0, fault_limit=1, seed=7)
            ):
                code, decoded, _ = server.post(
                    "/solve",
                    {
                        "system": system_to_payload(large),
                        "k": 3,
                        "s": 0.5,
                        "chain": ["cwsc"],
                    },
                    headers={"traceparent": traceparent(requeue_tid)},
                )
            sent.append(requeue_tid)
            assert code == 200, decoded
            assert decoded["pool"]["requeues"] == 1, decoded["pool"]

            # -- one shed 429: the in-flight cap is held synthetically --
            shed_tid = "d2" * 16
            held = server.config.max_inflight
            assert server.admission.try_admit(held).admitted
            try:
                code, decoded, _ = server.post(
                    "/solve",
                    solve_body(seed=4),
                    headers={"traceparent": traceparent(shed_tid)},
                )
            finally:
                server.admission.release(held)
            sent.append(shed_tid)
            assert code == 429, decoded
            assert decoded["reason"] == "inflight"

            # -- one /metrics scrape: a GET gets its record too --------
            _, metrics_text, _ = server.get("/metrics")
            assert 'scwsc_server_shed_total{reason="inflight"} 1' in metrics_text
            server.stop()
        finally:
            obs_trace.shutdown()

        # -- access log: exactly one record per request ----------------
        # 6 solves + 1 /metrics scrape = 7 records.
        access = access_records(access_path)
        assert len(access) == 7
        by_tid: dict[str, list[dict]] = {}
        for record in access:
            by_tid.setdefault(record["trace_id"], []).append(record)
        for tid in sent:
            assert len(by_tid[tid]) == 1, f"{tid}: {by_tid.get(tid)}"
        shed_record = by_tid[shed_tid][0]
        assert shed_record["status"] == 429
        assert shed_record["shed_reason"] == "inflight"
        assert "solve_seconds" not in shed_record
        requeue_record = by_tid[requeue_tid][0]
        assert requeue_record["requeues"] == 1
        assert requeue_record["solve_seconds"] > 0
        assert requeue_record["queue_seconds"] >= 0
        ok_record = by_tid[tids[0]][0]
        assert ok_record["status"] == 200
        assert ok_record["solve_status"] == "ok"
        assert ok_record["deadline"] > 0

        # -- trace: schema-valid, one tree per request -----------------
        assert validate_trace_file(str(trace_path)) == []
        records = load_trace(str(trace_path))
        # The trace file is a sink of the same tracer: it holds the very
        # access records the access log kept.
        assert [r for r in records if r["type"] == "access"] == access
        span_ids = {
            r.get("span_id") for r in records if r.get("type") == "span"
        }
        for tid in sent:
            edge = [
                r
                for r in records
                if r.get("type") == "span"
                and r.get("name") == "server_request"
                and r.get("attrs", {}).get("trace_id") == tid
            ]
            assert len(edge) == 1, f"expected one edge span for {tid}"
            # The edge span carries the context's span id, so worker
            # subtrees replayed under the trace id parent onto it.
            assert edge[0]["span_id"] in span_ids
        # Worker spans replay under the request's trace id...
        for tid in (tids[0], greedy_tid, requeue_tid):
            worker_spans = spans_for(records, tid)
            assert worker_spans, f"no worker spans under {tid}"
            for span in worker_spans:
                parent = span.get("parent_id")
                assert parent in span_ids, (span["name"], parent)
        # ...including the solver's own subtree for the greedy solve.
        greedy_names = {s["name"] for s in spans_for(records, greedy_tid)}
        assert "solve" in greedy_names
        assert "select" in greedy_names
        # The killed first attempt never ships its spans home (SIGKILL
        # takes the capture buffer with it); the surviving spans are all
        # attempt 2, and the requeue itself is an annotated event.
        requeue_spans = spans_for(records, requeue_tid)
        attempts = {s["attrs"]["attempt"] for s in requeue_spans}
        assert attempts == {2}, attempts
        requeue_events = [
            r
            for r in records
            if r.get("type") == "event"
            and r.get("name") == "requeue"
            and r.get("attrs", {}).get("trace_id") == requeue_tid
        ]
        assert len(requeue_events) == 1
        shed_events = [
            r
            for r in records
            if r.get("type") == "event"
            and r.get("name") == "server_shed"
            and r.get("attrs", {}).get("trace_id") == shed_tid
        ]
        assert len(shed_events) == 1

    def test_batch_shares_one_trace_and_one_access_record(
        self, make_server, solve_body, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        access_path = tmp_path / "access.jsonl"
        obs_trace.configure(str(trace_path), command="observability-batch")
        tid = "e1" * 16
        try:
            server = make_server(workers=1, access_log=str(access_path))
            entries = [dict(solve_body(seed=i), tag=f"r{i}") for i in range(2)]
            code, decoded, _ = server.post(
                "/batch",
                {"requests": entries},
                headers={"traceparent": traceparent(tid)},
            )
            assert code == 200, decoded
            assert decoded["count"] == 2
            assert decoded["trace_id"] == tid
            server.stop()
        finally:
            obs_trace.shutdown()
        (record,) = access_records(access_path)
        assert record["trace_id"] == tid
        assert record["endpoint"] == "/batch"
        # Timings accumulate across the batch's tickets.
        assert record["solve_seconds"] > 0
        records = load_trace(str(trace_path))
        # Both pool requests' worker spans land under the one trace id.
        solve_spans = [
            s for s in spans_for(records, tid) if s["name"] == "solve"
        ]
        assert len(solve_spans) == 2
        assert validate_trace_file(str(trace_path)) == []

    def test_minted_context_when_no_traceparent(
        self, make_server, solve_body, tmp_path
    ):
        access_path = tmp_path / "access.jsonl"
        server = make_server(workers=1, access_log=str(access_path))
        code, decoded, headers = server.post("/solve", solve_body(seed=5))
        assert code == 200
        minted = decoded["trace_id"]
        assert len(minted) == 32
        echoed = headers.get("Traceparent")
        assert echoed is not None and echoed.split("-")[1] == minted
        server.stop()
        (record,) = access_records(access_path)
        assert record["trace_id"] == minted


class TestResponseOrdering:
    def test_slot_free_once_the_client_holds_its_reply(
        self, make_server, solve_body
    ):
        """A handler releases its admission slot before writing its
        response: back-to-back posts under a one-request cap are never
        shed, and nothing is in flight once a reply is in hand."""
        server = make_server(max_inflight=1)
        body = solve_body()
        for _ in range(5):
            code, decoded, _ = server.post("/solve", body)
            assert code == 200, decoded
            assert server.admission.inflight == 0
