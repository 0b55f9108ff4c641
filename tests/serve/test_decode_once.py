"""The daemon decodes each distinct system once and sends it to each
worker once (in-process server, real worker processes)."""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.resilience.pool import supervisor, worker
from repro.serve import server as handler


def answer(body: dict) -> str:
    """A reply's answer as bytes, minus the solve's wall time."""
    result = json.loads(json.dumps(body["result"]))
    result["metrics"].pop("runtime_seconds")
    return json.dumps({"status": body["status"], "result": result})


@pytest.fixture
def spy(monkeypatch):
    """Counts system builds and records every ``solve`` frame sent."""
    seen = {"decodes": 0, "frames": []}
    decode = worker.system_from_payload

    def counting_decode(payload):
        seen["decodes"] += 1
        return decode(payload)

    write = supervisor.write_frame

    def recording_write(stream, payload, injector=None):
        if payload.get("kind") == "solve":
            seen["frames"].append(dict(payload))
        return write(stream, payload, injector)

    # A /solve body's system is built by request validation, a /batch
    # body's shared system by the handler.
    monkeypatch.setattr(worker, "system_from_payload", counting_decode)
    monkeypatch.setattr(handler, "system_from_payload", counting_decode)
    monkeypatch.setattr(supervisor, "write_frame", recording_write)
    return seen


def test_repeat_system_is_decoded_and_sent_once(make_server, solve_body, spy):
    server = make_server()
    bodies = [solve_body(k=k) for k in (2, 3, 4)]
    replies = [server.post("/solve", body) for body in bodies]
    assert [code for code, _, _ in replies] == [200, 200, 200]
    pools = [reply["pool"] for _, reply, _ in replies]
    assert [p["system_decoded"] for p in pools] == [True, False, False]
    assert [p["system_sent"] for p in pools] == [True, False, False]
    assert spy["decodes"] == 1
    frames = spy["frames"]
    assert len(frames) == 3
    assert isinstance(frames[0]["system"], str)
    assert all("system" not in frame for frame in frames[1:])
    assert len({frame["system_fp"] for frame in frames}) == 1

    # Each answer equals the same body's answer from a fresh daemon.
    server.stop()
    for body, (_, reply, _) in zip(bodies, replies):
        fresh = make_server()
        code, first, _ = fresh.post("/solve", body)
        assert code == 200 and first["pool"]["system_decoded"]
        assert answer(reply) == answer(first)
        fresh.stop()


def test_other_whitespace_is_a_miss_with_the_same_answer(
    make_server, solve_body, spy
):
    server = make_server()
    body = solve_body()
    compact = json.dumps(body).encode()
    spaced = json.dumps(body, indent=2).encode()
    assert json.loads(compact) == json.loads(spaced)
    _, first, _ = server.post("/solve", compact)
    _, second, _ = server.post("/solve", spaced)
    assert first["pool"]["system_decoded"] and second["pool"]["system_decoded"]
    assert second["pool"]["system_sent"]
    assert spy["decodes"] == 2
    assert spy["frames"][0]["system_fp"] != spy["frames"][1]["system_fp"]
    assert answer(first) == answer(second)


def test_respawned_worker_receives_the_text(make_server, solve_body, spy):
    server = make_server()
    code, first, _ = server.post("/solve", solve_body(k=2))
    assert code == 200 and first["pool"]["system_sent"]
    pool = server.engine.pool
    old = pool._workers[0]
    os.kill(old.pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not (pool._workers[0] is not old and pool._workers[0].ready):
        assert time.monotonic() < deadline, "worker was not respawned"
        time.sleep(0.05)
    code, second, _ = server.post("/solve", solve_body(k=3))
    assert code == 200 and second["status"] == "ok"
    assert second["pool"]["requeues"] == 0
    assert second["pool"]["system_decoded"] is False
    assert second["pool"]["system_sent"] is True
    pids = [reply["pool"]["attempts"][-1]["pid"] for reply in (first, second)]
    assert pids[0] != pids[1]
    assert isinstance(spy["frames"][-1]["system"], str)
    assert spy["decodes"] == 1


def test_batch_shares_one_cached_system(make_server, solve_body, spy):
    server = make_server()
    shared = solve_body()["system"]
    batch = {
        "system": shared,
        "requests": [{"k": 2, "s": 0.5}, {"k": 3, "s": 0.5}],
    }
    code, reply, _ = server.post("/batch", batch)
    assert code == 200
    assert [r["pool"]["system_decoded"] for r in reply["results"]] == [
        True, True
    ]
    code, reply, _ = server.post("/batch", batch)
    assert [r["pool"]["system_decoded"] for r in reply["results"]] == [
        False, False
    ]
    assert [r["pool"]["system_sent"] for r in reply["results"]] == [
        False, False
    ]
    assert spy["decodes"] == 1


def test_scanned_bodies_answer_as_json_loads_reads_them(
    make_server, solve_body
):
    server = make_server()
    body = solve_body()
    text = json.dumps(body)
    for bad in (text[:-1], text + "x", "[" + text):
        code, reply, _ = server.post("/solve", bad.encode())
        try:
            json.loads(bad)
        except json.JSONDecodeError as error:
            expected = f"malformed JSON body: {error}"
        assert code == 400 and reply == {"error": expected}
    # Duplicate top-level keys: the last system wins, as in json.loads.
    good = json.dumps(body["system"])
    bad = json.dumps(dict(body["system"], n=-1))
    for first, last, want in ((bad, good, 200), (good, bad, 400)):
        twice = f'{{"system": {first}, "k": 3, "s": 0.5, "system": {last}}}'
        code, reply, _ = server.post("/solve", twice.encode())
        assert code == want, reply
    code, reply, _ = server.post("/solve", [body])
    assert code == 400 and "JSON object" in reply["error"]


def test_rejected_bodies_leave_the_cache_alone(make_server, solve_body, spy):
    server = make_server()
    body = solve_body()
    unknown = dict(body, colour="blue")
    code, reply, _ = server.post("/solve", unknown)
    assert code == 400 and "unknown field" in reply["error"]
    assert spy["decodes"] == 0  # rejected before the system is built
    code, reply, _ = server.post("/solve", dict(body, k="three"))
    assert code == 400 and "'k'" in reply["error"]
    batch = {"system": body["system"], "requests": [{"k": "three", "s": 0.5}]}
    code, reply, _ = server.post("/batch", batch)
    assert code == 400
    assert not server.httpd.systems._systems
    code, reply, _ = server.post("/solve", body)
    assert code == 200 and reply["pool"]["system_decoded"]


@pytest.mark.parametrize(
    "benefit", [[[0], [1]], [[0, 1]], [[0, 1], [2]], [0.5]]
)
def test_non_integer_elements_answer_400(make_server, solve_body, benefit):
    server = make_server()
    body = solve_body()
    sets = body["system"]["sets"]
    bad = dict(body, system=dict(
        body["system"], sets=[[benefit, *sets[0][1:]], *sets[1:]]
    ))
    code, reply, _ = server.post("/solve", bad)
    assert code == 400 and "integers" in reply["error"]
    assert not server.httpd.systems._systems
