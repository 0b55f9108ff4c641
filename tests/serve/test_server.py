"""HTTP surface: routes, malformed frames, schema validation, metrics."""

from __future__ import annotations

import pytest

from repro.core.validate import verify_result
from repro.errors import ProtocolError, ValidationError
from repro.resilience.pool.protocol import system_to_payload
from repro.serve import ServeConfig, build_solve_request
from repro.serve.server import _TICKET_SLACK  # noqa: F401  (import check)


class TestBuildSolveRequest:
    def config(self, **overrides) -> ServeConfig:
        overrides.setdefault("port", 0)
        return ServeConfig(**overrides)

    def payload(self, random_system, **overrides) -> dict:
        body = {
            "system": system_to_payload(random_system()),
            "k": 3,
            "s": 0.5,
        }
        body.update(overrides)
        return body

    def test_minimal_body(self, random_system):
        request = build_solve_request(
            self.payload(random_system), self.config()
        )
        assert request.k == 3
        assert request.s_hat == 0.5
        assert request.solver == "resilient"
        assert request.timeout == self.config().default_deadline

    def test_deadline_clamped_to_max(self, random_system):
        config = self.config(max_deadline=10.0, default_deadline=5.0)
        request = build_solve_request(
            self.payload(random_system, deadline=9999.0), config
        )
        assert request.timeout == 10.0

    def test_all_fields_pass_through(self, random_system):
        request = build_solve_request(
            self.payload(
                random_system,
                solver="cwsc",
                chain=["cwsc", "universal"],
                deadline=2.0,
                seed=7,
                tag="t1",
                options={"on_infeasible": "partial"},
                stage_options={"cmc": {"b": 2.0}},
            ),
            self.config(),
        )
        assert request.solver == "cwsc"
        assert request.chain == ("cwsc", "universal")
        assert request.timeout == 2.0
        assert request.seed == 7
        assert request.tag == "t1"
        assert request.options == {"on_infeasible": "partial"}
        assert request.stage_options == {"cmc": {"b": 2.0}}

    @pytest.mark.parametrize(
        "mutation",
        [
            {"k": "three"},
            {"k": True},
            {"s": "half"},
            {"deadline": 0},
            {"deadline": "soon"},
            {"solver": 7},
            {"chain": "cwsc"},
            {"chain": [1, 2]},
            {"seed": 1.5},
            {"tag": 9},
            {"options": []},
            # Names the worker would reject: an unknown solver or chain
            # stage, or an option the target callable does not take.
            {"solver": "nope"},
            {"solver": "cwsc", "options": {"bogus": 1}},
            {"solver": "cwsc", "options": {"deadline": 5}},
            {"options": {"chain": ["cwsc"]}},
            {"options": {"shards": 2}},
            {"chain": ["nope"]},
            {"chain": ["cwsc"], "stage_options": {"cwsc": {"bogus": 1}}},
            {"stage_options": {"nope": {}}},
            {"stage_options": {"cmc": []}},
            {"stage_options": {"universal": {"b": 2.0}}},
            # Values of the wrong type for the parameter they reach.
            {"solver": "cmc", "options": {"b": "two"}},
            {"solver": "cmc", "options": {"b": True}},
            {"solver": "cwsc", "options": {"on_infeasible": "nope"}},
            {"solver": "cmc", "options": {"backend": "gpu"}},
            {"options": {"backend": "gpu"}},
            {"options": {"isolation": "bogus"}},
            {"options": {"on_failure": "bogus"}},
            {"options": {"max_retries": 1.5}},
            {"stage_options": {"lp_rounding": {"trials": "10"}}},
            # Fields no request takes, such as the retired top-level
            # "shards".
            {"shards": 2},
            {"bogus": None},
        ],
    )
    def test_bad_fields_raise_validation(self, random_system, mutation):
        body = self.payload(random_system, **mutation)
        with pytest.raises(ValidationError):
            build_solve_request(body, self.config())

    @pytest.mark.parametrize(
        "fields",
        [
            {"solver": "cmc", "options": {"b": 2.0, "backend": "set"}},
            {"solver": "greedy_partial"},
            {
                "options": {"max_retries": 0, "exact_node_limit": 10},
                "stage_options": {
                    "exact": {"node_limit": 5},
                    "lp_rounding": {"seed": 3, "trials": 2},
                    "cmc_epsilon": {"eps": 0.5},
                },
            },
        ],
    )
    def test_fields_the_worker_accepts_pass(self, random_system, fields):
        build_solve_request(self.payload(random_system, **fields), self.config())

    def test_missing_system_raises(self):
        with pytest.raises(ValidationError, match="system"):
            build_solve_request({"k": 1, "s": 0.5}, self.config())

    def test_bad_system_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            build_solve_request(
                {"system": {"n": 3}, "k": 1, "s": 0.5}, self.config()
            )


class TestBackendKnob(TestBuildSolveRequest):
    """The top-level ``backend`` request field flows into solver options
    (and validates before any solve starts)."""

    def test_backend_lands_in_options(self, random_system):
        request = build_solve_request(
            self.payload(random_system, backend="packed"), self.config()
        )
        assert request.options == {"backend": "packed"}

    def test_explicit_options_win_over_top_level(self, random_system):
        request = build_solve_request(
            self.payload(
                random_system,
                backend="set",
                options={"backend": "packed"},
            ),
            self.config(),
        )
        assert request.options["backend"] == "packed"

    def test_unknown_backend_rejected(self, random_system):
        with pytest.raises(ValidationError):
            build_solve_request(
                self.payload(random_system, backend="gpu"), self.config()
            )


class TestEndpoints:
    def test_healthz(self, make_server):
        server = make_server()
        code, body, _ = server.get("/healthz")
        assert (code, body) == (200, {"ok": True})

    def test_readyz_after_warm(self, make_server):
        server = make_server()
        code, body, _ = server.get("/readyz")
        assert code == 200
        assert body["ready"] is True
        assert body["warm"] is True
        assert body["open_breakers"] == []

    def test_unknown_route_404(self, make_server):
        server = make_server()
        code, body, _ = server.get("/nope")
        assert code == 404
        code, _, _ = server.post("/healthz", {})
        assert code == 404

    def test_solve_round_trip_verifies(
        self, make_server, solve_body, random_system
    ):
        server = make_server()
        body = solve_body(seed=4)
        code, response, _ = server.post("/solve", body)
        assert code == 200
        assert response["status"] in ("ok", "fallback")
        result = response["result"]
        # Recompute the claims locally: the served result must verify
        # against the system the client actually sent.
        from repro.core.result import result_from_dict
        from repro.resilience.pool.protocol import system_from_payload

        system = system_from_payload(body["system"])
        problems = verify_result(
            system, result_from_dict(result), k=body["k"], s_hat=body["s"]
        )
        assert problems == []
        assert response["pool"]["attempts"]

    def test_batch_shares_one_system(self, make_server, solve_body):
        server = make_server()
        body = solve_body(seed=2)
        code, response, _ = server.post(
            "/batch",
            {
                "system": body["system"],
                "requests": [
                    {"k": 3, "s": 0.5, "tag": "a"},
                    {"k": 2, "s": 0.4, "tag": "b"},
                ],
            },
        )
        assert code == 200
        assert response["count"] == 2
        assert [entry["tag"] for entry in response["results"]] == ["a", "b"]
        assert all(
            entry["status"] in ("ok", "fallback")
            for entry in response["results"]
        )

    def test_malformed_json_400_and_server_survives(
        self, make_server, solve_body
    ):
        server = make_server()
        code, body, _ = server.post("/solve", b"{not json", timeout=10)
        assert code == 400
        assert "malformed JSON" in body["error"]
        # The accept loop is untouched: a healthy request still works.
        code, _, _ = server.post("/solve", solve_body())
        assert code == 200

    def test_removed_backend_400_names_known_backends(
        self, make_server, solve_body
    ):
        # The retired middle backend, spelled in two parts so the tree
        # keeps no live reference to its name.
        body = dict(solve_body(), backend="bit" "set")
        server = make_server()
        code, response, _ = server.post("/solve", body, timeout=10)
        assert code == 400
        assert "auto, set, packed" in response["error"]

    @pytest.mark.parametrize("endpoint", ["/solve", "/batch"])
    def test_mistyped_option_and_unknown_field_400_before_dispatch(
        self, make_server, solve_body, endpoint
    ):
        server = make_server(max_requeues=1)
        submitted = []
        submit = server.engine.submit
        server.engine.submit = (
            lambda request: submitted.append(request) or submit(request)
        )
        for fields, expected in (
            ({"solver": "cmc", "options": {"b": "two"}}, "must be a number"),
            ({"shards": 2}, "accepted: ['backend', 'chain', 'deadline'"),
        ):
            body = dict(solve_body(), **fields)
            if endpoint == "/batch":
                body = {"requests": [solve_body(), body]}
            code, response, _ = server.post(endpoint, body, timeout=10)
            assert code == 400, response
            assert expected in response["error"]
        assert submitted == []
        code, response, _ = server.post(
            "/solve", dict(solve_body(), solver="cmc", options={"b": 2})
        )
        assert code == 200 and response["status"] == "ok", response
        assert response["pool"]["requeues"] == 0
        assert "fallback" not in response["pool"]

    @pytest.mark.parametrize("endpoint", ["/solve", "/batch"])
    def test_worker_rejected_fields_400_before_dispatch(
        self, make_server, solve_body, endpoint
    ):
        server = make_server(max_requeues=1)
        submitted = []
        submit = server.engine.submit
        server.engine.submit = (
            lambda request: submitted.append(request) or submit(request)
        )
        for fields in (
            {"solver": "nope"},
            {"solver": "cwsc", "options": {"bogus": 1}},
            {"chain": ["cwsc"], "stage_options": {"cwsc": {"bogus": 1}}},
        ):
            body = dict(solve_body(), **fields)
            if endpoint == "/batch":
                body = {"requests": [solve_body(), body]}
            code, response, _ = server.post(endpoint, body, timeout=10)
            assert code == 400, response
            assert "unknown" in response["error"]
        assert submitted == []
        # A well-formed request is answered by the worker itself: no
        # requeue and no parent-side fallback.
        code, response, _ = server.post(
            "/solve", dict(solve_body(), chain=["cwsc"])
        )
        assert code == 200 and response["status"] == "ok", response
        assert len(submitted) == 1
        assert response["pool"]["requeues"] == 0
        assert "fallback" not in response["pool"]

    def test_bad_schema_400(self, make_server, solve_body):
        server = make_server()
        code, body, _ = server.post(
            "/solve", {"system": {"n": 3}, "k": 1, "s": 0.5}, timeout=10
        )
        assert code == 400

    def test_oversized_body_413(self, make_server):
        server = make_server(max_body_bytes=128)
        code, body, _ = server.post("/solve", {"pad": "x" * 1024}, timeout=10)
        assert code == 413

    def test_batch_size_cap_400(self, make_server, solve_body):
        server = make_server(max_batch=2)
        body = solve_body()
        code, response, _ = server.post(
            "/batch",
            {
                "system": body["system"],
                "requests": [{"k": 1, "s": 0.1}] * 3,
            },
            timeout=10,
        )
        assert code == 400
        assert "batch too large" in response["error"]

    def test_tenant_concurrency_shed_with_retry_after(
        self, make_server, solve_body
    ):
        server = make_server(tenant_max_inflight=1, max_inflight=8)
        # Saturate tenant "a" synthetically, then observe the shed.
        server.admission.try_admit("a")
        code, body, headers = server.post(
            "/solve", solve_body(), headers={"X-Scwsc-Tenant": "a"}, timeout=10
        )
        assert code == 429
        assert body["reason"] == "tenant_concurrency"
        assert int(headers["Retry-After"]) >= 1
        # Other tenants are unaffected.
        code, _, _ = server.post(
            "/solve", solve_body(), headers={"X-Scwsc-Tenant": "b"}
        )
        assert code == 200
        server.admission.release("a")

    def test_metrics_page_exposes_server_series(self, make_server, solve_body):
        server = make_server()
        assert server.post("/solve", solve_body())[0] == 200
        code, page, _ = server.get("/metrics")
        assert code == 200
        assert 'scwsc_server_requests_total{code="200",endpoint="/solve"} 1' in page
        assert "scwsc_server_request_seconds_bucket" in page
        assert "scwsc_build_info{" in page
        assert "scwsc_server_queue_depth" in page
        # The pool's own solve counters flow through the same registry.
        assert "scwsc_solves_total" in page

    def test_readyz_flips_with_breaker_state(self, make_server):
        server = make_server(breaker_threshold=2, breaker_cooldown=60.0)
        board = server.engine.pool.board
        for _ in range(2):
            board.record_failure("exact")
        deadline_poll = 100
        code = None
        for _ in range(deadline_poll):
            code, body, _ = server.get("/readyz")
            if code == 503:
                break
            import time

            time.sleep(0.05)
        assert code == 503
        assert "exact" in body["open_breakers"]
        # Recovery: a success closes the breaker and readiness returns.
        board.record_success("exact")
        for _ in range(deadline_poll):
            code, body, _ = server.get("/readyz")
            if code == 200:
                break
            import time

            time.sleep(0.05)
        assert code == 200
