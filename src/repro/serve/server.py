"""HTTP front-end for the solver daemon: routes, shedding, drain.

Transport is deliberately boring — stdlib
:class:`http.server.ThreadingHTTPServer`, one thread per connection,
``Connection: close`` on every response so a half-parsed request can
never desynchronize a keep-alive stream. The interesting parts are the
failure paths:

* request bodies are length-checked (411/413) and read under the
  socket's ``read_timeout``, so a slow-loris client costs one thread
  for a bounded time and then a 408;
* malformed bytes (bad JSON, bad schema, bad set system) are a 400 on
  that connection and nothing else — the accept loop and other
  connections never see them;
* admission runs before any solver work: a shed is a 429 with a
  ``Retry-After`` hint and a ``scwsc_server_shed_total{reason=...}``
  increment, not a queued request that times out later;
* a worker-side failure degrades through the pool's requeue → breaker →
  universal-fallback ladder and still produces a *verified* 200
  (``status: "fallback"``); 5xx is reserved for the server itself
  shutting down under a request.

Endpoints::

    GET  /healthz   liveness (200 while the process runs)
    GET  /readyz    readiness (pool warm, not draining, no open breaker)
    GET  /metrics   Prometheus text exposition
    POST /solve     one solve request
    POST /batch     several solve requests sharing one admission ticket

See ``docs/SERVING.md`` for the request/response schema and the drain
runbook.
"""

from __future__ import annotations

import json
import logging
import math
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ProtocolError, ValidationError
from repro.obs import flightrec as obs_flightrec
from repro.obs import stacks as obs_stacks
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_registry, publish_build_info
from repro.obs.postmortem import BundleSpool, TriggerEngine, build_info
from repro.obs.slo import GLOBAL_SCOPE, SloTracker
from repro.resilience.pool import SolveRequest
from repro.resilience.pool.protocol import system_from_payload
from repro.resilience.pool.worker import check_request_fields
from repro.serve.accesslog import ACCESS_SCHEMA, AccessLog
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.engine import ServeEngine, Ticket

__all__ = ["SolverServer", "build_solve_request", "run_server"]

logger = logging.getLogger(__name__)

#: Extra server-side slack on top of a request's deadline + grace before
#: the handler gives up waiting on its ticket. The pool's hard timeouts
#: make this unreachable in normal operation.
_TICKET_SLACK = 30.0


#: The fields a ``/solve`` body or a ``/batch`` entry may carry.
REQUEST_FIELDS = frozenset({
    "system", "k", "s", "s_hat", "deadline", "solver", "chain", "seed",
    "tag", "options", "stage_options", "backend",
})


def build_solve_request(
    payload: dict, config: ServeConfig, system=None
) -> SolveRequest:
    """Validate one JSON solve payload into a :class:`SolveRequest`.

    ``system`` short-circuits deserialization for batch entries sharing
    a top-level system. Raises :class:`ValidationError` (bad schema or
    parameters, including a field outside :data:`REQUEST_FIELDS`, or a
    solver, chain stage, option key or option value the worker would
    reject) or :class:`ProtocolError` (bad system payload), both of
    which the handler maps to 400.
    """
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    unknown = sorted(set(payload) - REQUEST_FIELDS)
    if unknown:
        raise ValidationError(
            f"unknown field(s) {unknown}; accepted: {sorted(REQUEST_FIELDS)}"
        )
    if system is None:
        system_payload = payload.get("system")
        if not isinstance(system_payload, dict):
            raise ValidationError("missing or invalid 'system' object")
        system = system_from_payload(system_payload)
    k = payload.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValidationError("'k' must be an integer")
    s_hat = payload.get("s", payload.get("s_hat"))
    if not isinstance(s_hat, (int, float)) or isinstance(s_hat, bool):
        raise ValidationError("'s' (coverage target) must be a number")
    deadline = payload.get("deadline")
    if deadline is None:
        deadline = config.default_deadline
    elif not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
        raise ValidationError("'deadline' must be a number of seconds")
    elif deadline <= 0:
        raise ValidationError(f"'deadline' must be > 0, got {deadline}")
    deadline = min(float(deadline), config.max_deadline)
    solver = payload.get("solver", "resilient")
    if not isinstance(solver, str):
        raise ValidationError("'solver' must be a string")
    chain = payload.get("chain")
    if chain is not None:
        if not isinstance(chain, list) or not all(
            isinstance(stage, str) for stage in chain
        ):
            raise ValidationError("'chain' must be a list of stage names")
        chain = tuple(chain)
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("'seed' must be an integer")
    tag = payload.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ValidationError("'tag' must be a string")
    for key in ("options", "stage_options"):
        if payload.get(key) is not None and not isinstance(payload[key], dict):
            raise ValidationError(f"'{key}' must be an object")
    options = payload.get("options")
    # The top-level backend knob (documented in docs/SERVING.md) is
    # sugar for the matching solver option; an explicit options entry
    # wins.
    backend = payload.get("backend")
    if backend is not None:
        from repro.core.marginal import KNOWN_BACKENDS

        if backend not in KNOWN_BACKENDS:
            raise ValidationError(
                f"'backend' must be one of {', '.join(KNOWN_BACKENDS)}, "
                f"got {backend!r}"
            )
        options = dict(options or {})
        options.setdefault("backend", backend)
    check_request_fields(solver, chain, options, payload.get("stage_options"))
    return SolveRequest(
        system=system,
        k=k,
        s_hat=float(s_hat),
        solver=solver,
        chain=chain,
        timeout=deadline,
        stage_options=payload.get("stage_options"),
        options=options,
        seed=seed,
        tag=tag,
    )


class _Handler(BaseHTTPRequestHandler):
    """One connection. ``self.server`` is the :class:`SolverServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "scwsc-serve"

    # -- plumbing --------------------------------------------------------

    def setup(self) -> None:
        # Slow-client guard: every read on this connection (request
        # line, headers, body) times out rather than parking the
        # handler thread forever.
        self.timeout = self.server.config.read_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(
        self, code: int, payload: dict, retry_after: float | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header(
                    "Retry-After", str(max(1, math.ceil(retry_after)))
                )
            ctx = getattr(self, "_trace_ctx", None)
            if ctx is not None:
                # Echo the server-side trace context so the client can
                # join its logs to the daemon's trace and access log.
                self.send_header("Traceparent", ctx.to_traceparent())
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            # The client left; its problem, not the daemon's.
            self.server.count_connection_error()
        self.close_connection = True
        self._status = code

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        self._status = None
        # Every request gets a W3C-style trace context: a valid incoming
        # ``traceparent`` keeps its trace id (with a fresh server-side
        # span id); anything else gets a minted one. The context rides
        # each pool request so worker spans replay under it, the
        # response echoes it, and the access-log record carries it.
        incoming = obs_trace.parse_traceparent(self.headers.get("traceparent"))
        ctx = (
            incoming.child()
            if incoming is not None
            else obs_trace.TraceContext.mint()
        )
        self._trace_ctx = ctx
        #: Per-request facts the endpoint handlers fill in for the
        #: access-log record written below (tenant, shed reason, pool
        #: timing breakdown, ...).
        self._access: dict = {}
        started = time.monotonic()
        token = obs_trace.set_context(ctx)
        span = obs_trace.span(
            "server_request",
            method=method,
            endpoint=path,
            trace_id=ctx.trace_id,
        )
        if span.enabled:
            # The edge span IS the traceparent span: it takes the
            # context's span id (the same 16-hex scheme as every span)
            # so worker subtrees replayed with ``root_parent=ctx.span_id``
            # attach to it, and upstream callers see their child span
            # id in the echoed header.
            span.span_id = ctx.span_id
            if incoming is not None:
                span.set(upstream_span_id=incoming.span_id)
        try:
            with span:
                handler = {
                    ("GET", "/healthz"): self._do_healthz,
                    ("GET", "/readyz"): self._do_readyz,
                    ("GET", "/metrics"): self._do_metrics,
                    ("GET", "/debug/vars"): self._do_debug_vars,
                    ("GET", "/debug/stacks"): self._do_debug_stacks,
                    ("GET", "/debug/flightrec"): self._do_debug_flightrec,
                    ("POST", "/solve"): self._do_solve,
                    ("POST", "/batch"): self._do_batch,
                }.get((method, path))
                if handler is None:
                    self._send_json(
                        404, {"error": f"no route {method} {path}"}
                    )
                    return
                handler()
        except (BrokenPipeError, ConnectionResetError) as exc:
            self.server.count_connection_error()
            logger.debug("client gone mid-request: %s", exc)
            self.close_connection = True
        except socket.timeout:
            obs_trace.event(
                "server_request_timeout",
                endpoint=path,
                trace_id=ctx.trace_id,
                tenant=self._access.get("tenant"),
            )
            self._send_json(408, {"error": "timed out reading request"})
        except Exception:
            # Absolute backstop: a handler bug answers 500 on this one
            # connection and the accept loop lives on.
            logger.exception("unhandled error serving %s %s", method, path)
            if self._status is None:
                self._send_json(500, {"error": "internal server error"})
        finally:
            obs_trace.reset_context(token)
            duration = time.monotonic() - started
            self.server.observe_request(
                path,
                self._status,
                duration,
                tenant=self._access.get("tenant"),
            )
            self.server.log_access(
                trace_id=ctx.trace_id,
                method=method,
                endpoint=path,
                status=self._status,
                duration_seconds=round(duration, 6),
                **self._access,
            )

    # -- GET endpoints ---------------------------------------------------

    def _do_healthz(self) -> None:
        self._send_json(200, {"ok": True})

    def _do_readyz(self) -> None:
        status = self.server.readiness()
        self._send_json(200 if status["ready"] else 503, status)

    def _do_metrics(self) -> None:
        text = self.server.metrics_page().encode("utf-8")
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(text)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(text)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            self.server.count_connection_error()
        self.close_connection = True
        self._status = 200

    # -- /debug endpoints (loopback only) --------------------------------

    _LOOPBACK = ("127.0.0.1", "::1", "::ffff:127.0.0.1")

    def _debug_gate(self) -> bool:
        """The /debug surface is operator-only: enabled in config AND
        the peer is loopback. Anything else is a 403 — the routes exist
        (so probes learn nothing from 404-vs-403), but answer nothing."""
        if not self.server.config.debug_endpoints:
            self._send_json(403, {"error": "debug endpoints disabled"})
            return False
        if self.client_address[0] not in self._LOOPBACK:
            self._send_json(403, {"error": "debug endpoints are loopback-only"})
            return False
        return True

    def _do_debug_vars(self) -> None:
        if not self._debug_gate():
            return
        self._send_json(200, self.server.debug_vars())

    def _do_debug_stacks(self) -> None:
        if not self._debug_gate():
            return
        self._send_json(200, self.server.debug_stacks())

    def _do_debug_flightrec(self) -> None:
        if not self._debug_gate():
            return
        self._send_json(200, self.server.debug_flightrec())

    # -- POST endpoints --------------------------------------------------

    def _read_json_body(self) -> dict | list | None:
        """Read and decode the body, answering the error response (and
        returning ``None``) on any malformed frame."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            self._send_json(411, {"error": "Content-Length required"})
            return None
        try:
            length = int(length_header)
        except ValueError:
            self._send_json(400, {"error": "invalid Content-Length"})
            return None
        if length < 0:
            self._send_json(400, {"error": "invalid Content-Length"})
            return None
        if length > self.server.config.max_body_bytes:
            self._send_json(
                413,
                {
                    "error": "body too large",
                    "limit_bytes": self.server.config.max_body_bytes,
                },
            )
            return None
        try:
            data = self.rfile.read(length)
        except socket.timeout:
            self._send_json(408, {"error": "timed out reading body"})
            return None
        if len(data) < length:
            self._send_json(400, {"error": "truncated body"})
            return None
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"malformed JSON body: {exc}"})
            return None

    def _tenant(self) -> str:
        header = self.headers.get("X-Scwsc-Tenant", "")
        return header.strip() or "default"

    def _shed(self, tenant: str, decision, endpoint: str, n: int) -> None:
        self.server.count_shed(decision.reason, tenant=tenant, n=n)
        self._access["shed_reason"] = decision.reason
        obs_trace.event(
            "server_shed",
            endpoint=endpoint,
            tenant=tenant,
            reason=decision.reason,
            requests=n,
            trace_id=self._trace_ctx.trace_id,
        )
        self._send_json(
            429,
            {
                "error": "request shed",
                "reason": decision.reason,
                "retry_after": decision.retry_after,
            },
            retry_after=decision.retry_after,
        )

    def _do_solve(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        tenant = self._tenant()
        self._access["tenant"] = tenant
        try:
            request = build_solve_request(payload, self.server.config)
        except (ValidationError, ProtocolError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._access["deadline"] = request.timeout
        admission = self.server.admission
        decision = admission.try_admit(
            tenant, 1, queue_depth=self.server.engine.queue_depth
        )
        if not decision.admitted:
            self._shed(tenant, decision, "/solve", 1)
            return
        self.server.count_admitted(tenant=tenant)
        # The pool carries the request's trace context to the worker so
        # its captured spans replay under this trace id.
        request.traceparent = self._trace_ctx.to_traceparent()
        try:
            ticket = self.server.engine.submit(request)
            outcome = self._await(ticket)
            if outcome is None:
                return
            code, body = outcome
            body["trace_id"] = self._trace_ctx.trace_id
            self._send_json(code, body)
            obs_trace.event(
                "server_complete",
                endpoint="/solve",
                tenant=tenant,
                code=code,
                status=body.get("status"),
                tag=request.tag,
                trace_id=self._trace_ctx.trace_id,
            )
        finally:
            admission.release(tenant, 1)

    def _do_batch(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        tenant = self._tenant()
        self._access["tenant"] = tenant
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return
        entries = payload.get("requests")
        if not isinstance(entries, list) or not entries:
            self._send_json(
                400, {"error": "'requests' must be a non-empty list"}
            )
            return
        if len(entries) > self.server.config.max_batch:
            self._send_json(
                400,
                {
                    "error": "batch too large",
                    "limit": self.server.config.max_batch,
                },
            )
            return
        shared_system = None
        try:
            if isinstance(payload.get("system"), dict):
                shared_system = system_from_payload(payload["system"])
            requests = [
                build_solve_request(
                    entry,
                    self.server.config,
                    system=None if isinstance(entry, dict) and "system" in entry
                    else shared_system,
                )
                for entry in entries
            ]
        except (ValidationError, ProtocolError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        n = len(requests)
        admission = self.server.admission
        decision = admission.try_admit(
            tenant, n, queue_depth=self.server.engine.queue_depth
        )
        if not decision.admitted:
            self._shed(tenant, decision, "/batch", n)
            return
        self.server.count_admitted(tenant=tenant, n=n)
        self._access["deadline"] = max(
            (req.timeout for req in requests if req.timeout), default=None
        )
        traceparent = self._trace_ctx.to_traceparent()
        for req in requests:
            req.traceparent = traceparent
        try:
            tickets = [self.server.engine.submit(req) for req in requests]
            results = []
            for ticket, request in zip(tickets, requests):
                outcome = self._await(ticket)
                if outcome is None:
                    return
                _, body = outcome
                results.append(body)
            worst = max(
                (entry.get("code", 200) for entry in results), default=200
            )
            self._send_json(
                200,
                {
                    "count": len(results),
                    "results": results,
                    "trace_id": self._trace_ctx.trace_id,
                },
            )
            obs_trace.event(
                "server_complete",
                endpoint="/batch",
                tenant=tenant,
                code=200,
                requests=n,
                worst_entry_code=worst,
                trace_id=self._trace_ctx.trace_id,
            )
        finally:
            admission.release(tenant, n)

    def _await(self, ticket: Ticket) -> tuple[int, dict] | None:
        """Wait for the pool's answer; map it to ``(code, body)``.

        Returns ``None`` only when the ticket never resolved inside the
        server-side backstop window (504 already sent).
        """
        budget = (
            (ticket.request.timeout or self.server.config.default_deadline)
            + self.server.config.grace
            + _TICKET_SLACK
        )
        if not ticket.wait(budget):
            self._access["error"] = "request lost in dispatcher"
            self._send_json(504, {"error": "request lost in dispatcher"})
            return None
        if ticket.error is not None:
            self._access["error"] = str(ticket.error)
            return 503, {"status": "error", "error": ticket.error, "code": 503}
        pool_result = ticket.result
        assert pool_result is not None
        self._record_pool_outcome(pool_result)
        body: dict = {
            "status": pool_result.status,
            "tag": pool_result.tag,
            "pool": pool_result.provenance,
            "result": (
                pool_result.result.to_dict()
                if pool_result.result is not None
                else None
            ),
        }
        if pool_result.status in ("ok", "fallback"):
            return 200, body
        body["code"] = 422
        return 422, body

    def _record_pool_outcome(self, pool_result) -> None:
        """Fold one pool answer's deadline-budget breakdown into the
        access record. Batch requests accumulate across tickets, so the
        logged numbers are totals over every entry."""
        access = self._access
        access["solve_status"] = pool_result.status
        provenance = pool_result.provenance or {}
        timings = provenance.get("timings") or {}
        for key in ("queue_seconds", "solve_seconds", "requeue_seconds"):
            value = timings.get(key)
            if isinstance(value, (int, float)):
                access[key] = round(access.get(key, 0.0) + value, 6)
        requeues = provenance.get("requeues")
        if isinstance(requeues, int):
            access["requeues"] = access.get("requeues", 0) + requeues


class SolverServer(ThreadingHTTPServer):
    """The daemon: accept loop + engine + admission + metrics.

    Built separately from :func:`run_server` so tests can run one
    in-process (port 0, background thread) without signal handling.
    """

    daemon_threads = True
    allow_reuse_address = True
    # The socketserver default backlog of 5 drops SYNs under a burst of
    # concurrent clients; the dropped connection retries ~1s later and
    # can then straddle a drain, dying with an RST instead of a 429.
    request_queue_size = 128

    def __init__(
        self,
        config: ServeConfig,
        engine: ServeEngine,
        admission: AdmissionController,
    ) -> None:
        self.config = config
        self.engine = engine
        self.admission = admission
        self.registry = get_registry()
        publish_build_info(self.registry)
        self._requests_total = self.registry.counter(
            "scwsc_server_requests_total", "HTTP requests by endpoint and code"
        )
        self._admitted_total = self.registry.counter(
            "scwsc_server_admitted_total", "Requests admitted by tenant"
        )
        self._shed_total = self.registry.counter(
            "scwsc_server_shed_total", "Requests shed by reason"
        )
        self._conn_errors = self.registry.counter(
            "scwsc_server_connection_errors_total",
            "Connections dropped mid-request by the client",
        )
        self._inflight = self.registry.gauge(
            "scwsc_server_inflight", "Requests admitted and not yet answered"
        )
        self._draining_gauge = self.registry.gauge(
            "scwsc_server_draining", "1 while the server is draining"
        )
        self._latency = self.registry.histogram(
            "scwsc_server_request_seconds", "Request wall time by endpoint"
        )
        self._breaker_state = self.registry.gauge(
            "scwsc_breaker_state",
            "Per-worker breaker state (0 closed, 1 half-open, 2 open)",
        )
        self.slo = SloTracker(
            config.slo_objectives(),
            tenant_overrides=config.slo_tenants,
            windows=config.slo_windows,
            registry=self.registry,
        )
        self.access_log = (
            AccessLog(config.access_log) if config.access_log else None
        )
        self._draining_gauge.set(0)
        self._started_monotonic = time.monotonic()
        # Flight recorder: always-on rings + optional postmortem triggers.
        # Installed before the socket binds so the very first request is
        # already on the record.
        self.recorder: obs_flightrec.FlightRecorder | None = None
        self.sampler: obs_stacks.StackSampler | None = None
        self.triggers: TriggerEngine | None = None
        if config.flightrec:
            self.recorder = obs_flightrec.install(
                span_capacity=config.flightrec_spans,
                event_capacity=config.flightrec_events,
                access_capacity=config.flightrec_access,
                metrics_capacity=config.flightrec_metrics,
            )
            if config.postmortem_dir:
                spool = BundleSpool(
                    config.postmortem_dir,
                    max_bytes=config.postmortem_max_bytes,
                    max_bundles=config.postmortem_max_bundles,
                )
                self.triggers = TriggerEngine(
                    self.recorder,
                    spool,
                    min_interval=config.postmortem_interval,
                    config=config,
                )
                self.recorder.on_event = self._on_recorder_event
            self.recorder.on_poll = self._check_fast_burn
            self.recorder.start_metrics_poll(
                self.registry.snapshot, config.flightrec_metrics_interval
            )
            self.sampler = obs_stacks.StackSampler(config.sampler_hz)
            self.sampler.start()
        super().__init__((config.host, config.port), _Handler)

    # -- error containment ----------------------------------------------

    def handle_error(self, request, client_address) -> None:
        # Never let one connection's failure echo a traceback storm or
        # kill the accept loop; disconnects are routine under chaos.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(
            exc, (BrokenPipeError, ConnectionResetError, socket.timeout)
        ):
            self.count_connection_error()
            logger.debug("connection error from %s: %s", client_address, exc)
        else:
            logger.exception("error handling request from %s", client_address)

    # -- metrics hooks (called from handler threads) ---------------------

    def count_connection_error(self) -> None:
        self._conn_errors.inc()

    def count_admitted(self, tenant: str, n: int = 1) -> None:
        self._admitted_total.inc(n, tenant=tenant)
        self._inflight.set(self.admission.inflight)

    def count_shed(self, reason: str, tenant: str, n: int = 1) -> None:
        self._shed_total.inc(n, reason=reason)

    def observe_request(
        self,
        path: str,
        code: int | None,
        seconds: float,
        tenant: str | None = None,
    ) -> None:
        self._requests_total.inc(endpoint=path, code=str(code or "none"))
        self._latency.observe(seconds, endpoint=path)
        self._inflight.set(self.admission.inflight)
        if path in ("/solve", "/batch"):
            # A request with no status means the client vanished before
            # one was written — judged as a server failure (599) so the
            # availability SLO does not silently ignore it.
            self.slo.observe(
                tenant or "default", seconds, code if code is not None else 599
            )
            if (
                self.triggers is not None
                and code is not None
                and code >= 500
            ):
                self.triggers.fire(
                    "server_5xx",
                    f"{path} answered {code}",
                    context={"endpoint": path, "code": code, "tenant": tenant},
                )

    def log_access(self, **fields) -> None:
        """Write one access-log record; never raises into the handler."""
        if self.recorder is not None:
            # Same record shape the file log writes (scwsc-access/1),
            # ringed even when no --access-log file is configured.
            record = {"schema": ACCESS_SCHEMA, "ts": round(time.time(), 3)}
            record.update(
                {name: value for name, value in fields.items() if value is not None}
            )
            self.recorder.record_access(record)
        if self.access_log is None:
            return
        try:
            self.access_log.log(**fields)
        except Exception:  # pragma: no cover - defensive
            logger.exception("failed to write access-log record")

    # -- postmortem triggers ---------------------------------------------

    #: ring-event name -> postmortem trigger kind
    _EVENT_TRIGGERS = {
        "worker_death": "worker_death",
        "hard_timeout": "hard_timeout",
    }

    def _on_recorder_event(self, record: dict) -> None:
        """Flight-recorder event tap: map pool lifecycle events to
        postmortem triggers. Runs on the emitting thread (usually the
        pool dispatcher); the engine only does bookkeeping inline and
        builds bundles on their own thread."""
        triggers = self.triggers
        if triggers is None:
            return
        name = record.get("name")
        attrs = record.get("attrs") or {}
        kind = self._EVENT_TRIGGERS.get(name)
        if kind is not None:
            triggers.fire(
                kind,
                f"pool event {name} (worker {attrs.get('worker', '?')})",
                context=dict(attrs),
            )
            return
        if name == "breaker_transition":
            breaker = str(attrs.get("breaker", "?"))
            if attrs.get("new") == "open":
                triggers.fire(
                    "breaker_open",
                    f"breaker {breaker} opened",
                    context=dict(attrs),
                    key=breaker,
                )
            elif attrs.get("new") == "closed":
                # The incident is over; the next open is a new one.
                triggers.reset_dedup("breaker_open", breaker)

    def _check_fast_burn(self) -> None:
        """Evaluate the SLO fast-burn trigger: called on every metrics
        poll tick and on every /metrics scrape, so tests (and operators
        hitting /metrics) get a deterministic evaluation point."""
        triggers = self.triggers
        if triggers is None:
            return
        snapshot = self.slo.snapshot()
        windows = snapshot.get(GLOBAL_SCOPE) or {}
        if not windows:
            return
        # The *short* window is the fast-burn signal; labels sort by
        # their underlying window seconds in self.slo.windows order.
        short_label = self.slo._label_for(self.slo.windows[0])
        rates = windows.get(short_label) or {}
        burn = max(
            rates.get("latency_burn") or 0.0, rates.get("error_burn") or 0.0
        )
        if burn >= self.config.slo_fast_burn_threshold:
            triggers.fire(
                "slo_fast_burn",
                f"short-window SLO burn rate {burn:.1f} >= "
                f"{self.config.slo_fast_burn_threshold:g}",
                context={"window": short_label, **rates},
            )

    # -- /debug pages ----------------------------------------------------

    def debug_vars(self) -> dict:
        """Live process vars: the ``/debug/vars`` body."""
        from dataclasses import asdict

        return {
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "build": build_info(),
            "config": asdict(self.config),
            "inflight": self.admission.inflight,
            "queue_depth": self.engine.queue_depth,
            "readiness": self.readiness(),
            "threads": threading.active_count(),
            "flightrec": (
                self.recorder.stats() if self.recorder is not None else None
            ),
            "triggers": (
                self.triggers.stats() if self.triggers is not None else None
            ),
        }

    def debug_stacks(self) -> dict:
        """One fresh stack sample (plus the continuous sampler's ring
        occupancy, when armed): the ``/debug/stacks`` body."""
        sample = obs_stacks.sample_once()
        sampler = self.sampler
        return {
            "sample": sample,
            "collapsed": obs_stacks.collapse_samples([sample]),
            "sampler": {
                "hz": sampler.hz if sampler is not None else 0.0,
                "running": bool(sampler is not None and sampler.running),
                "ring_samples": len(sampler.ring) if sampler is not None else 0,
            },
        }

    def debug_flightrec(self) -> dict:
        """Ring + trigger + spool occupancy: the ``/debug/flightrec``
        body (recent ring *events* included; spans stay in bundles)."""
        recorder = self.recorder
        body: dict = {
            "armed": recorder is not None,
            "stats": recorder.stats() if recorder is not None else None,
            "recent_events": (
                recorder.events.snapshot()[-50:] if recorder is not None else []
            ),
            "triggers": (
                self.triggers.stats() if self.triggers is not None else None
            ),
        }
        if self.triggers is not None:
            spool = self.triggers.spool
            body["spool"] = {
                "directory": spool.directory,
                "bundles": [
                    path.rsplit("/", 1)[-1] for path in spool.paths()
                ],
                "total_bytes": spool.total_bytes(),
                "max_bytes": spool.max_bytes,
                "max_bundles": spool.max_bundles,
            }
        return body

    # -- state pages -----------------------------------------------------

    def readiness(self) -> dict:
        engine = self.engine
        open_breakers = engine.open_breakers
        ready = (
            engine.warm
            and not engine.draining
            and not self.admission.draining
            and not open_breakers
            and engine.warm_failed is None
        )
        return {
            "ready": ready,
            "warm": engine.warm,
            "draining": engine.draining or self.admission.draining,
            "open_breakers": open_breakers,
            "breakers": engine.breaker_snapshot(),
            "warm_error": engine.warm_failed,
        }

    #: Breaker-state label values to gauge values (monotone by severity
    #: so ``max()`` over workers is the fleet's worst state).
    _BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}

    def metrics_page(self) -> str:
        self._inflight.set(self.admission.inflight)
        self.registry.gauge(
            "scwsc_server_queue_depth",
            "Requests admitted but not yet dispatched to a worker",
        ).set(self.engine.queue_depth)
        self._draining_gauge.set(
            1 if (self.engine.draining or self.admission.draining) else 0
        )
        for name, snap in (self.engine.breaker_snapshot() or {}).items():
            state = snap.get("state") if isinstance(snap, dict) else None
            self._breaker_state.set(
                self._BREAKER_STATES.get(state, 0), breaker=str(name)
            )
        self.slo.publish()
        # Every scrape is also a fast-burn evaluation point: a paging
        # pipeline polling /metrics arms the postmortem trigger with no
        # extra wiring (the background poll tick does the same).
        self._check_fast_burn()
        return self.registry.exposition()

    def begin_drain(self) -> None:
        self.admission.start_draining()
        self._draining_gauge.set(1)

    def server_close(self) -> None:
        super().server_close()
        if self.access_log is not None:
            self.access_log.close()
        if self.sampler is not None:
            self.sampler.stop()
        if self.triggers is not None:
            # Let in-flight bundle builds land before the process exits —
            # the postmortem for the incident that caused the shutdown is
            # the one you want most.
            self.triggers.drain(timeout=5.0)
        if self.recorder is not None and obs_flightrec.get_recorder() is self.recorder:
            obs_flightrec.uninstall()


def run_server(config: ServeConfig, worker_env: dict | None = None) -> int:
    """Boot the daemon and block until SIGTERM/SIGINT; returns exit code.

    The CLI entry point. Drain sequence on signal: stop admitting
    (everything new sheds with ``reason: draining``), stop accepting
    connections, let the dispatcher finish or deadline-out in-flight
    work, close the pool, exit 0 (SIGTERM) / 130 (SIGINT).
    """
    publish_build_info()
    engine = ServeEngine(config, worker_env=worker_env)
    admission = AdmissionController(config)
    engine.start()
    engine.wait_warm(config.warm_timeout + 5.0)
    if engine.warm_failed is not None:
        engine.stop(drain=False)
        raise ValidationError(f"solver pool failed to start: {engine.warm_failed}")
    httpd = SolverServer(config, engine, admission)
    host, port = httpd.server_address[:2]
    stop = threading.Event()
    received: dict[str, int] = {}

    def _on_signal(signum: int, frame) -> None:
        received.setdefault("signum", signum)
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    accept_thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="scwsc-accept",
        daemon=True,
    )
    accept_thread.start()
    # Machine-readable boot line (port 0 callers need the real port).
    print(
        json.dumps(
            {
                "event": "listening",
                "host": host,
                "port": port,
                "workers": config.workers,
                "ready": engine.warm,
            }
        ),
        flush=True,
    )
    obs_trace.event(
        "server_start",
        host=host,
        port=port,
        workers=config.workers,
        max_inflight=config.max_inflight,
    )
    try:
        while not stop.wait(0.2):
            pass
    finally:
        signum = received.get("signum", signal.SIGTERM)
        logger.info("signal %d: draining", signum)
        httpd.begin_drain()
        httpd.shutdown()
        accept_thread.join(5.0)
        engine.stop(drain=True)
        httpd.server_close()
        for signo, handler in previous.items():
            signal.signal(signo, handler)
        obs_trace.event("server_stop", signum=signum)
    return 130 if signum == signal.SIGINT else 0
