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
from repro.resilience.pool import SolveRequest
from repro.resilience.pool.protocol import system_from_payload
from repro.resilience.pool.worker import solve_request_from_json
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.engine import ServeEngine, Ticket
from repro.serve.systems import SystemCache, parse_body

__all__ = ["SolverServer", "build_solve_request", "run_server"]

logger = logging.getLogger(__name__)

#: Extra server-side slack on top of a request's deadline + grace before
#: the handler gives up waiting on its ticket. The pool's hard timeouts
#: make this unreachable in normal operation.
_TICKET_SLACK = 30.0


def build_solve_request(
    payload: dict, config: ServeConfig, system=None
) -> SolveRequest:
    """Validate one JSON solve payload (see
    :func:`~repro.resilience.pool.worker.solve_request_from_json`, whose
    errors map to 400) and apply the server's deadline policy: the
    default when none is given, clamped to ``config.max_deadline``.
    ``system`` is a ``/batch`` body's shared system.
    """
    request = solve_request_from_json(payload, system)
    if request.timeout is None:
        request.timeout = config.default_deadline
    request.timeout = min(float(request.timeout), config.max_deadline)
    return request


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
        """Stage the JSON response; :meth:`_route` writes it last."""
        headers = {"Content-Type": "application/json"}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
        self._response = (code, json.dumps(payload).encode("utf-8"), headers)

    def _write_response(self) -> None:
        code, body, headers = self._response
        try:
            self.send_response(code)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            # Echo the server-side trace context so the client can join
            # its logs to the daemon's trace and access records.
            self.send_header("Traceparent", self._trace_ctx.to_traceparent())
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            # The client left; its problem, not the daemon's.
            self.server.count_connection_error()

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        #: ``(code, body, headers)`` staged by the endpoint handler.
        self._response: tuple[int, bytes, dict] | None = None
        self.close_connection = True
        # Every request gets a W3C-style trace context: a valid incoming
        # ``traceparent`` keeps its trace id (with a fresh server-side
        # span id); anything else gets a minted one. The context rides
        # each pool request so worker spans replay under it, the
        # response echoes it, and the access record carries it.
        incoming = obs_trace.parse_traceparent(self.headers.get("traceparent"))
        ctx = (
            incoming.child()
            if incoming is not None
            else obs_trace.TraceContext.mint()
        )
        self._trace_ctx = ctx
        #: Per-request facts the endpoint handlers fill in for the
        #: access record written below (shed reason, pool timing
        #: breakdown, ...).
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
                else:
                    handler()
        except (BrokenPipeError, ConnectionResetError) as exc:
            self.server.count_connection_error()
            logger.debug("client gone mid-request: %s", exc)
        except socket.timeout:
            obs_trace.event(
                "server_request_timeout",
                endpoint=path,
                trace_id=ctx.trace_id,
            )
            self._send_json(408, {"error": "timed out reading request"})
        except Exception:
            # Absolute backstop: a handler bug answers 500 on this one
            # connection and the accept loop lives on.
            logger.exception("unhandled error serving %s %s", method, path)
            if self._response is None:
                self._send_json(500, {"error": "internal server error"})
        finally:
            obs_trace.reset_context(token)
        # Everything the request leaves behind (its span, events, access
        # record, request metrics and released admission slot) is on the
        # record before the response goes out, so a client that reads
        # its reply sees all of it.
        status = self._response[0] if self._response is not None else None
        duration = time.monotonic() - started
        try:
            self.server.observe_request(path, status, duration)
            obs_trace.access(
                status,
                trace_id=ctx.trace_id,
                method=method,
                endpoint=path,
                duration_seconds=round(duration, 6),
                **self._access,
            )
        finally:
            if self._response is not None:
                self._write_response()

    # -- GET endpoints ---------------------------------------------------

    def _do_healthz(self) -> None:
        self._send_json(200, {"ok": True})

    def _do_readyz(self) -> None:
        status = self.server.readiness()
        self._send_json(200 if status["ready"] else 503, status)

    def _do_metrics(self) -> None:
        text = self.server.metrics_page().encode("utf-8")
        self._response = (
            200, text, {"Content-Type": "text/plain; version=0.0.4"}
        )

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
        returning ``None``) on any malformed frame. The raw text of the
        body's top-level ``system`` value is kept for the system cache."""
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
            payload, self._system_text = parse_body(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"malformed JSON body: {exc}"})
            return None
        return payload

    def _cached_system(self, payload):
        """The body's top-level system from the server's system cache;
        ``None`` on a miss or when the body has no ``system`` object."""
        if not (
            self._system_text is not None
            and isinstance(payload, dict)
            and isinstance(payload.get("system"), dict)
        ):
            return None
        return self.server.systems.get(self._system_text)

    def _keep_system(self, system) -> None:
        """Cache ``system``, built from the body's own top-level
        ``system`` value, once its request has been accepted."""
        if self._system_text is not None:
            self.server.systems.put(self._system_text, system)

    def _shed(self, decision, endpoint: str, n: int) -> None:
        self.server.count_shed(decision.reason, n=n)
        self._access["shed_reason"] = decision.reason
        obs_trace.event(
            "server_shed",
            endpoint=endpoint,
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
        cached = self._cached_system(payload)
        try:
            if cached is None:
                request = build_solve_request(payload, self.server.config)
            else:
                rest = {
                    key: value for key, value in payload.items()
                    if key != "system"
                }
                request = build_solve_request(rest, self.server.config, cached)
        except (ValidationError, ProtocolError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        if cached is None:
            self._keep_system(request.system)
        request.system_decoded = cached is None
        # The parsed body (its system as JSON lists) is not held while
        # the request waits for a worker.
        del payload
        self._access["deadline"] = request.timeout
        admission = self.server.admission
        decision = admission.try_admit(
            1, queue_depth=self.server.engine.queue_depth
        )
        if not decision.admitted:
            self._shed(decision, "/solve", 1)
            return
        self.server.count_admitted()
        # The pool carries the request's trace context to the worker so
        # its captured spans replay under this trace id.
        request.traceparent = self._trace_ctx.to_traceparent()
        # The slot is released before _route writes the response, so a
        # client that posts again on reading its reply finds it free.
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
                code=code,
                status=body.get("status"),
                tag=request.tag,
                trace_id=self._trace_ctx.trace_id,
            )
        finally:
            admission.release(1)

    def _do_batch(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
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
        shared_system = self._cached_system(payload)
        shared_decoded = shared_system is None
        try:
            if shared_decoded and isinstance(payload.get("system"), dict):
                shared_system = system_from_payload(payload["system"])
            requests = [
                build_solve_request(entry, self.server.config, shared_system)
                for entry in entries
            ]
        except (ValidationError, ProtocolError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        if shared_decoded and shared_system is not None:
            self._keep_system(shared_system)
        for request in requests:
            request.system_decoded = (
                shared_decoded if request.system is shared_system else True
            )
        n = len(requests)
        admission = self.server.admission
        decision = admission.try_admit(
            n, queue_depth=self.server.engine.queue_depth
        )
        if not decision.admitted:
            self._shed(decision, "/batch", n)
            return
        self.server.count_admitted(n)
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
                code=200,
                requests=n,
                worst_entry_code=worst,
                trace_id=self._trace_ctx.trace_id,
            )
        finally:
            admission.release(n)

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
        #: Systems built from request bodies, by their text's SHA-256.
        self.systems = SystemCache()
        self.registry = get_registry()
        publish_build_info(self.registry)
        self._requests_total = self.registry.counter(
            "scwsc_server_requests_total", "HTTP requests by endpoint and code"
        )
        self._admitted_total = self.registry.counter(
            "scwsc_server_admitted_total", "Requests admitted"
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
        self._draining_gauge.set(0)
        self._started_monotonic = time.monotonic()
        # Every consumer of the request records is a sink of the one
        # tracer, attached before the socket binds so the very first
        # request is already on the record: the flight recorder's rings,
        # the postmortem triggers (after the recorder, so a bundle built
        # inline already holds the firing event), and the access log.
        self.recorder: obs_flightrec.FlightRecorder | None = None
        self.triggers: TriggerEngine | None = None
        self.access_log: obs_trace.JsonlSink | None = None
        if config.flightrec:
            self.recorder = obs_flightrec.install()
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
                obs_trace.add_sink(self.triggers.write)
            self.recorder.start_metrics_poll(self.registry.snapshot)
        if config.access_log:
            self.access_log = obs_trace.JsonlSink(
                config.access_log, {"command": "serve"}, keep="access"
            )
            obs_trace.add_sink(self.access_log.write)
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

    def count_admitted(self, n: int = 1) -> None:
        self._admitted_total.inc(n)
        self._inflight.set(self.admission.inflight)

    def count_shed(self, reason: str, n: int = 1) -> None:
        self._shed_total.inc(n, reason=reason)

    def observe_request(self, path: str, code: int | None, seconds: float) -> None:
        self._requests_total.inc(endpoint=path, code=str(code or "none"))
        self._latency.observe(seconds, endpoint=path)
        self._inflight.set(self.admission.inflight)
        if (
            path in ("/solve", "/batch")
            and self.triggers is not None
            and code is not None
            and code >= 500
        ):
            self.triggers.fire(
                "server_5xx",
                f"{path} answered {code}",
                context={"endpoint": path, "code": code},
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
        """One fresh stack sample and its collapsed lines: the
        ``/debug/stacks`` body."""
        sample = obs_stacks.sample_once()
        return {
            "sample": sample,
            "collapsed": obs_stacks.collapse_samples([sample]),
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
        return self.registry.exposition()

    def begin_drain(self) -> None:
        self.admission.start_draining()
        self._draining_gauge.set(1)

    def server_close(self) -> None:
        super().server_close()
        if self.access_log is not None:
            obs_trace.remove_sink(self.access_log.write)
            self.access_log.close()
        if self.triggers is not None:
            obs_trace.remove_sink(self.triggers.write)
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
