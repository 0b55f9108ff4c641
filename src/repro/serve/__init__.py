"""``scwsc serve``: a fault-tolerant solver daemon.

The serving stack, bottom up:

* :mod:`.config` — :class:`ServeConfig`, every knob in one dataclass;
* :mod:`.admission` — the global in-flight and queue caps and shed
  reasons (:class:`AdmissionController`);
* :mod:`.engine` — :class:`ServeEngine`, the single dispatcher thread
  that owns the warm :class:`~repro.resilience.pool.SolverPool` and
  trades :class:`Ticket`\\ s with HTTP handler threads;
* :mod:`.server` — :class:`SolverServer` (routes, length-checked JSON
  bodies, request tracing, one ``access`` trace record per request,
  load shedding, graceful drain) and :func:`run_server`, the CLI entry
  point.

See ``docs/SERVING.md`` for the operator's view.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.config import ServeConfig
from repro.serve.engine import ServeEngine, Ticket
from repro.serve.server import SolverServer, build_solve_request, run_server

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ServeConfig",
    "ServeEngine",
    "SolverServer",
    "Ticket",
    "build_solve_request",
    "run_server",
]
