"""``scwsc serve``: a fault-tolerant solver daemon.

The serving stack, bottom up:

* :mod:`.config` — :class:`ServeConfig`, every knob in one dataclass;
* :mod:`.admission` — the global in-flight and queue caps and shed
  reasons (:class:`AdmissionController`);
* :mod:`.engine` — :class:`ServeEngine`, the single dispatcher thread
  that owns the warm :class:`~repro.resilience.pool.SolverPool` and
  trades :class:`Ticket`\\ s with HTTP handler threads;
* :mod:`.accesslog` — the ``scwsc-access/1`` JSONL access log: one
  schema-validated record per HTTP request (also a module CLI,
  ``python -m repro.serve.accesslog FILE``);
* :mod:`.server` — :class:`SolverServer` (routes, length-checked JSON
  bodies, request tracing, load shedding, graceful drain) and
  :func:`run_server`, the CLI entry point.

See ``docs/SERVING.md`` for the operator's view.
"""

import importlib

#: Each public name's home module. They load on first access, so running
#: ``python -m repro.serve.accesslog`` does not import that module twice.
_HOMES = {
    "AdmissionController": "admission", "AdmissionDecision": "admission",
    "ServeConfig": "config", "ServeEngine": "engine", "Ticket": "engine",
    "SolverServer": "server", "build_solve_request": "server",
    "run_server": "server",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
