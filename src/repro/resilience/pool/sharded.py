"""Universe-sharded pool solves: one greedy loop, S shard workers.

A single packed tracker already vectorizes the marginal updates, but one
process still owns the whole universe. This module splits the element
universe into ``S`` word-aligned shards, hands each shard to a pool
worker (round-robin when ``S`` exceeds the worker count), and keeps the
greedy control loop in the parent:

* Each worker builds a :class:`~repro.core.packed.PackedMarginalTracker`
  over a shard-restricted :class:`~repro.core.packed.PackedLayout`
  (``shard_open``), reusing the same fingerprint-keyed system LRU as
  whole solves, so repeat tenants pay for neither deserialization nor
  layout builds.
* :class:`ShardedTracker` mirrors the tracker API in the parent. Every
  ``select`` fans a ``shard_select`` frame out to all shards and merges
  the returned per-set overlap deltas (``np.add.at``) into the global
  marginal vector. A set's global marginal is the sum of its per-shard
  marginals (benefits partition across shards), so the merged counts —
  and therefore every subsequent argmax — are *exactly* the
  single-process packed tracker's. The parent computes all metrics
  itself; worker-side metrics objects are never consulted.
* :func:`sharded_solve` injects the merged tracker into
  :func:`~repro.core.cwsc.cwsc` / :func:`~repro.core.cmc.cmc` via their
  ``tracker`` parameter, so selections, costs, and
  :class:`~repro.core.result.Metrics` are byte-identical to a
  single-process ``backend="packed"`` solve (asserted in
  ``tests/resilience/test_sharded.py``).

Fault handling is fail-fast-then-fall-back: any worker death, protocol
error, or deadline miss raises :class:`ShardError`; ``sharded_solve``
then (by default) redoes the whole solve single-process with the packed
backend — identical answer, no sharding — and records why in
``params["sharding"]``.
"""

from __future__ import annotations

import os
import selectors
import time
from typing import Iterable

import numpy as np

from repro.core.packed import VectorSelectMixin
from repro.errors import ReproError, ValidationError
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_registry
from repro.resilience.pool.protocol import (
    FrameReader,
    system_payload_and_fingerprint,
    write_frame,
)
from repro.resilience.pool.supervisor import spawn_worker_process

__all__ = [
    "ShardError",
    "ShardSession",
    "ShardedTracker",
    "plan_shards",
    "sharded_solve",
]

#: Default per-RPC collection timeout: generous next to a select's real
#: cost (milliseconds) but bounded so a hung worker cannot stall the
#: greedy loop forever.
RPC_TIMEOUT = 60.0


class ShardError(ReproError):
    """A shard worker died, timed out, or broke protocol mid-solve."""


def plan_shards(n_elements: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, n_elements)`` into ``shards`` word-aligned ranges.

    Every boundary except the last is a multiple of 64 so shard layouts
    slice whole words. With more shards than words some trailing shards
    come out empty — legal (an empty shard is always exhausted) so the
    caller's shard count is honored exactly.
    """
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    n_words = (n_elements + 63) >> 6
    ranges: list[tuple[int, int]] = []
    base, extra = divmod(n_words, shards)
    word = 0
    for index in range(shards):
        width = base + (1 if index < extra else 0)
        lo = min(word << 6, n_elements)
        word += width
        hi = min(word << 6, n_elements)
        ranges.append((lo, hi))
    if ranges:
        ranges[-1] = (ranges[-1][0], n_elements)
    return ranges


class ShardSession:
    """Owns the worker processes serving one sharded solve.

    Shards are assigned to workers round-robin; one worker can serve
    several shards (frames to the same worker queue behind each other,
    which only costs latency, never correctness). Use as a context
    manager — ``close`` is unconditional process teardown.
    """

    def __init__(
        self,
        system,
        shards: int,
        workers: int | None = None,
        memory_limit_mb: int | None = None,
        worker_env: dict | None = None,
        rpc_timeout: float = RPC_TIMEOUT,
    ) -> None:
        self.system = system
        self.ranges = plan_shards(system.n_elements, shards)
        n_workers = workers if workers else min(shards, os.cpu_count() or 2)
        self.n_workers = max(1, min(n_workers, shards))
        self.rpc_timeout = rpc_timeout
        #: shard index -> worker index
        self.assignment = [
            shard % self.n_workers for shard in range(len(self.ranges))
        ]
        self._procs = []
        self._readers = []
        self._selector = selectors.DefaultSelector()
        self._closed = False
        #: Ask shard workers to capture and ship their spans whenever
        #: this process traces — inside a pool worker's capture() this
        #: is how shard spans ride home in the result frame. The current
        #: trace context (if any) stamps frames with the request's
        #: traceparent so shard workers know the originating request.
        self._trace = obs_trace.enabled()
        ctx = obs_trace.get_context()
        self._traceparent = ctx.to_traceparent() if ctx else None
        self._replay_seq = 0
        try:
            self._start(memory_limit_mb, worker_env)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _start(self, memory_limit_mb, worker_env) -> None:
        with obs_trace.span(
            "shard_session_open",
            shards=len(self.ranges),
            workers=self.n_workers,
        ) if obs_trace.enabled() else obs_trace.NULL_SPAN:
            for index in range(self.n_workers):
                proc = spawn_worker_process(
                    index,
                    memory_limit_mb=memory_limit_mb,
                    worker_env=worker_env,
                )
                self._procs.append(proc)
                self._readers.append(FrameReader())
                self._selector.register(
                    proc.stdout, selectors.EVENT_READ, index
                )
            # One ready frame per worker before any shard traffic.
            self._collect("ready", range(self.n_workers), key="worker_id")
            payload, fingerprint = system_payload_and_fingerprint(self.system)
            for shard, (lo, hi) in enumerate(self.ranges):
                self._send(shard, {
                    "kind": "shard_open",
                    "shard": shard,
                    "system": payload,
                    "system_fp": fingerprint,
                    "lo": lo,
                    "hi": hi,
                })
            self._collect("shard_ready", range(len(self.ranges)))
            get_registry().gauge(
                "scwsc_shard_workers",
                "Worker processes serving the current sharded solve",
            ).set(self.n_workers)

    def _send(self, shard: int, frame: dict) -> None:
        if self._trace:
            frame["trace"] = True
            if self._traceparent is not None:
                frame["traceparent"] = self._traceparent
        proc = self._procs[self.assignment[shard]]
        if proc.poll() is not None:
            raise ShardError(
                f"shard worker {self.assignment[shard]} died "
                f"(exit {proc.returncode})"
            )
        try:
            write_frame(proc.stdin, frame)
        except (OSError, ValueError) as error:
            raise ShardError(
                f"lost pipe to shard worker {self.assignment[shard]}: "
                f"{error}"
            ) from error

    def _collect(
        self, kind: str, tags: Iterable[int], key: str = "shard"
    ) -> dict[int, dict]:
        """Await one ``kind`` frame per tag; raise :class:`ShardError`
        on error frames, EOF, worker death, or timeout."""
        wanted = set(tags)
        got: dict[int, dict] = {}
        deadline = time.monotonic() + self.rpc_timeout
        while wanted:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise ShardError(
                    f"timed out waiting for {kind} from shards "
                    f"{sorted(wanted)}"
                )
            for selector_key, _ in self._selector.select(budget):
                worker = selector_key.data
                data = os.read(selector_key.fileobj.fileno(), 1 << 20)
                if not data:
                    raise ShardError(
                        f"shard worker {worker} closed its pipe "
                        "mid-solve"
                    )
                for frame in self._readers[worker].feed(data):
                    self._replay_trace(frame)
                    if frame.get("kind") == "shard_error":
                        raise ShardError(
                            f"shard {frame.get('shard')} failed: "
                            f"{frame.get('error_type')}: "
                            f"{frame.get('message')}"
                        )
                    if frame.get("kind") == kind:
                        tag = frame.get(key)
                        if tag in wanted:
                            wanted.discard(tag)
                            got[tag] = frame
        return got

    def _replay_trace(self, frame: dict) -> None:
        """Re-emit a shard reply's captured spans into the live tracer.

        Each reply gets a unique ``sh<shard>.<seq>.`` prefix so span ids
        from different shards (and successive RPCs on one shard) never
        collide, and its root spans are re-parented under the innermost
        open span — inside a traced solve that is the solver span doing
        the select, so shard work nests in the request's tree.
        """
        records = frame.get("trace")
        if not (isinstance(records, list) and records and obs_trace.enabled()):
            return
        self._replay_seq += 1
        obs_trace.replay(
            records,
            prefix=f"sh{frame.get('shard')}.{self._replay_seq}.",
            root_parent=obs_trace.current_span_id(),
            shard=frame.get("shard"),
        )

    # -- shard RPCs ------------------------------------------------------
    def open_count(self) -> int:
        return len(self.ranges)

    def select(self, set_id: int) -> dict[int, dict]:
        """Fan ``shard_select`` out to every shard; merged by caller."""
        for shard in range(len(self.ranges)):
            self._send(shard, {
                "kind": "shard_select",
                "shard": shard,
                "set_id": set_id,
            })
        return self._collect("shard_delta", range(len(self.ranges)))

    def reset(self) -> None:
        for shard in range(len(self.ranges)):
            self._send(shard, {"kind": "shard_reset", "shard": shard})
        self._collect("shard_ok", range(len(self.ranges)))

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    write_frame(proc.stdin, {"kind": "shutdown"})
                except (OSError, ValueError):
                    pass
            for stream in (proc.stdin, proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                proc.wait(timeout=1.0)
            except Exception:
                proc.kill()
                proc.wait()
        self._selector.close()


class ShardedTracker(VectorSelectMixin):
    """Parent-side merged marginal tracker over a :class:`ShardSession`.

    API-compatible with the packed tracker where the solvers need it
    (``reset`` / ``select`` / ``costs`` / the vectorized argmax
    helpers), with counts maintained by summing per-shard overlap
    deltas. All metrics are computed here, never from worker state.
    """

    backend_name = "sharded"

    def __init__(self, session: ShardSession, metrics=None) -> None:
        from repro.core.result import Metrics

        self._session = session
        self._system = session.system
        self._metrics = metrics if metrics is not None else Metrics()
        sets = self._system.sets
        m = len(sets)
        self._sizes = np.fromiter(
            (ws.size for ws in sets), dtype=np.int64, count=m
        )
        self._costs = np.fromiter(
            (ws.cost for ws in sets), dtype=np.float64, count=m
        )
        self._tracked = self._sizes > 0
        self._n_tracked = int(self._tracked.sum())
        self._counts = np.zeros(m, dtype=np.int64)
        self._live = np.zeros(m, dtype=bool)
        self._covered_count = 0
        self._needs_remote_reset = False
        self.fresh = False
        self.reset()

    # The vector argmax helpers only touch
    # _counts/_live/_costs_array()/_system.
    def _costs_array(self):
        return self._costs

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the empty-solution state on parent and shards."""
        if self._needs_remote_reset:
            self._session.reset()
        self._needs_remote_reset = False
        np.multiply(self._sizes, self._tracked, out=self._counts)
        np.copyto(self._live, self._tracked)
        self._covered_count = 0
        self._metrics.sets_considered += self._n_tracked
        self.fresh = True

    @property
    def metrics(self):
        """The metrics object this tracker accounts work into."""
        return self._metrics

    @property
    def costs(self):
        """Per-set costs, for vectorized level assignment."""
        return self._costs

    @property
    def covered_count(self) -> int:
        """``|covered|`` without copying."""
        return self._covered_count

    @property
    def live_ids(self) -> list:
        """Ids of sets with non-empty marginal benefit, ascending."""
        return np.nonzero(self._live)[0].tolist()

    def live_items(self) -> list:
        """``(set_id, |MBen|)`` pairs for all live sets."""
        ids = np.nonzero(self._live)[0]
        return list(zip(ids.tolist(), self._counts[ids].tolist()))

    def __contains__(self, set_id) -> bool:
        return bool(self._live[set_id])

    def __len__(self) -> int:
        return int(self._live.sum())

    def marginal_size(self, set_id) -> int:
        """``|MBen(s, S)|`` for a live set; 0 for an evicted one."""
        return int(self._counts[set_id])

    def drop(self, set_id) -> None:
        """Remove a set from consideration without selecting it."""
        self.fresh = False
        self._live[set_id] = False
        self._counts[set_id] = 0

    # ------------------------------------------------------------------
    def select(self, set_id) -> int:
        """Select a set across every shard and merge the deltas.

        The returned overlap pairs are summed directly into
        ``marginal_updates``: a set appears in a shard's delta only if
        it is locally live there, local liveness implies global
        liveness, and the per-shard overlaps of one set sum to its
        global ``|newly & MBen|`` — exactly the decrement (and update
        count) the single-process backends apply.
        """
        self.fresh = False
        self._needs_remote_reset = True
        self._metrics.selections += 1
        self._live[set_id] = False
        self._counts[set_id] = 0
        deltas = self._session.select(set_id)
        newly = 0
        updates = 0
        overlap = np.zeros(self._counts.size, dtype=np.int64)
        for frame in deltas.values():
            newly += frame["newly"]
            ids = frame["ids"]
            if ids:
                amounts = np.asarray(frame["overlaps"], dtype=np.int64)
                updates += int(amounts.sum())
                np.add.at(
                    overlap, np.asarray(ids, dtype=np.int64), amounts
                )
        self._counts -= overlap
        np.logical_and(self._live, self._counts > 0, out=self._live)
        self._covered_count += newly
        self._metrics.marginal_updates += updates
        if obs_trace.enabled():
            obs_trace.event(
                "tracker_update",
                backend="sharded",
                strategy="shard_merge",
                set_id=set_id,
                newly_covered=newly,
                updates=updates,
                live=int(self._live.sum()),
            )
        return newly


def sharded_solve(
    system,
    k: int,
    s_hat: float,
    algorithm: str = "cwsc",
    shards: int = 2,
    workers: int | None = None,
    fallback: bool = True,
    memory_limit_mb: int | None = None,
    worker_env: dict | None = None,
    rpc_timeout: float = RPC_TIMEOUT,
    **solver_kwargs,
):
    """Solve with the greedy loop in-process and marginals sharded out.

    Parameters
    ----------
    algorithm:
        ``"cwsc"``, ``"cmc"``, or ``"cmc_epsilon"``.
    shards:
        Number of word-aligned universe shards (>= 1). More shards than
        workers is fine — assignment is round-robin.
    workers:
        Worker process count; defaults to ``min(shards, cpu_count)``.
    fallback:
        On any :class:`ShardError` mid-solve, redo the solve
        single-process with ``backend="packed"`` (identical selections)
        instead of raising. The result then records
        ``params["sharding"]["fallback"]`` with the reason.
    solver_kwargs:
        Passed to the underlying solver (``deadline``,
        ``on_infeasible``, ``b``, ``eps``, ...).

    Selections, costs, and metrics are byte-identical to the
    single-process packed backend; sharding buys parallelism and
    per-worker memory isolation, not a different answer.
    """
    solver = _solver_for(algorithm)
    counter = get_registry().counter(
        "scwsc_sharded_solves_total",
        "Universe-sharded solve attempts, by outcome",
    )
    try:
        with ShardSession(
            system,
            shards,
            workers=workers,
            memory_limit_mb=memory_limit_mb,
            worker_env=worker_env,
            rpc_timeout=rpc_timeout,
        ) as session:
            tracker = ShardedTracker(session)
            result = solver(system, k, s_hat, tracker=tracker, **solver_kwargs)
        counter.inc(outcome="ok")
        result.params["sharding"] = {
            "shards": shards,
            "workers": session.n_workers,
        }
        return result
    except ShardError as error:
        counter.inc(outcome="fallback" if fallback else "error")
        obs_trace.event(
            "shard_fallback",
            algorithm=algorithm,
            shards=shards,
            error=str(error),
            fallback=fallback,
        )
        if not fallback:
            raise
        result = solver(system, k, s_hat, backend="packed", **solver_kwargs)
        result.params["sharding"] = {
            "shards": shards,
            "fallback": str(error),
        }
        return result


def _solver_for(algorithm: str):
    from repro.core.cmc import cmc
    from repro.core.cmc_epsilon import cmc_epsilon
    from repro.core.cwsc import cwsc

    solvers = {"cwsc": cwsc, "cmc": cmc, "cmc_epsilon": cmc_epsilon}
    if algorithm not in solvers:
        raise ValidationError(
            f"unknown sharded algorithm {algorithm!r}; "
            f"expected one of {sorted(solvers)}"
        )
    return solvers[algorithm]
