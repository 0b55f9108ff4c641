"""Arithmetic shared by the workloads: spans, percentiles, contracts.

The solver stack is imported lazily, inside the functions that use it, so
``run.py`` can refuse to start before it touches the program.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; below that it is noise, not a tail.
MIN_TAIL_SAMPLES = 10

# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder; written out once, when the run ends.

    A span is ``name, start, end, parent, op``: ``parent`` is the index
    of the enclosing span on the same thread (or ``None``) and ``op``
    the operation id every span of one op shares. ``Spans(enabled=False)``
    hands out a shared null context, so an untraced run pays one
    attribute test per layer call.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, op):
        if not self.enabled:
            return nullcontext()
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "op": op,
        }
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()


def _covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: list[dict]) -> list[float]:
    """Per-span self time: its duration minus the part of that interval
    its direct children cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in records:
        parent = record["parent"]
        if parent is not None:
            lo = max(record["start"], records[parent]["start"])
            hi = min(record["end"], records[parent]["end"])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (record["end"] - record["start"])
        - _covered_length(children.get(index, []))
        for index, record in enumerate(records)
    ]


def layer_self_seconds(records: list[dict], n_ops: int) -> dict[str, float]:
    """Mean self seconds per op, by span name."""
    totals: dict[str, float] = {}
    for record, own in zip(records, self_times(records)):
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return {name: total / max(1, n_ops) for name, total in totals.items()}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: list[float], q: float) -> dict:
    """The ``q`` quantile with its support.

    ``value`` is ``None`` unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond the nearest-rank quantile, so a run of
    50 samples reports no p90 (5 beyond it) while 100 samples do.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"value": None, "samples": 0, "beyond": 0}
    rank = max(1, math.ceil(q * n))
    value = ordered[rank - 1]
    beyond = n - rank
    return {
        "value": value if beyond >= MIN_TAIL_SAMPLES else None,
        "samples": n,
        "beyond": beyond,
    }


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples) -> float:
    return statistics.fmean(samples) if samples else 0.0


# ----------------------------------------------------------------------
# Per-layer counts
# ----------------------------------------------------------------------
def solver_counts(results, n_ops: int) -> dict:
    """Per-op ``CoverResult.metrics`` counters and the useful-selection
    ratio (final sets / selections; CMC redoes work per budget round)."""
    n_ops = max(1, n_ops)
    selections = sum(r.metrics.selections for r in results)
    return {
        "core.sets_considered": sum(
            r.metrics.sets_considered for r in results) / n_ops,
        "core.marginal_updates": sum(
            r.metrics.marginal_updates for r in results) / n_ops,
        "core.selections": selections / n_ops,
        "core.budget_rounds": sum(
            r.metrics.budget_rounds for r in results) / n_ops,
        "core.useful_selection_ratio": (
            sum(r.n_sets for r in results) / selections if selections else 0.0
        ),
    }


def layout_bytes(system, backend: str) -> int:
    """Bytes of the cached coverage layout, counted from its words."""
    if backend == "packed":
        from repro.core.packed import cached_layout

        layout = cached_layout(system)
        dense = 0 if layout.dense is None else layout.dense.nbytes
        return int(layout.data.nbytes + dense)
    if backend == "bitset":
        from repro.core.bitset import mask_table

        return sum(
            ((mask.bit_length() + 63) // 64) * 8
            for mask in mask_table(system).masks
        )
    return 0


# ----------------------------------------------------------------------
# Contracts: what each producer promises (Theorems 4 and 5)
# ----------------------------------------------------------------------
def contract_for(algorithm: str, k: int, s_hat: float, eps: float | None,
                 n_elements: int) -> tuple[int, float]:
    """``(max_sets, min_covered)`` that ``algorithm`` promises.

    CWSC, ``exact`` and ``lp_rounding``: at most ``k`` sets at ``s_hat``.
    CMC: at most ``max_sets_standard(k)`` (``<= 5k``); CMC-eps (and
    ``optimized_cmc`` given ``eps``) at most ``floor((1 + eps) k)``; both
    at ``(1 - 1/e) s_hat``. ``universal``: one set, full coverage.
    """
    from repro.core.guarantees import guaranteed_coverage, max_sets_standard

    name = algorithm.removeprefix("optimized_")
    if name in ("cwsc", "exact", "lp_rounding"):
        return k, s_hat * n_elements
    if name == "universal":
        return 1, float(n_elements)
    floor = guaranteed_coverage(s_hat, n_elements)
    if name == "cmc_epsilon" or (name == "cmc" and eps is not None):
        return math.floor((1 + eps) * k + 1e-9), floor
    if name == "cmc":
        return max_sets_standard(k), floor
    raise ValueError(f"no contract known for algorithm {algorithm!r}")


class Verdict(NamedTuple):
    """What checking one op found.

    ``false_claims``: the answer misreports itself (ids, cost or coverage
    differ from the recomputed ones); any makes the run incorrect.
    ``failures``: the op failed without lying: an error status, or an
    answer outside the contract its producer promises. Both count in
    ``failed``.
    """

    false_claims: list
    failures: list

    @property
    def failed(self) -> bool:
        return bool(self.false_claims or self.failures)

    def __add__(self, other: "Verdict") -> "Verdict":
        return Verdict(self.false_claims + other.false_claims,
                       self.failures + other.failures)


def check_claims(result, *, true_cost: float, true_covered: int,
                 k: int, s_hat: float, eps: float | None = None) -> Verdict:
    """Judge a result against recomputed cost/coverage and its contract."""
    name = result.algorithm
    claims, failures = [], []
    if abs(true_cost - result.total_cost) > 1e-6 * max(1.0, abs(true_cost)):
        claims.append(
            f"{name}: claimed cost {result.total_cost!r} != recomputed "
            f"{true_cost!r}"
        )
    if true_covered != result.covered:
        claims.append(
            f"{name}: claimed coverage {result.covered} != recomputed "
            f"{true_covered}"
        )
    max_sets, min_covered = contract_for(
        name, k, s_hat, eps, result.n_elements
    )
    if not result.feasible:
        failures.append(f"{name}: reported infeasible")
    if len(result.set_ids) > max_sets:
        failures.append(
            f"{name}: {len(result.set_ids)} sets exceed the promised "
            f"{max_sets} (k={k})"
        )
    if true_covered < min_covered - 1e-9:
        failures.append(
            f"{name}: covers {true_covered} < promised {min_covered:.2f}"
        )
    return Verdict(claims, failures)


def check_verified(verify_problems: list[str], result, k: int, s_hat: float,
                   eps: float | None = None) -> Verdict:
    """An enumerated answer that ``verify_result`` already checked: a
    clean verify means its claimed cost and coverage are the true ones."""
    if verify_problems:
        return Verdict(list(verify_problems), [])
    return check_claims(
        result, true_cost=result.total_cost, true_covered=result.covered,
        k=k, s_hat=s_hat, eps=eps,
    )


def check_cover(system, result, k: int, s_hat: float,
                eps: float | None = None) -> Verdict:
    """An enumerated answer: ``verify_result``, then its contract."""
    from repro.core.validate import verify_result

    return check_verified(verify_result(system, result), result, k, s_hat, eps)


def check_pattern_answer(table, result, k: int, s_hat: float,
                         eps: float | None = None,
                         cost: str = "max") -> Verdict:
    """An ``optimized_*`` answer: coverage recomputed with
    ``Pattern.matches`` over the rows, cost with the bound cost function."""
    from repro.patterns.costs import get_cost_function

    cost_fn = get_cost_function(cost).bind(table)
    covered: set[int] = set()
    true_cost = 0.0
    for pattern in result.labels:
        rows = [i for i, row in enumerate(table.rows) if pattern.matches(row)]
        if not rows:
            return Verdict(
                [f"{result.algorithm}: pattern {pattern!r} matches no row"], []
            )
        covered.update(rows)
        true_cost += cost_fn(rows)
    return check_claims(
        result, true_cost=true_cost, true_covered=len(covered),
        k=k, s_hat=s_hat, eps=eps,
    )


def check_response(status: int, body: dict | None, system, k: int,
                   s_hat: float) -> Verdict:
    """A ``/solve`` reply: anything but a 200 fails (a 429 too); a 200's
    answer is verified and held to its producer's contract."""
    if status != 200:
        return Verdict([], [f"HTTP {status}"])
    if not isinstance(body, dict) or not isinstance(body.get("result"), dict):
        return Verdict(["200 without a result body"], [])
    from repro.core.result import result_from_dict

    try:
        result = result_from_dict(body["result"])
    except (KeyError, TypeError, ValueError) as error:
        return Verdict([f"unreadable result: {error!r}"], [])
    eps = result.params.get("eps") if result.algorithm == "cmc_epsilon" else None
    return check_cover(system, result, k, s_hat, eps)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                kids.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return kids


def descendants(pid: int) -> list[int]:
    """Every live descendant of a process, from ``/proc``."""
    found: list[int] = []
    pending = _children(pid)
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(_children(current))
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over a process and its descendants, in MiB."""
    total_kb = 0
    for current in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
