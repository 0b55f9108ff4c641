"""Quality telemetry: compute_quality math and record_quality plumbing."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.core.cmc import COVERAGE_DISCOUNT
from repro.core.guarantees import max_sets_standard
from repro.core.result import CoverResult
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import (
    RATIO_BUCKETS,
    compute_quality,
    quality_records,
    record_quality,
)
from repro.obs.schema import validate_record


def _result(
    total_cost=6.0,
    covered=90,
    n_elements=100,
    n_sets=3,
    feasible=True,
    params=None,
):
    ids = tuple(range(n_sets))
    return CoverResult(
        algorithm="cwsc",
        set_ids=ids,
        labels=tuple(f"s{i}" for i in ids),
        total_cost=total_cost,
        covered=covered,
        n_elements=n_elements,
        feasible=feasible,
        params={} if params is None else params,
    )


class TestComputeQuality:
    def test_full_quality_dict(self):
        quality = compute_quality(
            _result(), k=5, s_hat=0.85, lp_bound=4.0
        )
        assert quality["total_cost"] == 6.0
        assert quality["lp_bound"] == 4.0
        assert quality["approx_ratio"] == pytest.approx(1.5)
        assert quality["coverage_fraction"] == pytest.approx(0.9)
        assert quality["coverage_target"] == 0.85
        assert quality["coverage_slack"] == pytest.approx(0.05)
        assert quality["sets_used"] == 3
        assert quality["sets_budget"] == 5
        assert quality["sets_slack"] == 2
        assert quality["feasible"] is True

    def test_defaults_pulled_from_result_params(self):
        result = _result(params={"k": 4, "s_hat": 0.95})
        quality = compute_quality(result)
        assert quality["sets_budget"] == 4
        assert quality["coverage_target"] == 0.95
        assert quality["coverage_slack"] == pytest.approx(0.9 - 0.95)

    def test_missing_bound_and_target_yield_nones(self):
        quality = compute_quality(_result())
        assert quality["approx_ratio"] is None
        assert quality["lp_bound"] is None
        assert quality["coverage_slack"] is None
        assert quality["coverage_target"] is None
        assert quality["sets_budget"] is None
        assert quality["sets_slack"] is None

    def test_degenerate_bounds_never_divide(self):
        assert compute_quality(_result(), lp_bound=0.0)["approx_ratio"] is None
        assert (
            compute_quality(_result(), lp_bound=-1.0)["approx_ratio"] is None
        )
        quality = compute_quality(_result(), lp_bound=math.inf)
        assert quality["approx_ratio"] is None
        assert quality["lp_bound"] is None

    def test_infinite_cost_serializes_as_null(self):
        quality = compute_quality(_result(total_cost=math.inf), lp_bound=2.0)
        assert quality["total_cost"] is None
        assert quality["approx_ratio"] is None

    def test_negative_sets_slack_for_cmc_overshoot(self):
        # The size budget is the contract's, so it needs both k and s_hat.
        quality = compute_quality(_result(n_sets=3), k=2, s_hat=0.9)
        assert quality["sets_slack"] == -1

    def test_cmc_slack_is_measured_against_its_contract(self):
        # Theorem 4: CMC may use up to max_sets_standard(k) sets and
        # promises only (1 - 1/e) * s_hat coverage.
        k, s_hat = 2, 0.9
        result = replace(
            _result(n_sets=3, covered=70), algorithm="cmc",
            params={"variant": "standard"},
        )
        assert k < result.n_sets <= max_sets_standard(k)
        assert COVERAGE_DISCOUNT * s_hat < result.coverage_fraction < s_hat
        quality = compute_quality(result, k=k, s_hat=s_hat)
        assert quality["sets_budget"] == max_sets_standard(k)
        assert quality["sets_slack"] >= 0
        assert quality["coverage_target"] == pytest.approx(
            COVERAGE_DISCOUNT * s_hat
        )
        assert quality["coverage_slack"] >= 0.0

    def test_json_ready(self):
        quality = compute_quality(_result(), k=5, s_hat=0.9, lp_bound=3.0)
        json.dumps(quality)  # no exotic types


class TestRecordQuality:
    def test_publishes_registry_metrics(self):
        registry = MetricsRegistry()
        record_quality(
            _result(), k=5, s_hat=0.85, lp_bound=4.0, registry=registry
        )
        snapshot = registry.snapshot()
        ratio = snapshot["scwsc_approx_ratio"]
        assert ratio["kind"] == "histogram"
        [series] = ratio["values"]
        assert series["labels"] == {"algorithm": "cwsc"}
        assert series["count"] == 1
        slack = snapshot["scwsc_coverage_slack"]["values"][0]
        assert slack["value"] == pytest.approx(0.05)
        used = snapshot["scwsc_sets_used"]["values"][0]
        assert used["value"] == 3
        assert "scwsc_infeasible_results_total" not in snapshot

    def test_no_bound_skips_ratio_histogram(self):
        registry = MetricsRegistry()
        record_quality(_result(), registry=registry)
        assert "scwsc_approx_ratio" not in registry.snapshot()

    def test_infeasible_counter(self):
        registry = MetricsRegistry()
        record_quality(_result(feasible=False), registry=registry)
        record_quality(_result(feasible=False), registry=registry)
        snapshot = registry.snapshot()
        [series] = snapshot["scwsc_infeasible_results_total"]["values"]
        assert series["value"] == 2

    def test_writes_trace_record_when_tracing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs_trace.configure(str(path), command="test")
        try:
            record_quality(
                _result(),
                k=5,
                s_hat=0.85,
                lp_bound=4.0,
                registry=MetricsRegistry(),
            )
        finally:
            obs_trace.shutdown()
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        found = quality_records(records)
        assert len(found) == 1
        assert validate_record(found[0]) == []
        assert found[0]["algorithm"] == "cwsc"
        assert found[0]["quality"]["approx_ratio"] == pytest.approx(1.5)

    def test_no_tracer_no_error(self):
        quality = record_quality(_result(), registry=MetricsRegistry())
        assert quality["sets_used"] == 3

    def test_ratio_buckets_sorted_and_start_at_one(self):
        assert RATIO_BUCKETS[0] == 1.0
        assert list(RATIO_BUCKETS) == sorted(RATIO_BUCKETS)


class TestRecordCoverResultIntegration:
    def test_record_cover_result_publishes_quality(self):
        from repro.obs.metrics import record_cover_result

        registry = MetricsRegistry()
        record_cover_result(_result(), registry=registry, lp_bound=4.0)
        snapshot = registry.snapshot()
        assert "scwsc_solves_total" in snapshot
        assert "scwsc_approx_ratio" in snapshot
        assert "scwsc_sets_used" in snapshot
