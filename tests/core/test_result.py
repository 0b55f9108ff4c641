"""Unit tests for results and metrics."""

import pytest

from repro.core.result import METRIC_FIELDS, CoverResult, Metrics, make_result


class TestMetrics:
    def test_merge_sums_counters(self):
        a = Metrics(sets_considered=3, marginal_updates=1, selections=2,
                    budget_rounds=2, runtime_seconds=0.5)
        b = Metrics(sets_considered=4, marginal_updates=2, selections=1,
                    budget_rounds=1, runtime_seconds=0.25)
        merged = a.merge(b)
        assert merged.sets_considered == 7
        assert merged.marginal_updates == 3
        assert merged.selections == 3
        assert merged.budget_rounds == 3
        assert merged.runtime_seconds == pytest.approx(0.75)


class TestMetricsSchema:
    """The dict form is the wire format shared by the result payload and
    the pool IPC frames — one schema, one (de)serializer."""

    def test_round_trip(self):
        original = Metrics(sets_considered=7, marginal_updates=11,
                           selections=3, budget_rounds=2,
                           runtime_seconds=0.125)
        assert Metrics.from_dict(original.to_dict()) == original

    def test_to_dict_covers_exactly_the_schema(self):
        assert set(Metrics().to_dict()) == {name for name, _, _ in
                                            METRIC_FIELDS}

    def test_from_dict_fills_missing_keys_with_defaults(self):
        metrics = Metrics.from_dict({"selections": 4})
        assert metrics.selections == 4
        assert metrics.sets_considered == 0
        assert metrics.budget_rounds == 1  # schema default, not zero
        assert metrics.runtime_seconds == 0.0

    def test_from_dict_ignores_unknown_keys(self):
        metrics = Metrics.from_dict({"selections": 1, "novel_counter": 9})
        assert metrics.selections == 1
        assert not hasattr(metrics, "novel_counter")

    def test_from_dict_coerces_types(self):
        metrics = Metrics.from_dict(
            {"sets_considered": 3.0, "runtime_seconds": 1}
        )
        assert metrics.sets_considered == 3
        assert isinstance(metrics.sets_considered, int)
        assert metrics.runtime_seconds == 1.0
        assert isinstance(metrics.runtime_seconds, float)


class TestCoverResult:
    def make(self, covered=3, n=10, feasible=True) -> CoverResult:
        return make_result(
            algorithm="test",
            chosen=[2, 0],
            labels=["b", "a"],
            total_cost=4.5,
            covered=covered,
            n_elements=n,
            feasible=feasible,
            params={"k": 2},
            metrics=Metrics(),
        )

    def test_basic_fields(self):
        result = self.make()
        assert result.n_sets == 2
        assert result.set_ids == (2, 0)
        assert result.labels == ("b", "a")
        assert result.params == {"k": 2}

    def test_coverage_fraction(self):
        assert self.make(covered=5, n=10).coverage_fraction == 0.5

    def test_empty_universe_fraction(self):
        assert self.make(covered=0, n=0).coverage_fraction == 0.0

    def test_summary_mentions_key_facts(self):
        summary = self.make().summary()
        assert "test" in summary
        assert "2 sets" in summary
        assert "4.5" in summary

    def test_infeasible_summary(self):
        assert "feasible=False" in self.make(feasible=False).summary()

    def test_to_dict_round_trips_through_json(self):
        import json

        payload = json.loads(json.dumps(self.make().to_dict()))
        assert payload["algorithm"] == "test"
        assert payload["set_ids"] == [2, 0]
        assert payload["labels"] == ["'b'", "'a'"]
        assert payload["total_cost"] == 4.5
        assert payload["coverage_fraction"] == 0.3
        assert payload["params"] == {"k": 2}
        assert payload["metrics"]["sets_considered"] == 0

    def test_to_dict_drops_non_scalar_params(self):
        result = self.make()
        result.params["weird"] = object()
        payload = result.to_dict()
        assert "weird" not in payload["params"]
        assert payload["params"]["k"] == 2

    def test_to_dict_keeps_flat_scalar_dicts(self):
        result = self.make()
        result.params["backend"] = {"name": "packed", "words": 2}
        result.params["nested"] = {"deep": {"too": 1}}
        result.params["odd_keys"] = {7: "seven"}
        payload = result.to_dict()
        assert payload["params"]["backend"] == {"name": "packed", "words": 2}
        assert "nested" not in payload["params"]
        assert "odd_keys" not in payload["params"]

    def test_result_from_dict_preserves_claims(self, random_system):
        from repro.core.cwsc import cwsc
        from repro.core.result import result_from_dict

        system = random_system(n_elements=15, n_sets=10)
        original = cwsc(system, 4, 0.9)
        clone = result_from_dict(original.to_dict())
        assert isinstance(clone, CoverResult)
        assert clone.set_ids == original.set_ids
        assert clone.total_cost == original.total_cost
        assert clone.covered == original.covered
        assert clone.feasible == original.feasible
        assert clone.algorithm == original.algorithm
