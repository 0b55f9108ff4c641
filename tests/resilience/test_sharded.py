"""Universe-sharded pool solves: identity with the single-process
packed backend, shard planning, and failure fallback."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.resilience.pool.sharded import (
    ShardError,
    ShardSession,
    plan_shards,
    sharded_solve,
)


class TestPlanShards:
    def test_word_aligned_partition(self):
        ranges = plan_shards(300, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 300
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
            assert lo % 64 == 0

    def test_more_shards_than_words_yields_empty_tails(self):
        ranges = plan_shards(100, 3)
        assert ranges == [(0, 64), (64, 100), (100, 100)]

    def test_single_shard_is_whole_universe(self):
        assert plan_shards(130, 1) == [(0, 130)]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValidationError):
            plan_shards(100, 0)


def _solve_pair(system, algorithm, shards, workers=None, **kwargs):
    from repro.core.cmc import cmc
    from repro.core.cmc_epsilon import cmc_epsilon
    from repro.core.cwsc import cwsc

    single = {"cwsc": cwsc, "cmc": cmc, "cmc_epsilon": cmc_epsilon}[
        algorithm
    ](system, k=4, s_hat=0.8, backend="packed", **kwargs)
    sharded = sharded_solve(
        system,
        k=4,
        s_hat=0.8,
        algorithm=algorithm,
        shards=shards,
        workers=workers,
        **kwargs,
    )
    return single, sharded


def _assert_identical(single, sharded):
    assert sharded.set_ids == single.set_ids
    assert sharded.total_cost == single.total_cost
    assert sharded.covered == single.covered
    assert sharded.feasible == single.feasible
    assert sharded.metrics.selections == single.metrics.selections
    assert (
        sharded.metrics.marginal_updates
        == single.metrics.marginal_updates
    )
    assert (
        sharded.metrics.sets_considered == single.metrics.sets_considered
    )
    assert sharded.metrics.budget_rounds == single.metrics.budget_rounds


class TestShardedMatchesPacked:
    @pytest.mark.parametrize("algorithm", ["cwsc", "cmc"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_identical_selections_and_metrics(
        self, random_system, algorithm, shards
    ):
        system = random_system(n_elements=90, n_sets=14, seed=3)
        single, sharded = _solve_pair(system, algorithm, shards)
        _assert_identical(single, sharded)
        assert sharded.params["sharding"] == {
            "shards": shards,
            "workers": sharded.params["sharding"]["workers"],
        }

    def test_more_shards_than_workers(self, random_system):
        # 5 shards on 2 workers: round-robin queuing, same answer. The
        # tiny universe also makes several shards empty, and with only
        # one word every element-owning shard is the first one.
        system = random_system(n_elements=40, n_sets=10, seed=5)
        single, sharded = _solve_pair(system, "cwsc", shards=5, workers=2)
        _assert_identical(single, sharded)
        assert sharded.params["sharding"]["workers"] == 2

    def test_cmc_epsilon_sharded(self, random_system):
        system = random_system(n_elements=70, n_sets=12, seed=11)
        single, sharded = _solve_pair(system, "cmc_epsilon", 2, eps=0.5)
        _assert_identical(single, sharded)


class TestShardFailure:
    def _kill_after_first_select(self, monkeypatch):
        real_select = ShardSession.select
        calls = {"n": 0}

        def dying(self, set_id):
            calls["n"] += 1
            if calls["n"] == 2:
                # Mid-round worker death: every subsequent collect sees
                # EOF and must surface a ShardError.
                for proc in self._procs:
                    proc.kill()
            return real_select(self, set_id)

        monkeypatch.setattr(ShardSession, "select", dying)

    def test_mid_round_death_falls_back_single_process(
        self, random_system, monkeypatch
    ):
        system = random_system(n_elements=90, n_sets=14, seed=3)
        reference = _solve_pair(system, "cwsc", shards=2)[0]
        self._kill_after_first_select(monkeypatch)
        result = sharded_solve(
            system, k=4, s_hat=0.8, algorithm="cwsc", shards=2
        )
        assert result.set_ids == reference.set_ids
        assert result.total_cost == reference.total_cost
        assert "fallback" in result.params["sharding"]

    def test_no_fallback_raises_shard_error(
        self, random_system, monkeypatch
    ):
        system = random_system(n_elements=90, n_sets=14, seed=3)
        self._kill_after_first_select(monkeypatch)
        with pytest.raises(ShardError):
            sharded_solve(
                system,
                k=4,
                s_hat=0.8,
                algorithm="cwsc",
                shards=2,
                fallback=False,
            )

    def test_unknown_algorithm_rejected(self, random_system):
        with pytest.raises(ValidationError):
            sharded_solve(
                random_system(), k=4, s_hat=0.8, algorithm="greedy9000"
            )


class TestResilientSolveKnobs:
    def test_inline_sharded_matches_inline_packed(self, random_system):
        from repro.resilience import resilient_solve

        # chain=("cwsc",): the default chain's exact stage would answer
        # this small instance before the sharded stage ever runs.
        system = random_system(n_elements=90, n_sets=14, seed=3)
        plain = resilient_solve(
            system, k=4, s_hat=0.8, chain=("cwsc",), backend="packed"
        )
        sharded = resilient_solve(
            system, k=4, s_hat=0.8, chain=("cwsc",), shards=2
        )
        assert sharded.set_ids == plain.set_ids
        assert sharded.total_cost == plain.total_cost
        assert sharded.params["sharding"]["shards"] == 2

    def test_sharding_provenance_survives_result_roundtrip(
        self, random_system
    ):
        from repro.core.result import result_from_dict

        system = random_system(n_elements=90, n_sets=14, seed=3)
        result = sharded_solve(system, k=4, s_hat=0.8, shards=2)
        rebuilt = result_from_dict(result.to_dict())
        assert rebuilt.params["sharding"] == result.params["sharding"]
        assert rebuilt.params["sharding"]["shards"] == 2

    def test_inline_rejects_bad_knobs(self, random_system):
        from repro.resilience import resilient_solve

        with pytest.raises(ValidationError):
            resilient_solve(random_system(), k=4, s_hat=0.8, shards=0)
        with pytest.raises(ValidationError):
            resilient_solve(
                random_system(), k=4, s_hat=0.8, backend="gpu"
            )


class TestShardTraceCapture:
    """Worker-side span capture over shard RPCs (shard_open / select /
    reset frames), replayed into the parent's tracer under ``sh<N>.``
    prefixes — the mechanism that lets a pool worker acting as sharding
    parent ship shard spans home inside its own capture."""

    def test_shard_frames_replay_spans_into_parent_tracer(
        self, random_system
    ):
        import io as _io
        import json as _json

        from repro.obs import trace as obs_trace

        system = random_system(n_elements=140, n_sets=10, seed=3)
        buffer = _io.StringIO()
        obs_trace.configure(buffer, command="shard-capture-test")
        try:
            with ShardSession(system, shards=2, workers=1) as session:
                session.select(0)
                session.reset()
        finally:
            obs_trace.shutdown()
        records = [
            _json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        spans = [r for r in records if r.get("type") == "span"]
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        # One open/select/reset span per shard, captured in the shard
        # worker and replayed here.
        assert len(by_name.get("shard_open", [])) == 2
        assert len(by_name.get("shard_select", [])) == 2
        assert len(by_name.get("shard_reset", [])) == 2
        for span in (
            by_name["shard_open"]
            + by_name["shard_select"]
            + by_name["shard_reset"]
        ):
            assert span["span_id"].startswith("sh"), span["span_id"]
            assert span["attrs"]["shard"] in (0, 1)
        # Replayed shard spans parent onto the live span at replay time
        # (the shard_session_open span for open frames).
        open_parent_ids = {s["parent_id"] for s in by_name["shard_open"]}
        session_span = by_name["shard_session_open"][0]
        assert open_parent_ids == {session_span["span_id"]}

    def test_shard_spans_inherit_request_trace_context(self, random_system):
        """Under a bound TraceContext the whole shard subtree replays
        with the originating request's traceparent stamped on frames."""
        import io as _io
        import json as _json

        from repro.obs import trace as obs_trace

        system = random_system(n_elements=140, n_sets=10, seed=4)
        ctx = obs_trace.TraceContext.mint()
        buffer = _io.StringIO()
        obs_trace.configure(buffer, command="shard-ctx-test")
        try:
            with obs_trace.context(ctx):
                result = sharded_solve(
                    system, k=3, s_hat=0.6, algorithm="cwsc", shards=2,
                    workers=1,
                )
        finally:
            obs_trace.shutdown()
        assert result.feasible
        records = [
            _json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        names = {
            r["name"] for r in records if r.get("type") == "span"
        }
        assert "shard_open" in names and "shard_select" in names

    def test_untraced_session_ships_no_trace_frames(self, random_system):
        from repro.obs import trace as obs_trace

        assert not obs_trace.enabled()
        system = random_system(n_elements=140, n_sets=10, seed=5)
        with ShardSession(system, shards=2, workers=1) as session:
            assert session._trace is False
            replies = session.select(0)
        assert all("trace" not in frame for frame in replies.values())
