"""SolverPool integration: real workers, determinism, failure handling."""

from __future__ import annotations

import pytest

from repro.core.cwsc import cwsc
from repro.core.validate import verify_result
from repro.errors import ValidationError
from repro.resilience import faults, resilient_solve
from repro.resilience.faults import FaultConfig
from repro.resilience.pool import (
    PoolConfig,
    SolveRequest,
    SolverPool,
    run_isolated,
)


class TestPoolConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            PoolConfig(workers=0)
        with pytest.raises(ValidationError):
            PoolConfig(max_requeues=-1)
        with pytest.raises(ValidationError):
            PoolConfig(grace=-1.0)
        with pytest.raises(ValidationError):
            PoolConfig(memory_limit_mb=0)


class TestPoolMatchesSequential:
    def test_direct_solver_cells_match_and_stream(self, random_system):
        systems = [random_system(seed=seed) for seed in (1, 2, 3, 4)]
        requests = [
            SolveRequest(
                system=system, k=4, s_hat=0.8, solver="cwsc",
                tag=f"cell-{i}",
            )
            for i, system in enumerate(systems)
        ]
        streamed = []
        with SolverPool(PoolConfig(workers=2, request_timeout=60)) as pool:
            results = pool.run(
                requests, on_result=lambda outcome: streamed.append(outcome)
            )
        # Output order is request order; streaming saw every result.
        assert [r.tag for r in results] == [f"cell-{i}" for i in range(4)]
        assert sorted(r.tag for r in streamed) == sorted(
            r.tag for r in results
        )
        for i, (system, outcome) in enumerate(zip(systems, results)):
            expected = cwsc(system, 4, 0.8)
            assert outcome.status == "ok"
            assert outcome.result.set_ids == expected.set_ids
            assert outcome.result.total_cost == expected.total_cost
            # Labels are the parent's own objects, not shims.
            assert outcome.result.labels == expected.labels

    def test_run_isolated_matches_inline_chain(self, entities_system):
        inline = resilient_solve(entities_system, 3, 0.5, timeout=30)
        isolated = run_isolated(entities_system, 3, 0.5, timeout=30)
        assert isolated.set_ids == inline.set_ids
        assert isolated.total_cost == inline.total_cost
        assert isolated.params["resilience"]["stage"] == (
            inline.params["resilience"]["stage"]
        )
        assert isolated.params["pool"]["attempts"][0]["outcome"] == "ok"

    def test_pool_reuse_across_run_calls(self, random_system):
        system = random_system(seed=9)
        request = SolveRequest(system=system, k=3, s_hat=0.7, solver="cwsc")
        with SolverPool(PoolConfig(workers=1, request_timeout=60)) as pool:
            first = pool.solve(request)
            second = pool.solve(
                SolveRequest(system=system, k=3, s_hat=0.7, solver="cwsc")
            )
        assert first.result.set_ids == second.result.set_ids


class TestExactOnLargeSystems:
    def test_exact_is_infeasible_and_a_later_stage_answers(
        self, random_system
    ):
        # Over 1 000 sets the recursive exact search overflowed the
        # stack: the worker requeued and the exact breaker opened.
        system = random_system(n_elements=60, n_sets=1200, seed=3)
        inline = resilient_solve(system, 5, 0.5, timeout=60)
        with SolverPool(PoolConfig(workers=1, request_timeout=60)) as pool:
            outcome = pool.solve(SolveRequest(system=system, k=5, s_hat=0.5))
            breakers = pool.breaker_snapshot()
        assert outcome.status == "ok"
        assert outcome.provenance["requeues"] == 0
        assert len(outcome.provenance["attempts"]) == 1
        assert breakers["exact"]["times_opened"] == 0
        for result in (inline, outcome.result):
            resilience = result.params["resilience"]
            assert resilience["stages"][0]["stage"] == "exact"
            assert resilience["stages"][0]["status"] == "infeasible"
            assert resilience["stage"] != "exact"
            assert verify_result(system, result, k=5, s_hat=0.5) == []


class TestPoolFailureHandling:
    def test_unknown_solver_degrades_to_fallback(self, random_system):
        system = random_system(seed=5)
        with SolverPool(
            PoolConfig(workers=1, request_timeout=30, max_requeues=1)
        ) as pool:
            outcome = pool.solve(
                SolveRequest(system=system, k=3, s_hat=0.5, solver="nope")
            )
        assert outcome.status == "fallback"
        assert outcome.result.feasible
        assert outcome.result.algorithm == "universal"
        assert "ProtocolError" in outcome.provenance["failure"]
        assert verify_result(system, outcome.result, k=3, s_hat=0.5) == []

    def test_validation_error_is_final_not_retried(self, random_system):
        system = random_system(seed=6)
        with SolverPool(PoolConfig(workers=1, request_timeout=30)) as pool:
            outcome = pool.solve(
                SolveRequest(system=system, k=0, s_hat=0.5, solver="cwsc")
            )
        assert outcome.status == "failed"
        assert len(outcome.provenance["attempts"]) == 1
        assert outcome.provenance["attempts"][0]["outcome"] == (
            "error:ValidationError"
        )

    def test_closed_pool_rejects_work(self, random_system):
        pool = SolverPool(PoolConfig(workers=1))
        pool.close()
        with pytest.raises(ValidationError, match="closed"):
            pool.run(
                [SolveRequest(system=random_system(), k=2, s_hat=0.5)]
            )


class TestRequeueDeterminism:
    def test_killed_worker_requeue_reproduces_clean_results(
        self, random_system
    ):
        """Fixed seed + worker kills => the exact same final grid."""
        systems = [random_system(seed=seed) for seed in (11, 12, 13)]

        def grid(config: FaultConfig | None):
            requests = [
                SolveRequest(
                    system=system, k=4, s_hat=0.8, solver="cwsc",
                    tag=f"cell-{i}",
                )
                for i, system in enumerate(systems)
            ]
            pool_config = PoolConfig(
                workers=2, request_timeout=60, max_requeues=3
            )
            if config is None:
                with SolverPool(pool_config) as pool:
                    return pool.run(requests)
            with faults.chaos(config):
                with SolverPool(pool_config) as pool:
                    return pool.run(requests)

        clean = grid(None)
        stormy = grid(FaultConfig(worker_kill=1.0, fault_limit=2, seed=42))
        assert sum(
            attempt["outcome"] == "killed"
            for outcome in stormy
            for attempt in outcome.provenance["attempts"]
        ) == 2
        for before, after in zip(clean, stormy):
            assert after.status == "ok"
            assert after.result.set_ids == before.result.set_ids
            assert after.result.total_cost == before.result.total_cost
            assert after.result.covered == before.result.covered
