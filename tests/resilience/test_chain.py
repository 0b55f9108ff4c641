"""resilient_solve: stage selection, retries, rejection, degradation."""

from __future__ import annotations

import pytest

from repro.core.validate import verify_result
from repro.datasets import load_dataset
from repro.datasets.adversarial import bmc_adversarial_system
from repro.errors import InfeasibleError, ValidationError
from repro.patterns import build_set_system
from repro.resilience import FaultConfig, chaos, resilient_solve
from repro.resilience.chain import DEFAULT_CHAIN


def provenance(result) -> dict:
    prov = result.params.get("resilience")
    assert prov is not None, "resilient results must carry provenance"
    return prov


def stage_status(prov: dict) -> dict[str, str]:
    return {r["stage"]: r["status"] for r in prov["stages"]}


class TestHappyPath:
    def test_default_chain_answers_and_verifies(self, random_system):
        system = random_system(n_elements=15, n_sets=10)
        result = resilient_solve(system, k=4, s_hat=0.9)
        assert result.feasible
        prov = provenance(result)
        assert prov["stage"] in DEFAULT_CHAIN
        assert verify_result(
            system, result, k=prov["k_bound"], s_hat=prov["coverage_target"]
        ) == []

    def test_first_ok_stage_wins_and_later_stages_never_run(
        self, random_system
    ):
        system = random_system(n_elements=10, n_sets=6)
        result = resilient_solve(
            system, k=3, s_hat=0.8, chain=("cwsc", "cmc", "universal")
        )
        prov = provenance(result)
        assert prov["stage"] == "cwsc"
        assert [r["stage"] for r in prov["stages"]] == ["cwsc"]

    def test_single_universal_chain(self, random_system):
        system = random_system(n_elements=10, n_sets=6)
        result = resilient_solve(system, k=3, s_hat=1.0, chain=("universal",))
        assert result.feasible
        assert len(result.set_ids) == 1
        assert provenance(result)["stage"] == "universal"

    def test_stage_options_reach_the_solver(self, random_system):
        system = random_system(n_elements=12, n_sets=8)
        result = resilient_solve(
            system,
            k=3,
            s_hat=0.7,
            chain=("cmc_epsilon", "universal"),
            stage_options={"cmc_epsilon": {"b": 2.0, "eps": 2.0}},
        )
        prov = provenance(result)
        assert prov["stage"] in ("cmc_epsilon", "universal")
        assert result.feasible


class TestRetries:
    def test_transient_lp_failures_retried_then_exhausted(self, random_system):
        system = random_system(n_elements=12, n_sets=8)
        with chaos(FaultConfig(lp_failure=1.0, seed=3)) as injector:
            result = resilient_solve(
                system,
                k=4,
                s_hat=0.9,
                chain=("lp_rounding", "cwsc", "universal"),
                max_retries=2,
                backoff_base=0.0,
                backoff_cap=0.0,
            )
        assert result.feasible
        prov = provenance(result)
        statuses = stage_status(prov)
        assert statuses["lp_rounding"] == "transient_exhausted"
        lp_record = prov["stages"][0]
        assert lp_record["attempts"] == 3  # initial + max_retries
        assert injector.stats.lp_failures == 3
        assert prov["stage"] in ("cwsc", "universal")

    def test_intermittent_lp_failure_recovers_within_stage(
        self, random_system
    ):
        system = random_system(n_elements=12, n_sets=8)
        # seed chosen so the injected schedule fails at least once and
        # passes at least once within the retry budget
        for seed in range(20):
            with chaos(FaultConfig(lp_failure=0.5, seed=seed)) as injector:
                result = resilient_solve(
                    system,
                    k=4,
                    s_hat=0.9,
                    chain=("lp_rounding", "universal"),
                    max_retries=5,
                    backoff_base=0.0,
                    backoff_cap=0.0,
                )
            prov = provenance(result)
            if (
                prov["stage"] == "lp_rounding"
                and injector.stats.lp_failures > 0
            ):
                assert prov["stages"][0]["attempts"] > 1
                return
        pytest.fail("no seed produced fail-then-recover within 20 tries")

    def test_zero_retries_fall_straight_through(self, random_system):
        system = random_system(n_elements=12, n_sets=8)
        with chaos(FaultConfig(lp_failure=1.0, seed=3)):
            result = resilient_solve(
                system,
                k=4,
                s_hat=0.9,
                chain=("lp_rounding", "universal"),
                max_retries=0,
            )
        prov = provenance(result)
        assert prov["stages"][0]["attempts"] == 1
        assert prov["stage"] == "universal"


class TestRejection:
    def test_corrupted_answers_are_rejected_not_returned(self, random_system):
        system = random_system(n_elements=20, n_sets=12, seed=2)
        with chaos(FaultConfig(corrupt_marginal=1.0, seed=1)):
            result = resilient_solve(
                system, k=4, s_hat=1.0, chain=("cwsc", "universal")
            )
        prov = provenance(result)
        assert stage_status(prov)["cwsc"] == "rejected"
        assert prov["stage"] == "universal"
        assert result.feasible
        assert verify_result(
            system, result, k=prov["k_bound"], s_hat=prov["coverage_target"]
        ) == []

    def test_lp_rounding_answer_over_k_is_rejected(self):
        """§III rounding may pick more than k sets; the request's k binds
        it anyway. On this table, seed 0 rounds to 11 sets at k = 10."""
        system = build_set_system(load_dataset("lbl:250@2"), "max")
        result = resilient_solve(
            system, k=10, s_hat=0.7,
            chain=("lp_rounding", "cwsc", "universal"), seed=0,
        )
        prov = provenance(result)
        assert len(result.set_ids) <= 10
        assert stage_status(prov)["lp_rounding"] == "rejected"
        assert prov["stage"] == "cwsc"
        assert verify_result(system, result, k=10, s_hat=0.7) == []


class TestDeadlines:
    def test_spent_deadline_skips_to_universal(self, random_system):
        system = random_system(n_elements=15, n_sets=10)
        result = resilient_solve(system, k=4, s_hat=1.0, timeout=1e-9)
        prov = provenance(result)
        assert prov["stage"] == "universal"
        statuses = stage_status(prov)
        for name in ("exact", "lp_rounding", "cwsc", "cmc"):
            assert statuses[name] in ("skipped", "timeout")
        assert result.feasible

    def test_generous_timeout_is_invisible(self, random_system):
        system = random_system(n_elements=12, n_sets=8)
        timed = resilient_solve(system, k=4, s_hat=0.9, timeout=120.0)
        plain = resilient_solve(system, k=4, s_hat=0.9)
        assert timed.set_ids == plain.set_ids
        assert provenance(timed)["stage"] == provenance(plain)["stage"]


class TestDegradation:
    def test_on_failure_partial_returns_infeasible_best_effort(self):
        system = bmc_adversarial_system(k=3, c=2, big_c=4)
        result = resilient_solve(
            system, k=1, s_hat=1.0, chain=("cwsc",), on_failure="partial"
        )
        assert not result.feasible
        prov = provenance(result)
        assert prov["stage"] == "best_partial"
        # The claims on the degraded result are rebuilt, not trusted.
        assert result.covered == system.coverage_of(result.set_ids)

    def test_on_failure_raise_attaches_partial(self):
        system = bmc_adversarial_system(k=3, c=2, big_c=4)
        with pytest.raises(InfeasibleError) as excinfo:
            resilient_solve(
                system, k=1, s_hat=1.0, chain=("cwsc",), on_failure="raise"
            )
        partial = excinfo.value.partial
        assert partial is not None
        assert not partial.feasible

    def test_universal_reports_infeasible_without_full_cover_set(self):
        system = bmc_adversarial_system(k=3, c=2, big_c=4)
        result = resilient_solve(
            system, k=3, s_hat=1.0, chain=("universal",)
        )
        statuses = stage_status(provenance(result))
        assert statuses["universal"] == "infeasible"
        assert not result.feasible


class TestValidation:
    def test_unknown_stage_rejected(self, random_system):
        system = random_system()
        with pytest.raises(ValidationError, match="unknown chain stage"):
            resilient_solve(system, k=3, s_hat=0.5, chain=("magic",))

    def test_empty_chain_rejected(self, random_system):
        with pytest.raises(ValidationError):
            resilient_solve(random_system(), k=3, s_hat=0.5, chain=())

    def test_bad_k_raises_once_not_per_stage(self, random_system):
        with pytest.raises(ValidationError):
            resilient_solve(random_system(), k=0, s_hat=0.5)

    def test_bad_timeout_rejected(self, random_system):
        with pytest.raises(ValidationError):
            resilient_solve(random_system(), k=3, s_hat=0.5, timeout=0.0)

    def test_unknown_backend_rejected(self):
        # The chain takes no tracker backend, so a resilient request
        # that names one fails validation before dispatch.
        from repro.resilience.pool.worker import check_request_fields

        with pytest.raises(ValidationError, match="unknown key"):
            check_request_fields("resilient", None, {"backend": "set"}, None)

    def test_negative_retries_rejected(self, random_system):
        with pytest.raises(ValidationError):
            resilient_solve(random_system(), k=3, s_hat=0.5, max_retries=-1)

    def test_malformed_chaos_env_fails_fast(self, random_system, monkeypatch):
        # Even when no stage in the chain has a fault hook (exact),
        # a typo'd REPRO_CHAOS must surface immediately, not be ignored.
        from repro.resilience import faults

        monkeypatch.setenv("REPRO_CHAOS", "explode=1")
        previous = faults._ACTIVE
        faults._ACTIVE = faults._UNSET
        try:
            with pytest.raises(ValidationError, match="REPRO_CHAOS"):
                resilient_solve(
                    random_system(), k=3, s_hat=0.5, chain=("exact",)
                )
        finally:
            faults._ACTIVE = previous

    def test_strict_mode_validates_the_system(self, random_system):
        from repro.core.setsystem import SetSystem

        bad = SetSystem.from_iterables(3, [{0, 1, 2}], [float("inf")])
        with pytest.raises(ValidationError):
            resilient_solve(bad, k=1, s_hat=0.5, strict=True)
        # Same call without strict still degrades gracefully.
        result = resilient_solve(bad, k=1, s_hat=0.5, strict=False)
        assert provenance(result)["stage"] is not None
