"""Property-based equivalence of the packed kernel and the set oracle.

The numpy columnar tracker (:mod:`repro.core.packed`) is a pure
representation change over the inverted-index reference
(:class:`repro.core.marginal.MarginalTracker`): every solver must select
the same sets, report the same costs/coverage, and account the same
metrics counters on both backends. We assert this over random set
systems for CWSC, CMC, and the CMC-(1+eps)k variant, and that the
cost-pruned ``remove_dominated`` keeps exactly the survivors of the
naive frozenset dominance predicate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cmc import cmc
from repro.core.cmc_epsilon import cmc_epsilon
from repro.core.cwsc import cwsc
from repro.core.marginal import MarginalTracker
from repro.core.packed import PackedMarginalTracker
from repro.core.preprocess import remove_dominated
from repro.core.result import Metrics

from tests.property.strategies import set_systems

ks = st.integers(1, 4)
fractions = st.floats(min_value=0.0, max_value=1.0)

EQUIV_BACKENDS = ("set", "packed")


def _run_both(fn, system, **kwargs):
    by_backend = {
        backend: fn(system, backend=backend, **kwargs)
        for backend in EQUIV_BACKENDS
    }
    return by_backend["set"], by_backend


def _assert_identical(set_result, by_backend):
    for result in by_backend.values():
        assert set_result.set_ids == result.set_ids
        assert set_result.labels == result.labels
        assert set_result.total_cost == result.total_cost
        assert set_result.covered == result.covered
        assert set_result.feasible == result.feasible
        assert set_result.metrics.selections == result.metrics.selections
        assert (
            set_result.metrics.marginal_updates
            == result.metrics.marginal_updates
        )
        assert (
            set_result.metrics.budget_rounds
            == result.metrics.budget_rounds
        )
        assert (
            set_result.metrics.sets_considered
            == result.metrics.sets_considered
        )


class TestSolverBackendEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(set_systems(), ks, fractions)
    def test_cwsc_identical(self, system, k, s_hat):
        set_result, by_backend = _run_both(
            cwsc, system, k=k, s_hat=s_hat, on_infeasible="partial"
        )
        _assert_identical(set_result, by_backend)

    @settings(max_examples=60, deadline=None)
    @given(set_systems(), ks, fractions, st.sampled_from([0.5, 1.0, 2.0]))
    def test_cmc_identical(self, system, k, s_hat, b):
        set_result, by_backend = _run_both(
            cmc, system, k=k, s_hat=s_hat, b=b, on_infeasible="partial"
        )
        _assert_identical(set_result, by_backend)
        for backend, result in by_backend.items():
            assert result.params["tracker_backend"] == backend

    @settings(max_examples=60, deadline=None)
    @given(set_systems(), ks, fractions, st.sampled_from([0.25, 1.0]))
    def test_cmc_epsilon_identical(self, system, k, s_hat, eps):
        set_result, by_backend = _run_both(
            cmc_epsilon,
            system,
            k=k,
            s_hat=s_hat,
            eps=eps,
            on_infeasible="partial",
        )
        _assert_identical(set_result, by_backend)


class TestTrackerStepEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(set_systems(), st.randoms(use_true_random=False))
    def test_same_state_after_any_selection_sequence(self, system, rng):
        """Selecting an arbitrary id sequence (including repeats and
        already-evicted sets) leaves both trackers in the same state
        with the same counters."""
        set_metrics = Metrics()
        set_tracker = MarginalTracker(system, metrics=set_metrics)
        others = [PackedMarginalTracker(system, metrics=Metrics())]
        ids = [rng.randrange(system.n_sets) for _ in range(6)]
        for set_id in ids:
            newly = set_tracker.select(set_id)
            for other in others:
                assert newly == other.select(set_id)
                assert dict(set_tracker.live_items()) == dict(
                    other.live_items()
                )
                assert set_tracker.covered == other.covered
                assert set_tracker.covered_count == other.covered_count
        for other in others:
            assert set_metrics.selections == other.metrics.selections
            assert (
                set_metrics.marginal_updates
                == other.metrics.marginal_updates
            )


class TestRemoveDominatedEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(set_systems(ensure_full_cover=False))
    def test_same_survivors_as_frozenset_reference(self, system):
        """The bitmask + cost-pruned scan keeps exactly the sets the
        naive frozenset dominance predicate would keep."""
        reduced = remove_dominated(system)

        reference = []
        order = sorted(
            system.sets, key=lambda ws: (-ws.size, ws.cost, ws.set_id)
        )
        for ws in order:
            if not ws.benefit:
                continue
            if any(
                ws.benefit <= kept.benefit and kept.cost <= ws.cost
                for kept in reference
            ):
                continue
            reference.append(ws)
        reference.sort(key=lambda ws: ws.set_id)
        assert [(ws.benefit, ws.cost) for ws in reduced.sets] == [
            (ws.benefit, ws.cost) for ws in reference
        ]
