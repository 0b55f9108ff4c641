"""Unit tests for the candidate pool of the optimized algorithms."""

import pytest

from repro.core.result import Metrics
from repro.patterns.candidates import Candidate, CandidatePool
from repro.patterns.pattern import ALL


def count_cost(rows) -> float:
    rows = list(rows)
    return float(len(rows))


@pytest.fixture
def pool() -> CandidatePool:
    return CandidatePool(count_cost, Metrics())


class TestCandidate:
    def test_fields(self):
        cand = Candidate(("a", ALL), [0, 1, 2], 3.0)
        cand.mben = {0, 1}
        assert cand.mben_size == 2
        assert cand.mgain == pytest.approx(2 / 3)

    def test_zero_cost_gain(self):
        cand = Candidate(("a",), [0], 0.0)
        cand.mben = {0}
        assert cand.mgain == float("inf")
        cand.mben = set()
        assert cand.mgain == 0.0

    def test_sort_key_cached(self):
        cand = Candidate((ALL, "b"), [0], 1.0)
        assert cand.sort_key() is cand.sort_key()


class TestPoolLifecycle:
    def test_materialize_counts_and_computes(self, pool):
        cand = pool.materialize(("a",), [0, 1])
        assert cand.cost == 2.0
        assert cand.mben == {0, 1}
        assert pool._metrics.sets_considered == 1

    def test_materialize_respects_covered(self):
        pool = CandidatePool(count_cost, Metrics(), covered=[0])
        cand = pool.materialize(("a",), [0, 1])
        assert cand.mben == {1}

    def test_add_get_remove(self, pool):
        cand = pool.materialize(("a",), [0])
        pool.add(cand)
        members = pool.members
        assert ("a",) in pool and ("a",) in members
        assert pool.get(("a",)) is cand
        assert len(pool) == 1
        pool.remove(("a",))
        assert pool.get(("a",)) is None
        assert ("a",) not in members  # a live view, not a snapshot

    def test_select_updates_other_candidates(self, pool):
        first = pool.materialize(("a",), [0, 1])
        second = pool.materialize(("b",), [1, 2])
        pool.add(first)
        pool.add(second)
        newly = pool.select(first)
        assert newly == {0, 1}
        assert pool.covered == {0, 1}
        assert pool.get(("b",)).mben == {2}

    def test_select_evicts_emptied(self, pool):
        big = pool.materialize(("a",), [0, 1, 2])
        small = pool.materialize(("b",), [0, 1])
        pool.add(big)
        pool.add(small)
        pool.select(big)
        assert pool.get(("b",)) is None

    def test_prune_archives_and_rehydrates_without_recount(self, pool):
        cand = pool.materialize(("a",), [0, 1, 2])
        pool.add(cand)
        considered = pool._metrics.sets_considered
        pool.prune(lambda c: False)
        assert len(pool) == 0
        revived = pool.materialize(("a",), [0, 1, 2])
        assert revived is cand
        assert pool._metrics.sets_considered == considered

    def test_rehydration_refreshes_marginal(self, pool):
        cand = pool.materialize(("a",), [0, 1, 2])
        pool.add(cand)
        other = pool.materialize(("b",), [0, 1])
        pool.add(other)
        pool.prune(lambda c: c.values == ("b",))
        pool.select(pool.get(("b",)))  # covers {0, 1}
        revived = pool.materialize(("a",), [0, 1, 2])
        assert revived.mben == {2}

    def test_archive_explicit(self, pool):
        cand = pool.materialize(("a",), [0])
        pool.archive(cand)
        assert pool.materialize(("a",), [0]) is cand


class TestSelectionRules:
    def test_best_by_gain(self, pool):
        cheap = pool.materialize(("a",), [0])  # gain 1/1
        wide = pool.materialize(("b",), [1, 2, 3])  # gain 3/3 = 1 (tie)
        pool.add(cheap)
        pool.add(wide)
        # Tie on gain -> larger marginal benefit wins.
        assert pool.best_by_gain() is wide

    def test_best_by_gain_threshold(self, pool):
        # Fig. 3 prunes C to the threshold, then takes the argmax.
        pool.add(pool.materialize(("a",), [0]))
        pool.add(pool.materialize(("b",), [1, 2]))
        pool.prune(lambda candidate: candidate.mben_size >= 2)
        assert pool.best_by_gain().values == ("b",)
        pool.prune(lambda candidate: candidate.mben_size >= 3)
        assert pool.best_by_gain() is None

    def test_ties_broken_by_sort_key(self, pool):
        pool.add(pool.materialize(("b",), [0]))
        pool.add(pool.materialize(("a",), [1]))
        # Same size and cost: the lexicographically smaller key wins.
        assert pool.best_by_gain().values == ("a",)

    def test_empty_pool(self, pool):
        assert pool.best_by_gain() is None
