"""Unit tests for the packed columnar kernel (:mod:`repro.core.packed`)
and the backend registry in :mod:`repro.core.marginal`."""

import random

import numpy as np
import pytest

from repro.core.budget import standard_levels
from repro.core.marginal import (
    KNOWN_BACKENDS,
    MarginalTracker,
    make_tracker,
    resolve_backend,
)
from repro.core.packed import (
    _LAYOUT_CACHE,
    PackedLayout,
    PackedMarginalTracker,
    assign_levels,
    cached_layout,
    packed_layout,
)
from repro.core.result import Metrics
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError


def random_system(rng: random.Random, n_elements: int = 130) -> SetSystem:
    benefits = [
        {rng.randrange(n_elements) for _ in range(rng.randrange(1, 25))}
        for _ in range(rng.randrange(3, 30))
    ]
    benefits.append(set())  # an always-dead set
    costs = [round(rng.uniform(0.5, 9.0), 2) for _ in benefits]
    return SetSystem.from_iterables(n_elements, benefits, costs)


@pytest.fixture
def system() -> SetSystem:
    return SetSystem.from_iterables(
        130,
        benefits=[
            {0, 1, 2, 64, 65},
            {2, 3, 127, 128, 129},
            set(range(60, 70)),
            set(),
            set(range(130)),
        ],
        costs=[3.0, 2.0, 2.0, 1.0, 10.0],
    )


@pytest.fixture
def small_system() -> SetSystem:
    return SetSystem.from_iterables(
        5,
        benefits=[{0, 1, 2}, {2, 3}, {3, 4}, set(), {0, 1, 2, 3, 4}],
        costs=[3.0, 2.0, 2.0, 1.0, 10.0],
    )


class TestPackedLayout:
    def test_coverage_matches_frozenset_union(self, system):
        layout = PackedLayout.build(system)
        for ids in ([], [0], [0, 1], [0, 1, 2, 4], [3]):
            union = frozenset().union(*(system[i].benefit for i in ids))
            assert layout.coverage_of(ids) == len(union)

    def test_elements_roundtrip(self, system):
        layout = PackedLayout.build(system)
        for ws in system.sets:
            got = set(int(e) for e in layout.elements_of(ws.set_id))
            assert got == set(ws.benefit)

    def test_dense_and_csr_forms_agree(self, system):
        dense = PackedLayout.build(system, dense_byte_cap=1 << 30)
        csr = PackedLayout.build(system, dense_byte_cap=0)
        assert dense.dense is not None and csr.dense is None
        for ws in system.sets:
            assert np.array_equal(
                dense.row_words(ws.set_id), csr.row_words(ws.set_id)
            )
        assert np.array_equal(dense.sizes, csr.sizes)

    def test_dense_and_csr_trackers_agree_on_random_systems(self):
        def tracker_packed_with(system, dense_byte_cap):
            # Seed the layout cache, which the tracker reads its layout from.
            _LAYOUT_CACHE[system] = PackedLayout.build(system, dense_byte_cap)
            return PackedMarginalTracker(system)

        rng = random.Random(20)
        for _ in range(15):
            seed = rng.random()
            dense = tracker_packed_with(
                random_system(random.Random(seed)), 1 << 30
            )
            csr = tracker_packed_with(random_system(random.Random(seed)), 0)
            for _ in range(4):
                live = dense.live_ids
                if not live:
                    break
                set_id = rng.choice(live)
                assert dense.select(set_id) == csr.select(set_id)
                assert dense.live_items() == csr.live_items()

    def test_owners_index(self, small_system):
        layout = PackedLayout.build(small_system)
        indptr, data = layout.owners_indptr, layout.owners_data
        assert data[indptr[2]:indptr[3]].tolist() == [0, 1, 4]
        assert data[indptr[4]:indptr[5]].tolist() == [2, 4]

    def test_layout_cache_reused_and_lazy(self, system):
        assert cached_layout(system) is None  # no build on probe
        layout = packed_layout(system)
        assert packed_layout(system) is layout
        assert cached_layout(system) is layout

    def test_layout_cached_per_system(self, system):
        # The cache is keyed by system identity: an equal-content copy
        # builds its own layout and does not see the original's.
        twin = SetSystem.from_iterables(
            system.n_elements,
            [ws.benefit for ws in system.sets],
            [ws.cost for ws in system.sets],
        )
        layout = packed_layout(system)
        assert cached_layout(twin) is None
        twin_layout = packed_layout(twin)
        assert twin_layout is not layout
        assert packed_layout(system) is layout
        assert packed_layout(twin) is twin_layout

    def test_rows_match_benefits(self, system):
        layout = PackedLayout.build(system)
        for ws in system.sets:
            row = layout.row_words(ws.set_id)
            assert row.shape == (layout.n_words,)
            bits = {
                word * 64 + bit
                for word, value in enumerate(row.tolist())
                for bit in range(64)
                if value >> bit & 1
            }
            assert bits == set(ws.benefit)
            assert layout.sizes[ws.set_id] == ws.size


class TestPackedTracker:
    def test_mirrors_set_tracker(self, small_system):
        packed = PackedMarginalTracker(small_system)
        reference = MarginalTracker(small_system)
        assert packed.live_ids == reference.live_ids
        assert packed.select(1) == reference.select(1)
        assert packed.covered == reference.covered
        assert dict(packed.live_items()) == dict(reference.live_items())
        assert packed.marginal_benefit(0) == frozenset({0, 1})

    def test_select_evicted_returns_zero(self, small_system):
        tracker = PackedMarginalTracker(small_system)
        tracker.select(4)  # covers everything; all others evicted
        assert len(tracker) == 0
        assert tracker.select(0) == 0
        assert tracker.covered_count == 5

    def test_full_cover_counts_match_set_backend(self, small_system):
        """Selecting the full-cover set evicts every candidate at once;
        its update total must equal the per-element walk's."""
        packed_metrics, set_metrics = Metrics(), Metrics()
        PackedMarginalTracker(small_system, metrics=packed_metrics).select(4)
        MarginalTracker(small_system, metrics=set_metrics).select(4)
        assert (
            packed_metrics.marginal_updates == set_metrics.marginal_updates
        )

    def test_restrict_to(self, small_system):
        tracker = PackedMarginalTracker(small_system, restrict_to=[0, 1, 3])
        assert tracker.live_ids == [0, 1]

    def test_drop_and_reset(self, small_system):
        tracker = PackedMarginalTracker(small_system)
        tracker.drop(0)
        assert 0 not in tracker
        tracker.reset()
        assert 0 in tracker and tracker.covered_count == 0

    def test_covered_property(self, small_system):
        tracker = PackedMarginalTracker(small_system)
        tracker.select(1)
        assert tracker.covered == frozenset({2, 3})

    def test_elements_with_no_owning_sets(self):
        # Elements 3..255 appear in no set: their owner lists are empty,
        # and selects over the rest still update every live marginal.
        system = SetSystem.from_iterables(
            256, benefits=[{0, 1}, {1, 2}], costs=[1.0, 1.0]
        )
        metrics = Metrics()
        tracker = PackedMarginalTracker(system, metrics=metrics)
        assert tracker.live_ids == [0, 1]
        assert tracker.select(0) == 2
        assert dict(tracker.live_items()) == {1: 1}
        assert tracker.select(1) == 1
        assert tracker.live_ids == [] and tracker.covered_count == 3
        assert tracker.select(0) == 0
        assert metrics.marginal_updates == 1

    def test_negative_zero_cost_has_infinite_gain(self):
        # The set oracle scores any zero-cost set's gain as +inf; 1/-0.0
        # would be -inf, so the layout stores the cost as +0.0.
        from repro.core.cwsc import cwsc

        system = SetSystem.from_iterables(
            3, benefits=[{0, 1, 2}, {0}], costs=[1.5, -0.0]
        )
        assert PackedMarginalTracker(system).marginal_gain(1) == np.inf
        for k in (1, 2):
            assert (
                cwsc(system, k, 0.2, backend="packed").set_ids
                == cwsc(system, k, 0.2, backend="set").set_ids
                == (1,)
            )

    def test_select_decrements_match_overlaps(self, system):
        tracker = PackedMarginalTracker(system)
        before = dict(tracker.live_items())
        picked = system.sets[0].benefit
        assert tracker.select(0) == len(picked)
        after = dict(tracker.live_items())
        for set_id, size in before.items():
            if set_id == 0:
                continue
            overlap = len(system.sets[set_id].benefit & picked)
            assert size - overlap == after.get(set_id, 0)


class TestAssignLevels:
    def test_matches_level_of_reference(self):
        rng = random.Random(7)
        scheme = standard_levels(budget=64.0, k=8)
        costs = np.array(
            [rng.uniform(0.01, 80.0) for _ in range(300)] + [64.0, 0.01]
        )
        levels = assign_levels(costs, scheme)
        for cost, level in zip(costs, levels):
            expected = scheme.level_of(float(cost))
            assert level == (-1 if expected is None else expected)


class TestResolveBackend:
    #: The retired environment override, now ignored.
    RETIRED_ENV = "REPRO_SETCOVER_BACKEND"

    def _sized_system(self, cells_target: int) -> SetSystem:
        # n_elements * n_sets >= cells_target with tiny actual content.
        n_sets = cells_target // 1024 + 1
        return SetSystem.from_iterables(
            1024,
            benefits=[{i % 1024} for i in range(n_sets)],
            costs=[1.0] * n_sets,
        )

    def test_explicit_argument_wins_over_env(self, monkeypatch, small_system):
        from repro.core.cwsc import cwsc

        monkeypatch.setenv(self.RETIRED_ENV, "set")
        assert resolve_backend(small_system) == "packed"
        assert cwsc(small_system, 2, 1.0).params["tracker_backend"] == "packed"
        assert resolve_backend(small_system, "set") == "set"
        monkeypatch.setenv(self.RETIRED_ENV, "packed")
        assert resolve_backend(small_system, "set") == "set"

    def test_auto_large_picks_packed(self):
        system = self._sized_system(1 << 12)
        assert resolve_backend(system) == "packed"

    def test_auto_mid_picks_packed(self):
        # 2**16..2**24 cells: the band that had its own middle backend
        # before the size rule was cut to two tiers.
        for cells in (1 << 16, 1 << 20):
            system = self._sized_system(cells)
            assert system.n_elements * system.n_sets < 1 << 24
            assert resolve_backend(system) == "packed"

    #: The retired middle backend's name, spelled in two parts so the
    #: tree keeps no live reference to it.
    RETIRED = "bit" "set"

    def test_unknown_backend_rejected(self):
        assert KNOWN_BACKENDS == ("packed", "set")
        system = self._sized_system(1)
        for name in ("quantum", self.RETIRED, "auto"):
            with pytest.raises(ValidationError, match="'packed', 'set'"):
                resolve_backend(system, name)
            with pytest.raises(ValidationError):
                make_tracker(system, backend=name)

    def test_make_tracker_types(self, small_system, entities_system):
        assert isinstance(
            make_tracker(small_system, backend="set"), MarginalTracker
        )
        assert isinstance(
            make_tracker(small_system, backend="packed"),
            PackedMarginalTracker,
        )
        # No size rule: Table II's 384 cells get the packed kernel too.
        for system in (small_system, entities_system):
            assert isinstance(make_tracker(system), PackedMarginalTracker)
