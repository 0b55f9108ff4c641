"""Pinned answers on the paper's ``max`` cost, and the packed kernel at n = 10^5.

The solvers are deterministic, so a bench cell's answer quality does not
need a tolerance: each answer is pinned set for set and bit for bit,
checked against the contract its solver promises (Theorems 4 and 5), and
its cost is held at or above the LP relaxation at that contract's
target, so an approximation ratio below 1 fails here.

The baselines and the greedy fallback always run on the packed kernel,
so the backend-equivalence property tests never see their loops; their
answers and work counters are pinned here instead.

The lattice-pruned solvers and the incremental maintainer work on the
table behind the same system; their patterns and work counters are
pinned too. ``optimized_cmc`` answers differ from enumerated CMC, so no
equivalence test covers it.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    budgeted_max_coverage,
    max_coverage,
    weighted_set_cover,
)
from repro.core import cmc, cmc_epsilon, cwsc, verify_result
from repro.core.fallbacks import greedy_partial
from repro.core.guarantees import contract
from repro.core.lp_bound import lp_lower_bound
from repro.core.lp_rounding import lp_rounding
from repro.core.packed import packed_layout
from repro.datasets import load_dataset
from repro.extensions.incremental import IncrementalCWSC
from repro.patterns import build_set_system
from repro.patterns.optimized_cmc import optimized_cmc
from repro.patterns.optimized_cwsc import optimized_cwsc

K = 10
S_HAT = 0.5

#: solver, keyword arguments, then its answer on ``lbl:1200@7``:
#: set ids in selection order and total cost.
PINNED = (
    ("cwsc", {}, (9912, 6648, 9938, 9895), 6.65),
    ("cmc", {}, (6648, 9100, 9938, 15258, 9981, 10954, 9912), 4.0427),
    ("cmc_epsilon", {"eps": 0.5}, (6648, 9100, 9912, 9938, 15258, 9981), 3.55),
)
SOLVERS = {"cwsc": cwsc, "cmc": cmc, "cmc_epsilon": cmc_epsilon}

#: Baseline, its call, then its answer on ``lbl:1200@7``: set ids in
#: selection order, total cost, covered elements, and the metrics
#: counters (sets_considered, marginal_updates, budget_rounds,
#: selections). The budgeted call has the shape of the Section III
#: instance: the budget of a known k-set answer (the ``cwsc`` pin's
#: cost) and room for c k sets with c = 3.
PINNED_BASELINES = (
    (
        "weighted_set_cover",
        lambda system: weighted_set_cover(system, S_HAT),
        (6664, 6682, 9912, 6648, 9938, 9895), 6.779999999999999, 724,
        (16_440, 22_444, 1, 6),
    ),
    (
        "max_coverage",
        lambda system: max_coverage(system, K),
        (0,), 74.6466, 1200,
        (16_440, 37_200, 1, 1),
    ),
    (
        "budgeted_max_coverage",
        lambda system: budgeted_max_coverage(
            system, budget=6.65, max_sets=3 * K
        ),
        (6664, 6682, 9912, 6648, 9938, 13993, 15258, 8296, 9981, 9923,
         9100, 9931, 8305, 13355), 6.59, 461,
        (16_440, 14_291, 1, 14),
    ),
    (
        "greedy_partial",
        lambda system: greedy_partial(system, K, S_HAT),
        (6664, 6682, 9912, 6648, 9938, 9895), 6.779999999999999, 724,
        (16_440, 22_444, 1, 6),
    ),
    (
        "lp_rounding",
        lambda system: lp_rounding(system, K, S_HAT, seed=0),
        (6648, 9895), 6.0, 724,
        (0, 0, 1, 0),
    ),
    # At s = 0.9 the roundings fall short and the greedy repair runs.
    (
        "lp_rounding_repair",
        lambda system: lp_rounding(system, K, 0.9, seed=0),
        (22, 586, 2648, 6648, 8284, 9895, 13979, 15244, 1851, 9087,
         13365, 13770), 49.1513, 1080,
        (49_320, 100_440, 1, 36),
    ),
)

_CMC_LABELS = (
    "Pattern('domain', ALL, ALL, ALL, ALL)",
    "Pattern('http', ALL, ALL, 'REJ', ALL)",
    "Pattern('http', ALL, ALL, 'S0', ALL)",
    "Pattern('ftp-data', ALL, ALL, 'REJ', ALL)",
    "Pattern('smtp', ALL, ALL, 'REJ', ALL)",
)

#: Lattice solver, its call on the ``lbl:1200@7`` table, then its answer:
#: ``str`` of each pattern in selection order, ``repr`` of the total
#: cost, covered rows, and the metrics counters (sets_considered,
#: selections, marginal_updates, budget_rounds). ``cmc_cli`` is the call
#: ``scwsc solve --algorithm cmc`` makes with its defaults.
PINNED_LATTICE = (
    (
        "optimized_cwsc",
        lambda table: optimized_cwsc(
            table, K, S_HAT, on_infeasible="full_cover"
        ),
        (
            "Pattern('http', ALL, ALL, 'REJ', ALL)",
            "Pattern('domain', ALL, ALL, ALL, ALL)",
            "Pattern('http', ALL, ALL, 'S0', ALL)",
            "Pattern('http', ALL, ALL, ALL, ALL)",
        ),
        "6.65", 724,
        (86, 4, 141, 1),
    ),
    (
        "optimized_cmc_cli",
        lambda table: optimized_cmc(table, K, S_HAT, b=1.0, eps=1.0),
        _CMC_LABELS + ("Pattern('http', ALL, ALL, 'SH', ALL)",),
        "3.55", 390,
        (6867, 20, 1310, 3),
    ),
    (
        "optimized_cmc_standard",
        lambda table: optimized_cmc(table, K, S_HAT),
        _CMC_LABELS + ("Pattern('http', ALL, ALL, 'SH', ALL)",),
        "3.55", 390,
        (8668, 23, 1354, 3),
    ),
    (
        "optimized_cmc_generalized",
        lambda table: optimized_cmc(table, K, S_HAT, l=0.5),
        _CMC_LABELS + ("Pattern('http', ALL, ALL, 'RSTO', ALL)",),
        "3.8", 395,
        (8930, 34, 1537, 3),
    ),
)

#: ``IncrementalCWSC`` over the same table sorted by ``(repr(endstate),
#: row id)``: built on the first 600 rows, then fed three batches of 200.
#: Per ŝ: the final patterns, ``repr`` of their cost, covered rows, the
#: maintenance stats (kept, repaired, recomputed, repair_failures) and
#: the accumulated metrics counters as in ``PINNED_LATTICE``.
PINNED_INCREMENTAL = (
    (
        0.5,
        (
            "Pattern('domain', ALL, ALL, 'REJ', ALL)",
            "Pattern('http', ALL, ALL, 'REJ', ALL)",
            "Pattern('domain', ALL, ALL, ALL, ALL)",
            "Pattern('http', ALL, ALL, 'S0', ALL)",
            "Pattern('smtp', ALL, ALL, 'REJ', ALL)",
            "Pattern('http', ALL, ALL, 'RSTO', ALL)",
            "Pattern('pop', ALL, ALL, 'REJ', ALL)",
            "Pattern('ftp-data', ALL, ALL, 'REJ', ALL)",
            "Pattern('http', ALL, ALL, ALL, ALL)",
        ),
        "9.0", 780,
        (2, 1, 0, 0),
        (279, 9, 290, 2),
    ),
    (
        0.7,
        (
            "Pattern('http', ALL, ALL, 'REJ', ALL)",
            "Pattern('domain', ALL, ALL, ALL, ALL)",
            "Pattern('http', ALL, ALL, 'S0', ALL)",
            "Pattern('http', ALL, ALL, ALL, ALL)",
            "Pattern('smtp', ALL, ALL, 'REJ', ALL)",
            "Pattern('ftp-data', ALL, ALL, 'REJ', ALL)",
            "Pattern('nntp', ALL, ALL, 'REJ', ALL)",
            "Pattern('pop', ALL, ALL, ALL, ALL)",
        ),
        "11.8", 846,
        (2, 0, 1, 0),
        (1115, 18, 533, 3),
    ),
)

#: ``data`` plus ``dense`` bytes of the packed layout of ``lbl:100000@7``
#: (``max`` cost, 451 266 sets) when this test was written.
LARGE_LAYOUT_BYTES = 17_905_184


@pytest.fixture(scope="module")
def lbl_1200_table():
    return load_dataset("lbl:1200@7")


@pytest.fixture(scope="module")
def lbl_1200(lbl_1200_table):
    return build_set_system(lbl_1200_table, "max")


def lattice_counters(metrics):
    return (
        metrics.sets_considered,
        metrics.selections,
        metrics.marginal_updates,
        metrics.budget_rounds,
    )


class TestPinnedAnswers:
    def test_instance_is_the_papers_cost(self, lbl_1200):
        assert lbl_1200.n_sets == 16_440

    @pytest.mark.parametrize(
        "name, kwargs, set_ids, total_cost", PINNED, ids=[p[0] for p in PINNED]
    )
    def test_answer_is_pinned_and_keeps_its_contract(
        self, lbl_1200, name, kwargs, set_ids, total_cost
    ):
        result = SOLVERS[name](lbl_1200, k=K, s_hat=S_HAT, **kwargs)
        assert result.set_ids == set_ids
        assert result.n_sets == len(set_ids)
        assert result.total_cost == total_cost
        promised = contract(result.algorithm, K, S_HAT, result.params)
        assert verify_result(
            lbl_1200, result, k=promised.max_sets, s_hat=promised.coverage
        ) == []
        bound = lp_lower_bound(lbl_1200, promised.max_sets, promised.coverage)
        assert result.total_cost >= bound

    @pytest.mark.parametrize(
        "name, call, set_ids, total_cost, covered, counters",
        PINNED_BASELINES,
        ids=[p[0] for p in PINNED_BASELINES],
    )
    def test_baseline_answer_is_pinned(
        self, lbl_1200, name, call, set_ids, total_cost, covered, counters
    ):
        result = call(lbl_1200)
        assert result.set_ids == set_ids
        assert result.total_cost == total_cost
        assert result.covered == covered
        metrics = result.metrics
        assert (
            metrics.sets_considered,
            metrics.marginal_updates,
            metrics.budget_rounds,
            metrics.selections,
        ) == counters


    @pytest.mark.parametrize(
        "name, call, labels, total_cost, covered, counters",
        PINNED_LATTICE,
        ids=[p[0] for p in PINNED_LATTICE],
    )
    def test_lattice_answer_is_pinned(
        self, lbl_1200_table, name, call, labels, total_cost, covered,
        counters,
    ):
        result = call(lbl_1200_table)
        assert tuple(str(label) for label in result.labels) == labels
        assert repr(result.total_cost) == total_cost
        assert result.covered == covered
        assert result.feasible
        assert lattice_counters(result.metrics) == counters

    @pytest.mark.parametrize(
        "s_hat, labels, total_cost, covered, stats, counters",
        PINNED_INCREMENTAL,
        ids=[f"s{p[0]}" for p in PINNED_INCREMENTAL],
    )
    def test_incremental_sequence_is_pinned(
        self, lbl_1200_table, s_hat, labels, total_cost, covered, stats,
        counters,
    ):
        table = lbl_1200_table
        endstate = table.attributes.index("endstate")
        order = sorted(
            range(table.n_rows),
            key=lambda row_id: (repr(table.rows[row_id][endstate]), row_id),
        )
        maintainer = IncrementalCWSC(table.take(order[:600]), K, s_hat)
        for start in (600, 800, 1000):
            result = maintainer.add_records(
                table.take(order[start:start + 200])
            )
            assert result.feasible
        assert tuple(str(label) for label in result.labels) == labels
        assert repr(result.total_cost) == total_cost
        assert result.covered == covered
        maintained = maintainer.stats
        assert (
            maintained.kept,
            maintained.repaired,
            maintained.recomputed,
            maintained.repair_failures,
        ) == stats
        assert lattice_counters(result.metrics) == counters


class TestLargeN:
    def test_packed_kernel_at_n_1e5(self):
        system = build_set_system(load_dataset("lbl:100000@7"), "max")
        assert (system.n_elements, system.n_sets) == (100_000, 451_266)
        layout = packed_layout(system)
        dense = 0 if layout.dense is None else layout.dense.nbytes
        assert layout.data.nbytes + dense < 2 * LARGE_LAYOUT_BYTES
        for solver in (cwsc, cmc):
            result = solver(system, k=K, s_hat=S_HAT)
            promised = contract(result.algorithm, K, S_HAT, result.params)
            assert verify_result(
                system, result, k=promised.max_sets, s_hat=promised.coverage
            ) == []
