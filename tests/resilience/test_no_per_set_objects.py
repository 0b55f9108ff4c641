"""A served solve never builds the per-set ``WeightedSet`` objects.

The daemon decodes each ``/solve`` system into a lean CSR system
(:func:`repro.resilience.pool.protocol.system_from_payload`), and every
stage of the default chain reads the CSR: the LP through its reduced
view, the trackers' tie-break keys through ``label_of``, and CWSC's
``full_cover`` fallback through the sizes and costs.
"""

import json

import pytest

from repro.core.setsystem import WeightedSet
from repro.datasets import load_dataset
from repro.patterns import build_set_system
from repro.resilience import faults
from repro.resilience.chain import resilient_solve
from repro.resilience.pool.protocol import system_from_payload, system_to_payload

#: The (k, s_hat) pairs every served system is posted with in the
#: ``serve-solve`` benchmark.
PAIRS = ((5, 0.3), (10, 0.5), (10, 0.7), (20, 0.5))


@pytest.fixture(scope="module")
def served_system():
    system = build_set_system(load_dataset("lbl:600@4"), "max")
    return system_from_payload(
        json.loads(json.dumps(system_to_payload(system)))
    )


@pytest.mark.parametrize("k, s_hat", PAIRS)
def test_served_solve_builds_no_weighted_set(
    served_system, monkeypatch, k, s_hat
):
    monkeypatch.setattr(faults, "_ACTIVE", faults._UNSET)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    built = []
    original = WeightedSet.__init__

    def spy(self, *args, **kwargs):
        built.append(args[:1] or kwargs.get("set_id"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(WeightedSet, "__init__", spy)
    result = resilient_solve(served_system, k, s_hat)
    assert result.feasible
    assert built == []
