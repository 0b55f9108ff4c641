"""Admission control in isolation: caps and shed reasons."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.serve import ServeConfig
from repro.serve.admission import AdmissionController


def make_controller(**overrides) -> AdmissionController:
    overrides.setdefault("port", 0)
    return AdmissionController(ServeConfig(**overrides))


class TestAdmissionController:
    def test_admits_within_all_caps(self):
        controller = make_controller()
        decision = controller.try_admit()
        assert decision.admitted
        assert decision.reason is None
        assert controller.inflight == 1

    def test_global_inflight_cap_sheds(self):
        controller = make_controller(max_inflight=2)
        assert controller.try_admit().admitted
        assert controller.try_admit().admitted
        decision = controller.try_admit()
        assert not decision.admitted
        assert decision.reason == "inflight"
        assert decision.retry_after > 0

    def test_release_restores_capacity(self):
        controller = make_controller(max_inflight=1)
        assert controller.try_admit().admitted
        assert not controller.try_admit().admitted
        controller.release()
        assert controller.try_admit().admitted

    def test_queue_depth_cap_sheds(self):
        controller = make_controller(max_queue_depth=2)
        decision = controller.try_admit(queue_depth=2)
        assert not decision.admitted
        assert decision.reason == "queue"

    def test_draining_sheds_everything(self):
        controller = make_controller()
        controller.start_draining()
        decision = controller.try_admit()
        assert decision.reason == "draining"

    def test_batch_admission_is_all_or_nothing(self):
        controller = make_controller(max_inflight=4)
        assert controller.try_admit(n=3).admitted
        assert controller.try_admit(n=2).reason == "inflight"
        assert controller.try_admit(n=1).admitted
        controller.release(n=3)
        controller.release(n=1)
        assert controller.inflight == 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            make_controller().try_admit(n=0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ServeConfig(port=0, max_inflight=0)
        with pytest.raises(ValidationError):
            ServeConfig(port=0, default_deadline=10.0, max_deadline=5.0)
        with pytest.raises(ValidationError):
            ServeConfig(port=0, max_queue_depth=-1)
        with pytest.raises(ValidationError):
            ServeConfig(port=0, read_timeout=0.0)
