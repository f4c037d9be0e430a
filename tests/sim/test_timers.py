"""Tests for cancellable/restartable timers."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import Timer


class TestTimer:
    def test_timer_expires_after_timeout(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 2.5, lambda: fired.append(sim.now))
        timer.start()
        sim.run()
        assert fired == [2.5]
        assert timer.expirations == 1

    def test_cancel_prevents_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(1))
        timer.start()
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancellations == 1

    def test_restart_extends_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 5.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(3.0, timer.restart)
        sim.run()
        assert fired == [8.0]

    def test_start_twice_raises(self):
        sim = Simulator()
        timer = Timer(sim, 1.0, lambda: None)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_start_with_custom_duration(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(duration=4.0)
        sim.run()
        assert fired == [4.0]

    def test_running_and_expires_at(self):
        sim = Simulator()
        timer = Timer(sim, 2.0, lambda: None)
        assert not timer.running
        assert timer.expires_at is None
        timer.start()
        assert timer.running
        assert timer.expires_at == pytest.approx(2.0)
        sim.run()
        assert not timer.running

    def test_cancel_idle_timer_is_noop(self):
        sim = Simulator()
        timer = Timer(sim, 2.0, lambda: None)
        timer.cancel()
        assert timer.cancellations == 0

    def test_timer_can_be_reused_after_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run()
        timer.start()
        sim.run()
        assert fired == [1.0, 2.0]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Timer(sim, -1.0, lambda: None)

    def test_nan_timeout_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Timer(Simulator(), float("nan"), lambda: None)

    def test_nan_duration_rejected_and_not_counted(self):
        sim = Simulator()
        timer = Timer(sim, 1.0, lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            timer.start(float("nan"))
        assert not timer.running
        assert timer.starts == 0
        assert sim.pending_events == 0
