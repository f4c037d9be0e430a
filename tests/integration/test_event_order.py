"""The order in which events fire, pinned.

The fixed-point digests in ``tests/experiments/test_kernel_equivalence.py``
pin results; this file pins the order of the events behind them.  Three
small traced sandboxes together cover what the calendar has to order:

* same-time ties (no random backoff, so many deliveries land on one instant),
* SPMS τ_ADV re-arms, each of which leaves a cancelled event in the calendar,
* a τ_DAT expiry after a node failure, and
* zone-wide ADV batches and unicast REQ/DATA hops, for SPMS and SPIN.

Each fired event is traced as ``(time, label, detail)``; the digest is a
SHA-256 over those triples, in firing order, of every scenario in turn.
"""

import hashlib
from collections import Counter

import pytest

from repro.experiments.sandbox import build_sandbox
from repro.sim.timers import Timer

#: SHA-256 over the ``category == "event"`` trace records of the scenarios
#: below, one ``repr((time, label, detail))`` line per fired event.
EVENT_ORDER_DIGEST = "ac9e946b4bc7a08afc0e302211572d07c279b58dfc0b902944bb92945428ebff"


def _grid(side, spacing_m):
    return [(float(x * spacing_m), float(y * spacing_m)) for y in range(side) for x in range(side)]


def spms_grid(trace):
    """Two items from opposite corners of a 4x4 grid whose zone needs relays.

    Stops once at a horizon with live events beyond it, then runs dry.
    """
    sandbox = build_sandbox(_grid(4, 5.0), protocol="spms", radius_m=12.0, trace=trace)
    sandbox.originate("a", 0, list(range(1, 16)))
    sandbox.originate("b", 15, list(range(15)))
    assert sandbox.run(until=10.0) == 10.0
    sandbox.run()
    return sandbox


def spms_failure(trace):
    """Figure 2's chain A - r1 - r2 - C with r2 down from the start."""
    sandbox = build_sandbox(
        [(i * 5.0, 0.0) for i in range(4)],
        protocol="spms",
        radius_m=20.0,
        trace=trace,
        protocol_options={"tout_adv_ms": 2.0, "tout_dat_ms": 6.0},
    )
    sandbox.originate("item", 0, [1, 2, 3])
    sandbox.network.fail_node(2)
    sandbox.run()
    return sandbox


def spin_grid(trace):
    """One SPIN item from the centre of a 3x3 grid, with random backoff."""
    sandbox = build_sandbox(
        _grid(3, 5.0), protocol="spin", radius_m=12.0, trace=trace, random_backoff=True, seed=5
    )
    sandbox.originate("a", 4, [0, 1, 2, 3, 5, 6, 7, 8])
    sandbox.run()
    return sandbox


SCENARIOS = (spms_grid, spms_failure, spin_grid)


def _events(sandbox):
    return [
        (rec.time, rec.label, rec.detail)
        for rec in sandbox.sim.trace_log
        if rec.category == "event"
    ]


def _kind(label):
    """``spms.tau_adv.3.a`` -> ``spms.tau_adv``; ``deliver.ADV`` stays."""
    return ".".join(label.split(".")[:2])


class TestEventOrder:
    def test_event_order_is_pinned(self):
        lines = [repr(event) for scenario in SCENARIOS for event in _events(scenario(True))]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == EVENT_ORDER_DIGEST

    def test_the_scenarios_cover_what_the_calendar_orders(self, monkeypatch):
        rearms = Counter()
        restart = Timer.restart

        def counting_restart(timer, duration=None):
            if timer.running:
                rearms[_kind(timer.name)] += 1
            restart(timer, duration)

        monkeypatch.setattr(Timer, "restart", counting_restart)
        runs = {scenario.__name__: scenario(True) for scenario in SCENARIOS}
        events = {name: _events(sandbox) for name, sandbox in runs.items()}
        kinds = Counter(_kind(label) for run in events.values() for _, label, _ in run)
        assert {"deliver.ADV", "deliver.REQ", "deliver.DATA"} <= set(kinds)
        for name in ("spms_grid", "spin_grid"):
            times = Counter(time for time, _, _ in events[name])
            assert max(times.values()) > 1, f"{name} has no same-time tie"
        assert rearms["spms.tau_adv"] > 0
        # r2's failure makes C's routed request time out, and C escalates.
        assert "spms.tau_dat" in {_kind(label) for _, label, _ in events["spms_failure"]}
        assert runs["spms_failure"].nodes[3].escalations >= 1

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
    def test_traced_and_untraced_runs_agree(self, scenario):
        traced, plain = scenario(True), scenario(False)
        assert traced.sim.events_processed == plain.sim.events_processed
        assert traced.sim.events_processed == len(_events(traced))
        assert traced.sim.now == plain.sim.now
        assert len(plain.sim.trace_log) == 0
