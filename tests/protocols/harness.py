"""Differential-testing harness for the protocol-layer fast path (PR 5).

PR 5 is the first PR allowed to change protocol files under the PR-4
byte-identity pins, and this harness is what makes that allowed: every
optimisation in the negotiation/dissemination layer must keep a *naive
oracle* twin alive, and every registered protocol is run through small
end-to-end scenarios twice — once on the optimized path, once with every
protocol-layer fast path disabled — asserting that both runs are
*observationally identical*: exact metric equality (every counter, every
energy micro-joule, every delivery timestamp), identical RNG stream
positions, and byte-identical ``RunRecord.canonical_json()``.

:func:`oracle_mode` disables, for the duration of a ``with`` block:

* ``Network.ADV_FAST_PATH`` — zone-batched ADV fan-out through the lean
  ``on_adv`` hook reverts to per-receiver ``received_copy`` + ``on_packet``
  dispatch;
* ``Network.UNICAST_LEVEL_CACHE`` — the per-(sender, receiver) power-level
  cache reverts to a distance computation + level scan per unicast;
* the indexed :class:`~repro.core.cache.DataCache` — protocol nodes are
  built with :class:`~repro.core.cache.NaiveDataCache` (the retained
  pre-optimisation implementation: linear coverage scans, no memo);
* descriptor interning — :meth:`DataDescriptor.intern` constructs a fresh
  instance per call (which also routes ``intern_descriptor`` and every
  workload through plain construction), so nothing ever compares by
  identity;
* matrix-form routing — :class:`~repro.routing.manager.RoutingManager`
  builds its tables with
  :class:`~repro.routing.bellman_ford.NaiveDistributedBellmanFord` (the
  retained per-message dict-of-dicts exchange) instead of the numpy
  min-plus :class:`~repro.routing.bellman_ford.DistributedBellmanFord`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core import node_base as node_base_module
from repro.core.cache import NaiveDataCache
from repro.core.metadata import DataDescriptor
from repro.core.network import Network
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioSpec
from repro.routing import manager as routing_manager_module
from repro.routing.bellman_ford import NaiveDistributedBellmanFord


@contextlib.contextmanager
def oracle_mode():
    """Run the body with every protocol-layer fast path disabled."""
    saved_adv = Network.ADV_FAST_PATH
    saved_levels = Network.UNICAST_LEVEL_CACHE
    saved_cache = node_base_module.DataCache
    saved_intern = DataDescriptor.__dict__["intern"]
    saved_dbf = routing_manager_module.DistributedBellmanFord
    Network.ADV_FAST_PATH = False
    Network.UNICAST_LEVEL_CACHE = False
    node_base_module.DataCache = NaiveDataCache
    DataDescriptor.intern = classmethod(
        lambda cls, name, region=None: cls(name, region)
    )
    routing_manager_module.DistributedBellmanFord = NaiveDistributedBellmanFord
    try:
        yield
    finally:
        Network.ADV_FAST_PATH = saved_adv
        Network.UNICAST_LEVEL_CACHE = saved_levels
        node_base_module.DataCache = saved_cache
        DataDescriptor.intern = saved_intern
        routing_manager_module.DistributedBellmanFord = saved_dbf


@dataclass(frozen=True)
class Observation:
    """Everything one scenario run exposes that byte-identity is stated over.

    ``canonical_json`` is the public guarantee (what the digest pins hash);
    the remaining fields catch divergences the summarised record could mask
    (a raw counter that moved while the summary stayed equal, an RNG stream
    that drew a different number of values but landed on equal metrics).
    """

    canonical_json: str
    events_processed: int
    final_time_ms: float
    packets_sent: Dict[str, int]
    packets_received: Dict[str, int]
    packets_dropped: Dict[str, int]
    items_generated: int
    expected_deliveries: Dict[str, Tuple[int, ...]]
    energy_per_node: Dict[int, float]
    energy_per_category: Dict[str, float]
    energy_per_node_category: Dict[Tuple[int, str], float]
    origin_times: Dict[str, float]
    deliveries: Dict[Tuple[str, int], float]
    rng_states: Dict[str, tuple]


def observe(spec: ScenarioSpec) -> Observation:
    """Run *spec* end to end and capture the full observable state."""
    runner = ExperimentRunner(spec)
    record = runner.run_record()
    sim = runner.sim
    metrics = runner.metrics
    assert sim is not None and metrics is not None
    return Observation(
        canonical_json=record.canonical_json(),
        events_processed=sim.events_processed,
        final_time_ms=sim.now,
        packets_sent=dict(metrics.packets_sent),
        packets_received=dict(metrics.packets_received),
        packets_dropped=dict(metrics.packets_dropped),
        items_generated=metrics.items_generated,
        expected_deliveries={
            item: tuple(dests) for item, dests in metrics.expected_deliveries.items()
        },
        energy_per_node=dict(metrics.energy.per_node),
        energy_per_category=dict(metrics.energy.per_category),
        energy_per_node_category=dict(metrics.energy._per_node_category),
        origin_times=dict(metrics.delay._origin_times),
        deliveries=dict(metrics.delay._deliveries),
        # Stream *positions*: getstate() equality means both runs drew the
        # exact same sequence from every named stream — an optimisation that
        # skips or reorders a single draw fails here even if the metrics
        # happen to agree.
        rng_states={name: stream.getstate() for name, stream in sim.rng._streams.items()},
    )


def assert_identical(optimized: Observation, oracle: Observation) -> None:
    """Field-by-field equality with a readable failure per field."""
    for field_name in Observation.__dataclass_fields__:
        fast = getattr(optimized, field_name)
        naive = getattr(oracle, field_name)
        assert fast == naive, (
            f"optimized and oracle runs diverge in {field_name}:\n"
            f"  optimized: {fast!r}\n"
            f"  oracle:    {naive!r}"
        )


def run_differential(spec: ScenarioSpec) -> Tuple[Observation, Observation]:
    """Run *spec* on the optimized path and in oracle mode; return both."""
    optimized = observe(spec)
    with oracle_mode():
        oracle = observe(spec)
    return optimized, oracle
