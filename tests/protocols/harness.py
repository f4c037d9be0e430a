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
  ``on_adv`` hook, which skips receivers whose cache holds the advertised
  name, reverts to per-receiver ``received_copy`` + ``on_packet`` dispatch,
  holders included;
* ``Network.LINK_TABLE`` — the per-(sender, receiver) power-level cache and
  the link table (per sender, power level and packet size: the reserved
  nodes, contention, backoff window, airtime, processing delay and transmit
  energy) revert to a per-packet distance computation and level scan,
  ``SensorField.neighbors_within``, ``MacDelayModel.timing`` (whose
  ``randrange`` backoff the table's ``getrandbits`` loop must match draw for
  draw), ``EnergyModel.tx_cost``/``rx_cost`` and ``EnergyLedger.charge``;
* descriptor interning — :meth:`DataDescriptor.intern` constructs a fresh
  instance per call (which also routes ``intern_descriptor`` and every
  workload through plain construction), so nothing ever compares by
  identity;
* matrix-form routing — :class:`~repro.routing.manager.RoutingManager`
  builds its tables with
  :class:`~repro.routing.bellman_ford.NaiveDistributedBellmanFord` (the
  retained per-message dict-of-dicts exchange) instead of the numpy
  min-plus :class:`~repro.routing.bellman_ford.DistributedBellmanFord`.

Every switch goes through :func:`patch_switch`, which checks it on entry,
before the body runs: the switch must still be an attribute its owner
defines itself (a renamed or deleted switch would silently compare the
fast path against itself), and a class swapped for its naive twin must
expose the same public callables with equal signatures
(:func:`check_twin`).  ``test_oracle_contract.py`` runs both checks
against bad fixtures and asserts that ``oracle_mode()`` flips every
ALL_CAPS ``bool`` toggle a sim-layer class defines.
"""

from __future__ import annotations

import contextlib
import inspect
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.metadata import DataDescriptor
from repro.core.network import Network
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioSpec
from repro.routing import manager as routing_manager_module
from repro.routing.bellman_ford import NaiveDistributedBellmanFord


def _construct_fresh(cls, name):
    return cls(name)


#: ``(owner, attribute, oracle value)`` for every fast path ``oracle_mode()``
#: disables; the owner is the class or module that defines the attribute.
ORACLE_SWITCHES: Tuple[Tuple[Any, str, Any], ...] = (
    (Network, "ADV_FAST_PATH", False),
    (Network, "LINK_TABLE", False),
    (DataDescriptor, "intern", classmethod(_construct_fresh)),
    (routing_manager_module, "DistributedBellmanFord", NaiveDistributedBellmanFord),
)


def check_twin(fast: type, naive: type) -> None:
    """Raise ``TypeError`` unless both classes expose the same public surface.

    The surface is every public callable (inherited ones included) with its
    :func:`inspect.signature`.  A method only one side has, or one the two
    sides declare differently, would make oracle-mode runs fail or diverge
    for a reason that has nothing to do with the fast path's semantics.
    """

    def surface(cls: type) -> Dict[str, inspect.Signature]:
        return {
            name: inspect.signature(getattr(cls, name))
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    fast_surface, naive_surface = surface(fast), surface(naive)
    problems = []
    for name in sorted(fast_surface.keys() | naive_surface.keys()):
        if name not in naive_surface:
            problems.append(f"{naive.__name__} is missing {name}()")
        elif name not in fast_surface:
            problems.append(f"{naive.__name__}.{name}() has no {fast.__name__} twin")
        elif fast_surface[name] != naive_surface[name]:
            problems.append(
                f"{naive.__name__}.{name}{naive_surface[name]} differs from "
                f"{fast.__name__}.{name}{fast_surface[name]}"
            )
    if problems:
        raise TypeError(
            f"oracle twin {naive.__name__} does not match {fast.__name__}: "
            + "; ".join(problems)
        )


def patch_switch(owner: Any, attr: str, value: Any) -> Any:
    """Set ``owner.attr = value`` and return the fast-path value it replaced.

    Raises ``AttributeError`` naming ``owner.attr`` when *owner* does not
    define *attr* itself, and :func:`check_twin`'s ``TypeError`` when a
    class is swapped for a twin with a different surface; in both cases
    nothing is patched.
    """
    if attr not in vars(owner):
        raise AttributeError(
            f"oracle switch {owner.__name__}.{attr} does not exist; was the "
            "fast path renamed? oracle_mode() would compare it against itself"
        )
    fast = vars(owner)[attr]
    if isinstance(fast, type) and isinstance(value, type):
        check_twin(fast, value)
    setattr(owner, attr, value)
    return fast


@contextlib.contextmanager
def oracle_mode():
    """Run the body with every protocol-layer fast path disabled."""
    saved = []
    try:
        for owner, attr, value in ORACLE_SWITCHES:
            saved.append((owner, attr, patch_switch(owner, attr, value)))
        yield
    finally:
        for owner, attr, fast in reversed(saved):
            setattr(owner, attr, fast)


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
    channel_waits: Optional[Tuple[float, int]]


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
        # With a channel model: how long transmissions waited for the medium.
        channel_waits=(
            None
            if runner.channel is None
            else (runner.channel.total_wait_ms, runner.channel.deferred_transmissions)
        ),
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
