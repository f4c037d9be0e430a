"""Builds and runs one scenario end to end.

:class:`ExperimentRunner` is a :class:`repro.build.builder.SimulationBuilder`:
it inherits construction, which assembles the stack through named,
overridable phases:

    field -> radio -> mac -> network -> routing -> workload -> nodes -> faults

and resolves every component (placement, contention, workload, protocol,
failure/mobility models) through the pluggable component registry.  The
runner adds only the *execution* of the built simulation: scheduling traffic,
driving mobility epochs, starting failure injection and collecting results.

Mobility runs are executed as a sequence of traffic *bursts*: the origination
schedule is split into ``num_epochs + 1`` contiguous groups; after each group
drains, a mobility epoch relocates nodes, the zones are refreshed and (for
SPMS) the routing tables are rebuilt with their energy charged — mirroring the
paper's "once the routing tables converge, the data transmission starts all
over again".
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Mapping, Optional

from repro.build.builder import SimulationBuilder
from repro.build.registry import ComponentRegistry
from repro.experiments.scenarios import ScenarioSpec
from repro.results import RunRecord, spec_fingerprint
from repro.faults.injector import FailureInjector
from repro.workload.base import ScheduledItem


class ExperimentRunner(SimulationBuilder):
    """Builds one scenario run (inherited) and executes it.

    Args:
        spec: The scenario to run.
        registry: Optional component registry override (tests register
            throwaway plugins in private registries).
    """

    def __init__(
        self, spec: ScenarioSpec, registry: Optional[ComponentRegistry] = None
    ) -> None:
        super().__init__(spec, registry=registry)
        self.injector: Optional[FailureInjector] = None

    # ---------------------------------------------------------------------- run

    def run_record(
        self,
        key: Optional[str] = None,
        axes: Optional[Mapping[str, object]] = None,
    ) -> RunRecord:
        """Execute the scenario and return its canonical :class:`RunRecord`.

        Args:
            key: Stable run identity for the record (sweep job key, batch
                name); defaults to the scenario name.
            axes: Grid coordinates of the run when it came from a matrix.
        """
        started = time.perf_counter()
        self.build()
        assert self.sim is not None and self.metrics is not None
        if self.spec.mobility is not None:
            self._run_with_mobility()
        else:
            self._schedule_burst(self.schedule)
            self._start_failures(self._schedule_horizon(self.schedule))
            self.sim.run(until=self.config.max_sim_time_ms)
        return self._collect(key, axes, wall_time_s=time.perf_counter() - started)

    # ----------------------------------------------------------- traffic bursts

    def _schedule_burst(self, items: List[ScheduledItem], base_time: Optional[float] = None) -> None:
        """Schedule a group of originations, shifted so none lies in the past."""
        assert self.sim is not None and self.metrics is not None
        if not items:
            return
        base = items[0].time_ms if base_time is None else base_time
        offset = self.sim.now
        for scheduled in items:
            fire_at = offset + max(0.0, scheduled.time_ms - base)
            self.metrics.record_item_generated(
                scheduled.item.item_id, fire_at, scheduled.interested
            )
            self.sim.schedule_at(
                fire_at,
                lambda s=scheduled: self.nodes[s.source].originate(s.item),
                name="workload.originate",
            )

    def _schedule_horizon(self, items: List[ScheduledItem]) -> float:
        if not items:
            return self.spec.settle_margin_ms
        span = items[-1].time_ms - items[0].time_ms
        return (self.sim.now if self.sim else 0.0) + span + self.spec.settle_margin_ms

    def _start_failures(self, horizon_ms: float) -> None:
        if self.spec.failures is None:
            return
        assert self.sim is not None and self.network is not None and self.field is not None
        model = self.failure_model
        assert model is not None
        self.injector = FailureInjector(
            sim=self.sim,
            target=self.network,
            model=model,
            candidates=self.field.node_ids,
            horizon_ms=max(horizon_ms, self.sim.now + 1.0),
        )
        self.injector.start()

    def _run_with_mobility(self) -> None:
        assert self.sim is not None and self.field is not None and self.zone_map is not None
        mobility = self.spec.mobility
        assert mobility is not None
        model = self.mobility_model
        assert model is not None
        bursts = self._split_bursts(self.schedule, mobility.num_epochs + 1)
        for index, burst in enumerate(bursts):
            self._schedule_burst(burst)
            if index == 0:
                self._start_failures(self._schedule_horizon(self.schedule))
            self.sim.run(until=self.config.max_sim_time_ms)
            if index < len(bursts) - 1:
                model.apply_epoch(self.sim.rng)
                self.zone_map.refresh()
                if self.routing is not None:
                    self.routing.build(exclude_nodes=self.network.failed_nodes)

    @staticmethod
    def _split_bursts(items: List[ScheduledItem], parts: int) -> List[List[ScheduledItem]]:
        if parts <= 1 or not items:
            return [items]
        size = math.ceil(len(items) / parts)
        return [items[i : i + size] for i in range(0, len(items), size)]

    # ------------------------------------------------------------------ results

    def _collect(
        self,
        key: Optional[str],
        axes: Optional[Mapping[str, object]],
        wall_time_s: float,
    ) -> RunRecord:
        assert self.metrics is not None and self.sim is not None
        metrics = self.metrics
        routing_rebuilds = self.routing.rebuilds if self.routing is not None else 0
        return RunRecord(
            key=key if key is not None else self.spec.name,
            protocol=self.protocol,
            scenario=self.spec.name,
            spec_fingerprint=spec_fingerprint(self.spec),
            seed=self.config.seed,
            num_nodes=self.config.num_nodes,
            transmission_radius_m=self.config.transmission_radius_m,
            summary=metrics.summarize(),
            axes=dict(axes) if axes else {},
            routing_rebuilds=routing_rebuilds,
            routing_energy_uj=metrics.energy.category_total("routing"),
            sim_time_ms=self.sim.now,
            failures_injected=self.injector.failures_injected if self.injector else 0,
            wall_time_s=wall_time_s,
        )

    def raw_metrics(self) -> Dict[str, object]:
        """Raw per-run metrics for an optional :class:`RunStore` blob.

        Everything a :class:`~repro.results.RunRecord` deliberately drops:
        the individual per-delivery delays, the per-node energy totals and
        the reception counters.  Callers pass this to
        :meth:`repro.results.RunStore.append` when the run directory should
        keep the full detail for later lazy inspection.
        """
        assert self.metrics is not None
        return {
            "delays_ms": self.metrics.delay.all_delays(),
            "energy_per_node_uj": {
                str(node): value
                for node, value in sorted(self.metrics.energy.per_node.items())
            },
            "traffic": self.metrics.traffic_summary(),
        }


def run_scenario(
    spec: ScenarioSpec,
    key: Optional[str] = None,
    axes: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Build, run and return the canonical :class:`RunRecord` of *spec*."""
    return ExperimentRunner(spec).run_record(key=key, axes=axes)
