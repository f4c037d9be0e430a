"""Determinism regressions.

Two guarantees are pinned here:

* **Bit-reproducibility** — running the same scenario spec twice (same seed)
  yields byte-identical serialised metric summaries, for every protocol.
* **Execution-mode independence** — a parallel sweep (worker pool) yields
  byte-identical results to the serial sweep of the same matrix, because
  every job is self-contained and carries its own derived seed.
"""

import pytest

from repro.experiments.config import FailureConfig, SimulationConfig
from repro.experiments.executor import assemble_sweep, execute_jobs
from repro.experiments.matrix import matrix_from_axes
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import all_to_all_scenario
from repro.sim.rng import spawn_seed

PROTOCOLS = ("spms", "spin", "flooding", "gossip")


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        num_nodes=9,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=11,
    )


class TestProtocolDeterminism:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_same_seed_byte_identical_summaries(self, protocol, config):
        first = run_scenario(all_to_all_scenario(protocol, config))
        second = run_scenario(all_to_all_scenario(protocol, config))
        assert first.canonical_json() == second.canonical_json()

    @pytest.mark.parametrize("protocol", ("spms", "spin"))
    def test_same_seed_byte_identical_with_failures(self, protocol, config):
        spec = all_to_all_scenario(protocol, config, failures=FailureConfig())
        assert run_scenario(spec).canonical_json() == run_scenario(spec).canonical_json()

    def test_different_seeds_differ(self, config):
        first = run_scenario(all_to_all_scenario("spms", config))
        reseeded = config.with_overrides(seed=config.seed + 1)
        second = run_scenario(all_to_all_scenario("spms", reseeded))
        # Delay depends on random MAC backoff, so a different seed must move it.
        assert first.average_delay_ms != second.average_delay_ms


class TestSpawnSeeds:
    def test_spawn_seed_deterministic_and_distinct(self):
        a = spawn_seed(1, "fig06/num_nodes=16/spms")
        assert a == spawn_seed(1, "fig06/num_nodes=16/spms")
        assert a != spawn_seed(1, "fig06/num_nodes=16/spin")
        assert a != spawn_seed(2, "fig06/num_nodes=16/spms")

    def test_stream_registry_spawns_independent_children(self):
        from repro.sim.rng import RandomStreams

        parent = RandomStreams(7)
        child_a, child_b = parent.spawn("shard", 0), parent.spawn("shard", 1)
        assert child_a.master_seed == RandomStreams(7).spawn("shard", 0).master_seed
        assert child_a.master_seed != child_b.master_seed
        assert child_a.master_seed != parent.master_seed
        # Same stream name in different children yields different sequences.
        assert child_a.stream("mac").random() != child_b.stream("mac").random()

    def test_matrix_spawn_policy_gives_each_job_its_own_seed(self, config):
        matrix = matrix_from_axes(
            "determinism", "num_nodes", (9, 16), base_config=config
        )
        seeds = [job.spec.config.seed for job in matrix.expand()]
        assert len(set(seeds)) == len(seeds)
        # Derived from the base seed + job key, so stable across expansions.
        assert seeds == [job.spec.config.seed for job in matrix.expand()]


class TestParallelEqualsSerial:
    def test_worker_pool_matches_serial_byte_for_byte(self, config):
        matrix = matrix_from_axes(
            "determinism-pool",
            "num_nodes",
            (9, 16),
            protocols=("spms", "spin"),
            base_config=config,
        )
        jobs = matrix.expand()
        serial, _ = execute_jobs(jobs, workers=1)
        parallel, report = execute_jobs(jobs, workers=4)
        assert report.workers == 4
        assert set(serial) == set(parallel)
        for key in serial:
            # Canonical form: everything but the measured wall time, which
            # legitimately differs between byte-identical runs.
            assert serial[key].canonical_json() == parallel[key].canonical_json(), key
        serial_sweep = assemble_sweep(jobs, serial)
        parallel_sweep = assemble_sweep(jobs, parallel)
        serial_rows = serial_sweep.rows("energy_per_item_uj")
        assert serial_rows == parallel_sweep.rows("energy_per_item_uj")
        assert serial_sweep.format_table("average_delay_ms") == (
            parallel_sweep.format_table("average_delay_ms")
        )
