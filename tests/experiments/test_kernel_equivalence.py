"""Kernel-equivalence regressions for the PR-4 fast-path optimisations.

The simulation kernel (slotted events, fused heap pops, memoised MAC timing,
cached energy costs, broadcast receiver caching, slotted packet clones) is
required to leave every metric **byte-identical**.  The digests below were
captured from the pre-optimisation kernel (commit f2d426e) and verified
unchanged by the optimised one; any kernel change that moves a digest is
changing simulation results, not just performance, and must be treated as a
correctness bug (or as a deliberate, documented semantics change).
"""

import hashlib

import pytest

from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import all_to_all_scenario

#: sha256 of `RunRecord.canonical_json()` for the 9-node reference scenario,
#: captured from the pre-optimisation kernel.
PINNED_DIGESTS = {
    "spms": "1e24cd37b4494472aade5262d1501428bb92b26270c5b2738edec4e44a737545",
    "spin": "a5e97fd0316a5f9acd95058e4fe5ae0edbd2345b5d6a57f6651e25a28a41c418",
    "flooding": "802cca8cd5a1020d62e5e4133f4d4300ae4fa08654f03e78f0e7e93cb664acc8",
    "gossip": "8b406c2f20806deb14e18948060d74b11f4f8c934014c677f78d59c9b659d850",
}

#: Same guarantee through the failure injector (drops exercise the delivery
#: fast path's failed-receiver branch) and through mobility epochs (zone
#: refresh must invalidate the broadcast receiver cache).
PINNED_DIGEST_FAILURES = (
    "a5aa58fea46e0cf9be88cd3a0ba52b69d9b5c3e8bc310edc1a7db948ce249e4d"
)
PINNED_DIGEST_MOBILITY = (
    "7a462e924bec7815edda2304b4a1293224edc358a66ffa3463e7b014c4c0772b"
)


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        num_nodes=9,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=11,
    )


def canonical_digest(spec) -> str:
    record = run_scenario(spec)
    return hashlib.sha256(record.canonical_json().encode("utf-8")).hexdigest()


class TestKernelByteIdentity:
    @pytest.mark.parametrize("protocol", sorted(PINNED_DIGESTS))
    def test_canonical_digest_pinned_per_protocol(self, protocol, config):
        assert canonical_digest(all_to_all_scenario(protocol, config)) == (
            PINNED_DIGESTS[protocol]
        )

    def test_canonical_digest_pinned_with_failures(self, config):
        spec = all_to_all_scenario("spms", config, failures=FailureConfig())
        assert canonical_digest(spec) == PINNED_DIGEST_FAILURES

    def test_canonical_digest_pinned_with_mobility(self, config):
        spec = all_to_all_scenario("spms", config, mobility=MobilityConfig())
        assert canonical_digest(spec) == PINNED_DIGEST_MOBILITY

    @pytest.mark.parametrize("protocol", sorted(PINNED_DIGESTS))
    def test_canonical_json_identical_across_runs(self, protocol, config):
        first = run_scenario(all_to_all_scenario(protocol, config))
        second = run_scenario(all_to_all_scenario(protocol, config))
        assert first.canonical_json() == second.canonical_json()
