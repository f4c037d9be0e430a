"""Result-byte pins: the repository's fixed point.

Two layers of canonical digests (SHA-256 over ``RunRecord.canonical_json()``)
that any change must keep unless it deliberately changes results:

* :class:`TestKernelByteIdentity` — a 9-node reference scenario per protocol,
  with failures and with mobility.  Captured from the pre-optimisation kernel
  (commit f2d426e) and unchanged by every fast path since.
* :class:`TestFixedPoint` — every job of the bench-scale grids that figures
  6, 8, 12 and 13 and all four headline claims read, run through the
  2-worker pool: one digest over fig06 in job order (``55d17124…``, unmoved
  since the kernel fast paths landed) plus one digest per job, so a drift
  names the matrix, grid point and protocol that moved.
* :class:`TestChurnPins` — transient failures and step mobility together at
  64 nodes (perfbench's ``churn`` jobs at seed 1), where failed receivers
  and moved zones meet the zone-wide ADV fan-out.

A moved digest means simulation results changed, not just performance:
treat it as a correctness bug or as a deliberate, documented semantics
change that re-pins here.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments import figures
from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.executor import execute_jobs
from repro.experiments.matrix import get_matrix
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


#: Bench-scale grids behind figures 6, 8, 12 and 13 and every headline claim.
HEADLINE_MATRICES = ("fig06", "fig12-mobility", "fig13-cluster", "fig13-cluster-failures")

#: SHA-256 over ``"\n".join(canonical_json())`` of the fig06 jobs in
#: expansion order.
FIG06_JOB_ORDER_DIGEST = (
    "55d17124399a4bdcab5799eb132a79c24eae32d6046f8a5b0b6556b4282f1c57"
)

#: SHA-256 of each job's ``canonical_json()``, in expansion order.
JOB_DIGESTS = {
    "fig06/num_nodes=16/spms":
        "24846f9938310dfd748ee296fa0fe0c9bffc7a03548986d2729187790f838642",
    "fig06/num_nodes=16/spin":
        "851cb208dbf046160db82fd9625fa923f19c8085a90730ee435230a461e0e060",
    "fig06/num_nodes=36/spms":
        "7cf28f94874d4f338a8b6777bae39e7e2429ff042204521fad26b737cfe1d03d",
    "fig06/num_nodes=36/spin":
        "5f18e053d44f9946c721a422650763a5e6e3831675dcc5b541c5e917c63fa7d5",
    "fig06/num_nodes=64/spms":
        "039d1d52eab91a0ea253693075b1ef0dc85e4098f29c861af7e2ec447a9a974d",
    "fig06/num_nodes=64/spin":
        "7acb42f5a3eb68dec5e6030cce912edd1c0944268c7bedc13719c039d19cd851",
    "fig06/num_nodes=100/spms":
        "cb9f8a24538d8af52c9aa6c5cfa833242a7b0ed5b2340dedbec14c373f20be64",
    "fig06/num_nodes=100/spin":
        "e7f66354396f0582878951c18f4dfb862e38ddc1baaf8624854f3690ab425359",
    "fig06/num_nodes=144/spms":
        "ed5d9dca8e4b0a6d78664facc6174ceb3680d3ffb413e8af9c04dbe765f47d73",
    "fig06/num_nodes=144/spin":
        "113cb9c4c1ce1005f39c53490719f7010cfe456344a3f5224ea292579c85e588",
    "fig12-mobility/transmission_radius_m=10/spms":
        "1a6489dc2d641a5effa45854215a2b0c96b237fe23bbd666822790f3df56116a",
    "fig12-mobility/transmission_radius_m=10/spin":
        "cf8e571cb623d853d8dc4ccdd4dfa6a061d517fc12c8078ef6fff3a84f5636d9",
    "fig12-mobility/transmission_radius_m=15/spms":
        "15b278d1158392ecfad09a85b2627b9ae24bf6a6c5f179c7ab4ff028f732a003",
    "fig12-mobility/transmission_radius_m=15/spin":
        "9f2f84636deeb2bb0b455e25fca757068086e190b62d67eb5f4eab0929e41375",
    "fig12-mobility/transmission_radius_m=20/spms":
        "67b96d0ec9d85787ee7498071bfc3d06c74e38f0983c70e9eda449d36c7ed6b0",
    "fig12-mobility/transmission_radius_m=20/spin":
        "e08e6853e7e27288183d60633e621098d225ae53f79c80eb9804ee4ea40373a2",
    "fig12-mobility/transmission_radius_m=25/spms":
        "fa4aa45ef094ec8b4fe29faa69e949195d2121a04de3a90a06d27fdc6a0a7bbc",
    "fig12-mobility/transmission_radius_m=25/spin":
        "221ba9319fe40e6774a44b6ffa25ae013630db760b29a411d50d115f0a9e6aee",
    "fig12-mobility/transmission_radius_m=30/spms":
        "4e1cdac2fb02cb8e8368016be9ef833216d4cb490d5a70b76c11a8b3321e6d67",
    "fig12-mobility/transmission_radius_m=30/spin":
        "00d438dfca6aa5bbb2d61f8b36394ff82720927c80ec5b6620bbba4ecf420f09",
    "fig13-cluster/transmission_radius_m=10/spms":
        "1e991c0406d3c78ffb38321d0321c324a7de52b1a9cffcc933c7233cd7a5febb",
    "fig13-cluster/transmission_radius_m=10/spin":
        "466573a3fb5784c4ea022a3f7eefbb0427f2bc9afd9ecfd29925f6ec64567045",
    "fig13-cluster/transmission_radius_m=15/spms":
        "28b55536a6e6e429a49ce8f47413aa4d580b3c937ce159861d3e4be6ef94a18f",
    "fig13-cluster/transmission_radius_m=15/spin":
        "aa9ff5e7d1be960edd1592d1c0ca9794cc1e0f921e82c368a9e5e2a29e0fcf36",
    "fig13-cluster/transmission_radius_m=20/spms":
        "8a3b8b007a0b99a68876ae93bcf5c3f60a38a6d6db37a73f58da1d1faa12dddc",
    "fig13-cluster/transmission_radius_m=20/spin":
        "f30cf2277e1ab593e3ef72598c7351054c2848ebf4218a7ba0e0d0a7ec4b1ef6",
    "fig13-cluster/transmission_radius_m=25/spms":
        "6bcc2dab1c83f6aaf8661943aac529785c914311c7730d9658cf864fdb8e43d0",
    "fig13-cluster/transmission_radius_m=25/spin":
        "7e919670ddf140d9e33ea3a070ab46381a8845145cd6a048b4f8cbae23785706",
    "fig13-cluster/transmission_radius_m=30/spms":
        "5d89ec47eae6d3611d8d35d278a92c71f2555832735efb55c88f3ee3af4ddb64",
    "fig13-cluster/transmission_radius_m=30/spin":
        "4a1772342a76293177117f5454c6ae4b64aa2c189c2b9bb9610a10fc185ae56b",
    "fig13-cluster-failures/transmission_radius_m=10/spms":
        "823af0cc088f99acee6f8bb1063d3c903b5cf63ccc37ef116c6fadac739feb0c",
    "fig13-cluster-failures/transmission_radius_m=10/spin":
        "8e4e419d15ddd0ca6fd781f247fd55f33ccce065646fd2226e52e8086787fe0a",
    "fig13-cluster-failures/transmission_radius_m=15/spms":
        "74eb92ce59fd3d32edf905a84791a8848650f46b85cf184ace7c5d8dab531f6c",
    "fig13-cluster-failures/transmission_radius_m=15/spin":
        "003b9dc4ec6276f0064bbab1c88f1f52de36688631a7d398c6afb2463045c70d",
    "fig13-cluster-failures/transmission_radius_m=20/spms":
        "104358d254ac6a28f57cfcf8b9ecc42096361d287c2cd293066857185db2ca18",
    "fig13-cluster-failures/transmission_radius_m=20/spin":
        "5a436d4f9a026e6b248b056bc300e6b7e63b9c1298efc2554fca32377f125f62",
    "fig13-cluster-failures/transmission_radius_m=25/spms":
        "e437117c1d3d00ec34b0e75808cd4c55c0f1a8d5530b1a9686884d361e3bfa95",
    "fig13-cluster-failures/transmission_radius_m=25/spin":
        "f6737e727845498be0b436616d383ff4194eeb9019f4ea9e5ba643cb0dc89e12",
    "fig13-cluster-failures/transmission_radius_m=30/spms":
        "8aee44aa4e21e66d7c2d6e9ca09cd7a3faf81667328aa7e277e4ee7fef4eea01",
    "fig13-cluster-failures/transmission_radius_m=30/spin":
        "0e23d03eb7a2b46d303eedc721eddb84a8ed15fd8c40b7c9d0d3fa651fb647dd",
}


#: SHA-256 of each churn job's ``canonical_json()``: fig12's bench shape at
#: r = 20 m with ``FailureConfig()`` and three step-mobility epochs, seed 1.
#: The same digests are pinned in ``perfbench/digests.json``.
CHURN_JOB_DIGESTS = {
    "churn/transmission_radius_m=20/spms":
        "4d7442dd5ce6886b53905d40892eeb3d30888ab23ad1900f0bb4eea4d64242ac",
    "churn/transmission_radius_m=20/spin":
        "ffb9dae16ccd1875ed0902acc15668720f3e721008d940f67817d0cbc070fa6f",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    return sha256(run_scenario(spec).canonical_json())


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


class TestFixedPoint:
    @pytest.fixture(scope="class")
    def records(self):
        """Every headline-grid record by key, in expansion order.

        Run through the supervised pool, so the pins also hold that
        supervised execution moves no bytes.
        """
        scale = figures.bench_scale()
        jobs = [
            job
            for name in HEADLINE_MATRICES
            for job in get_matrix(name, scale=scale).expand()
        ]
        assert [job.key for job in jobs] == list(JOB_DIGESTS)
        records, report = execute_jobs(jobs, workers=2)
        assert report.quarantined == 0, report.failures
        return {job.key: records[job.key] for job in jobs}

    def test_fig06_job_order_digest(self, records):
        fig06 = [record for key, record in records.items() if key.startswith("fig06/")]
        assert len(fig06) == 10
        assert sha256("\n".join(r.canonical_json() for r in fig06)) == (
            FIG06_JOB_ORDER_DIGEST
        )

    @pytest.mark.parametrize("key", list(JOB_DIGESTS))
    def test_job_digest(self, records, key):
        assert sha256(records[key].canonical_json()) == JOB_DIGESTS[key]


class TestChurnPins:
    @pytest.fixture(scope="class")
    def records(self):
        """The churn jobs' records by key, built as perfbench builds them."""
        base = get_matrix("fig12-mobility")
        matrix = dataclasses.replace(
            base,
            name="churn",
            axes={"transmission_radius_m": (20.0,)},
            failures=FailureConfig(),
            mobility=MobilityConfig(num_epochs=3),
            base_config=dataclasses.replace(base.base_config, seed=1),
        )
        jobs = matrix.expand()
        assert [job.key for job in jobs] == list(CHURN_JOB_DIGESTS)
        return {job.key: run_scenario(job.spec, key=job.key, axes=job.axes) for job in jobs}

    def test_failures_were_injected(self, records):
        assert all(record.failures_injected > 0 for record in records.values())

    @pytest.mark.parametrize("key", list(CHURN_JOB_DIGESTS))
    def test_job_digest(self, records, key):
        assert sha256(records[key].canonical_json()) == CHURN_JOB_DIGESTS[key]
