"""Canonical digests do not depend on the interpreter or its hash seed.

A fixed sample of specs runs in this process and again in fresh
interpreters started with ``PYTHONHASHSEED=0`` and ``1``; every canonical
digest must match.  In-process pins cannot see an order that follows
``hash()`` of a str (set iteration, a hash-keyed sort) or state left behind
by an earlier test: both move a digest between interpreters while every
pin in one process still holds.  Like ``TestFixedPoint``, each interpreter
runs once and every spec is checked under its own test id, so a failure
names the spec and the hash seed that moved.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    all_to_all_scenario,
    cluster_scenario,
    single_pair_scenario,
)

#: The kernel pins' 9-node configuration, and a 25-node one.
NINE = SimulationConfig(
    num_nodes=9,
    packets_per_node=1,
    transmission_radius_m=15.0,
    grid_spacing_m=5.0,
    seed=11,
)
TWENTY_FIVE = dataclasses.replace(NINE, num_nodes=25)

#: Test id -> spec.  Spec names repeat (three are ``all-to-all/spms``).
SAMPLE = {
    **{
        protocol: all_to_all_scenario(protocol, NINE)
        for protocol in ("flooding", "gossip", "spin", "spms")
    },
    "spms-failures": all_to_all_scenario("spms", NINE, failures=FailureConfig()),
    "spms-mobility": all_to_all_scenario("spms", NINE, mobility=MobilityConfig()),
    "cluster-spms-failures": cluster_scenario("spms", TWENTY_FIVE, failures=FailureConfig()),
    "cluster-spin": cluster_scenario("spin", TWENTY_FIVE),
    "spin-random-waypoint": all_to_all_scenario(
        "spin", NINE, placement="random", mobility=MobilityConfig(model="waypoint")
    ),
    "single-pair-spms-failures": single_pair_scenario(
        "spms", 0, (8,), NINE, failures=FailureConfig()
    ),
}

#: Runs each spec read from stdin (one JSON line each) and prints digests.
CHILD = """
import hashlib, json, sys
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import ScenarioSpec
print(json.dumps([
    hashlib.sha256(run_scenario(ScenarioSpec.from_json(line)).canonical_json().encode()).hexdigest()
    for line in sys.stdin
]))
"""


def digest(spec) -> str:
    return hashlib.sha256(run_scenario(spec).canonical_json().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def in_process():
    return {name: digest(spec) for name, spec in SAMPLE.items()}


@pytest.fixture(scope="module", params=["0", "1"], ids=lambda seed: f"hashseed{seed}")
def fresh_interpreter(request):
    """Test id -> digest, from one fresh interpreter with this hash seed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=request.param)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input="".join(spec.to_json() + "\n" for spec in SAMPLE.values()),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    theirs = json.loads(child.stdout)
    assert len(theirs) == len(SAMPLE)
    return dict(zip(SAMPLE, theirs))


@pytest.mark.parametrize("name", list(SAMPLE))
def test_fresh_interpreter_reproduces_digest(in_process, fresh_interpreter, name):
    assert fresh_interpreter[name] == in_process[name]
