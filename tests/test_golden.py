"""Golden bytes: baseline and default-action artifacts must not change.

The digests below were recorded from the per-cell simulator that preceded
the array slot path (numpy 2.4, little-endian float64). None of these
artifacts involves a matrix product, so they do not depend on the BLAS
kernel. A change that alters them changes the simulator's numbers and must
say so.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from slicetl import harness
from slicetl.agent import OPTIMIZED, Td3Agent, Td3Config, load_agent, save_agent
from slicetl.scenario import ExperimentConfig, Phases, load_config

from .test_env import MIXED_DEGREE

SEED = 7
BUDGETS = {"smoke3": (60, 40), "full12": (25, 30)}  # evaluation slots, trace slots

GOLDEN = {
    "smoke3": {
        "metrics.csv": "80e134570aaf26257202a75eaa35b3cc9a86c9ce9a6ca4a104f0bcb5fd9546df",
        "cdf_throughput.csv": "f7e7fca032fe9203fe86527db9694cb4c788fb664d1a9dca1f1c69178c1c88e8",
        "cdf_delay.csv": "9ebf774a3e64e35b1f2387c33165d680f6221cc2e41fdb538f4ce06b7b836be2",
        "default_trace.npz": "814db666c59eb4d31c57f446e8a5ad8fc0059c4ea37228a53d3f0c7310f3894c",
    },
    "full12": {
        "metrics.csv": "1bdd7be6716c0a75d93d931e78fa9fa5953d431e74a8cb6c462af619e20f3470",
        "cdf_throughput.csv": "26781deaeb47002796a6b29154a97f619ab751adab498b0341f36f02eefa01c9",
        "cdf_delay.csv": "daa66beeadbc638e45effa4da23498c5202a897f665c13770bf3eafc0a131217",
        "default_trace.npz": "2d2c047222c8dfb9fd023301af7db904fd93d5dc28dd8345fada429df6c47e16",
    },
}

# A 600-slot full12 baseline at seed 1, the run of the baseline_full12
# benchmark workload, recorded before the slot path was cut to fewer numpy
# calls: 7200 cell-slots, so that a rounding change in any one would show.
LONG_BASELINE = {
    "metrics.csv": "bb78da82a5b3d8da321541d3ec62e080245570a08191b2d742f1fdedbc450ce5",
    "cdf_throughput.csv": "55a0cd43a428013ce94baf511a3a83ae1264d469a1dec809241644a599311049",
    "cdf_delay.csv": "4696458fc178460709b92f90c8d02e73d670886eff5d2b1772e60065883687c9",
}

# The mixed-degree graph of the slot-path reference checks at seed 7: a
# 300-slot baseline and a 200-slot default-action trace. The builtins give
# every cell two neighbours, so only this run scatters neighbour groups.
MIXED_DEGREE_BUDGETS = (300, 200)  # evaluation slots, trace slots
MIXED_DEGREE_GOLDEN = {
    "metrics.csv": "0e02b5d562a886a0ef2b9326e4ed5674dcdc7f360891d02b0b6305f5448eb40a",
    "cdf_throughput.csv": "842f0deb042f6d807c44af3201ad2bff9717fd94fa2cc5210e95068a2e500a1d",
    "cdf_delay.csv": "7144bae7b0ffffe2781e4425f28c56a6273983a21fd7a762d776ff3629849f73",
    "default_trace.npz": "155b1741ab68a92797db9479d10f1fb0bd56a6130be2ab50934c7658c2518c31",
}

CHECKPOINT_SHA256 = "9317c150b72cc2d87d6e22315e7186a400a54e8718fecd04a217addbdbe250a0"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_baseline_and_default_trace_bytes(name, tmp_path):
    evaluation, trace_steps = BUDGETS[name]
    cfg = load_config(name)
    cfg = dataclasses.replace(
        cfg, phases=dataclasses.replace(cfg.phases, evaluation=evaluation))
    harness.run_baseline(cfg, SEED, tmp_path)
    harness.default_action_trace(cfg.scenario, trace_steps, SEED, tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in GOLDEN[name]}
    assert digests == GOLDEN[name]


def test_long_full12_baseline_bytes(tmp_path):
    cfg = load_config("full12")
    cfg = dataclasses.replace(cfg, phases=dataclasses.replace(cfg.phases, evaluation=600))
    harness.run_baseline(cfg, 1, tmp_path)
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in LONG_BASELINE} == LONG_BASELINE


def test_mixed_degree_baseline_and_default_trace_bytes(tmp_path):
    evaluation, trace_steps = MIXED_DEGREE_BUDGETS
    cfg = ExperimentConfig(MIXED_DEGREE, phases=Phases(evaluation=evaluation))
    harness.run_baseline(cfg, SEED, tmp_path)
    harness.default_action_trace(MIXED_DEGREE, trace_steps, SEED, tmp_path)
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in MIXED_DEGREE_GOLDEN} == MIXED_DEGREE_GOLDEN


def _checkpoint_agent():
    """A seeded fresh agent with seeded Adam moments. Its init draws only
    ``rng.uniform`` and copies, so the bytes do not depend on the BLAS kernel."""

    agent = Td3Agent(2, 3, Td3Config(), seed=SEED)
    rng = np.random.default_rng(SEED)
    for t, name in enumerate(OPTIMIZED, start=5):
        adam = getattr(agent, f"{name}_adam")
        adam.m[...] = rng.standard_normal(adam.m.size)
        adam.v[...] = rng.uniform(size=adam.v.size)
        adam.t = t
    return agent


def test_checkpoint_v2_bytes(tmp_path):
    """The v2 checkpoint's member names, order, dtypes and values."""

    path = tmp_path / "agent.npz"
    save_agent(_checkpoint_agent(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256
    again = tmp_path / "again.npz"
    save_agent(load_agent(path), again)
    assert again.read_bytes() == path.read_bytes()
