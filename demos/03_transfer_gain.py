"""Integrated model+instance transfer versus training from scratch.

Loads the pretrained agents from ``02_train_and_similarity.py``, rebuilds
cell 3's agent by copying the selected source's networks and replay
buffer, fine-tunes it in the live network, and compares its reward curve
against a paired-seed scratch agent that sees the exact same environment
randomness.
"""

import json
from pathlib import Path

import numpy as np

from slicetl import harness
from slicetl.agent import Td3Agent
from slicetl.scenario import load_config
from slicetl.transfer import fine_tune, integrated_transfer

OUT = Path("out/train_demo")
if not (OUT / "demo_config.json").exists():
    raise SystemExit("run demos/02_train_and_similarity.py first")

cfg = load_config("smoke3")
meta = json.loads((OUT / "demo_config.json").read_text())
source_id, target_id, seed = meta["source"], 3, meta["seed"]
steps = 400

scenario = cfg.scenario
pretrained = harness.load_pretrained(OUT, scenario.cell_ids, seed)
peers = {i: harness.greedy_policy(pretrained[i])
         for i in scenario.cell_ids if i != target_id}

print(f"integrated transfer: cell {source_id} -> cell {target_id}")

tl_agent = Td3Agent(target_id, scenario.n_slices, cfg.td3,
                    harness._agent_seed(seed, target_id))
integrated_transfer(pretrained[source_id], tl_agent,
                    cfg.transfer.instance_fraction, seed)
print(f"  transferred buffer: {tl_agent.buffer.origin_counts()}")
tl_agent, tl_trace, _ = fine_tune(tl_agent, scenario, peers, steps, seed)

scratch = Td3Agent(target_id, scenario.n_slices, cfg.td3,
                   harness._agent_seed(seed + 1, target_id))
scratch, scratch_trace, _ = fine_tune(scratch, scenario, peers, steps, seed)

print("\nmean reward of cell 3 during fine-tuning (paired env seeds):")
for lo, hi in [(0, 100), (100, 200), (200, 400)]:
    tl_m = tl_trace[lo:hi].mean()
    sc_m = scratch_trace[lo:hi].mean()
    print(f"  steps {lo + 1:>3}-{hi:<3}: transfer {tl_m:.3f} | "
          f"scratch {sc_m:.3f} | gain {tl_m - sc_m:+.3f}")
print(f"\noverall gain: {np.mean(tl_trace - scratch_trace):+.3f} "
      "(positive = transfer helps)")
