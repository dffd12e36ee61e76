"""Integrated model+instance transfer versus training from scratch.

Runs ``harness.run_transfer`` on the agents that
``02_train_and_similarity.py`` trained: cell 3's agent starts from the
selected source's networks and replay buffer, is fine-tuned in the live
network, and is compared against a paired-seed scratch agent that sees the
exact same environment randomness. The run's files land in
``out/transfer_demo``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from slicetl import harness
from slicetl.scenario import load_config

TRAIN = Path("out/train_demo")
if not (TRAIN / "demo_config.json").exists():
    raise SystemExit("run demos/02_train_and_similarity.py first")

meta = json.loads((TRAIN / "demo_config.json").read_text())
target_id = 3
cfg = load_config("smoke3")
cfg = dataclasses.replace(
    cfg,
    phases=dataclasses.replace(cfg.phases, tl_training=400),
    similarity=dataclasses.replace(cfg.similarity, target=target_id),
    transfer=dataclasses.replace(cfg.transfer, source=meta["source"],
                                 artifacts=str(TRAIN)),
)

print(f"integrated transfer: cell {meta['source']} -> cell {target_id}")
result = harness.run_transfer(cfg, seed=meta["seed"], out="out/transfer_demo")
tl_trace, scratch_trace = result.tl_trace, result.scratch_trace

print("\nmean reward of cell 3 during fine-tuning (paired env seeds):")
for lo, hi in [(0, 100), (100, 200), (200, 400)]:
    tl_m = tl_trace[lo:hi].mean()
    sc_m = scratch_trace[lo:hi].mean()
    print(f"  steps {lo + 1:>3}-{hi:<3}: transfer {tl_m:.3f} | "
          f"scratch {sc_m:.3f} | gain {tl_m - sc_m:+.3f}")
print(f"\noverall gain: {np.mean(tl_trace - scratch_trace):+.3f} "
      "(positive = transfer helps)")
print(f"eval mean satisfaction after transfer: "
      f"{result.evaluation.rewards.mean():.3f}")
