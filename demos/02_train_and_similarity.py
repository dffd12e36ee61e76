"""Train the per-cell TD3 agents on a reduced budget, then run the
VAE-latent similarity analysis to pick a transfer source for cell 3.

Cell 3 is configured identically to cell 1 and differently from cell 2,
so the latent KL distance should point at cell 1. Artifacts land in
``out/train_demo`` and are reused by ``03_transfer_gain.py``.

Runtime: about half a minute. For the full-budget version use the CLI:
    slicetl train --config smoke3 --out out/train_full
"""

import dataclasses
import json
from pathlib import Path

from slicetl import harness
from slicetl.scenario import Phases, load_config

OUT = Path("out/train_demo")

cfg = load_config("smoke3")
cfg = dataclasses.replace(
    cfg,
    phases=Phases(exploration=500, training=1000, evaluation=100,
                  tl_training=400),
    td3=dataclasses.replace(cfg.td3, updates_per_step=2),
)

print("training 3 agents (reduced budget)...")
result = harness.run_madrl(cfg, seed=1, out=OUT)
evaluation = result.evaluation
print(f"  eval mean satisfaction: {evaluation.rewards.mean():.3f}")
print(f"  eval mean worst-slice delay: {evaluation.delay.max(axis=-1).mean():.2f} ms")

print("\nsimilarity analysis (shared default-action trace + pooled VAE):")
sim_cfg = dataclasses.replace(cfg, similarity=dataclasses.replace(
    cfg.similarity, trace=str(OUT / "default_trace.npz")))
distances, source = harness.run_similarity(sim_cfg, seed=1, out=OUT / "similarity")
for cand, dist in sorted(distances.entries.items()):
    marker = "  <- selected" if cand == source else ""
    print(f"  distance(cell {cand} -> cell {distances.target}): "
          f"{dist:.1f}{marker}")

(OUT / "demo_config.json").write_text(
    json.dumps({"seed": 1, "source": source}, indent=2)
)
print(f"\nartifacts in {OUT}/ (checkpoints/, buffers/, default_trace.npz)")
