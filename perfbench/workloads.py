"""The four benchmark workloads: config, measured harness call, expected
call counts, and output checks.

Every workload runs a builtin config changed only through
``dataclasses.replace`` and hands the harness nothing but that config, the
seed and an output directory. Budgets are reduced from the shipped ones so
one measured call takes 0.5 to 1.5 seconds on one undisturbed core,
which lets a run take the median of many calls.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from slicetl import harness, scenario
from slicetl.scenario import load_config
from layers import LABELS, LAYER_FUNCTIONS
from tracer import Target


def trace_targets() -> list[Target]:
    return [
        Target(f"{m}.{f}", sys.modules[f"slicetl.{m}"], f)
        for m, fns in LAYER_FUNCTIONS.items() for f in fns
    ]


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "slicetl" or name.startswith("slicetl."))]


def _matmul_flops(params, x, passes: int) -> int:
    rows = 1 if np.ndim(x) == 1 else len(x)
    return 2 * passes * rows * sum(w.shape[0] * w.shape[1] for w in params.weights)


# Matmul operations (2 per multiply-add) from argument shapes; a backward
# pass does two matmuls per layer (weight and input gradients).
FLOP_COUNTERS = {
    "nn.mlp_forward": lambda params, x: _matmul_flops(params, x, 1),
    "nn.mlp_logits": lambda params, x: _matmul_flops(params, x, 1),
    "nn.mlp_backward": lambda params, cache, output_gradient:
        _matmul_flops(params, output_gradient, 2),
}


class CheckFailed(Exception):
    """A workload's outputs failed a correctness check."""


@dataclass
class Prepared:
    """A workload ready to run: what the measured call does and must produce."""

    call: Callable[[Path], object]
    cells: int
    slots: int  # network slots stepped inside one measured call
    expected_calls: dict[str, int]
    check: Callable[[Path], dict]


# ---------------------------------------------------------------------------
# Expected call counts, derived from the config alone.
# ---------------------------------------------------------------------------


def _eligible_slots(buffer_start: int, slots: int, capacity: int, batch: int) -> int:
    """Slots of a loop at which the buffer (one add per slot) can fill a batch."""

    return sum(1 for t in range(1, slots + 1)
               if min(capacity, buffer_start + t) >= batch)


def _td3_counts(td3, agents_train_calls: list[int], select_actions: int) -> dict[str, int]:
    updates = sum(agents_train_calls)
    policy = sum(n // td3.policy_delay for n in agents_train_calls)
    return {
        "agent.select_action": select_actions,
        "agent.train_step": updates,
        "agent.ReplayBuffer.sample": updates,
        "agent.soft_update": 3 * policy,
        "nn.mlp_logits": select_actions + updates,
        "nn.mlp_forward": 4 * updates + 2 * policy,
        "nn.mlp_backward": 2 * updates + 2 * policy,
        "nn.adam_step": 2 * updates + policy,
    }


def _counts(nonzero: dict[str, int]) -> dict[str, int]:
    """Expected calls of every traced function; unlisted ones must be zero."""

    unknown = set(nonzero) - set(LABELS)
    if unknown:
        raise KeyError(f"not traced: {sorted(unknown)}")
    return {label: nonzero.get(label, 0) for label in LABELS}


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The harness writes some numpy scalars with repr(), which under numpy 2
# reads "np.float64(x)" and does not round-trip through float(). The check
# reads the number inside and counts such values, so the defect shows in
# every record without failing the run.
NUMPY_REPR = re.compile(r"np\.float64\(([^)]*)\)")


def check_metrics_csv(path: Path, records: int, n_slices: int) -> int:
    """Row count, finite values, and one simplex action per (t, cell) record.

    Returns the number of values written in numpy's scalar repr.
    """

    text = path.read_text()
    numpy_reprs = len(NUMPY_REPR.findall(text))
    rows = list(csv.reader(NUMPY_REPR.sub(r"\1", text).splitlines()))
    if rows[0][:3] != ["t", "cell", "slice"] or rows[0][7] != "share":
        raise CheckFailed(f"{path.name}: unexpected header {rows[0]}")
    if len(rows) - 1 != records * n_slices:
        raise CheckFailed(
            f"{path.name}: {len(rows) - 1} rows, expected {records * n_slices}")
    values = np.array(rows[1:], dtype=np.float64).reshape(records, n_slices, -1)
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path.name}: non-finite value")
    if np.any(values[:, :, :2] != values[:, :1, :2]):
        raise CheckFailed(f"{path.name}: a record's rows disagree on (t, cell)")
    if np.any(values[:, :, 2] != np.arange(n_slices)):
        raise CheckFailed(f"{path.name}: slices out of order")
    shares = values[:, :, 7]
    if np.any(shares < 0) or np.any(np.abs(shares.sum(axis=1) - 1.0) > 1e-9):
        raise CheckFailed(f"{path.name}: shares off the simplex")
    return numpy_reprs


def _run_meta(out: Path) -> dict:
    meta = json.loads((out / "run_meta.json").read_text())
    if meta.get("diverged", {}):
        raise CheckFailed(f"diverged agents: {meta['diverged']}")
    return meta


def _satisfaction(meta: dict) -> float:
    value = meta["mean_satisfaction"]
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckFailed(f"mean_satisfaction {value} outside [0, 1]")
    return value


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def _train_smoke3(seed: int, work: Path) -> Prepared:
    base = load_config("smoke3")
    cfg = dataclasses.replace(
        base,
        phases=dataclasses.replace(base.phases, exploration=40, training=30,
                                   evaluation=30),
        similarity=dataclasses.replace(base.similarity, steps=20),
    )
    k, n = cfg.scenario.n_cells, cfg.scenario.n_slices
    p, td3 = cfg.phases, cfg.td3
    d = cfg.similarity.steps
    learning = p.exploration + p.training
    eligible = _eligible_slots(p.exploration, p.training, td3.buffer_capacity,
                               td3.batch_size)
    slots = d + learning + p.evaluation
    expected = _counts({
        "env.step": slots, "env.init_network": 3,
        "runner.assemble_all_states": slots + 3, "runner.record_step": slots,
        "agent.ReplayBuffer.add": k * learning,
        "agent.ReplayBuffer.export": k, "agent.save_agent": k,
        "harness.rollout": 2, "harness.evaluate_policies": 1,
        "harness.write_metrics_csv": 1, "harness.save_trace": 1,
    })
    expected.update(_td3_counts(td3, [td3.updates_per_step * eligible] * k,
                                k * (p.training + p.evaluation)))

    def check(out: Path) -> dict:
        meta = _run_meta(out)
        if "diverged" not in meta:
            raise CheckFailed("run_meta.json has no 'diverged' record")
        reprs = check_metrics_csv(out / "metrics.csv", k * (learning + p.evaluation), n)
        return {"eval_satisfaction": _satisfaction(meta), "numpy_repr_values": reprs}

    return Prepared(lambda out: harness.run_madrl(cfg, seed, out),
                    k, slots, expected, check)


def _baseline_full12(seed: int, work: Path) -> Prepared:
    base = load_config("full12")
    cfg = dataclasses.replace(
        base, phases=dataclasses.replace(base.phases, evaluation=600))
    k, n = cfg.scenario.n_cells, cfg.scenario.n_slices
    v = cfg.phases.evaluation
    expected = _counts({
        "env.step": v, "env.peek_demands": v, "env.init_network": 1,
        "runner.assemble_all_states": v + 1, "runner.record_step": v,
        "harness.rollout": 1, "harness.evaluate_policies": 1,
        "harness.write_metrics_csv": 1,
    })

    def check(out: Path) -> dict:
        meta = _run_meta(out)
        reprs = check_metrics_csv(out / "metrics.csv", k * v, n)
        return {"eval_satisfaction": _satisfaction(meta), "numpy_repr_values": reprs}

    return Prepared(lambda out: harness.run_baseline(cfg, seed, out),
                    k, v, expected, check)


def requirement_groups() -> dict[int, tuple]:
    """Cell id -> requirement targets, which define the cell's group."""

    return {c.cell_id: c.requirements for c in scenario.full_scenario().cells}


def _similarity_full12(seed: int, work: Path) -> Prepared:
    base = load_config("full12")
    cfg = dataclasses.replace(
        base, similarity=dataclasses.replace(base.similarity, epochs=20))
    sim = cfg.similarity
    ids = list(cfg.scenario.cell_ids)
    target = sim.target if sim.target is not None else ids[-1]
    agents = ids if sim.candidates is None else [target, *sim.candidates]
    pooled = len(agents) * sim.steps  # every slot of the trace is a default action
    batches = sim.epochs * math.ceil(pooled / sim.batch_size)
    expected = _counts({
        "env.step": sim.steps, "env.init_network": 1,
        "runner.assemble_all_states": sim.steps + 1, "runner.record_step": sim.steps,
        "nn.mlp_forward": 2 * batches + pooled, "nn.mlp_backward": 2 * batches,
        "nn.adam_step": 2 * batches,
        "similarity.collect_default_samples": len(agents),
        "similarity.vae_train": 1, "similarity.encode_samples": len(agents),
        "similarity.compute_distance_matrix": 1,
        "harness.rollout": 1, "harness.save_trace": 1,
    })
    groups = requirement_groups()

    def check(out: Path) -> dict:
        meta = _run_meta(out)
        source = meta["selected_source"]
        if groups[source] != groups[target]:
            raise CheckFailed(f"source {source} is outside target {target}'s group")
        with open(out / "distances.csv", newline="") as fh:
            dist = {int(r["source"]): float(r["distance"]) for r in csv.DictReader(fh)}
        same = [v for c, v in dist.items() if groups[c] == groups[target]]
        other = [v for c, v in dist.items() if groups[c] != groups[target]]
        if not (same and other) or not all(map(math.isfinite, dist.values())):
            raise CheckFailed(f"distances.csv does not cover both groups: {dist}")
        return {"similarity_margin": float(np.mean(other) / np.mean(same)),
                "selected_source": source}

    return Prepared(lambda out: harness.run_similarity(cfg, seed, out),
                    len(ids), sim.steps, expected, check)


def _transfer_smoke3(seed: int, work: Path) -> Prepared:
    base = load_config("smoke3")
    artifacts_cfg = dataclasses.replace(
        base,
        phases=dataclasses.replace(base.phases, exploration=64, training=32,
                                   evaluation=10),
        similarity=dataclasses.replace(base.similarity, steps=10),
    )
    artifacts = work / "artifacts"
    harness.run_madrl(artifacts_cfg, seed, artifacts)
    cfg = dataclasses.replace(
        base,
        phases=dataclasses.replace(base.phases, tl_training=60, evaluation=50),
        transfer=dataclasses.replace(base.transfer, source=1,
                                     artifacts=str(artifacts)),
    )
    k, n = cfg.scenario.n_cells, cfg.scenario.n_slices
    f, v, td3 = cfg.phases.tl_training, cfg.phases.evaluation, cfg.td3
    stored = min(td3.buffer_capacity,
                 artifacts_cfg.phases.exploration + artifacts_cfg.phases.training)
    moved = math.ceil(cfg.transfer.instance_fraction * stored)
    tl_updates = td3.updates_per_step * _eligible_slots(
        moved, f, td3.buffer_capacity, td3.batch_size)
    scratch_updates = td3.updates_per_step * _eligible_slots(
        0, f, td3.buffer_capacity, td3.batch_size)
    expected = _counts({
        "env.step": 2 * f + v, "env.init_network": 3,
        "runner.assemble_all_states": 2 * (f + 1) + v + 1,
        "runner.record_step": f + v,
        "agent.ReplayBuffer.add": k * stored + moved + 2 * f,
        "agent.ReplayBuffer.load": k, "agent.load_agent": k, "agent.save_agent": 1,
        "transfer.instance_transfer": 1, "transfer.integrated_transfer": 1,
        "transfer.fine_tune": 2,
        "harness.rollout": 1, "harness.evaluate_policies": 1,
        "harness.write_metrics_csv": 1, "harness.load_pretrained": 1,
    })
    expected.update(_td3_counts(td3, [tl_updates, scratch_updates],
                                k * 2 * f + k * v))

    def check(out: Path) -> dict:
        meta = _run_meta(out)
        reprs = check_metrics_csv(out / "metrics.csv", k * (f + v), n)
        with open(out / "gain.csv", newline="") as fh:
            gains = [float(r["gain"]) for r in csv.DictReader(fh)]
        if len(gains) != f or not all(map(math.isfinite, gains)):
            raise CheckFailed(f"gain.csv: {len(gains)} rows or non-finite gain, "
                              f"expected {f} finite rows")
        return {"eval_satisfaction": _satisfaction(meta),
                "tl_gain_mean": float(np.mean(gains)), "numpy_repr_values": reprs}

    return Prepared(lambda out: harness.run_transfer(cfg, seed, out),
                    k, 2 * f + v, expected, check)


WORKLOADS = {
    "train_smoke3": _train_smoke3,
    "baseline_full12": _baseline_full12,
    "similarity_full12": _similarity_full12,
    "transfer_smoke3": _transfer_smoke3,
}

DIGESTED = ("metrics.csv", "gain.csv", "distances.csv")


def prepare(name: str, seed: int, work: Path) -> Prepared:
    return WORKLOADS[name](seed, work)


def digests(out: Path) -> dict[str, str]:
    return {f: sha256(out / f) for f in DIGESTED if (out / f).exists()}
