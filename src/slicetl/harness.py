"""Experiment orchestration: baseline, MADRL training, similarity, transfer.

Each run writes into its own output directory: ``metrics.csv`` (one row per
step/cell/slice), evaluation CDFs, checkpoints/buffers where applicable,
and ``run_meta.json`` echoing the configuration and recording provenance
such as the selected transfer source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import __version__, env as envm, similarity as simm
from .agent import Td3Agent, load_agent, ReplayBuffer, save_agent, select_action
from .csvio import write_csv
from .env import ScenarioConfig, equal_partition
from .errors import DependencyError
from .runner import (
    Act,
    Policy,
    SlotRecord,
    Trace,
    follow,
    learn,
    record_step,
    run_slots,
)
from .scenario import ExperimentConfig, config_to_dict
from .transfer import apply_transfer, fine_tune

TRACE_VERSION = 1
METRICS_HEADER = ("t", "cell", "slice", "throughput", "delay", "load", "ues",
                  "share", "reward")
BLOCK_SLOTS = 64  # slots of metrics.csv formatted at a time


@dataclass
class RunMetrics:
    """Everything a run produced that downstream steps may consume."""

    records: list[SlotRecord]
    eval_records: list[SlotRecord]
    extras: dict


# ---------------------------------------------------------------------------
# CSV / artifact IO
# ---------------------------------------------------------------------------


def _metrics_blocks(records: Sequence[SlotRecord]) -> Iterator[tuple]:
    """The columns of ``metrics.csv``, ``BLOCK_SLOTS`` slots at a time, in
    (slot, cell, slice) row order; the ``t,cell,slice`` text is one column."""

    if not records:
        return
    n = records[0].actions.shape[1]
    cell_slice = np.array([f",{c},{j}" for c in records[0].cells.tolist()
                           for j in range(n)], dtype=object)
    for start in range(0, len(records), BLOCK_SLOTS):
        block = records[start:start + BLOCK_SLOTS]
        t = np.array([str(r.t) for r in block], dtype=object)

        def flat(field: str) -> np.ndarray:
            return np.concatenate([getattr(r, field) for r in block], axis=None)

        yield (
            (t[:, None] + cell_slice).ravel().tolist(), flat("throughput"),
            flat("delay"), flat("load"), flat("ues"), flat("actions"),
            np.repeat(flat("rewards"), n),
        )


def write_metrics_csv(path, records: Sequence[SlotRecord]) -> None:
    """One row per (step, cell, slice) of the slot records of one scenario;
    floats in their shortest round-trip ``repr``."""

    write_csv(path, METRICS_HEADER, _metrics_blocks(records))


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample values and their empirical CDF levels."""

    values = np.sort(np.asarray(values, dtype=np.float64))
    levels = np.arange(1, values.size + 1) / values.size
    return values, levels


def write_cdf_csv(path, values: np.ndarray, column: str) -> None:
    write_csv(path, (column, "cdf"), [empirical_cdf(values)])


def write_run_meta(out: Path, cfg: ExperimentConfig, seed: int, **extra) -> None:
    meta = {
        "slicetl_version": __version__,
        "numpy_version": np.__version__,
        "seed": seed,
        "config": config_to_dict(cfg),
    }
    meta.update(extra)
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def save_trace(path, trace: Trace) -> None:
    np.savez(path, version=np.array(TRACE_VERSION), **trace._asdict())


def load_trace(path) -> Trace:
    path = Path(path)
    if not path.exists():
        raise DependencyError(f"trace file {path} does not exist")
    with np.load(path, allow_pickle=False) as data:
        if int(data["version"]) != TRACE_VERSION:
            raise DependencyError(f"unsupported trace version {data['version']}")
        return Trace(*(data[field] for field in Trace._fields))


# ---------------------------------------------------------------------------
# Policy helpers
# ---------------------------------------------------------------------------


def greedy_policy(agent: Td3Agent) -> Policy:
    return lambda state: select_action(agent, state, explore=False)


def constant_policy(shares: np.ndarray) -> Policy:
    return lambda state: shares


def baseline_act(scenario: ScenarioConfig) -> Act:
    """Act hook of the traffic-aware baseline with perfect demand knowledge.

    Each cell splits its bandwidth in proportion to the demands the coming
    slot will bring, read once per slot from the network's RNG state.
    """

    return lambda t, net_state, states: envm.baseline_shares(
        envm.peek_demands(net_state, scenario))


def rollout(
    scenario: ScenarioConfig, act: Act, steps: int, seed: int
) -> list[SlotRecord]:
    """Run fixed policies for ``steps`` slots and log every cell's metrics."""

    records: list[SlotRecord] = []
    run_slots(scenario, seed, steps, act,
              lambda slot: records.append(record_step(scenario, slot)))
    return records


def default_action_trace(
    scenario: ScenarioConfig, steps: int, seed: int, out: Path
) -> Trace:
    """Rollout in which every cell holds the equal split, so that the
    similarity pipeline has comparable samples from all agents."""

    n = scenario.n_slices
    equal = np.full((scenario.n_cells, n), 1.0 / n)
    equal.flags.writeable = False  # every slot's record shares it
    trace = Trace.of(rollout(scenario, lambda t, net_state, states: equal, steps, seed))
    save_trace(out / "default_trace.npz", trace)
    return trace


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalSummary:
    satisfaction: np.ndarray  # per (step, cell) min-slice satisfaction
    max_delay: np.ndarray  # per (step, cell) max slice delay, ms
    records: list[SlotRecord]

    @property
    def mean_satisfaction(self) -> float:
        return float(self.satisfaction.mean())

    @property
    def mean_max_delay(self) -> float:
        return float(self.max_delay.mean())


def evaluate_policies(
    scenario: ScenarioConfig, act: Act, steps: int, seed: int
) -> EvalSummary:
    """Frozen-policy run emitting satisfaction and max-delay distributions."""

    records = rollout(scenario, act, steps, seed)
    shape = (steps, scenario.n_cells, scenario.n_slices)
    satisfaction = np.array([r.rewards for r in records]).reshape(-1)
    max_delay = np.array([r.delay for r in records]).reshape(shape).max(axis=-1)
    return EvalSummary(satisfaction, max_delay.reshape(-1), records)


def write_eval_outputs(out: Path, summary: EvalSummary) -> None:
    write_cdf_csv(out / "cdf_throughput.csv", summary.satisfaction, "satisfaction")
    write_cdf_csv(out / "cdf_delay.csv", summary.max_delay, "max_delay_ms")


# ---------------------------------------------------------------------------
# Top-level runs
# ---------------------------------------------------------------------------


def run_baseline(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunMetrics:
    """Traffic-aware baseline with perfect demand knowledge; no learning."""

    out = _prepare_out(out)
    summary = evaluate_policies(cfg.scenario, baseline_act(cfg.scenario),
                                cfg.phases.evaluation, seed)
    write_metrics_csv(out / "metrics.csv", summary.records)
    write_eval_outputs(out, summary)
    write_run_meta(out, cfg, seed, method="baseline",
                   mean_satisfaction=summary.mean_satisfaction,
                   mean_max_delay=summary.mean_max_delay)
    return RunMetrics(summary.records, summary.records,
                      {"summary": summary})


def _agent_seed(seed: int, cell_id: int) -> int:
    return int(np.random.SeedSequence([seed, cell_id]).generate_state(1)[0])


def make_agents(cfg: ExperimentConfig, seed: int) -> dict[int, Td3Agent]:
    return {
        c.cell_id: Td3Agent(c.cell_id, cfg.scenario.n_slices, cfg.td3,
                            _agent_seed(seed, c.cell_id))
        for c in cfg.scenario.cells
    }


def run_madrl(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunMetrics:
    """Train all cells in parallel: exploration, training, evaluation.

    Persists per-agent checkpoints, replay buffers, and a default-action
    trace for later similarity analysis.
    """

    out = _prepare_out(out)
    scenario = cfg.scenario
    agents = make_agents(cfg, seed)
    ordered = [agents[cid] for cid in scenario.cell_ids]
    ones = np.ones(scenario.n_slices)
    explore, training = cfg.phases.exploration, cfg.phases.training
    default_action_trace(scenario, cfg.similarity.steps, seed, out)

    def act(t, net_state, states):
        if t <= explore:
            # Flat Dirichlet covers the simplex better than noisy untrained
            # actor output.
            return np.stack([agent.explore_rng.dirichlet(ones) for agent in ordered])
        # Linear exploration-noise decay across the training phase.
        frac = (t - explore) / max(training, 1)
        noise = (cfg.td3.explore_noise * (1.0 - frac)
                 + cfg.td3.explore_noise_final * frac)
        return np.stack([
            select_action(agent, s, explore=True, noise_scale=noise)
            for agent, s in zip(ordered, states)])

    records: list[SlotRecord] = []
    diverged: dict[int, str] = {}

    def observe(slot):
        for i, agent in enumerate(ordered):
            learn(agent, slot, i, diverged, train=slot.t > explore)
        records.append(record_step(scenario, slot))

    run_slots(scenario, seed, explore + training, act, observe)

    checkpoints = out / "checkpoints"
    buffers = out / "buffers"
    checkpoints.mkdir(exist_ok=True)
    buffers.mkdir(exist_ok=True)
    for cid, agent in agents.items():
        save_agent(agent, checkpoints / f"cell_{cid}.npz")
        agent.buffer.export(buffers / f"cell_{cid}.npz")

    summary = evaluate_policies(
        scenario,
        follow(scenario, {cid: greedy_policy(agent) for cid, agent in agents.items()}),
        cfg.phases.evaluation, seed + 1,
    )
    write_metrics_csv(out / "metrics.csv", records + summary.records)
    write_eval_outputs(out, summary)
    write_run_meta(out, cfg, seed, method="madrl", diverged=diverged,
                   mean_satisfaction=summary.mean_satisfaction,
                   mean_max_delay=summary.mean_max_delay)
    return RunMetrics(records, summary.records,
                      {"agents": agents, "summary": summary, "out": out})


def run_similarity(
    cfg: ExperimentConfig, seed: int, out: str | Path, trace: Trace | None = None,
) -> tuple[simm.DistanceMatrix, int]:
    """Pooled VAE + latent KL distances + source selection for one target.

    ``trace`` is the default-action trace to read; without it the trace
    comes from ``similarity.trace`` or from a fresh rollout.
    """

    out = _prepare_out(out)
    sim = cfg.similarity
    target = cfg.similarity_target
    candidates = (list(sim.candidates) if sim.candidates is not None
                  else [i for i in cfg.scenario.cell_ids if i != target])
    if trace is None:
        if sim.trace is not None:
            trace = load_trace(sim.trace)
        else:
            trace = default_action_trace(cfg.scenario, sim.steps, seed, out)

    equal = equal_partition(cfg.scenario.n_slices)
    agents = [target, *candidates]
    samples = [simm.collect_default_samples(trace, equal, i) for i in agents]
    # Every agent needs enough samples for its distance; check before the
    # VAE trains, not after.
    simm.require_samples({i: len(x) for i, x in zip(agents, samples)},
                         sim.min_samples)
    model = simm.vae_train(
        np.concatenate(samples), kl_weight=sim.kl_weight, epochs=sim.epochs,
        seed=seed, latent_dim=sim.latent_dim, batch_size=sim.batch_size, lr=sim.lr,
        min_samples=sim.min_samples,
    )
    latents = {i: simm.encode_samples(model, x) for i, x in zip(agents, samples)}
    distances = simm.compute_distance_matrix(
        latents, target, candidates, mode=sim.mode, min_samples=sim.min_samples
    )
    source = simm.select_source(distances)
    simm.write_distances_csv(out / "distances.csv", distances)
    simm.write_latents_csv(out / "latents.csv", latents)
    write_run_meta(out, cfg, seed, method="similarity",
                   selected_source=source,
                   selected_distance=distances.entries[source])
    return distances, source


def load_pretrained(
    artifacts: str | Path, cell_ids: Sequence[int], seed: int
) -> dict[int, Td3Agent]:
    """Checkpointed agents and their buffers, with the random streams of
    ``make_agents``: each agent draws as a fresh agent seeded with
    ``_agent_seed(seed, cell_id)``, its buffer samples like that agent's."""

    artifacts = Path(artifacts)
    agents = {}
    for cid in cell_ids:
        ckpt = artifacts / "checkpoints" / f"cell_{cid}.npz"
        buf = artifacts / "buffers" / f"cell_{cid}.npz"
        if not ckpt.exists():
            raise DependencyError(f"missing checkpoint {ckpt}")
        agent = load_agent(ckpt, _agent_seed(seed, cid))
        if buf.exists():
            agent.buffer = ReplayBuffer.load(
                buf, agent.config.buffer_capacity, seed=agent.buffer.seed,
                evict_threshold=agent.config.batch_size,
            )
        agents[cid] = agent
    return agents


def run_transfer(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunMetrics:
    """``transfer.strategy`` to the target cell plus a paired-seed scratch run.

    Emits the per-step TL gain curve (TL reward minus scratch reward under
    identical environment seeds) and the post-fine-tuning evaluation.
    """

    out = _prepare_out(out)
    scenario = cfg.scenario
    if cfg.transfer.artifacts is None:
        raise DependencyError(
            "transfer requires 'transfer.artifacts' pointing at a train run"
        )
    target_id = cfg.transfer_target
    peer_ids = [i for i in scenario.cell_ids if i != target_id]
    pretrained = load_pretrained(cfg.transfer.artifacts, scenario.cell_ids, seed)

    source_id = cfg.transfer.source
    selected_distance = None
    if source_id is None:
        trace_path = Path(cfg.transfer.artifacts) / "default_trace.npz"
        trace = load_trace(trace_path) if trace_path.exists() else None
        distances, source_id = run_similarity(cfg, seed, out / "similarity", trace=trace)
        selected_distance = distances.entries[source_id]

    steps = cfg.phases.tl_training
    peers = {i: greedy_policy(pretrained[i]) for i in peer_ids}

    tl_agent = Td3Agent(target_id, scenario.n_slices, cfg.td3,
                        _agent_seed(seed, target_id))
    apply_transfer(pretrained[source_id], tl_agent, cfg.transfer, seed)
    diverged: dict[str, dict[int, str]] = {"tl": {}, "scratch": {}}
    tl_agent, tl_trace, tl_slots = fine_tune(
        tl_agent, scenario, peers, steps, seed, diverged=diverged["tl"],
    )
    tl_records = [record_step(scenario, slot) for slot in tl_slots]

    # Paired-seed scratch reference: identical environment randomness,
    # fresh agent with a different init stream.
    scratch_agent = Td3Agent(target_id, scenario.n_slices, cfg.td3,
                             _agent_seed(seed + 1, target_id))
    scratch_agent, scratch_trace, _ = fine_tune(
        scratch_agent, scenario, peers, steps, seed,
        diverged=diverged["scratch"],
    )

    write_csv(out / "gain.csv", ("t", "reward_tl", "reward_scratch", "gain"),
              [(np.arange(1, tl_trace.size + 1), tl_trace, scratch_trace,
                tl_trace - scratch_trace)])

    policies = dict(peers)
    policies[target_id] = greedy_policy(tl_agent)
    summary = evaluate_policies(scenario, follow(scenario, policies),
                                cfg.phases.evaluation, seed + 1)
    checkpoints = out / "checkpoints"
    checkpoints.mkdir(exist_ok=True)
    save_agent(tl_agent, checkpoints / f"cell_{target_id}.npz")
    write_metrics_csv(out / "metrics.csv", tl_records + summary.records)
    write_eval_outputs(out, summary)
    write_run_meta(
        out, cfg, seed, method="tl",
        source=source_id, target=target_id,
        diverged={run: d[target_id] for run, d in diverged.items() if d},
        selected_distance=selected_distance,
        mean_satisfaction=summary.mean_satisfaction,
        mean_max_delay=summary.mean_max_delay,
    )
    return RunMetrics(
        tl_records, summary.records,
        {"tl_trace": tl_trace, "scratch_trace": scratch_trace,
         "tl_agent": tl_agent, "summary": summary, "source": source_id},
    )


def run_evaluate(cfg: ExperimentConfig, seed: int, out: str | Path) -> EvalSummary:
    """Frozen-policy evaluation of checkpointed agents or the baseline."""

    out = _prepare_out(out)
    scenario = cfg.scenario
    if cfg.evaluate.checkpoints is None:
        act = baseline_act(scenario)
    else:
        agents = load_pretrained(cfg.evaluate.checkpoints, scenario.cell_ids, seed)
        act = follow(scenario, {cid: greedy_policy(a) for cid, a in agents.items()})
    summary = evaluate_policies(scenario, act, cfg.phases.evaluation, seed)
    write_metrics_csv(out / "metrics.csv", summary.records)
    write_eval_outputs(out, summary)
    write_run_meta(out, cfg, seed, method="evaluate",
                   mean_satisfaction=summary.mean_satisfaction,
                   mean_max_delay=summary.mean_max_delay)
    return summary


def _prepare_out(out: str | Path) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out
