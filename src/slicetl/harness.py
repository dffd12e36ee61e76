"""Experiment orchestration: baseline, MADRL training, similarity, transfer.

Each run writes into its own output directory: ``metrics.csv`` (one row per
step/cell/slice), evaluation CDFs, checkpoints/buffers where applicable,
and ``run_meta.json`` echoing the configuration and recording provenance
such as the selected transfer source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import __version__, env as envm, similarity as simm
from .agent import Td3Agent, load_agent, save_agent, select_action
from .codec import atomic_open, copy_file, read_npz, to_plain, write_npz
from .csvio import column_text, write_csv
from .env import NetworkState, ScenarioConfig, equal_partition
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DependencyError,
    EmptySetError,
)
from .runner import Act, RunLog, agents_act, learn, record_step, run_slots
from .scenario import ExperimentConfig
from .transfer import INSTANCE_STRATEGIES, apply_transfer, fine_tune

TRACE_VERSION = 1
METRICS_HEADER = ("t", "cell", "slice", "throughput", "delay", "load", "ues",
                  "share", "reward")
BLOCK_SLOTS = 64  # slots of metrics.csv formatted at a time


# ---------------------------------------------------------------------------
# CSV / artifact IO
# ---------------------------------------------------------------------------


def _metrics_blocks(logs: Sequence[RunLog]) -> Iterator[tuple]:
    """The columns of ``metrics.csv``, ``BLOCK_SLOTS`` slots of each log at
    a time, in (slot, cell, slice) row order; the ``t,cell,slice`` text is
    one column."""

    for log in logs:
        n = log.actions.shape[-1]
        cell_slice = np.array([f",{c},{j}" for c in log.cells.tolist()
                               for j in range(n)], dtype=object)
        for start in range(0, log.t.size, BLOCK_SLOTS):
            rows = slice(start, start + BLOCK_SLOTS)
            t = np.array(list(map(str, log.t[rows].tolist())), dtype=object)
            yield (
                (t[:, None] + cell_slice).ravel().tolist(), log.throughput[rows].ravel(),
                log.delay[rows].ravel(), log.load[rows].ravel(), log.ues[rows].ravel(),
                log.actions[rows].ravel(), np.repeat(log.rewards[rows].ravel(), n),
            )


def write_metrics_csv(path, logs: Sequence[RunLog]) -> None:
    """One row per (step, cell, slice) of each run log in turn; floats in
    their shortest round-trip ``repr``. A trace log holds no metric columns
    and raises ``ContractViolationError``."""

    if any(log.throughput is None for log in logs):
        raise ContractViolationError("metrics.csv is written from metrics logs; "
                                     "a trace log holds no metric columns")
    write_csv(path, METRICS_HEADER, _metrics_blocks(logs))


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample values, of any shape, and their empirical CDF levels."""

    values = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    levels = np.arange(1, values.size + 1) / values.size
    return values, levels


def write_cdf_csvs(samples: dict[Path, tuple[str, np.ndarray]]) -> None:
    """For each ``path: (column, values)``, a csv of the sorted sample values
    under ``column`` and their empirical ``cdf`` levels. All samples have
    one size, so the levels are formatted once; a sample of another size
    raises ``ValueError`` and leaves its file unwritten."""

    levels_text = None
    for path, (column, values) in samples.items():
        values, levels = empirical_cdf(values)
        if levels_text is None:
            levels_text = column_text(levels)
        write_csv(path, (column, "cdf"), [(values, levels_text)])


def write_run_meta(out: Path, cfg: ExperimentConfig, seed: int, **extra) -> None:
    meta = {
        "slicetl_version": __version__,
        "numpy_version": np.__version__,
        "seed": seed,
        "config": to_plain(cfg),
    }
    meta.update(extra)
    with atomic_open(out / "run_meta.json") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True))


def save_trace(path, log: RunLog) -> None:
    """Write the trace log ``log``'s states, actions and rewards as a trace
    file: flat columns ``t``, ``cell``, ``states``, ``actions`` and
    ``rewards`` with one row per (slot, cell), slot-major. A log without
    states raises ``ContractViolationError``."""

    if log.states is None:
        raise ContractViolationError("a trace file is written from a trace log; "
                                     "this log holds no states")
    slots, k, n = log.actions.shape
    write_npz(path, TRACE_VERSION, {
        "t": np.repeat(log.t, k), "cell": np.tile(log.cells, slots),
        "states": log.states.reshape(slots * k, 4 * n),
        "actions": log.actions.reshape(slots * k, n),
        "rewards": log.rewards.reshape(slots * k),
    })


# Each column of a trace file and its rank.
_TRACE_COLUMNS = {"t": 1, "cell": 1, "states": 2, "actions": 2, "rewards": 1}


def load_trace(
    path, scenario: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states (T, K, 4N), actions (T, K, N) and rewards (T, K) of the
    trace at ``path``, over the cells of ``scenario`` in its order.

    A file that ``codec.read_npz`` rejects, whose columns are not numeric
    arrays of their ranks and of one row count, whose states are not 4N and
    actions not N wide, or whose rows are not slot-major over exactly the
    scenario's cells raises ``DependencyError`` naming the file.
    """

    data = read_npz(path, TRACE_VERSION)
    rows = data.columns(_TRACE_COLUMNS)
    cells, n = scenario.arrays.cell_ids, scenario.n_slices
    widths = (data["states"].shape[1], data["actions"].shape[1])
    if widths != (4 * n, n):
        raise DependencyError(f"{path} holds (state, action) rows of widths "
                              f"{widths}, expected {(4 * n, n)}")
    k = cells.size
    slots = rows // k
    if rows % k or not np.array_equal(data["cell"], np.tile(cells, slots)):
        raise DependencyError(f"{path} does not hold slot-major rows over the "
                              f"scenario's cells {cells.tolist()}")
    return (data["states"].reshape(slots, k, 4 * n),
            data["actions"].reshape(slots, k, n), data["rewards"].reshape(slots, k))


# ---------------------------------------------------------------------------
# Act hooks and rollouts
# ---------------------------------------------------------------------------


def baseline_act(t: int, net_state: NetworkState, states: np.ndarray) -> np.ndarray:
    """Act hook of the traffic-aware baseline with perfect demand knowledge.

    Each cell splits its bandwidth in proportion to the demands the coming
    slot will bring, which the network state already holds.
    """

    return envm.baseline_shares(envm.peek_demands(net_state))


def rollout(
    scenario: ScenarioConfig, act: Act, steps: int, seed: int, *, trace: bool = False
) -> RunLog:
    """Run fixed policies for ``steps`` slots and log every slot: every
    cell's metrics, or with ``trace`` the states a trace file holds."""

    log = RunLog(scenario, steps, trace=trace)
    for slot in run_slots(scenario, seed, steps, act):
        record_step(log, slot)
    return log


def default_action_trace(
    scenario: ScenarioConfig, steps: int, seed: int, out: Path
) -> RunLog:
    """Rollout in which every cell holds the equal split, so that the
    similarity pipeline has comparable samples from all agents. Its trace
    log (states, actions, rewards; no metrics) is saved as ``out``'s trace
    file and returned; this is the one producer of ``default_trace.npz``."""

    n = scenario.n_slices
    equal = np.full((scenario.n_cells, n), 1.0 / n)
    log = rollout(scenario, lambda t, net_state, states: equal, steps, seed, trace=True)
    save_trace(_trace_file(out), log)
    return log


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_policies(
    scenario: ScenarioConfig, act: Act, steps: int, seed: int
) -> RunLog:
    """Frozen-policy run; its log's rewards are each (slot, cell)'s
    min-slice satisfaction."""

    return rollout(scenario, act, steps, seed)


@dataclass
class RunResult:
    """What an evaluating run produced, for the steps that read it after."""

    evaluation: RunLog  # the evaluation's slots; they end ``metrics.csv``
    learning: RunLog | None = None  # the learning slots before them, if any
    agents: dict[int, Td3Agent] = field(default_factory=dict)  # the evaluated learners
    source: int | None = None  # a transfer run's source cell
    tl_trace: np.ndarray | None = None  # the target's reward per fine-tuning slot
    scratch_trace: np.ndarray | None = None  # the same for the scratch learner


def _evaluate_and_write(
    cfg: ExperimentConfig, seed: int, out: Path, act: Act, eval_seed: int,
    learning: RunLog | None = None, **meta,
) -> RunLog:
    """The tail every evaluating run shares: evaluate ``act``, write
    ``metrics.csv`` (``learning``, then the evaluation's slots), the CDFs
    of each evaluated (slot, cell)'s satisfaction and worst slice delay, and
    ``run_meta.json`` last, with their means and ``meta`` added to its
    common keys."""

    evaluation = evaluate_policies(cfg.scenario, act, cfg.phases.evaluation, eval_seed)
    write_metrics_csv(out / "metrics.csv",
                      [evaluation] if learning is None else [learning, evaluation])
    max_delay = evaluation.delay.max(axis=-1)
    write_cdf_csvs({out / "cdf_throughput.csv": ("satisfaction", evaluation.rewards),
                    out / "cdf_delay.csv": ("max_delay_ms", max_delay)})
    write_run_meta(out, cfg, seed, **meta, eval_seed=eval_seed,
                   mean_satisfaction=float(evaluation.rewards.mean()),
                   mean_max_delay=float(max_delay.mean()))
    return evaluation


# ---------------------------------------------------------------------------
# Top-level runs
# ---------------------------------------------------------------------------


def run_baseline(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunResult:
    """Traffic-aware baseline with perfect demand knowledge; no learning."""

    return RunResult(_evaluate_and_write(cfg, seed, _prepare_out(out), baseline_act,
                                         seed, method="baseline"))


def _agent_seed(seed: int, cell_id: int) -> int:
    return int(np.random.SeedSequence([seed, cell_id]).generate_state(1)[0])


def make_agents(cfg: ExperimentConfig, seed: int) -> dict[int, Td3Agent]:
    return {
        c.cell_id: Td3Agent(c.cell_id, cfg.scenario.n_slices, cfg.td3,
                            _agent_seed(seed, c.cell_id))
        for c in cfg.scenario.cells
    }


def run_madrl(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunResult:
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
            select_action(agent, s, noise)
            for agent, s in zip(ordered, states)])

    learning = RunLog(scenario, explore + training)
    for slot in run_slots(scenario, seed, explore + training, act):
        for i, agent in enumerate(ordered):
            learn(agent, slot, i, train=slot.t > explore)
        record_step(learning, slot)

    for cid, agent in agents.items():
        ckpt, buf = _checkpoint_file(out, cid), _buffer_file(out, cid)
        ckpt.parent.mkdir(exist_ok=True)
        buf.parent.mkdir(exist_ok=True)
        save_agent(agent, ckpt)
        agent.buffer.export(buf)

    diverged = {cid: a.diverged for cid, a in agents.items() if a.diverged is not None}
    evaluation = _evaluate_and_write(cfg, seed, out, agents_act(scenario, agents),
                                     seed + 1, learning, method="madrl", diverged=diverged)
    return RunResult(evaluation, learning, agents)


def _require_samples(counts: dict[int, int], min_samples: int) -> None:
    """Raise ``EmptySetError`` naming the first agent of ``counts`` (agent
    id -> sample count) with fewer than ``min_samples`` samples."""

    for i, n in counts.items():
        if n < min_samples:
            raise EmptySetError(
                f"agent {i} has fewer than {min_samples} default-action samples")


def run_similarity(
    cfg: ExperimentConfig, seed: int, out: str | Path
) -> tuple[simm.DistanceMatrix, int]:
    """Pooled VAE + latent KL distances + source selection for one target.

    The default-action trace is the file ``similarity.trace``, else a fresh
    rollout. Every agent needs ``similarity.min_samples`` default-action
    samples (``EmptySetError`` naming the first that lacks them): checked
    before a fresh rollout runs, and before the VAE trains.
    """

    out = _prepare_out(out)
    sim, scenario = cfg.similarity, cfg.scenario
    target, candidates = cfg.similarity_target, cfg.similarity_candidates
    agents = [target, *candidates]
    if sim.trace is not None:
        states, actions, rewards = load_trace(sim.trace, scenario)
    else:
        # Each slot of a fresh rollout gives every agent one sample.
        _require_samples({i: sim.steps for i in agents}, sim.min_samples)
        log = default_action_trace(scenario, sim.steps, seed, out)
        states, actions, rewards = log.states, log.actions, log.rewards
        del log  # the next del then frees its columns

    equal = equal_partition(scenario.n_slices)
    columns = [scenario.cell_ids.index(i) for i in agents]
    samples = [simm.collect_default_samples(states[:, k], actions[:, k], rewards[:, k],
                                            equal) for k in columns]
    del states, actions, rewards  # the samples are all the run reads of the trace
    _require_samples({i: len(x) for i, x in zip(agents, samples)}, sim.min_samples)
    # One pooled matrix; each agent's samples are a view of its rows.
    pooled = np.concatenate(samples)
    samples = np.split(pooled, np.cumsum([len(x) for x in samples[:-1]]))
    model = simm.vae_train(
        pooled, kl_weight=sim.kl_weight, epochs=sim.epochs,
        seed=seed, latent_dim=sim.latent_dim, batch_size=sim.batch_size, lr=sim.lr,
    )
    latents = {i: simm.encode_samples(model, x) for i, x in zip(agents, samples)}
    del pooled, samples  # the distances read only the latents
    distances = simm.compute_distance_matrix(latents, target, candidates)
    source = simm.select_source(distances)
    simm.write_distances_csv(out / "distances.csv", distances)
    simm.write_latents_csv(out / "latents.csv", latents)
    write_run_meta(out, cfg, seed, method="similarity",
                   selected_source=source,
                   selected_distance=distances.entries[source])
    return distances, source


def load_checkpoints(
    artifacts: str | Path, scenario: ScenarioConfig, seed: int
) -> dict[int, Td3Agent]:
    """Checkpointed agents of the scenario's cells, with the random streams
    of ``make_agents``: each agent draws as a fresh agent seeded with
    ``_agent_seed(seed, cell_id)``, and its buffer is empty.

    A missing checkpoint, one of another cell than its file names, or of
    another slice count than the scenario's, raises ``DependencyError``
    naming the file.
    """

    agents = {}
    for cid in scenario.cell_ids:
        ckpt = _checkpoint_file(artifacts, cid)
        agent = load_agent(ckpt, _agent_seed(seed, cid))
        if agent.cell_id != cid:
            raise DependencyError(f"{ckpt} holds the agent of cell {agent.cell_id}")
        if agent.n_slices != scenario.n_slices:
            raise DependencyError(f"{ckpt} holds an agent of {agent.n_slices} "
                                  f"slices, the scenario has {scenario.n_slices}")
        agents[cid] = agent
    return agents


def load_pretrained(
    artifacts: str | Path, scenario: ScenarioConfig, seed: int
) -> dict[int, Td3Agent]:
    """``load_checkpoints`` with each agent's buffer file loaded into the
    agent's own fresh buffer, which samples like a fresh agent's.

    A cell without a buffer file keeps an empty buffer. A buffer file that
    the buffer's ``load`` rejects raises its error: ``DimensionError`` for
    rows not as wide as the agent's, ``DependencyError`` naming the file for
    one owned by another cell.
    """

    agents = load_checkpoints(artifacts, scenario, seed)
    for cid, agent in agents.items():
        buf = _buffer_file(artifacts, cid)
        if buf.exists():
            agent.buffer.load(buf)
    return agents


def _checkpoint_file(run_dir: str | Path, cell_id: int) -> Path:
    return Path(run_dir) / "checkpoints" / f"cell_{cell_id}.npz"


def _buffer_file(run_dir: str | Path, cell_id: int) -> Path:
    return Path(run_dir) / "buffers" / f"cell_{cell_id}.npz"


def _trace_file(run_dir: str | Path) -> Path:
    return Path(run_dir) / "default_trace.npz"


def run_transfer(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunResult:
    """``transfer.strategy`` to the target cell plus a paired-seed scratch run.

    Emits the per-step TL gain curve (TL reward minus scratch reward under
    identical environment seeds) and the post-fine-tuning evaluation. An
    ``instance`` or ``integrated`` transfer whose source has no buffer file
    raises ``DependencyError`` before any transfer runs. ``checkpoints/``
    gets the target's checkpoint and copies of its peers' from the artifacts.
    Without ``transfer.source``, the similarity sub-run reads
    ``similarity.trace``, else the artifacts' trace when there is one.

    The run drops each agent once it is done with it. The target's loaded
    agent goes right after loading: only its peers act. The scratch learner
    goes once its fine-tune has recorded its reward curve and ``diverged``,
    before ``gain.csv`` is written. ``RunResult.agents`` holds the peers and
    the transferred learner, in the scenario's cell order.
    """

    out = _prepare_out(out)
    scenario = cfg.scenario
    if cfg.transfer.artifacts is None:
        raise DependencyError(
            "transfer requires 'transfer.artifacts' pointing at a train run"
        )
    artifacts = Path(cfg.transfer.artifacts)
    target_id = cfg.similarity_target
    peers = load_pretrained(artifacts, scenario, seed)
    del peers[target_id]

    source_id = cfg.transfer.source
    selected_distance = None
    if source_id is None:
        sim_cfg = cfg
        if cfg.similarity.trace is None and _trace_file(artifacts).exists():
            sim_cfg = replace(cfg, similarity=replace(
                cfg.similarity, trace=str(_trace_file(artifacts))))
        distances, source_id = run_similarity(sim_cfg, seed, out / "similarity")
        selected_distance = distances.entries[source_id]

    source_buffer = _buffer_file(artifacts, source_id)
    if cfg.transfer.strategy in INSTANCE_STRATEGIES and not source_buffer.exists():
        raise DependencyError(
            f"transfer.strategy {cfg.transfer.strategy!r} moves the source's "
            f"transitions, but its buffer {source_buffer} does not exist")

    steps = cfg.phases.tl_training
    tl_agent = Td3Agent(target_id, scenario.n_slices, cfg.td3,
                        _agent_seed(seed, target_id))
    apply_transfer(peers[source_id], tl_agent, cfg.transfer, seed)
    learning = RunLog(scenario, steps)
    tl_trace = fine_tune(tl_agent, scenario, peers, steps, seed, learning)

    # Paired-seed scratch reference: identical environment randomness,
    # fresh agent with a different init stream.
    scratch_agent = Td3Agent(target_id, scenario.n_slices, cfg.td3,
                             _agent_seed(seed + 1, target_id))
    scratch_trace = fine_tune(scratch_agent, scenario, peers, steps, seed)
    diverged = {run: a.diverged for run, a in (("tl", tl_agent), ("scratch", scratch_agent))
                if a.diverged is not None}
    del scratch_agent

    write_csv(out / "gain.csv", ("t", "reward_tl", "reward_scratch", "gain"),
              [(np.arange(1, tl_trace.size + 1), tl_trace, scratch_trace,
                tl_trace - scratch_trace)])
    tl_ckpt = _checkpoint_file(out, target_id)
    tl_ckpt.parent.mkdir(exist_ok=True)
    save_agent(tl_agent, tl_ckpt)
    for cid in peers:
        copy_file(_checkpoint_file(artifacts, cid), _checkpoint_file(out, cid))

    agents = {cid: tl_agent if cid == target_id else peers[cid]
              for cid in scenario.cell_ids}
    evaluation = _evaluate_and_write(
        cfg, seed, out, agents_act(scenario, agents), seed + 1, learning,
        method="tl", source=source_id, target=target_id, diverged=diverged,
        selected_distance=selected_distance,
    )
    return RunResult(evaluation, learning, agents, source_id, tl_trace, scratch_trace)


def run_evaluate(cfg: ExperimentConfig, seed: int, out: str | Path) -> RunResult:
    """Frozen-policy evaluation of the agents in ``evaluate.checkpoints``;
    it reads their checkpoints only, not their buffers."""

    if cfg.evaluate.checkpoints is None:
        raise DependencyError("evaluate requires 'evaluate.checkpoints' pointing "
                              "at a train or transfer run")
    out = _prepare_out(out)
    agents = load_checkpoints(cfg.evaluate.checkpoints, cfg.scenario, seed)
    evaluation = _evaluate_and_write(cfg, seed, out, agents_act(cfg.scenario, agents),
                                     seed, method="evaluate")
    return RunResult(evaluation, agents=agents)


def _prepare_out(out: str | Path) -> Path:
    """The directory ``out``, made if missing; a file in its way raises
    ``ConfigurationError``."""

    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigurationError(
            f"cannot make the output directory {out}: {exc.strerror}") from exc
    return out
