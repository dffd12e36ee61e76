"""The one slot loop of every run, with state assembly, slot records and
the learners' store-and-train step.

A run (rollout, MADRL training, fine-tuning) is a for-loop over the slots
that ``run_slots`` yields under one ``act`` hook. Everything per slot is an
array over the K cells in scenario order: states (K, 4N), shares (K, N),
rewards (K,).
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import env as envm
from .agent import Td3Agent, assemble_states, neighbor_means, select_action, train_step
from .env import NetworkState, ScenarioConfig
from .errors import ConfigurationError, SliceTlError


class Slot(NamedTuple):
    """What one slot of the network produced, as ``run_slots`` yields it."""

    t: int
    states: np.ndarray  # (K, 4N) the assembled states the cells acted on
    actions: np.ndarray  # (K, N) the shares they took
    net_state: NetworkState  # the network after the step
    rewards: np.ndarray  # (K,)
    next_states: np.ndarray  # (K, 4N) assembled from ``net_state``


# (t, network before the step, states (K, 4N)) -> shares (K, N)
Act = Callable[[int, NetworkState, np.ndarray], np.ndarray]


class SlotRecord(NamedTuple):
    """One slot of a run as logged by every experiment run: the slot's own
    (K, ...) arrays over the cells in scenario order, not copies."""

    t: int
    cells: np.ndarray  # (K,) cell ids
    states: np.ndarray  # (K, 4N) the assembled states the cells acted on
    actions: np.ndarray  # (K, N)
    rewards: np.ndarray  # (K,)
    throughput: np.ndarray  # (K, N) Mbit/s per user
    delay: np.ndarray  # (K, N) ms
    load: np.ndarray  # (K, N)
    ues: np.ndarray  # (K, N) int64


class Trace(NamedTuple):
    """What a trace file holds: one row per (slot, cell), slot-major, as
    flat columns."""

    t: np.ndarray  # (R,) int64
    cell: np.ndarray  # (R,) int64
    states: np.ndarray  # (R, 4N)
    actions: np.ndarray  # (R, N)
    rewards: np.ndarray  # (R,)

    @classmethod
    def of(cls, records: Sequence[SlotRecord]) -> "Trace":
        return cls(
            np.concatenate([np.full(r.cells.shape, r.t) for r in records]),
            np.concatenate([r.cells for r in records]),
            np.concatenate([r.states for r in records]),
            np.concatenate([r.actions for r in records]),
            np.concatenate([r.rewards for r in records]),
        )


def assemble_all_states(scenario: ScenarioConfig, net_state: NetworkState) -> np.ndarray:
    """Agent states (K, 4N) from one network snapshot.

    Each cell's neighbour feature is the mean of its neighbours' slice loads
    in the same snapshot, as in the step-barrier message exchange.
    """

    arrays = scenario.arrays
    group = arrays.single_group
    if group is not None and group.neighbors.shape[1]:
        neighbor_load = neighbor_means(net_state.load, group.neighbors)
    else:
        neighbor_load = np.zeros_like(net_state.load)
        for group in arrays.neighbor_groups:
            if group.neighbors.shape[1]:
                neighbor_load[group.rows] = neighbor_means(net_state.load,
                                                           group.neighbors)
    return assemble_states(net_state.throughput, net_state.load, net_state.ues,
                           neighbor_load, arrays.throughput_scale, arrays.max_ues)


def run_slots(
    scenario: ScenarioConfig, seed: int, steps: int, act: Act
) -> Iterator[Slot]:
    """Step the network ``steps`` slots from ``init_network(scenario, seed)``.

    Every cell acts before the step; each slot is yielded once, after the
    next states are assembled, and the next slot acts when the caller asks
    for it.
    """

    net_state = envm.init_network(scenario, seed)
    states = assemble_all_states(scenario, net_state)
    for t in range(1, steps + 1):
        actions = np.asarray(act(t, net_state, states), dtype=np.float64)
        net_state, rewards = envm.step(net_state, actions, scenario)
        next_states = assemble_all_states(scenario, net_state)
        yield Slot(t, states, actions, net_state, rewards, next_states)
        states = next_states


def agents_act(
    scenario: ScenarioConfig,
    agents: dict[int, Td3Agent],
    noise: dict[int, float] | None = None,
) -> Act:
    """Act hook in which every cell's agent picks its shares from its own
    state row, with the logit-noise std ``noise`` holds for its cell, else
    greedily. ``agents`` must hold exactly the scenario's cells
    (``ConfigurationError``)."""

    if set(agents) != set(scenario.cell_ids):
        raise ConfigurationError(
            f"agents for cells {sorted(agents)}, expected {list(scenario.cell_ids)}")
    noise = noise or {}
    ordered = [(agents[cid], noise.get(cid)) for cid in scenario.cell_ids]
    return lambda t, net_state, states: np.stack(
        [select_action(agent, s, scale) for (agent, scale), s in zip(ordered, states)])


def record_step(scenario: ScenarioConfig, slot: Slot) -> SlotRecord:
    net = slot.net_state
    return SlotRecord(slot.t, scenario.arrays.cell_ids, slot.states, slot.actions,
                      slot.rewards, net.throughput, net.delay, net.load, net.ues)


def learn(agent: Td3Agent, slot: Slot, index: int, train: bool = True) -> None:
    """Store the agent's transition of the slot, then run its updates.

    ``index`` is the agent's cell position in the scenario. An agent whose
    update raises records the error in ``agent.diverged`` and trains no
    more, so one diverging agent cannot abort the others.
    """

    agent.buffer.add(slot.states[index], slot.actions[index], slot.rewards[index],
                     slot.next_states[index], agent.cell_id)
    agent.step_count += 1
    cfg = agent.config
    if train and agent.diverged is None and len(agent.buffer) >= cfg.batch_size:
        try:
            for _ in range(cfg.updates_per_step):
                train_step(agent, agent.buffer.sample(cfg.batch_size))
        except SliceTlError as exc:
            agent.diverged = str(exc)
