"""The one slot loop of every run, with state assembly, the run log and
the learners' store-and-train step.

A run (rollout, MADRL training, fine-tuning) is a for-loop over the slots
that ``run_slots`` yields under one ``act`` hook. Everything per slot is an
array over the K cells in scenario order: states (K, 4N), shares (K, N),
rewards (K,). A ``RunLog`` holds the logged slots as (T, K, ...) columns.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import env as envm
from .agent import Td3Agent, select_action, train_step
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


class RunLog:
    """The logged slots of one run as preallocated (T, K, ...) columns over
    the cells in scenario order; ``record_step`` copies slot t into row
    t - 1."""

    def __init__(self, scenario: ScenarioConfig, slots: int) -> None:
        k, n = scenario.n_cells, scenario.n_slices
        self.cells = scenario.arrays.cell_ids  # (K,) int64
        self.t = np.zeros(slots, dtype=np.int64)
        self.states = np.zeros((slots, k, 4 * n))  # the states the cells acted on
        self.actions = np.zeros((slots, k, n))
        self.rewards = np.zeros((slots, k))
        self.throughput = np.zeros((slots, k, n))  # Mbit/s per user
        self.delay = np.zeros((slots, k, n))  # ms
        self.load = np.zeros((slots, k, n))
        self.ues = np.zeros((slots, k, n), dtype=np.int64)  # ints in metrics.csv


def assemble_all_states(scenario: ScenarioConfig, net_state: NetworkState) -> np.ndarray:
    """Agent states [throughput / scale, load, ues / max_ues | neighbour
    load], one row of 4N per cell (K, 4N), from one network snapshot.

    Each cell's neighbour load is the mean of its neighbours' slice loads
    in the same snapshot, as in the step-barrier message exchange; zeros
    for a cell without neighbours.
    """

    arrays = scenario.arrays
    load = net_state.load
    neighbor_load = arrays.over_neighbors(
        load, lambda gains, loads: np.add.reduce(loads, axis=1) / loads.shape[1])
    return np.concatenate([net_state.throughput / arrays.throughput_scale, load,
                           net_state.ues / arrays.max_ues, neighbor_load], axis=1)


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


def record_step(log: RunLog, slot: Slot) -> None:
    """Copy ``slot`` into row ``slot.t - 1`` of ``log``."""

    row, net = slot.t - 1, slot.net_state
    log.t[row] = slot.t
    log.states[row] = slot.states
    log.actions[row] = slot.actions
    log.rewards[row] = slot.rewards
    log.throughput[row] = net.throughput
    log.delay[row] = net.delay
    log.load[row] = net.load
    log.ues[row] = net.ues


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
