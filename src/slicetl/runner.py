"""The one slot loop of every run, with message exchange, state assembly,
step records and the learners' store-and-train step.

A run (rollout, MADRL training, fine-tuning) is an ``act`` and an
``observe`` hook over ``run_slots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import env as envm
from .agent import (
    Message,
    Normalizers,
    Td3Agent,
    Transition,
    assemble_state,
    extract_neighbor_features,
    train_step,
)
from .env import NetworkState, PartitionAction, ScenarioConfig, SliceMetrics
from .errors import SliceTlError

Policy = Callable[[np.ndarray], PartitionAction]  # state_vec -> action


@dataclass(frozen=True)
class Slot:
    """What one slot of the network produced, as handed to ``observe``."""

    t: int
    states: dict[int, np.ndarray]  # the assembled states the cells acted on
    actions: dict[int, PartitionAction]
    net_state: NetworkState  # the network after the step
    rewards: np.ndarray  # per cell, in scenario order
    next_states: dict[int, np.ndarray]  # assembled from ``net_state``


# (t, network before the step, per-cell states) -> per-cell actions
Act = Callable[[int, NetworkState, dict[int, np.ndarray]], dict[int, PartitionAction]]
Observe = Callable[[Slot], None]


@dataclass(frozen=True)
class StepRecord:
    """One (cell, step) observation as logged by every experiment run."""

    t: int
    cell_id: int
    state: np.ndarray  # assembled 4N state the agent acted on
    action: np.ndarray
    reward: float
    metrics: tuple[SliceMetrics, ...]


def cell_normalizers(scenario: ScenarioConfig) -> dict[int, Normalizers]:
    return {
        c.cell_id: Normalizers(c.max_throughput_target, c.max_ues_per_slice)
        for c in scenario.cells
    }


def assemble_all_states(
    scenario: ScenarioConfig,
    net_state: NetworkState,
    normalizers: dict[int, Normalizers] | None = None,
) -> dict[int, np.ndarray]:
    """Per-cell agent states from one network snapshot.

    All messages for the step are produced before any state is assembled,
    matching the step-barrier message exchange.
    """

    normalizers = normalizers or cell_normalizers(scenario)
    messages = {
        c.cell_id: Message(
            c.cell_id,
            np.array([m.load for m in net_state.per_cell[i]]),
        )
        for i, c in enumerate(scenario.cells)
    }
    states = {}
    for i, c in enumerate(scenario.cells):
        features = extract_neighbor_features(
            [messages[j] for j in c.neighbor_ids], scenario.n_slices
        )
        states[c.cell_id] = assemble_state(
            net_state.per_cell[i], features, normalizers[c.cell_id]
        )
    return states


def run_slots(
    scenario: ScenarioConfig, seed: int, steps: int, act: Act, observe: Observe
) -> None:
    """Step the network ``steps`` slots from ``init_network(scenario, seed)``.

    Every cell acts before the step; ``observe`` sees each slot once, after
    the next states are assembled.
    """

    normalizers = cell_normalizers(scenario)
    net_state = envm.init_network(scenario, seed)
    states = assemble_all_states(scenario, net_state, normalizers)
    for t in range(1, steps + 1):
        actions = act(t, net_state, states)
        net_state, rewards = envm.step(
            net_state, [actions[c.cell_id] for c in scenario.cells], scenario
        )
        next_states = assemble_all_states(scenario, net_state, normalizers)
        observe(Slot(t, states, actions, net_state, rewards, next_states))
        states = next_states


def follow(policies: dict[int, Policy]) -> Act:
    """Act hook in which every cell follows its own policy."""

    return lambda t, net_state, states: {
        cid: policies[cid](s) for cid, s in states.items()
    }


def record_step(scenario: ScenarioConfig, slot: Slot) -> list[StepRecord]:
    return [
        StepRecord(
            slot.t, c.cell_id, slot.states[c.cell_id],
            slot.actions[c.cell_id].shares, float(slot.rewards[i]),
            slot.net_state.per_cell[i],
        )
        for i, c in enumerate(scenario.cells)
    ]


def learn(
    agent: Td3Agent, slot: Slot, index: int, diverged: dict[int, str],
    train: bool = True,
) -> None:
    """Store the agent's transition of the slot, then run its updates.

    ``index`` is the agent's cell position in the scenario. An agent whose
    update raises is recorded in ``diverged`` and trains no more, so one
    diverging agent cannot abort the others.
    """

    cid = agent.cell_id
    agent.buffer.add(Transition(
        slot.states[cid], slot.actions[cid].shares, float(slot.rewards[index]),
        slot.next_states[cid], origin=cid,
    ))
    agent.step_count += 1
    cfg = agent.config
    if train and cid not in diverged and len(agent.buffer) >= cfg.batch_size:
        try:
            for _ in range(cfg.updates_per_step):
                train_step(agent, agent.buffer.sample(cfg.batch_size))
        except SliceTlError as exc:
            diverged[cid] = str(exc)
