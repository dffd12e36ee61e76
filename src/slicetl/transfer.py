"""Knowledge-transfer strategies between pretrained and fresh TD3 agents.

Implements model transfer (exact parameter copy), feature transfer
(copy + freeze of the lower actor layers), instance transfer (replay
buffer merge), the integrated model+instance method, and exploration-free
fine-tuning of a transferred agent inside the live multi-cell environment,
among greedy peers held as agents or as their ``Policy``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import env as envm
from .agent import Policy, ReplayBuffer, Td3Agent
from .errors import DomainError, IncompatibleArchitectureError
from .runner import RunLog, agents_act, learn, record_step, run_slots

if TYPE_CHECKING:
    from .scenario import TransferParams

STRATEGIES = ("model", "feature", "instance", "integrated")
INSTANCE_STRATEGIES = ("instance", "integrated")  # they move source transitions
FINE_TUNE_NOISE = 0.1  # logit-space exploration std during fine-tuning


def _check_shapes(source: Td3Agent, target: Td3Agent) -> None:
    for name, net in source.networks().items():
        if net.sizes != target.networks()[name].sizes:
            raise IncompatibleArchitectureError(
                f"{name} shapes differ: source {net.sizes} vs "
                f"target {target.networks()[name].sizes}"
            )


def model_transfer(source: Td3Agent, target: Td3Agent) -> Td3Agent:
    """Copy all six networks' parameters from source to target, in place;
    optimizer state resets."""

    _check_shapes(source, target)
    for dst, src in zip(target.networks().values(), source.networks().values()):
        dst.flat[:] = src.flat
    for adam in target.adams().values():
        adam.reset()
    target.step_count = 0
    return target


def feature_transfer(
    source: Td3Agent, target: Td3Agent, frozen_layers: int
) -> Td3Agent:
    """Copy and freeze the lowest actor layers; the head stays fresh."""

    _check_shapes(source, target)
    if not (0 < frozen_layers < source.actor.n_layers):
        raise DomainError(
            f"frozen_layers must lie in (0, {source.actor.n_layers}), "
            f"got {frozen_layers}"
        )
    k = source.actor.layer_offset(frozen_layers)
    for net in (target.actor, target.target_actor):
        net.flat[:k] = source.actor.flat[:k]
    target.frozen_actor_layers = frozen_layers
    return target


def instance_transfer(
    source_buffer: ReplayBuffer,
    target_buffer: ReplayBuffer,
    fraction: float,
    seed: int,
) -> ReplayBuffer:
    """Append a uniform ceil(fraction * |source|) subsample, origin-tagged,
    oldest first; buffers of other row widths raise
    ``IncompatibleArchitectureError``."""

    if not (0.0 <= fraction <= 1.0):
        raise DomainError(f"fraction must lie in [0, 1], got {fraction}")
    if source_buffer.dims != target_buffer.dims:
        raise IncompatibleArchitectureError(
            f"buffer rows differ: source {source_buffer.dims} vs "
            f"target {target_buffer.dims}")
    stored = len(source_buffer)
    n = math.ceil(fraction * stored)
    if n == 0:
        return target_buffer
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(stored, size=n, replace=False))
    rows = source_buffer.rows(idx)
    for row in zip(rows.states, rows.actions, rows.rewards, rows.next_states):
        target_buffer.add(*row, source_buffer.owner)
    return target_buffer


def integrated_transfer(
    source: Td3Agent, target: Td3Agent, instance_fraction: float, seed: int = 0
) -> Td3Agent:
    """Model transfer followed by instance transfer; target is fine-tune ready."""

    model_transfer(source, target)
    instance_transfer(source.buffer, target.buffer, instance_fraction, seed)
    return target


def apply_transfer(
    source: Td3Agent, target: Td3Agent, params: TransferParams, seed: int = 0
) -> Td3Agent:
    """Dispatch to the strategy named in ``params`` (the ``transfer`` section)."""

    if params.strategy == "model":
        return model_transfer(source, target)
    if params.strategy == "feature":
        return feature_transfer(source, target, params.frozen_layers)
    if params.strategy == "instance":
        instance_transfer(source.buffer, target.buffer, params.instance_fraction, seed)
        return target
    return integrated_transfer(source, target, params.instance_fraction, seed)


def fine_tune(
    target: Td3Agent,
    scenario: envm.ScenarioConfig,
    peers: dict[int, Td3Agent | Policy],
    steps: int,
    seed: int,
    log: RunLog | None = None,
) -> np.ndarray:
    """Train the target agent in place in the live network without an
    exploration phase.

    The peers, agents or their ``Policy``, act greedily in the other cells.
    Returns the target's reward in each slot; ``log``, if given, records
    every slot of all cells. If the target's training diverges, it stops
    training and records the error in ``target.diverged``.
    """

    idx = scenario.cell_ids.index(target.cell_id)
    act = agents_act(scenario, {**peers, target.cell_id: target},
                     {target.cell_id: FINE_TUNE_NOISE})
    rewards = np.zeros(steps)
    for slot in run_slots(scenario, seed, steps, act):
        learn(target, slot, idx)
        rewards[slot.t - 1] = slot.rewards[idx]
        if log is not None:
            record_step(log, slot)
    return rewards
