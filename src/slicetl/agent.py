"""Per-cell TD3 agent with replay buffer.

Each agent owns six networks (actor, twin critics, and their targets).
Actions live on the probability simplex; exploration and target-policy
smoothing both perturb pre-softmax logits so every emitted action stays
simplex-valid by construction.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .codec import from_plain, read_npz, to_plain, write_npz
from .errors import (
    ConfigurationError,
    DependencyError,
    DimensionError,
    DomainError,
    EmptySetError,
    NumericError,
)

BUFFER_VERSION = 1
# Each column of a buffer file and its rank.
_BUFFER_COLUMNS = {"states": 2, "actions": 2, "rewards": 1, "next_states": 2,
                   "origins": 1}


class Batch(NamedTuple):
    """Training batch, one row per transition.

    Every field is a view of one (b, 2S + A + 1) block laid out
    ``[state | action | reward | next_state]``; ``state_actions`` is its
    first S + A columns, the critics' input.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    state_actions: np.ndarray

    @classmethod
    def from_block(
        cls, block: np.ndarray, state_dim: int, action_dim: int
    ) -> "Batch":
        """Views of ``block`` for states of ``state_dim`` and actions of
        ``action_dim`` entries."""

        sa = state_dim + action_dim
        return cls(block[:, :state_dim], block[:, state_dim:sa], block[:, sa],
                   block[:, sa + 1:], block[:, :sa])


class ReplayBuffer:
    """Bounded transition store with seeded uniform sampling.

    Transitions are rows of one float block, laid out as in ``Batch``
    (state, action, reward, next state) for the state and action lengths
    ``dims``, with their origins in a separate int column, oldest first.
    Both grow geometrically up to ``capacity`` rows. Eviction is
    oldest-first, except that foreign (transferred) transitions are evicted
    before the owner's once the owner has contributed at least
    ``evict_threshold`` of its own; the rows after the victim shift down one.
    """

    MIN_ROWS = 64  # rows of the first allocation

    def __init__(
        self,
        capacity: int,
        seed: int,
        owner: int,
        dims: tuple[int, int],
        evict_threshold: int = 32,
    ) -> None:
        if capacity < 1:
            raise DomainError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.owner = owner
        self.dims = dims  # state, action lengths
        self.evict_threshold = evict_threshold
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._n = 0
        self._own_count = 0
        s, a = dims
        self._data = np.zeros((0, 2 * s + a + 1))
        self._origins = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    def origin_counts(self) -> dict[int, int]:
        return dict(Counter(self._origins[:self._n].tolist()))

    def add(self, state, action, reward: float, next_state, origin: int) -> None:
        """Store one transition; ``origin`` is the id of the agent that
        experienced it."""

        if self._n >= self.capacity:
            self._evict()
        if self._n == len(self._origins):
            self._grow()
        s, a = self.dims
        row = self._data[self._n]
        row[:s] = state
        row[s:s + a] = action
        row[s + a] = reward
        row[s + a + 1:] = next_state
        self._origins[self._n] = origin
        self._n += 1
        if origin == self.owner:
            self._own_count += 1

    def _grow(self) -> None:
        """Reallocate the block and the origins with room for more rows."""

        # Preallocating capacity rows took transfer_smoke3's peak RSS from 41 to 55 MB.
        n = self._n
        rows = min(self.capacity, max(2 * n, self.MIN_ROWS))
        data = np.empty((rows, self._data.shape[1]))
        origins = np.empty(rows, dtype=np.int64)
        data[:n] = self._data[:n]
        origins[:n] = self._origins[:n]
        self._data, self._origins = data, origins

    def _evict(self) -> None:
        n = self._n
        victim = 0
        if self._own_count >= self.evict_threshold:
            foreign = np.flatnonzero(self._origins[:n] != self.owner)
            if len(foreign):
                victim = int(foreign[0])
        if self._origins[victim] == self.owner:
            self._own_count -= 1
        self._data[victim:n - 1] = self._data[victim + 1:n]
        self._origins[victim:n - 1] = self._origins[victim + 1:n]
        self._n -= 1

    def sample(self, batch_size: int) -> Batch:
        if not self._n:
            raise EmptySetError("cannot sample from an empty replay buffer")
        return self._take(self._rng.integers(0, self._n, size=batch_size))

    def rows(self, idx: np.ndarray) -> Batch:
        """Copies of the stored transitions at ``idx`` (0 is the oldest)."""

        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise DomainError(f"row indices must lie in [0, {self._n})")
        return self._take(idx)

    def _take(self, idx: np.ndarray) -> Batch:
        """One gather of the rows at ``idx``."""

        return Batch.from_block(self._data.take(idx, axis=0), *self.dims)

    def export(self, path) -> None:
        """Persist as npz with a fixed field order and version tag."""

        n = self._n
        stored = Batch.from_block(self._data[:n], *self.dims)
        write_npz(path, BUFFER_VERSION, dict(
            owner=np.array(self.owner), states=stored.states, actions=stored.actions,
            rewards=stored.rewards, next_states=stored.next_states,
            origins=self._origins[:n]))

    def load(self, path) -> None:
        """Fill this fresh, empty buffer with the transitions ``export``
        wrote to ``path``, one ``add`` each, oldest first.

        A file that ``codec.read_npz`` rejects, whose owner is not one
        integer, whose columns are not numeric arrays of their ranks (the
        state, action and next-state columns 2-D, the others 1-D) and of one
        row count, or whose next states are not as wide as its states, raises
        ``DependencyError``; rows of other (state, action) widths than
        ``dims`` raise ``DimensionError``; more than ``capacity``
        transitions, which would otherwise be evicted silently, raise
        ``DomainError``; and a file of another owner than this buffer's
        raises ``DependencyError``.
        """

        data = read_npz(path, BUFFER_VERSION)
        stored = data.columns(_BUFFER_COLUMNS)
        owner = int(data.array("owner", (), "iu"))
        widths = (data["states"].shape[1], data["actions"].shape[1])
        if data["next_states"].shape[1] != widths[0]:
            raise DependencyError(f"{path} holds next states of another width "
                                  f"than its states ({widths[0]})")
        if widths != self.dims:
            raise DimensionError(
                f"{path} holds (state, action) rows of widths {widths}, "
                f"expected {self.dims}")
        if stored > self.capacity:
            raise DomainError(
                f"{path} holds {stored} transitions, more than the "
                f"capacity {self.capacity}")
        if owner != self.owner:
            raise DependencyError(f"{path} holds the buffer of cell {owner}")
        for row in zip(*(data[name] for name in _BUFFER_COLUMNS)):
            self.add(*row)


@dataclass(frozen=True)
class Td3Config:
    gamma: float = 0.1
    actor_lr: float = 5e-4
    critic_lr: float = 1e-3
    batch_size: int = 32
    policy_delay: int = 2
    target_noise: float = 0.1  # logit-space std for target smoothing
    noise_clip: float = 0.2
    tau: float = 0.005
    buffer_capacity: int = 20_000
    explore_noise: float = 0.3  # logit-space std at the start of training
    explore_noise_final: float = 0.05  # std after linear decay
    updates_per_step: int = 8  # gradient updates per environment slot
    actor_hidden: tuple[int, int] = (48, 24)
    critic_hidden: tuple[int, int] = (64, 24)

    def __post_init__(self) -> None:
        for name in ("batch_size", "policy_delay", "buffer_capacity"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.updates_per_step < 0:
            raise ConfigurationError("updates_per_step must be >= 0")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigurationError(f"tau must lie in [0, 1], got {self.tau}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1), got {self.gamma}")
        for name in ("actor_lr", "critic_lr"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        for name in ("target_noise", "noise_clip", "explore_noise",
                     "explore_noise_final"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        for name in ("actor_hidden", "critic_hidden"):
            if any(size < 1 for size in getattr(self, name)):
                raise ConfigurationError(
                    f"{name} sizes must be >= 1, got {list(getattr(self, name))}")


NETWORKS = ("actor", "q1", "q2", "target_actor", "target_q1", "target_q2")
OPTIMIZED = ("actor", "q1", "q2")  # the networks with an Adam state


class Td3Agent:
    """TD3 learner for one cell's resource partitioning.

    ``seed`` spawns three streams: network initialisation, exploration and
    the replay buffer's sampling seed. A target network starts as a copy of
    its online network.
    """

    def __init__(self, cell_id: int, n_slices: int, config: Td3Config, seed: int):
        self.cell_id = cell_id
        self.n_slices = n_slices
        self.config = config
        init_seq, explore_seq, buffer_seq = np.random.SeedSequence(seed).spawn(3)
        self.explore_rng = np.random.default_rng(explore_seq)
        init_rng = np.random.default_rng(init_seq)
        state_dim = 4 * n_slices
        self.actor = nn.init_mlp([state_dim, *config.actor_hidden, n_slices],
                                 "softmax", init_rng)
        critic = [state_dim + n_slices, *config.critic_hidden, 1]
        self.q1 = nn.init_mlp(critic, "identity", init_rng)
        self.q2 = nn.init_mlp(critic, "identity", init_rng)
        online = (self.actor, self.q1, self.q2)
        self.target_actor, self.target_q1, self.target_q2 = (net.copy() for net in online)
        self.actor_adam, self.q1_adam, self.q2_adam = (
            nn.AdamState.for_params(net) for net in online)
        self.buffer = ReplayBuffer(
            config.buffer_capacity, int(buffer_seq.generate_state(1)[0]),
            owner=cell_id, dims=(state_dim, n_slices),
            evict_threshold=config.batch_size,
        )
        self.step_count = 0
        self.frozen_actor_layers = 0
        self.diverged: str | None = None  # the error that stopped its training

    def networks(self) -> dict[str, nn.Mlp]:
        return {name: getattr(self, name) for name in NETWORKS}

    def adams(self) -> dict[str, nn.AdamState]:
        return {name: getattr(self, f"{name}_adam") for name in OPTIMIZED}


def select_action(
    agent: Td3Agent, state: np.ndarray, noise_scale: float | None = None
) -> np.ndarray:
    """The actor's share row for one state: greedy when ``noise_scale`` is
    None, else with logit-space Gaussian noise of that std from the agent's
    exploration stream."""

    state = np.asarray(state, dtype=np.float64)
    if state.shape != (agent.actor.in_dim,):
        raise DimensionError(
            f"state length {state.shape} does not match actor input "
            f"{agent.actor.in_dim}"
        )
    logits = nn.mlp_logits(agent.actor, state)
    if noise_scale is not None:
        logits = logits + noise_scale * agent.explore_rng.standard_normal(logits.shape)
    return nn.softmax(logits)


def soft_update(target: nn.Mlp, online: nn.Mlp, tau: float) -> nn.Mlp:
    """In-place Polyak averaging: target <- tau * online + (1 - tau) * target."""

    if not (0.0 <= tau <= 1.0):
        raise DomainError(f"tau must lie in [0, 1], got {tau}")
    if target.sizes != online.sizes:
        raise DimensionError("target/online shapes differ")
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat
    return target


def train_step(agent: Td3Agent, batch: Batch) -> tuple[float, float, float | None]:
    """One TD3 update from a batch; returns (q1 loss, q2 loss, actor loss).

    The actor (and the target nets) update only on every ``policy_delay``-th
    completed update, counted by the critic's Adam step count
    ``q1_adam.t``, which a checkpoint keeps; on other calls the third
    element is None.
    """

    s, _, r, s2, sa = batch
    b = len(r)
    if b < 1:
        raise EmptySetError("training batch must contain at least one transition")
    cfg = agent.config

    # Target action with clipped logit noise, then the pessimistic target.
    logits2 = nn.mlp_logits(agent.target_actor, s2)
    noise = cfg.target_noise * agent.explore_rng.standard_normal(logits2.shape)
    np.maximum(noise, -cfg.noise_clip, out=noise)  # np.clip's order
    np.minimum(noise, cfg.noise_clip, out=noise)
    logits2 += noise
    s2a2 = np.concatenate([s2, nn.softmax(logits2)], axis=1)  # for both critics
    q1_t, _ = nn.mlp_forward(agent.target_q1, s2a2)
    q2_t, _ = nn.mlp_forward(agent.target_q2, s2a2)
    y = r + cfg.gamma * np.minimum(q1_t[:, 0], q2_t[:, 0])
    if not np.logical_and.reduce(np.isfinite(y)):
        raise NumericError("non-finite critic target; step aborted")

    losses = []
    for critic in (agent.q1, agent.q2):
        q, cache = nn.mlp_forward(critic, sa)
        err = q[:, 0] - y
        loss = float(np.add.reduce(err * err)) / b
        if not math.isfinite(loss):
            raise NumericError("non-finite critic loss; step aborted")
        err *= 2.0  # the output gradient (2.0 * err) / b, in place
        err /= b
        nn.mlp_backward(critic, cache, err[:, None])
        losses.append(loss)
    nn.adam_step(agent.q1_adam, agent.q1, cfg.critic_lr)
    nn.adam_step(agent.q2_adam, agent.q2, cfg.critic_lr)

    actor_loss = None
    if agent.q1_adam.t % cfg.policy_delay == 0:
        pi, actor_cache = nn.mlp_forward(agent.actor, s)
        q, q_cache = nn.mlp_forward(agent.q1, np.concatenate([s, pi], axis=1))
        actor_loss = -(float(np.add.reduce(q, axis=None)) / b)
        if not math.isfinite(actor_loss):
            raise NumericError("non-finite actor loss; step aborted")
        _, dinput = nn.mlp_backward(
            agent.q1, q_cache, np.full((b, 1), -1.0 / b)
        )
        da = dinput[:, s.shape[1]:]
        nn.mlp_backward(agent.actor, actor_cache, da)
        nn.adam_step(agent.actor_adam, agent.actor, cfg.actor_lr,
                     agent.frozen_actor_layers)
        soft_update(agent.target_actor, agent.actor, cfg.tau)
        soft_update(agent.target_q1, agent.q1, cfg.tau)
        soft_update(agent.target_q2, agent.q2, cfg.tau)
    return losses[0], losses[1], actor_loss


# ---------------------------------------------------------------------------
# Agent persistence.
# ---------------------------------------------------------------------------


CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class CheckpointMeta:
    """The agent fields a checkpoint's ``meta_json`` holds next to its vectors."""

    cell_id: int
    n_slices: int
    step_count: int
    frozen_actor_layers: int
    adam_steps: tuple[int, int, int]  # ``AdamState.t`` of each network in OPTIMIZED
    config: Td3Config

    def __post_init__(self) -> None:
        if self.n_slices < 1:
            raise ConfigurationError(f"n_slices must be >= 1, got {self.n_slices}")
        if self.step_count < 0:
            raise ConfigurationError(f"step_count must be >= 0, got {self.step_count}")
        layers = len(self.config.actor_hidden) + 1
        if not 0 <= self.frozen_actor_layers < layers:
            raise ConfigurationError(
                f"frozen_actor_layers must lie in [0, {layers}) (the actor's "
                f"layers), got {self.frozen_actor_layers}")
        if min(self.adam_steps) < 0:
            raise ConfigurationError(
                f"adam_steps must be >= 0, got {list(self.adam_steps)}")


def save_agent(agent: Td3Agent, path) -> None:
    """Write ``agent`` as a v2 checkpoint. Its npz members, in order:
    ``version``, ``meta_json`` (a ``CheckpointMeta``), the flat vector of
    each network in ``NETWORKS``, named after it, and ``<name>.m``,
    ``<name>.v``, the Adam moments of each network in ``OPTIMIZED``."""

    adams = agent.adams()
    meta = CheckpointMeta(agent.cell_id, agent.n_slices, agent.step_count,
                          agent.frozen_actor_layers,
                          tuple(adam.t for adam in adams.values()), agent.config)
    members = {"meta_json": np.array(json.dumps(to_plain(meta), sort_keys=True))}
    members.update((name, net.flat) for name, net in agent.networks().items())
    for name, adam in adams.items():
        members[f"{name}.m"], members[f"{name}.v"] = adam.m, adam.v
    write_npz(path, CHECKPOINT_VERSION, members)


def load_agent(path, seed: int = 0) -> Td3Agent:
    """The agent of a ``save_agent`` checkpoint: a fresh agent seeded with
    ``seed`` for the meta's cell, slice count and TD3 config, whose vectors,
    Adam step counts, step count and frozen actor layers are then
    overwritten in place from the file.

    Every vector's length is the fresh agent's. A file that
    ``codec.read_npz`` rejects (missing, not an npz archive, an unreadable
    or missing member, another version), a meta that is not JSON, lacks a
    field or holds one of another type or out of range, and a vector of
    another length or not of floats raise ``DependencyError``.
    """

    data = read_npz(path, CHECKPOINT_VERSION)
    try:
        plain = json.loads(str(data.array("meta_json", (), "U")))
    except json.JSONDecodeError as exc:
        raise DependencyError(f"{path}: meta_json is not JSON: {exc}") from exc
    try:
        meta = from_plain(CheckpointMeta, plain, f"{path} meta")
    except ConfigurationError as exc:
        raise DependencyError(str(exc)) from exc
    agent = Td3Agent(meta.cell_id, meta.n_slices, meta.config, seed)
    for name, net in agent.networks().items():
        net.flat[...] = data.array(name, net.flat.shape, "f")
    for (name, adam), t in zip(agent.adams().items(), meta.adam_steps):
        adam.m[...] = data.array(f"{name}.m", adam.m.shape, "f")
        adam.v[...] = data.array(f"{name}.v", adam.v.shape, "f")
        adam.t = t
    agent.step_count = meta.step_count
    agent.frozen_actor_layers = meta.frozen_actor_layers
    return agent
