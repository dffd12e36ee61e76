"""Agent tests: coordination features, replay buffer, TD3 updates."""

import dataclasses
import re
import tracemalloc
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicetl import env, nn
from slicetl.agent import (
    Batch,
    ReplayBuffer,
    Td3Agent,
    Td3Config,
    load_agent,
    save_agent,
    select_action,
    soft_update,
    train_step,
)
from slicetl.errors import DependencyError, DimensionError, DomainError, EmptySetError
from slicetl.runner import assemble_all_states
from slicetl.scenario import load_config, smoke_scenario


class Row(NamedTuple):
    """One hand-built transition, in the argument order of ``ReplayBuffer.add``."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    origin: int


DIMS = (8, 2)  # the (state, action) widths of a 2-slice transition


def _transition(rng, n=2, origin=0):
    return Row(
        rng.standard_normal(4 * n), rng.dirichlet(np.ones(n)),
        float(rng.uniform()), rng.standard_normal(4 * n), origin,
    )


def _batch(transitions):
    """Stack hand-built transitions into a training batch."""

    states = np.stack([t.state for t in transitions])
    actions = np.stack([t.action for t in transitions])
    block = np.hstack([states, actions, [[t.reward] for t in transitions],
                       np.stack([t.next_state for t in transitions])])
    return Batch.from_block(block, states.shape[1], actions.shape[1])


def _assert_contents(buf, expected):
    """The buffer holds exactly ``expected``, oldest first."""

    assert len(buf) == len(expected)
    assert buf.origin_counts() == dict(Counter(t.origin for t in expected))
    if expected:
        _assert_batch_rows(buf.rows(np.arange(len(buf))), expected)


def _assert_batch_rows(batch, expected):
    assert np.array_equal(batch.states, np.stack([t.state for t in expected]))
    assert np.array_equal(batch.actions, np.stack([t.action for t in expected]))
    assert np.array_equal(batch.rewards, [t.reward for t in expected])
    assert np.array_equal(batch.next_states,
                          np.stack([t.next_state for t in expected]))


# ---------------------------------------------------------------------------
# Neighbour features and state assembly
# ---------------------------------------------------------------------------


def _two_slice_cells(neighbors: dict[int, tuple[int, ...]]) -> env.ScenarioConfig:
    """Cells with the neighbour lists ``neighbors``, each of two slices with
    throughput targets of at most 4 Mbit/s and 8 users per slice."""

    return env.ScenarioConfig(cells=tuple(env.CellConfig(
        cell_id=cid, bandwidth=10.0,
        requirements=(env.SliceRequirement(2.0, 1.0), env.SliceRequirement(4.0, 1.0)),
        neighbor_ids=ids, max_ues_per_slice=8, base_snr_db=10.0,
        interference_gains=(1.0,) * len(ids), ue_rates=(1.0, 1.0),
        masks=(env.TrafficMaskParams(),) * 2) for cid, ids in neighbors.items()))


def _snapshot(throughput, load, ues) -> env.NetworkState:
    """A network state holding the given (K, N) metrics."""

    load = np.array(load, dtype=np.float64)
    zeros = np.zeros_like(load)
    ues = np.array(ues, dtype=np.float64)
    return env.NetworkState(0, np.array(throughput, dtype=np.float64), zeros, load,
                            ues, ues, zeros, np.stack((ues, zeros))[None], {})


def test_neighbor_features_are_mean_loads():
    loads = np.array([[0.2, 0.4], [0.6, 0.0]])  # two neighbours' slice loads
    scenario = _two_slice_cells({1: (2, 3), 2: (1,), 3: (1,)})
    states = assemble_all_states(scenario, _snapshot(
        np.zeros((3, 2)), np.vstack([np.zeros(2), loads]), np.zeros((3, 2))))
    assert np.allclose(states[0, 6:], [0.4, 0.2])


def test_neighbor_features_empty_is_zero():
    """An isolated cell's neighbour feature is the zero vector."""

    cell = smoke_scenario().cells[0]
    isolated = env.ScenarioConfig(cells=(dataclasses.replace(
        cell, neighbor_ids=(), interference_gains=()),))
    states = assemble_all_states(isolated, env.init_network(isolated, seed=0))
    n = isolated.n_slices
    assert np.array_equal(states[0, 3 * n:], np.zeros(n))


def test_assemble_state_layout():
    scenario = _two_slice_cells({1: (2,), 2: (1,)})
    state = assemble_all_states(scenario, _snapshot(
        [[1.0, 2.0], [0.0, 0.0]], [[0.3, 0.6], [0.1, 0.2]], [[4, 8], [0, 0]]))[0]
    expected = [1 / 4, 2 / 4, 0.3, 0.6, 4 / 8, 8 / 8, 0.1, 0.2]
    assert np.allclose(state, expected)


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------


def test_buffer_evicts_oldest_when_all_own():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(capacity=3, seed=0, owner=0, dims=DIMS, evict_threshold=2)
    items = [_transition(rng) for _ in range(4)]
    for tr in items:
        buf.add(*tr)
    assert len(buf) == 3
    _assert_contents(buf, items[1:])  # oldest evicted


def test_buffer_evicts_foreign_first_once_owner_established():
    rng = np.random.default_rng(1)
    buf = ReplayBuffer(capacity=4, seed=0, owner=0, dims=DIMS, evict_threshold=2)
    foreign = [_transition(rng, origin=9) for _ in range(2)]
    own = [_transition(rng, origin=0) for _ in range(3)]
    for tr in foreign + own[:2]:
        buf.add(*tr)
    buf.add(*own[2])  # at capacity with 2 own -> foreign evicted first
    counts = buf.origin_counts()
    assert counts == {9: 1, 0: 3}
    _assert_contents(buf, [foreign[1], *own])


def test_buffer_evicts_oldest_before_owner_established():
    rng = np.random.default_rng(2)
    buf = ReplayBuffer(capacity=2, seed=0, owner=0, dims=DIMS, evict_threshold=5)
    a, b, c = (_transition(rng, origin=9) for _ in range(3))
    buf.add(*a)
    buf.add(*b)
    buf.add(*c)
    _assert_contents(buf, [b, c])


def test_buffer_sampling_is_seeded():
    rng = np.random.default_rng(3)
    items = [_transition(rng) for _ in range(10)]
    buf1 = ReplayBuffer(capacity=10, seed=42, owner=0, dims=DIMS)
    buf2 = ReplayBuffer(capacity=10, seed=42, owner=0, dims=DIMS)
    for tr in items:
        buf1.add(*tr)
        buf2.add(*tr)
    s1 = buf1.sample(5)
    s2 = buf2.sample(5)
    expected = [items[i] for i in np.random.default_rng(42).integers(0, 10, size=5)]
    _assert_batch_rows(s1, expected)
    _assert_batch_rows(s2, expected)


def test_buffer_sample_empty_raises():
    with pytest.raises(EmptySetError):
        ReplayBuffer(capacity=2, seed=0, owner=0, dims=DIMS).sample(1)


def _assert_same_buffer(loaded, original):
    """``loaded`` holds ``original``'s transitions, every column, with their
    origins in the same order."""

    n = len(original)
    assert len(loaded) == n
    assert np.array_equal(loaded._origins[:n], original._origins[:n])
    for a, b in zip(loaded.rows(np.arange(n)), original.rows(np.arange(n))):
        assert np.array_equal(a, b)


def test_buffer_export_load_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(capacity=10, seed=0, owner=3, dims=DIMS)
    for origin in (3, 7, 3):
        buf.add(*_transition(rng, origin=origin))
    path = tmp_path / "buf.npz"
    buf.export(path)
    loaded = ReplayBuffer(capacity=10, seed=0, owner=3, dims=DIMS)
    loaded.load(path)
    assert loaded.origin_counts() == {3: 2, 7: 1}
    _assert_same_buffer(loaded, buf)


def test_buffer_loaded_at_capacity_evicts_as_the_original(tmp_path):
    """A full buffer with foreign rows, exported and loaded, evicts the same
    row on its next own ``add``: the first foreign one once the owner has
    its threshold of own rows, else the oldest."""

    rng = np.random.default_rng(14)
    # With 3 own rows stored, the victim is the first foreign row, then the oldest.
    for threshold, after in ((3, {3: 4, 7: 1}), (4, {3: 3, 7: 2})):
        buf = ReplayBuffer(capacity=5, seed=0, owner=3, dims=DIMS,
                           evict_threshold=threshold)
        for origin in (3, 7, 3, 7, 3):
            buf.add(*_transition(rng, origin=origin))
        path = tmp_path / "buf.npz"
        buf.export(path)
        loaded = ReplayBuffer(capacity=5, seed=0, owner=3, dims=DIMS,
                              evict_threshold=threshold)
        loaded.load(path)
        new = _transition(rng, origin=3)
        buf.add(*new)
        loaded.add(*new)
        assert loaded.origin_counts() == after
        _assert_same_buffer(loaded, buf)


def test_buffer_load_rejects_more_transitions_than_capacity(tmp_path):
    rng = np.random.default_rng(12)
    buf = ReplayBuffer(capacity=10, seed=0, owner=3, dims=DIMS)
    for _ in range(5):
        buf.add(*_transition(rng, origin=3))
    path = tmp_path / "buf.npz"
    buf.export(path)
    exact = ReplayBuffer(capacity=5, seed=0, owner=3, dims=DIMS)
    exact.load(path)
    assert len(exact) == 5
    with pytest.raises(DomainError):
        ReplayBuffer(capacity=4, seed=0, owner=3, dims=DIMS).load(path)


def test_buffer_load_checks_the_owner_last(tmp_path):
    """A file of another owner fails naming it and leaves the buffer empty;
    one that is also of other widths fails on its widths: the owner is
    checked last."""

    rng = np.random.default_rng(15)
    buf = ReplayBuffer(capacity=10, seed=0, owner=3, dims=DIMS)
    for _ in range(2):
        buf.add(*_transition(rng, origin=3))
    path = tmp_path / "buf.npz"
    buf.export(path)
    other = ReplayBuffer(capacity=10, seed=0, owner=4, dims=DIMS)
    with pytest.raises(DependencyError,
                       match=re.escape(f"{path} holds the buffer of cell 3")):
        other.load(path)
    assert len(other) == 0
    with pytest.raises(DimensionError):
        ReplayBuffer(capacity=10, seed=0, owner=4, dims=(12, 3)).load(path)


def test_buffer_load_rejects_columns_of_unequal_length(tmp_path):
    """A torn file, 5 states but 3 rewards, fails rather than loading as
    the 3 transitions the shortest column allows."""

    rng = np.random.default_rng(13)
    buf = ReplayBuffer(capacity=10, seed=0, owner=3, dims=DIMS)
    for _ in range(5):
        buf.add(*_transition(rng, origin=3))
    path = tmp_path / "buf.npz"
    buf.export(path)
    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    members["rewards"] = members["rewards"][:3]
    np.savez(path, **members)
    with pytest.raises(DependencyError) as err:
        ReplayBuffer(capacity=10, seed=0, owner=3, dims=DIMS).load(path)
    assert str(path) in str(err.value)
    assert "'states': 5" in str(err.value) and "'rewards': 3" in str(err.value)


def test_buffer_rows_are_copies():
    rng = np.random.default_rng(13)
    buf = ReplayBuffer(capacity=2, seed=0, owner=0, dims=DIMS)
    first, second, third = (_transition(rng) for _ in range(3))
    buf.add(*first)
    buf.add(*second)
    items = buf.rows(np.arange(2))
    buf.add(*third)  # evicts ``first`` and shifts ``second`` into its row
    _assert_batch_rows(items, [first, second])


class _ListBuffer:
    """Reference model: the list-of-transitions replay buffer."""

    def __init__(self, capacity, seed, owner, evict_threshold):
        self.capacity, self.owner, self.evict_threshold = (
            capacity, owner, evict_threshold)
        self.rng = np.random.default_rng(seed)
        self.items = []
        self.own = 0

    def add(self, tr):
        if len(self.items) >= self.capacity:
            self.evict()
        self.items.append(tr)
        self.own += tr.origin == self.owner

    def evict(self):
        if self.own >= self.evict_threshold:
            for i, tr in enumerate(self.items):
                if tr.origin != self.owner:
                    del self.items[i]
                    return
        self.own -= self.items.pop(0).origin == self.owner

    def sample(self, b):
        return [self.items[i] for i in self.rng.integers(0, len(self.items), size=b)]

    def origin_counts(self):
        counts = {}
        for tr in self.items:
            counts[tr.origin] = counts.get(tr.origin, 0) + 1
        return counts


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 12),
    threshold=st.integers(0, 6),
    ops=st.lists(st.one_of(st.sampled_from([0, 0, 0, 5, 9]),  # add from an origin
                           st.integers(1, 4).map(lambda b: -b)),  # sample b rows
                 max_size=60),
    seed=st.integers(0, 2**16),
)
def test_buffer_matches_list_reference(capacity, threshold, ops, seed):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity, seed, owner=0, dims=(12, 3), evict_threshold=threshold)
    ref = _ListBuffer(capacity, seed, owner=0, evict_threshold=threshold)
    for op in ops:
        if op >= 0:
            tr = _transition(rng, n=3, origin=op)
            buf.add(*tr)
            ref.add(tr)
        elif ref.items:
            _assert_batch_rows(buf.sample(-op), ref.sample(-op))
        assert len(buf) == len(ref.items)
        assert buf.origin_counts() == ref.origin_counts()
    _assert_contents(buf, ref.items)


# ---------------------------------------------------------------------------
# Action selection and soft updates
# ---------------------------------------------------------------------------


def test_select_action_deterministic_without_exploration():
    agent = Td3Agent(0, 4, Td3Config(), seed=0)
    state = np.random.default_rng(0).standard_normal(16)
    a1 = select_action(agent, state)
    a2 = select_action(agent, state)
    assert np.array_equal(a1, a2)


def test_select_action_always_simplex_valid():
    agent = Td3Agent(0, 4, Td3Config(explore_noise=5.0), seed=1)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = select_action(agent, rng.standard_normal(16), agent.config.explore_noise)
        assert np.all(a >= 0) and abs(a.sum() - 1.0) <= 1e-9


def test_select_action_rejects_wrong_state_dim():
    agent = Td3Agent(0, 2, Td3Config(), seed=0)
    with pytest.raises(DimensionError):
        select_action(agent, np.zeros(5))


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    tau=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_soft_update_matches_per_layer_reference(sizes, tau, seed):
    rng = np.random.default_rng(seed)
    online = nn.init_mlp(sizes, "identity", rng)
    target = nn.init_mlp(sizes, "identity", rng)
    ref_w = [w.copy() for w in target.weights]
    ref_b = [b.copy() for b in target.biases]
    for tw, ow in zip(ref_w + ref_b, online.weights + online.biases):
        tw *= 1.0 - tau
        tw += tau * ow
    soft_update(target, online, tau)
    for got, want in zip(target.weights + target.biases, ref_w + ref_b):
        assert np.array_equal(got, want)


def test_soft_update_endpoints_and_blend():
    rng = np.random.default_rng(6)
    agent = Td3Agent(0, 2, Td3Config(), seed=2)
    online = agent.actor
    target = agent.actor.copy()
    for w in online.weights:
        w += 1.0
    frozen = [w.copy() for w in target.weights]
    soft_update(target, online, tau=0.25)
    for tw, fw, ow in zip(target.weights, frozen, online.weights):
        assert np.allclose(tw, 0.75 * fw + 0.25 * ow)
    soft_update(target, online, tau=1.0)
    for tw, ow in zip(target.weights, online.weights):
        assert np.allclose(tw, ow)
    with pytest.raises(DomainError):
        soft_update(target, online, tau=1.5)


# ---------------------------------------------------------------------------
# TD3 updates
# ---------------------------------------------------------------------------


def test_train_step_policy_delay():
    rng = np.random.default_rng(7)
    agent = Td3Agent(0, 2, Td3Config(policy_delay=2), seed=3)
    batch = _batch([_transition(rng) for _ in range(8)])
    actor_before = [w.copy() for w in agent.actor.weights]
    _, _, actor_loss1 = train_step(agent, batch)
    assert actor_loss1 is None
    for w, before in zip(agent.actor.weights, actor_before):
        assert np.array_equal(w, before)  # actor untouched on odd calls
    _, _, actor_loss2 = train_step(agent, batch)
    assert actor_loss2 is not None
    assert any(
        not np.array_equal(w, before)
        for w, before in zip(agent.actor.weights, actor_before)
    )


def test_train_step_updates_both_critics():
    rng = np.random.default_rng(8)
    agent = Td3Agent(0, 2, Td3Config(), seed=4)
    q1_before = [w.copy() for w in agent.q1.weights]
    q2_before = [w.copy() for w in agent.q2.weights]
    l1, l2, _ = train_step(agent, _batch([_transition(rng) for _ in range(8)]))
    assert np.isfinite(l1) and np.isfinite(l2)
    assert any(not np.array_equal(w, b) for w, b in zip(agent.q1.weights, q1_before))
    assert any(not np.array_equal(w, b) for w, b in zip(agent.q2.weights, q2_before))


def test_train_step_empty_batch_raises():
    agent = Td3Agent(0, 2, Td3Config(), seed=5)
    with pytest.raises(EmptySetError):
        train_step(agent, Batch.from_block(np.zeros((0, 19)), 8, 2))


def test_critic_learns_two_state_chain_values():
    """Scripted 2-state alternating chain with action-independent rewards:
    the critics must approach the tabular values V0 = (r0 + g*r1)/(1 - g^2)."""

    gamma = 0.1
    r0, r1 = 0.2, 0.8
    v0 = (r0 + gamma * r1) / (1 - gamma**2)
    v1 = (r1 + gamma * r0) / (1 - gamma**2)
    n = 2
    s0 = np.zeros(4 * n)
    s1 = np.ones(4 * n)
    agent = Td3Agent(0, n, Td3Config(gamma=gamma), seed=6)
    rng = np.random.default_rng(9)
    for _ in range(300):
        agent.buffer.add(s0, rng.dirichlet(np.ones(n)), r0, s1, 0)
        agent.buffer.add(s1, rng.dirichlet(np.ones(n)), r1, s0, 0)
    for _ in range(3000):
        train_step(agent, agent.buffer.sample(32))
    for s, v in ((s0, v0), (s1, v1)):
        for _ in range(5):
            a = rng.dirichlet(np.ones(n))
            q, _ = nn.mlp_forward(agent.q1, np.concatenate([s, a]))
            assert q[0] == pytest.approx(v, abs=0.05)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_agent_holds_only_its_vectors():
    """A smoke3 agent allocates its six parameter vectors, the gradient
    workspaces and Adam moments m and v of its three trained networks, and
    a little object overhead: Adam's temporaries live for one call."""

    cfg = load_config("smoke3")
    n = cfg.scenario.n_slices
    Td3Agent(1, n, cfg.td3, seed=0)  # the first build pays numpy's lazy set-up
    tracemalloc.start()
    try:
        agent = Td3Agent(1, n, cfg.td3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trained = sum(net.flat.nbytes for net in (agent.actor, agent.q1, agent.q2))
    # 2 parameter copies + 1 gradient workspace + 2 moments, per trained network.
    assert peak <= 5 * trained + 32 * 1024


def test_agent_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    agent = Td3Agent(7, 2, Td3Config(actor_lr=3e-4), seed=7)
    for _ in range(4):
        train_step(agent, _batch([_transition(rng) for _ in range(8)]))
    agent.step_count = 123
    path = tmp_path / "agent.npz"
    save_agent(agent, path)
    loaded = load_agent(path)
    assert loaded.cell_id == 7
    assert loaded.n_slices == 2
    assert loaded.step_count == 123
    assert loaded.config == agent.config
    for name, net in agent.networks().items():
        for w1, w2 in zip(net.weights, loaded.networks()[name].weights):
            assert np.array_equal(w1, w2)
    assert loaded.actor_adam.t == agent.actor_adam.t
    state = rng.standard_normal(8)
    assert np.array_equal(
        select_action(agent, state), select_action(loaded, state)
    )


def test_load_agent_fills_a_fresh_agent(tmp_path):
    """The explore stream and the buffer seed are those of a fresh agent
    with the same seed; the vectors are the checkpoint's."""

    cfg = Td3Config(batch_size=4)
    path = tmp_path / "agent.npz"
    saved = Td3Agent(7, 2, cfg, seed=1)
    save_agent(saved, path)
    fresh = Td3Agent(7, 2, cfg, seed=99)
    loaded = load_agent(path, seed=99)
    assert loaded.buffer.seed == fresh.buffer.seed
    assert np.array_equal(loaded.explore_rng.standard_normal(5),
                          fresh.explore_rng.standard_normal(5))
    for name, net in saved.networks().items():
        assert np.array_equal(loaded.networks()[name].flat, net.flat)
        assert not np.array_equal(fresh.networks()[name].flat, net.flat)
