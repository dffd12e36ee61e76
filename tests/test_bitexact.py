"""Bit-for-bit oracles: the TD3 update, the one-block replay buffer and the
VAE's minibatch step reproduce the frozen implementations in
``frozen_td3`` byte for byte (networks, Adam moments, random streams)."""

from types import SimpleNamespace

import numpy as np
import pytest

from slicetl.agent import (
    NETWORKS,
    OPTIMIZED,
    ReplayBuffer,
    Td3Agent,
    Td3Config,
    train_step,
)
from slicetl.similarity import vae_train
from slicetl.transfer import feature_transfer, instance_transfer

from . import frozen_td3 as ref

N_SLICES = 4


def _row(rng, origin):
    return (rng.standard_normal(4 * N_SLICES), rng.dirichlet(np.ones(N_SLICES)),
            float(rng.uniform()), rng.standard_normal(4 * N_SLICES), origin)


def _twin(agent):
    """A frozen-reference copy of a fresh ``agent``: its networks, Adam
    states and exploration stream, and a column buffer on its seed."""

    rng = np.random.default_rng()
    rng.bit_generator.state = agent.explore_rng.bit_generator.state
    twin = SimpleNamespace(
        config=agent.config, explore_rng=rng, train_calls=agent.train_calls,
        frozen_actor_layers=agent.frozen_actor_layers,
        buffer=ref.ReplayBuffer(agent.buffer.capacity, agent.buffer.seed,
                                agent.buffer.owner, agent.buffer.evict_threshold),
    )
    for name, net in agent.networks().items():
        setattr(twin, name, ref.Mlp(net.weights, net.biases, net.head))
    for name in OPTIMIZED:
        adam = getattr(agent, f"{name}_adam")
        setattr(twin, f"{name}_adam", ref.AdamState(
            adam.m_w, adam.v_w, adam.m_b, adam.v_b, t=adam.t))
    return twin


def _add(agent, twin, row):
    agent.buffer.add(*row)
    twin.buffer.add(*row)


def _assert_same_buffers(buf, ref_buf):
    assert len(buf) == len(ref_buf)
    got, want = buf.rows(np.arange(len(buf))), ref_buf.rows(np.arange(len(ref_buf)))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert np.array_equal(buf._origins[:len(buf)], ref_buf._origins[:len(ref_buf)])
    assert buf._rng.bit_generator.state == ref_buf._rng.bit_generator.state


def _assert_same(agent, twin):
    for name in NETWORKS:
        got, want = getattr(agent, name), getattr(twin, name)
        assert got.flat.tobytes() == want.flat.tobytes(), name
    for name in OPTIMIZED:
        got, want = getattr(agent, f"{name}_adam"), getattr(twin, f"{name}_adam")
        assert got.t == want.t
        assert got.m.tobytes() == want.m.tobytes(), name
        assert got.v.tobytes() == want.v.tobytes(), name
    assert agent.train_calls == twin.train_calls
    assert agent.explore_rng.bit_generator.state == twin.explore_rng.bit_generator.state
    _assert_same_buffers(agent.buffer, twin.buffer)


def _train_both(agent, twin, rng, updates, origin):
    """``updates`` rounds of one new transition and one update per side;
    returns the number of actor updates."""

    policy_steps = 0
    for _ in range(updates):
        _add(agent, twin, _row(rng, origin))
        batch_size = agent.config.batch_size
        got = train_step(agent, agent.buffer.sample(batch_size))
        want = ref.train_step(twin, twin.buffer.sample(batch_size))
        assert got == want
        policy_steps += got[2] is not None
    return policy_steps


def test_td3_updates_cross_policy_delays_bit_for_bit():
    rng = np.random.default_rng(20)
    # A batch of 24 is not a power of two, so dividing by it rounds.
    for delay, updates, batch in ((2, 9, 32), (3, 10, 24)):
        cfg = Td3Config(policy_delay=delay, batch_size=batch)
        agent = Td3Agent(1, N_SLICES, cfg, seed=delay)
        twin = _twin(agent)
        for _ in range(40):
            _add(agent, twin, _row(rng, 1))
        assert _train_both(agent, twin, rng, updates, 1) == updates // delay >= 3
        _assert_same(agent, twin)


def test_feature_transfer_agent_with_frozen_prefix_bit_for_bit():
    rng = np.random.default_rng(21)
    cfg = Td3Config(batch_size=20)
    source = Td3Agent(1, N_SLICES, cfg, seed=4)
    agent = feature_transfer(source, Td3Agent(3, N_SLICES, cfg, seed=5),
                             frozen_layers=2)
    frozen = agent.actor.flat[:agent.actor.layer_offset(2)].copy()
    twin = _twin(agent)
    for _ in range(20):
        _add(agent, twin, _row(rng, 3))
    assert _train_both(agent, twin, rng, 8, 3) == 4
    _assert_same(agent, twin)
    assert np.array_equal(agent.actor.flat[:agent.actor.layer_offset(2)], frozen)


def test_buffer_that_evicted_foreign_rows_bit_for_bit():
    rng = np.random.default_rng(22)
    cfg = Td3Config(batch_size=12, buffer_capacity=30)  # evicts foreign after 12 own
    agent = Td3Agent(3, N_SLICES, cfg, seed=6)
    twin = _twin(agent)
    for _ in range(12):  # own rows older than the foreign ones
        _add(agent, twin, _row(rng, 3))
    source = ReplayBuffer(50, seed=0, owner=1)
    for _ in range(24):
        source.add(*_row(rng, 1))
    instance_transfer(source, agent.buffer, 0.75, seed=7)
    moved = source.rows(np.sort(np.random.default_rng(7).choice(24, 18, replace=False)))
    for row in zip(moved.states, moved.actions, moved.rewards, moved.next_states):
        twin.buffer.add(*row, 1)
    _assert_same_buffers(agent.buffer, twin.buffer)
    _train_both(agent, twin, rng, 12, 3)
    # 42 rows went into 30 places: the 12 evicted were all foreign.
    assert agent.buffer.origin_counts() == {3: 24, 1: 6}
    _assert_same(agent, twin)


@pytest.mark.parametrize("rows, settings", [
    (150, dict(kl_weight=1e-3, latent_dim=4, hidden=(64, 24), batch_size=32)),
    # A larger KL weight, other shapes and a partial last batch (101 = 4 x 24 + 5).
    (101, dict(kl_weight=0.05, latent_dim=2, hidden=(32, 8), batch_size=24)),
], ids=["shipped", "partial-batch"])
def test_vae_three_epochs_bit_for_bit(rows, settings):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((rows, 17)) * rng.uniform(0.5, 3.0, 17)
    x += rng.uniform(-1.0, 1.0, 17)
    kwargs = dict(epochs=3, seed=8, lr=1e-3, **settings)
    model = vae_train(x, min_samples=50, **kwargs)
    encoder, decoder, history = ref.vae_train(
        (x - model.feature_mean) / model.feature_std, **kwargs)
    assert model.encoder.flat.tobytes() == encoder.flat.tobytes()
    assert model.decoder.flat.tobytes() == decoder.flat.tobytes()
    assert model.loss_history == history


def test_sample_is_one_block_with_critic_input_view():
    rng = np.random.default_rng(24)
    buf = ReplayBuffer(20, seed=3, owner=1)
    for _ in range(10):
        buf.add(*_row(rng, 1))
    batch = buf.sample(6)
    block = batch.state_actions.base
    assert block.shape == (6, 2 * 4 * N_SLICES + N_SLICES + 1)
    assert all(field.base is block for field in batch)
    assert not np.shares_memory(block, buf._data)
    assert np.array_equal(batch.state_actions, np.hstack([batch.states, batch.actions]))
