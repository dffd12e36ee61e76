"""Transfer-strategy tests: copy semantics, freezing, buffer merge, fine-tune."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from slicetl.agent import (
    Batch,
    ReplayBuffer,
    Td3Agent,
    Td3Config,
    select_action,
    train_step,
)
from slicetl.errors import (
    ConfigurationError,
    DomainError,
    IncompatibleArchitectureError,
)
from slicetl.runner import RunLog, agents_act
from slicetl.scenario import TransferParams, smoke_scenario
from slicetl.transfer import (
    apply_transfer,
    feature_transfer,
    fine_tune,
    instance_transfer,
    integrated_transfer,
    model_transfer,
)


def _agent(seed, n=2, cell_id=0, cfg=None):
    return Td3Agent(cell_id, n, cfg or Td3Config(), seed=seed)


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


def _trained(seed, n=2, steps=6):
    rng = np.random.default_rng(seed)
    agent = _agent(seed, n)
    for _ in range(steps):
        train_step(agent, _batch([_transition(rng, n) for _ in range(8)]))
    return agent


# ---------------------------------------------------------------------------
# Transfer parameters
# ---------------------------------------------------------------------------


def test_transfer_params_validation():
    TransferParams(source=1)
    with pytest.raises(ConfigurationError):
        TransferParams(source=1, strategy="teleport")
    for fraction in (-0.5, 1.5):
        with pytest.raises(ConfigurationError):
            TransferParams(source=1, instance_fraction=fraction)


# ---------------------------------------------------------------------------
# Model transfer
# ---------------------------------------------------------------------------


def test_model_transfer_copies_behavior():
    source = _trained(0)
    target = _agent(99)
    rng = np.random.default_rng(1)
    state = rng.standard_normal(8)
    assert not np.allclose(select_action(source, state),
                           select_action(target, state))
    model_transfer(source, target)
    for _ in range(10):
        s = rng.standard_normal(8)
        assert np.array_equal(select_action(source, s),
                              select_action(target, s))


def test_model_transfer_is_a_copy_not_a_view():
    source = _trained(2)
    target = model_transfer(source, _agent(98))
    target.actor.weights[0] += 1.0
    assert not np.array_equal(source.actor.weights[0], target.actor.weights[0])


def test_model_transfer_writes_the_target_networks_in_place():
    """The target keeps its network objects, their parameter vectors and
    their gradient workspaces; only the parameter values change, to the
    source's."""

    source, target = _trained(5), _agent(95)
    before = {name: (net, net.flat, net.grads) for name, net in target.networks().items()}
    model_transfer(source, target)
    for name, net in target.networks().items():
        obj, flat, grads = before[name]
        assert net is obj and net.flat is flat and net.grads is grads, name
        assert np.array_equal(net.flat, source.networks()[name].flat), name
    assert all(target.networks()[name].grads is not None
               for name in ("actor", "q1", "q2"))


def test_model_transfer_resets_optimizer_and_step_count():
    source = _trained(3)
    target = _agent(97)
    target.step_count = 55
    target.q1_adam.t = 9
    model_transfer(source, target)
    assert target.step_count == 0
    assert target.actor_adam.t == 0 and target.q1_adam.t == 0


def test_model_transfer_rejects_shape_mismatch():
    with pytest.raises(IncompatibleArchitectureError):
        model_transfer(_agent(0, n=2), _agent(1, n=3))


# ---------------------------------------------------------------------------
# Feature transfer
# ---------------------------------------------------------------------------


def test_feature_transfer_copies_and_freezes_lower_layers():
    source = _trained(4)
    target = _agent(96)
    head_before = target.actor.weights[-1].copy()
    feature_transfer(source, target, frozen_layers=1)
    assert np.array_equal(target.actor.weights[0], source.actor.weights[0])
    assert np.array_equal(target.actor.weights[-1], head_before)  # head fresh
    assert target.frozen_actor_layers == 1

    frozen = target.actor.weights[0].copy()
    rng = np.random.default_rng(5)
    for _ in range(4):
        train_step(target, _batch([_transition(rng) for _ in range(8)]))
    assert np.array_equal(target.actor.weights[0], frozen)
    assert not np.array_equal(target.actor.weights[-1], head_before)


def test_transfers_keep_weights_views_of_the_flat_vector():
    source = _trained(6)
    nets = model_transfer(source, _agent(97)).networks()
    featured = feature_transfer(source, _agent(98), frozen_layers=2)
    for net in [*nets.values(), *featured.networks().values()]:
        for w, b in zip(net.weights, net.biases):
            assert np.shares_memory(w, net.flat) and np.shares_memory(b, net.flat)
    assert not np.shares_memory(nets["actor"].flat, source.actor.flat)

    frozen = featured.actor.flat[:featured.actor.layer_offset(2)].copy()
    rng = np.random.default_rng(14)
    for _ in range(4):
        train_step(featured, _batch([_transition(rng) for _ in range(8)]))
    assert np.array_equal(featured.actor.flat[:featured.actor.layer_offset(2)],
                          frozen)
    for i in range(2):
        assert np.array_equal(featured.actor.weights[i], source.actor.weights[i])
        assert np.array_equal(featured.actor.biases[i], source.actor.biases[i])


def test_feature_transfer_rejects_bad_layer_count():
    source, target = _agent(0), _agent(1)
    with pytest.raises(DomainError):
        feature_transfer(source, target, frozen_layers=0)
    with pytest.raises(DomainError):
        feature_transfer(source, target, frozen_layers=source.actor.n_layers)


# ---------------------------------------------------------------------------
# Instance transfer
# ---------------------------------------------------------------------------


def test_instance_transfer_counts_and_origin_tagging():
    rng = np.random.default_rng(6)
    src = ReplayBuffer(capacity=100, seed=0, owner=1, dims=DIMS)
    for _ in range(10):
        src.add(*_transition(rng, origin=1))
    tgt = ReplayBuffer(capacity=100, seed=0, owner=2, dims=DIMS)
    for _ in range(3):
        tgt.add(*_transition(rng, origin=2))

    instance_transfer(src, tgt, fraction=0.45, seed=0)
    assert len(tgt) == 3 + math.ceil(0.45 * 10)
    assert tgt.origin_counts() == {2: 3, 1: 5}
    assert len(src) == 10  # source untouched


def test_instance_transfer_fraction_edges():
    rng = np.random.default_rng(7)
    src = ReplayBuffer(capacity=10, seed=0, owner=1, dims=DIMS)
    for _ in range(4):
        src.add(*_transition(rng, origin=1))
    tgt = ReplayBuffer(capacity=10, seed=0, owner=2, dims=DIMS)
    instance_transfer(src, tgt, fraction=0.0, seed=0)
    assert len(tgt) == 0
    instance_transfer(src, tgt, fraction=1.0, seed=0)
    assert len(tgt) == 4
    with pytest.raises(DomainError):
        instance_transfer(src, tgt, fraction=-0.1, seed=0)


def test_instance_transfer_rejects_rows_of_other_widths():
    """A 2-slice source cannot fill a 4-slice target's buffer, even before
    the target has stored a row."""

    rng = np.random.default_rng(8)
    src = ReplayBuffer(capacity=10, seed=0, owner=1, dims=DIMS)
    src.add(*_transition(rng, origin=1))
    tgt = ReplayBuffer(capacity=10, seed=0, owner=2, dims=(16, 4))
    with pytest.raises(IncompatibleArchitectureError):
        instance_transfer(src, tgt, fraction=1.0, seed=0)
    assert len(tgt) == 0


def test_instance_transfer_subsample_is_seeded():
    rng = np.random.default_rng(8)
    src = ReplayBuffer(capacity=50, seed=0, owner=1, dims=DIMS)
    items = [_transition(rng, origin=1) for _ in range(20)]
    for tr in items:
        src.add(*tr)
    expected = [items[i] for i in np.sort(
        np.random.default_rng(42).choice(20, size=10, replace=False))]
    for _ in range(2):
        tgt = ReplayBuffer(capacity=50, seed=0, owner=2, dims=DIMS)
        instance_transfer(src, tgt, fraction=0.5, seed=42)
        assert len(tgt) == len(expected)
        picked = tgt.rows(np.arange(len(tgt)))
        for k, want in enumerate(expected):
            assert np.array_equal(picked.states[k], want.state)
            assert np.array_equal(picked.actions[k], want.action)
            assert picked.rewards[k] == want.reward
            assert np.array_equal(picked.next_states[k], want.next_state)
        assert tgt.origin_counts() == {1: len(expected)}


def test_instance_transfer_reads_rows_without_copying_the_buffer(monkeypatch):
    rng = np.random.default_rng(9)
    src = ReplayBuffer(capacity=50, seed=0, owner=1, dims=DIMS)
    for _ in range(12):
        src.add(*_transition(rng, origin=1))
    idx = np.sort(np.random.default_rng(3).choice(12, size=6, replace=False))
    expected = src.rows(idx)
    adds = []
    monkeypatch.setattr(ReplayBuffer, "add",
                        lambda self, *row: adds.append(Row(*row)) or None)
    instance_transfer(src, ReplayBuffer(capacity=50, seed=0, owner=2, dims=DIMS), 0.5,
                      seed=3)
    assert len(adds) == 6  # one add per moved row, oldest first
    for k, tr in enumerate(adds):
        assert np.array_equal(tr.state, expected.states[k])
        assert np.array_equal(tr.action, expected.actions[k])
        assert tr.reward == expected.rewards[k]
        assert np.array_equal(tr.next_state, expected.next_states[k])
        assert tr.origin == 1


def test_buffer_rows_rejects_out_of_range_indices():
    rng = np.random.default_rng(10)
    buf = ReplayBuffer(capacity=8, seed=0, owner=1, dims=DIMS)
    for _ in range(3):
        buf.add(*_transition(rng, origin=1))
    assert len(buf.rows(np.array([], dtype=int)).rewards) == 0
    for bad in ([3], [-1]):
        with pytest.raises(DomainError):
            buf.rows(np.array(bad))


# ---------------------------------------------------------------------------
# Integrated transfer and dispatch
# ---------------------------------------------------------------------------


def test_integrated_transfer_combines_model_and_instance():
    rng = np.random.default_rng(9)
    source = _trained(10)
    for _ in range(6):
        source.buffer.add(*_transition(rng, origin=source.cell_id))
    target = _agent(95, cell_id=2)
    integrated_transfer(source, target, instance_fraction=0.5, seed=0)
    state = rng.standard_normal(8)
    assert np.array_equal(select_action(source, state),
                          select_action(target, state))
    assert target.buffer.origin_counts() == {0: 3}


def test_apply_transfer_dispatch():
    rng = np.random.default_rng(11)
    source = _trained(12)
    for _ in range(4):
        source.buffer.add(*_transition(rng, origin=source.cell_id))

    t_model = apply_transfer(source, _agent(94),
                             TransferParams(strategy="model"))
    assert len(t_model.buffer) == 0

    t_inst = apply_transfer(source, _agent(93),
                            TransferParams(strategy="instance"))
    assert len(t_inst.buffer) == 4
    state = rng.standard_normal(8)
    assert not np.allclose(select_action(source, state),
                           select_action(t_inst, state))

    t_feat = apply_transfer(source, _agent(92),
                            TransferParams(strategy="feature", frozen_layers=1))
    assert t_feat.frozen_actor_layers == 1


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


def _peers(scenario, target_id, cfg, seed):
    """Fresh agents of the scenario's other cells, with their seeds."""

    return {cid: Td3Agent(cid, scenario.n_slices, cfg, seed=seed + cid)
            for cid in scenario.cell_ids if cid != target_id}


def test_fine_tune_runs_and_traces_rewards():
    scenario = smoke_scenario()
    cfg = Td3Config(batch_size=8, updates_per_step=1)
    target = Td3Agent(3, scenario.n_slices, cfg, seed=0)
    log = RunLog(scenario, 30)
    trace = fine_tune(target, scenario, _peers(scenario, 3, cfg, 10),
                      steps=30, seed=0, log=log)
    assert trace.shape == (30,)
    assert np.all((trace >= 0.0) & (trace <= 1.0))
    assert np.array_equal(trace, log.rewards[:, 2])
    assert target.step_count == 30
    assert len(target.buffer) == 30


def test_fine_tune_collects_all_cell_records():
    scenario = smoke_scenario()
    cfg = Td3Config(batch_size=8, updates_per_step=1)
    target = Td3Agent(3, scenario.n_slices, cfg, seed=1)
    log = RunLog(scenario, 5)
    fine_tune(target, scenario, _peers(scenario, 3, cfg, 10), steps=5, seed=0,
              log=log)
    assert log.t.tolist() == [1, 2, 3, 4, 5]
    assert log.cells.tolist() == list(scenario.cell_ids)
    # Every cell's share row of every slot is recorded.
    assert np.allclose(log.actions.sum(axis=-1), 1.0)


def test_fine_tune_explores_only_the_learner():
    """The peers act greedily: their exploration streams stay where a fresh
    agent's start, while the learner's moves."""

    scenario = smoke_scenario()
    cfg = Td3Config(batch_size=8, updates_per_step=1)
    target = Td3Agent(3, scenario.n_slices, cfg, seed=1)
    peers = _peers(scenario, 3, cfg, 10)
    fine_tune(target, scenario, peers, steps=5, seed=0)
    def stream(agent):
        return agent.explore_rng.bit_generator.state

    for cid, peer in peers.items():
        assert stream(peer) == stream(Td3Agent(cid, scenario.n_slices, cfg, seed=10 + cid))
    assert stream(target) != stream(Td3Agent(3, scenario.n_slices, cfg, seed=1))


def test_fine_tune_requires_all_peer_policies():
    """``agents_act`` needs exactly the scenario's cells: fine-tuning with a
    peer missing fails before any slot, and so does an act hook over a cell
    missing or one too many."""

    scenario = smoke_scenario()
    cfg = Td3Config()
    target = Td3Agent(3, scenario.n_slices, cfg, seed=0)
    with pytest.raises(ConfigurationError):
        fine_tune(target, scenario, {1: _agent(0, scenario.n_slices, 1, cfg)},
                  steps=5, seed=0)
    for cells in ([1, 3], [1, 2, 3, 4]):
        agents = {cid: _agent(cid, scenario.n_slices, cid, cfg) for cid in cells}
        with pytest.raises(ConfigurationError):
            agents_act(scenario, agents)
