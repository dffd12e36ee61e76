"""Numeric kernel tests: forward/backward exactness, Adam, and the flat
vectors a checkpoint stores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicetl import nn
from slicetl.agent import (
    CHECKPOINT_VERSION,
    Td3Agent,
    Td3Config,
    load_agent,
    save_agent,
    train_step,
)
from slicetl.errors import (
    ContractViolationError,
    DependencyError,
    DimensionError,
    DomainError,
    NumericError,
)

from . import frozen_td3 as ref


def finite_difference_check(params, x, rng, h=1e-6):
    """Max relative error between analytic and central-difference gradients
    of the scalar loss L = sum(c * f(x)) over every weight and bias."""

    y, cache = nn.mlp_forward(params, x)
    c = rng.standard_normal(y.shape)
    grads, _ = nn.mlp_backward(params, cache, c)

    def loss():
        out, _ = nn.mlp_forward(params, x)
        return float(np.sum(c * out))

    worst = 0.0
    flat = params.flat
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = loss()
        flat[j] = orig - h
        down = loss()
        flat[j] = orig
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grads[j]), 1e-8)
        worst = max(worst, abs(fd - grads[j]) / denom)
    return worst


@pytest.mark.parametrize("sizes,head", [
    ([5, 8, 6, 3], "softmax"),
    ([7, 8, 6, 1], "identity"),
    ([4, 6, 5, 8], "identity"),
    ([3, 5, 6, 4], "softmax"),
])
def test_gradients_match_finite_differences(sizes, head):
    rng = np.random.default_rng(0)
    params = nn.init_mlp(sizes, head, rng)
    x = rng.standard_normal((3, sizes[0]))
    assert finite_difference_check(params, x, rng) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    params = nn.init_mlp([4, 6, 2], "identity", rng)
    x = rng.standard_normal(4)
    y, cache = nn.mlp_forward(params, x)
    c = rng.standard_normal(y.shape)
    _, dx = nn.mlp_backward(params, cache, c)
    h = 1e-6
    for j in range(4):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = (np.sum(c * nn.mlp_forward(params, xp)[0])
              - np.sum(c * nn.mlp_forward(params, xm)[0])) / (2 * h)
        assert dx[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_softmax_rows_sum_to_one_and_is_stable():
    z = np.array([[1000.0, 1001.0], [-1000.0, -999.0]])
    p = nn.softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(np.isfinite(p))
    assert np.allclose(p[0], p[1])  # shift invariance


def test_forward_1d_matches_batched():
    rng = np.random.default_rng(2)
    params = nn.init_mlp([5, 7, 3], "softmax", rng)
    x = rng.standard_normal((4, 5))
    batched, _ = nn.mlp_forward(params, x)
    for i in range(4):
        single, _ = nn.mlp_forward(params, x[i])
        assert np.array_equal(single, batched[i])


def test_logits_are_the_pre_head_output():
    rng = np.random.default_rng(3)
    params = nn.init_mlp([5, 7, 3], "softmax", rng)
    x = rng.standard_normal(5)
    logits = nn.mlp_logits(params, x)
    out, _ = nn.mlp_forward(params, x)
    assert np.allclose(nn.softmax(logits), out)


def test_backward_rejects_stale_cache():
    rng = np.random.default_rng(4)
    a = nn.init_mlp([3, 4, 2], "identity", rng)
    b = nn.init_mlp([3, 4, 2], "identity", rng)
    _, cache = nn.mlp_forward(a, rng.standard_normal(3))
    with pytest.raises(ContractViolationError):
        nn.mlp_backward(b, cache, np.zeros(2))


def test_forward_rejects_wrong_input_dim():
    rng = np.random.default_rng(5)
    params = nn.init_mlp([3, 4, 2], "identity", rng)
    with pytest.raises(DimensionError):
        nn.mlp_forward(params, np.zeros(7))


def test_mlp_rejects_unknown_head():
    with pytest.raises(DomainError):
        nn.Mlp((2, 3), head="relu6")


def test_glorot_init_bounds():
    rng = np.random.default_rng(7)
    params = nn.init_mlp([10, 20, 5], "identity", rng)
    for w in params.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= bound)
    for b in params.biases:
        assert np.all(b == 0.0)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _set_grads(params, pairs):
    """Write per-layer ``(dW, db)`` into the network's gradient workspace,
    the vector ``adam_step`` reads."""

    for (dw, db), (w, b) in zip(params.views(params.workspace()), pairs):
        dw[...] = w
        db[...] = b


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(8)
    params = nn.init_mlp([2, 2], "identity", rng)
    adam = nn.AdamState.for_params(params)
    target = np.array([[1.0, -2.0], [0.5, 3.0]])
    for _ in range(3000):
        _set_grads(params, [(params.weights[0] - target, params.biases[0] * 0.0)])
        nn.adam_step(adam, params, lr=0.01)
    assert np.allclose(params.weights[0], target, atol=1e-3)


def test_adam_first_step_matches_hand_calculation():
    # With bias correction, the very first Adam step is -lr * sign(g).
    params = nn.Mlp((1, 1), "identity")
    adam = nn.AdamState.for_params(params)
    _set_grads(params, [(np.array([[4.0]]), np.array([-2.0]))])
    nn.adam_step(adam, params, lr=0.1)
    assert params.weights[0][0, 0] == pytest.approx(-0.1, rel=1e-6)
    assert params.biases[0][0] == pytest.approx(0.1, rel=1e-6)


def test_adam_skip_layers_freezes_parameters():
    rng = np.random.default_rng(9)
    params = nn.init_mlp([3, 4, 2], "identity", rng)
    adam = nn.AdamState.for_params(params)
    before = [w.copy() for w in params.weights]
    params.workspace().fill(1.0)
    nn.adam_step(adam, params, lr=0.1, frozen_layers=1)
    assert np.array_equal(params.weights[0], before[0])
    assert not np.array_equal(params.weights[1], before[1])


def test_adam_frozen_layers_must_lie_in_range():
    """A negative count, or one that freezes every layer, raises before the
    step touches the parameters or the moments."""

    rng = np.random.default_rng(12)
    params = nn.init_mlp([3, 4, 2], "identity", rng)
    adam = nn.AdamState.for_params(params)
    params.workspace().fill(1.0)
    before = params.flat.copy()
    for frozen in (-1, params.n_layers):
        with pytest.raises(DomainError, match="frozen_layers"):
            nn.adam_step(adam, params, lr=0.1, frozen_layers=frozen)
    assert np.array_equal(params.flat, before)
    assert adam.t == 0 and not adam.m.any()


def _reference_adam_step(m_w, v_w, m_b, v_b, t, weights, biases, grads, lr,
                         frozen, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-layer Adam on separate arrays, skipping the first ``frozen`` layers."""

    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for i, (dw, db) in enumerate(grads):
        if i < frozen:
            continue
        for acc_m, acc_v, g, target in ((m_w[i], v_w[i], dw, weights[i]),
                                        (m_b[i], v_b[i], db, biases[i])):
            acc_m *= beta1
            acc_m += (1.0 - beta1) * g
            acc_v *= beta2
            acc_v += (1.0 - beta2) * g * g
            target -= lr * (acc_m / c1) / (np.sqrt(acc_v / c2) + eps)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    steps=st.integers(1, 6),
    frozen=st.integers(0, 4),
    backward=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fused_adam_matches_per_layer_reference(sizes, steps, frozen, backward,
                                                seed):
    rng = np.random.default_rng(seed)
    params = nn.init_mlp(sizes, "identity", rng)
    frozen = min(frozen, params.n_layers - 1)
    adam = nn.AdamState.for_params(params)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    for t in range(1, steps + 1):
        if backward:  # gradients straight from mlp_backward
            _, cache = nn.mlp_forward(params, rng.standard_normal((4, sizes[0])))
            nn.mlp_backward(params, cache, rng.standard_normal((4, sizes[-1])))
        else:
            _set_grads(params, [(rng.standard_normal(w.shape),
                                 rng.standard_normal(b.shape))
                                for w, b in zip(weights, biases)])
        ref_grads = [(dw.copy(), db.copy()) for dw, db in params.views(params.grads)]
        nn.adam_step(adam, params, lr=0.01, frozen_layers=frozen)
        _reference_adam_step(m_w, v_w, m_b, v_b, t, weights, biases, ref_grads,
                             0.01, frozen)
    assert adam.t == steps
    (got_m_w, got_m_b), (got_v_w, got_v_b) = (
        zip(*params.views(adam.m)), zip(*params.views(adam.v)))
    for got, want in zip(
        [*params.weights, *params.biases, *got_m_w, *got_v_w, *got_m_b, *got_v_b],
        [*weights, *biases, *m_w, *v_w, *m_b, *v_b],
    ):
        assert np.array_equal(got, want)


def test_backward_gradients_are_views_of_one_vector():
    rng = np.random.default_rng(13)
    params = nn.init_mlp([4, 6, 3], "identity", rng)
    c = rng.standard_normal((5, 3))
    _, cache = nn.mlp_forward(params, rng.standard_normal((5, 4)))
    grads, _ = nn.mlp_backward(params, cache, c)
    assert grads.shape == params.flat.shape
    _, (dw1, db1) = params.views(grads)  # the output layer's gradients
    assert np.shares_memory(dw1, grads) and np.shares_memory(db1, grads)
    assert np.allclose(dw1, cache.inputs[1].T @ c)
    assert np.allclose(db1, c.sum(axis=0))


def test_backward_writes_the_networks_own_workspace():
    """``mlp_backward`` returns the network's one gradient workspace, valid
    until the next backward of the same network; a copy has its own."""

    rng = np.random.default_rng(16)
    net = nn.init_mlp([4, 6, 3], "softmax", rng)
    assert net.grads is None  # allocated by the first backward
    x, c = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
    _, cache = nn.mlp_forward(net, x)
    first, _ = nn.mlp_backward(net, cache, c)
    kept = first.copy()
    again, _ = nn.mlp_backward(net, cache, c)
    assert again is first is net.grads
    assert np.array_equal(again, kept)

    copy = net.copy()
    assert copy.grads is None
    nn.AdamState.for_params(copy)  # a network built to be trained gets one
    assert copy.grads is not None
    _, copy_cache = nn.mlp_forward(copy, rng.standard_normal((5, 4)))
    copy_grads, _ = nn.mlp_backward(copy, copy_cache, rng.standard_normal((5, 3)))
    assert copy_grads is copy.grads
    assert not np.shares_memory(copy_grads, net.grads)
    assert np.array_equal(net.grads, kept)


def test_target_networks_hold_no_workspace_after_train_step():
    rng = np.random.default_rng(17)
    agent = Td3Agent(1, 3, Td3Config(batch_size=8, policy_delay=1), seed=3)
    for _ in range(8):
        agent.buffer.add(rng.standard_normal(12), rng.dirichlet(np.ones(3)),
                         float(rng.uniform()), rng.standard_normal(12), 1)
    train_step(agent, agent.buffer.sample(8))
    assert all(net.grads is not None for net in (agent.actor, agent.q1, agent.q2))
    assert all(net.grads is None for net in (
        agent.target_actor, agent.target_q1, agent.target_q2))


@pytest.mark.parametrize("head", nn.HEADS)
def test_backward_matches_the_reference_through_signed_zeros(head):
    """A dead ReLU unit under a negative upstream gradient masks it to -0.0.
    The gradients and the input gradient must match the frozen reference
    bit for bit, compared as integers so that -0.0 differs from 0.0."""

    rng = np.random.default_rng(18)
    net = nn.init_mlp([3, 5, 4, 2], head, rng)
    net.biases[1][0] = -100.0  # hidden unit 0 of layer 1 is zero on every row
    net.weights[2][0] = 1.0  # and gets the sum of the output gradients
    x = rng.standard_normal((6, 3))
    dout = -rng.uniform(0.1, 1.0, (6, 2))
    twin = ref.Mlp(net.weights, net.biases, head)

    _, cache = nn.mlp_forward(net, x)
    assert np.all(cache.inputs[2][:, 0] == 0.0)
    if head == "identity":
        assert np.all((dout @ net.weights[2].T)[:, 0] < 0.0)
    grads, dx = nn.mlp_backward(net, cache, dout)
    _, ref_cache = ref.mlp_forward(twin, x)
    ref_grads, ref_dx = ref.mlp_backward(twin, ref_cache, dout)
    assert np.array_equal(grads.view(np.int64), ref_grads.flat.view(np.int64))
    assert np.array_equal(dx.view(np.int64), ref_dx.view(np.int64))


def test_adam_rejects_non_finite_gradient():
    params = nn.Mlp((1, 1), "identity")
    adam = nn.AdamState.for_params(params)
    _set_grads(params, [(np.array([[np.nan]]), np.zeros(1))])
    with pytest.raises(NumericError):
        nn.adam_step(adam, params, lr=0.1)


def test_adam_non_finite_error_names_the_layer():
    rng = np.random.default_rng(14)
    params = nn.init_mlp([3, 4, 2], "identity", rng)
    adam = nn.AdamState.for_params(params)
    before = params.flat.copy()
    params.views(params.workspace())[1][1][0] = np.inf
    with pytest.raises(NumericError, match="layer 1"):
        nn.adam_step(adam, params, lr=0.1)
    assert adam.t == 0 and np.array_equal(params.flat, before)


def test_adam_rejects_a_network_that_was_never_differentiated():
    """Without ``for_params`` or a backward pass the network has no
    gradients for ``adam_step`` to read."""

    rng = np.random.default_rng(15)
    params = nn.init_mlp([3, 2], "identity", rng)
    adam = nn.AdamState(np.zeros(params.flat.size), np.zeros(params.flat.size))
    before = params.flat.copy()
    with pytest.raises(ContractViolationError, match="never differentiated"):
        nn.adam_step(adam, params, lr=0.1)
    assert adam.t == 0 and np.array_equal(params.flat, before)


def test_adam_reset_zeroes_accumulators():
    params = nn.Mlp((1, 1), "identity")
    adam = nn.AdamState.for_params(params)
    params.workspace().fill(1.0)
    nn.adam_step(adam, params, lr=0.1)
    assert np.all(adam.m != 0.0) and np.all(adam.v != 0.0)
    adam.reset()
    assert adam.t == 0
    assert np.all(adam.m == 0.0) and np.all(adam.v == 0.0)


# ---------------------------------------------------------------------------
# Flat parameter layout
# ---------------------------------------------------------------------------


def _assert_views(net):
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.flat) and np.shares_memory(b, net.flat)
    assert np.array_equal(
        net.flat, np.concatenate([x.ravel() for w, b in zip(net.weights, net.biases)
                                  for x in (w, b)]))


def test_weights_are_views_of_the_flat_vector():
    rng = np.random.default_rng(15)
    net = nn.init_mlp([4, 6, 3], "softmax", rng)
    _assert_views(net)
    copy = net.copy()
    _assert_views(copy)
    assert not np.shares_memory(copy.flat, net.flat)
    copy.weights[0] += 1.0
    assert not np.array_equal(copy.weights[0], net.weights[0])

    adam = nn.AdamState.for_params(net)
    for vec in (adam.m, adam.v, net.grads):
        assert vec.shape == net.flat.shape
        assert all(np.shares_memory(w, vec) and np.shares_memory(b, vec)
                   for w, b in net.views(vec))


# ---------------------------------------------------------------------------
# Checkpoints: the flat vectors through save_agent/load_agent
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    """Every network and Adam moment is one member of the file, which
    ``load_agent`` reads back bit for bit into views of flat vectors."""

    rng = np.random.default_rng(11)
    agent = Td3Agent(3, 2, Td3Config(), seed=11)
    for name, adam in agent.adams().items():
        net = getattr(agent, name)
        net.grads[...] = rng.standard_normal(net.flat.size)
        nn.adam_step(adam, net, lr=0.01)
    agent.q1_adam.t = 4
    path = tmp_path / "ckpt.npz"
    save_agent(agent, path)
    with np.load(path) as data:
        assert data.files == [
            "version", "meta_json", "actor", "q1", "q2", "target_actor", "target_q1",
            "target_q2", "actor.m", "actor.v", "q1.m", "q1.v", "q2.m", "q2.v"]
    loaded = load_agent(path)
    for name, net in agent.networks().items():
        twin = loaded.networks()[name]
        _assert_views(twin)
        assert twin.head == net.head and twin.sizes == net.sizes
        assert np.array_equal(twin.flat.view(np.int64), net.flat.view(np.int64))
    for name, adam in agent.adams().items():
        twin = loaded.adams()[name]
        assert twin.t == adam.t
        assert np.array_equal(twin.m.view(np.int64), adam.m.view(np.int64))
        assert np.array_equal(twin.v.view(np.int64), adam.v.view(np.int64))


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, version=np.array(999), meta_json=np.array("{}"))
    with pytest.raises(DependencyError,
                       match=f"is version 999, expected version {CHECKPOINT_VERSION}"):
        load_agent(path)
