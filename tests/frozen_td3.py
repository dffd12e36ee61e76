"""Frozen references for the bit-exact tests of one TD3 update and one VAE
minibatch step.

These are copies of the straightforward implementations the optimised
kernels in ``slicetl.nn``, ``slicetl.agent`` and ``slicetl.similarity``
replaced: per-call layer views, ``.sum``/``np.mean`` reductions, an Adam
step that allocates its temporaries, a replay buffer with one array per
column and ``np.hstack`` critic inputs. Do not optimise this module: its
only job is to define the bits the fast path must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

HEADS = ("identity", "softmax", "tanh")


# ---------------------------------------------------------------------------
# nn: flat-parameter MLP, forward, backward, Adam.
# ---------------------------------------------------------------------------


def _layer_views(flat, weights, biases):
    ws, bs = [], []
    start = 0
    for w, b in zip(weights, biases):
        ws.append(flat[start:start + w.size].reshape(w.shape))
        start += w.size
        bs.append(flat[start:start + b.size].reshape(b.shape))
        start += b.size
    return ws, bs


def _pack(weights, biases):
    flat = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
    ws, bs = _layer_views(flat, weights, biases)
    for view, arr in zip([*ws, *bs], [*weights, *biases]):
        view[...] = arr
    return flat, ws, bs


@dataclass
class Mlp:
    weights: list
    biases: list
    head: str = "identity"
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def sizes(self) -> list[int]:
        return [self.in_dim] + [w.shape[1] for w in self.weights]

    def layer_offset(self, layer: int) -> int:
        return sum(w.size + b.size
                   for w, b in zip(self.weights[:layer], self.biases[:layer]))


def init_mlp(sizes, head, rng) -> Mlp:
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases, head)


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ForwardCache:
    params: Mlp
    inputs: list
    output: np.ndarray
    was_1d: bool


def _apply_head(head, z):
    if head == "identity":
        return z
    if head == "softmax":
        return softmax(z)
    return np.tanh(z)


def mlp_forward(params, x):
    x = np.asarray(x, dtype=np.float64)
    was_1d = x.ndim == 1
    h = x[None, :] if was_1d else x
    inputs = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w + b
        h = _apply_head(params.head, z) if i == params.n_layers - 1 else np.maximum(z, 0.0)
    cache = ForwardCache(params, inputs, h, was_1d)
    return (h[0] if was_1d else h), cache


def mlp_logits(params, x):
    x = np.asarray(x, dtype=np.float64)
    was_1d = x.ndim == 1
    h = x[None, :] if was_1d else x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        h = z if i == params.n_layers - 1 else np.maximum(z, 0.0)
    return h[0] if was_1d else h


class Gradients(list):
    def __init__(self, flat, params) -> None:
        super().__init__(zip(*_layer_views(flat, params.weights, params.biases)))
        self.flat = flat


def mlp_backward(params, cache, output_gradient):
    assert cache.params is params
    dout = np.asarray(output_gradient, dtype=np.float64)
    was_1d = dout.ndim == 1
    d = dout[None, :] if was_1d else dout
    y = cache.output
    if params.head == "softmax":
        d = y * (d - (d * y).sum(axis=1, keepdims=True))
    elif params.head == "tanh":
        d = d * (1.0 - y * y)
    grads = Gradients(np.empty(params.flat.size), params)
    for i in range(params.n_layers - 1, -1, -1):
        h_in = cache.inputs[i]
        if i < params.n_layers - 1:
            d = d * (cache.inputs[i + 1] > 0)
        dw, db = grads[i]
        np.matmul(h_in.T, d, out=dw)
        d.sum(axis=0, out=db)
        d = d @ params.weights[i].T
    return grads, (d[0] if was_1d else d)


@dataclass
class AdamState:
    m_w: list
    v_w: list
    m_b: list
    v_b: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.m, self.m_w, self.m_b = _pack(self.m_w, self.m_b)
        self.v, self.v_w, self.v_b = _pack(self.v_w, self.v_b)

    @classmethod
    def for_params(cls, params, **kwargs) -> "AdamState":
        zeros_w = [np.zeros_like(w) for w in params.weights]
        zeros_b = [np.zeros_like(b) for b in params.biases]
        return cls(zeros_w, zeros_w, zeros_b, zeros_b, **kwargs)


def adam_step(adam, params, grads, lr, skip_layers=frozenset()):
    g = grads.flat
    assert np.isfinite(g).all()
    adam.t += 1
    c1 = 1.0 - adam.beta1**adam.t
    c2 = 1.0 - adam.beta2**adam.t
    start = params.layer_offset(len(skip_layers))
    m, v, g, p = adam.m[start:], adam.v[start:], g[start:], params.flat[start:]
    m *= adam.beta1
    m += (1.0 - adam.beta1) * g
    v *= adam.beta2
    v += (1.0 - adam.beta2) * g * g
    p -= lr * (m / c1) / (np.sqrt(v / c2) + adam.eps)
    return params


# ---------------------------------------------------------------------------
# agent: column replay buffer, Polyak update, one TD3 update.
# ---------------------------------------------------------------------------


class Batch(NamedTuple):
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray


class ReplayBuffer:
    """One array per column, oldest first, foreign rows evicted first once
    the owner has ``evict_threshold`` rows of its own."""

    MIN_ROWS = 64

    def __init__(self, capacity, seed, owner, evict_threshold=32) -> None:
        self.capacity = capacity
        self.owner = owner
        self.evict_threshold = evict_threshold
        self._rng = np.random.default_rng(seed)
        self._n = 0
        self._own_count = 0
        self._states = self._actions = self._next_states = np.zeros((0, 0))
        self._rewards = np.zeros(0)
        self._origins = np.zeros(0, dtype=np.int64)

    def _columns(self):
        return (self._states, self._actions, self._rewards, self._next_states,
                self._origins)

    def __len__(self) -> int:
        return self._n

    def add(self, state, action, reward, next_state, origin) -> None:
        row = (state, action, reward, next_state, origin)
        if self._n >= self.capacity:
            self._evict()
        if self._n == len(self._rewards):
            self._grow(row)
        for col, value in zip(self._columns(), row):
            col[self._n] = value
        self._n += 1
        if origin == self.owner:
            self._own_count += 1

    def _grow(self, row) -> None:
        n = self._n
        rows = min(self.capacity, max(2 * n, self.MIN_ROWS))

        def grown(col, value):
            new = np.empty((rows, *np.shape(value)), dtype=col.dtype)
            if n:
                new[:n] = col[:n]
            return new

        (self._states, self._actions, self._rewards, self._next_states,
         self._origins) = map(grown, self._columns(), row)

    def _evict(self) -> None:
        n = self._n
        victim = 0
        if self._own_count >= self.evict_threshold:
            foreign = np.flatnonzero(self._origins[:n] != self.owner)
            if len(foreign):
                victim = int(foreign[0])
        if self._origins[victim] == self.owner:
            self._own_count -= 1
        for col in self._columns():
            col[victim:n - 1] = col[victim + 1:n]
        self._n -= 1

    def sample(self, batch_size) -> Batch:
        return self._take(self._rng.integers(0, self._n, size=batch_size))

    def rows(self, idx) -> Batch:
        return self._take(np.asarray(idx, dtype=np.intp))

    def _take(self, idx) -> Batch:
        return Batch(self._states[idx], self._actions[idx], self._rewards[idx],
                     self._next_states[idx])


def soft_update(target, online, tau):
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat
    return target


def train_step(agent, batch):
    """One TD3 update; ``agent`` needs the attributes of ``Td3Agent`` that
    the update reads, holding the Mlp and AdamState of this module."""

    s, a, r, s2 = batch
    b = len(r)
    cfg = agent.config

    logits2 = mlp_logits(agent.target_actor, s2)
    noise = np.clip(
        cfg.target_noise * agent.explore_rng.standard_normal(logits2.shape),
        -cfg.noise_clip, cfg.noise_clip,
    )
    a2 = softmax(logits2 + noise)
    q1_t, _ = mlp_forward(agent.target_q1, np.hstack([s2, a2]))
    q2_t, _ = mlp_forward(agent.target_q2, np.hstack([s2, a2]))
    y = r + cfg.gamma * np.minimum(q1_t[:, 0], q2_t[:, 0])

    sa = np.hstack([s, a])
    losses = []
    updates = []
    for critic, adam in ((agent.q1, agent.q1_adam), (agent.q2, agent.q2_adam)):
        q, cache = mlp_forward(critic, sa)
        err = q[:, 0] - y
        loss = float(np.mean(err * err))
        grads, _ = mlp_backward(critic, cache, (2.0 * err / b)[:, None])
        updates.append((adam, critic, grads))
        losses.append(loss)
    for adam, critic, grads in updates:
        adam_step(adam, critic, grads, cfg.critic_lr)

    agent.train_calls += 1
    actor_loss = None
    if agent.train_calls % cfg.policy_delay == 0:
        pi, actor_cache = mlp_forward(agent.actor, s)
        q, q_cache = mlp_forward(agent.q1, np.hstack([s, pi]))
        actor_loss = float(-np.mean(q))
        _, dinput = mlp_backward(agent.q1, q_cache, np.full((b, 1), -1.0 / b))
        da = dinput[:, s.shape[1]:]
        actor_grads, _ = mlp_backward(agent.actor, actor_cache, da)
        adam_step(
            agent.actor_adam, agent.actor, actor_grads, cfg.actor_lr,
            skip_layers=frozenset(range(agent.frozen_actor_layers)),
        )
        soft_update(agent.target_actor, agent.actor, cfg.tau)
        soft_update(agent.target_q1, agent.q1, cfg.tau)
        soft_update(agent.target_q2, agent.q2, cfg.tau)
    return losses[0], losses[1], actor_loss


# ---------------------------------------------------------------------------
# similarity: the VAE's minibatch step and its training loop.
# ---------------------------------------------------------------------------


def vae_minibatch_step(encoder, decoder, enc_adam, dec_adam, xb, rng,
                       latent_dim, kl_weight, lr) -> float:
    """One minibatch of VAE training; returns its loss."""

    b = xb.shape[0]
    enc_out, enc_cache = mlp_forward(encoder, xb)
    mu, logvar = enc_out[:, :latent_dim], enc_out[:, latent_dim:]
    sigma = np.exp(0.5 * logvar)
    eps = rng.standard_normal(mu.shape)
    z = mu + sigma * eps
    xh, dec_cache = mlp_forward(decoder, z)

    recon = np.sum((xb - xh) ** 2, axis=1)
    kl = 0.5 * np.sum(sigma**2 + mu**2 - 1.0 - logvar, axis=1)
    loss = float(np.mean(recon + kl_weight * kl))
    assert math.isfinite(loss)

    dxh = 2.0 * (xh - xb) / b
    dec_grads, dz = mlp_backward(decoder, dec_cache, dxh)
    dmu = dz + kl_weight * mu / b
    dsigma = dz * eps + kl_weight * (sigma - 1.0 / sigma) / b
    dlogvar = 0.5 * sigma * dsigma
    enc_grads, _ = mlp_backward(encoder, enc_cache, np.hstack([dmu, dlogvar]))
    adam_step(dec_adam, decoder, dec_grads, lr)
    adam_step(enc_adam, encoder, enc_grads, lr)
    return loss


def vae_train(xs, kl_weight, epochs, seed, latent_dim, hidden, batch_size, lr):
    """Minibatch Adam on the standardised (m, D) samples ``xs``; returns
    (encoder, decoder, per-epoch mean losses)."""

    d = xs.shape[1]
    rng = np.random.default_rng(seed)
    encoder = init_mlp([d, *hidden, 2 * latent_dim], "identity", rng)
    decoder = init_mlp([latent_dim, *reversed(hidden), d], "identity", rng)
    enc_adam = AdamState.for_params(encoder)
    dec_adam = AdamState.for_params(decoder)
    m = xs.shape[0]
    history = []
    for _ in range(epochs):
        order = rng.permutation(m)
        epoch_loss = 0.0
        for start in range(0, m, batch_size):
            xb = xs[order[start:start + batch_size]]
            epoch_loss += vae_minibatch_step(
                encoder, decoder, enc_adam, dec_adam, xb, rng, latent_dim,
                kl_weight, lr) * xb.shape[0]
        history.append(epoch_loss / m)
    return encoder, decoder, history
