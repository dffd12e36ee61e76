"""Inter-agent similarity via VAE latent features and Gaussian KL distance.

One general VAE is trained on the pooled (state, reward) sample matrices of
all agents, collected under a shared default action: one (n, 4N+1) matrix
per agent, one row per sample. Each sample's posterior
N(mu, diag(sigma^2)) is a latent feature, and an agent's posterior set is
one pair of (n, L) ``mu`` and ``sigma`` arrays. The distance between two
agents is the mean pairwise KL divergence between their posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nn
from .csvio import write_csv
from .errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    NumericError,
    SingularityError,
)

ACTION_MATCH_TOL = 1e-9
KL_ROW_BLOCK = 64  # source rows of the KL pair block built at a time


@dataclass(frozen=True)
class LatentStats:
    """Diagonal-Gaussian VAE posteriors (sigma = std dev): one posterior as
    (L,) arrays, or a set of n posteriors as (n, L) arrays, one row each."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.shape != sigma.shape:
            raise DimensionError("mu and sigma must have the same shape")
        if np.any(sigma < 0):
            raise DomainError("sigma must be entrywise >= 0")


@dataclass
class VaeModel:
    """Encoder/decoder pair plus the standardization used at training time."""

    encoder: nn.Mlp  # input D -> ... -> 2L (mu | log variance)
    decoder: nn.Mlp  # L -> ... -> D
    feature_mean: np.ndarray
    feature_std: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder.out_dim // 2


def collect_default_samples(
    states: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
    default_shares: np.ndarray,
) -> np.ndarray:
    """The (n, 4N+1) sample matrix of one agent: one [state, reward] row per
    step in which it took the default share row ``default_shares``, from its
    states (T, 4N), actions (T, N) and rewards (T,); n may be 0."""

    rows = np.max(np.abs(actions - default_shares), axis=1) <= ACTION_MATCH_TOL
    return np.hstack([states[rows], rewards[rows, None]])


def _standardize_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-12] = 1.0  # constant features pass through unscaled
    return mean, std


def vae_train(
    x: np.ndarray,
    kl_weight: float = 1e-3,
    epochs: int = 200,
    seed: int = 0,
    latent_dim: int = 4,
    hidden: tuple[int, int] = (64, 24),
    batch_size: int = 32,
    lr: float = 1e-3,
) -> VaeModel:
    """Train one VAE on the pooled (m, D) sample matrix ``x`` of all agents.

    Minimizes ||x - x_hat||^2 + kl_weight * KL(N(mu, diag(sigma^2)) || N(0, I))
    by minibatch Adam; per-epoch mean loss lands in ``model.loss_history``.

    The minibatch step works on in-place temporaries and writes the
    encoder's output gradient into one preallocated block. It keeps the
    operands and the grouping of every floating-point operation of the
    textbook form (``tests/frozen_td3.py``), so it computes the same bits;
    it never writes into the networks' outputs, which their caches hold.
    """

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"samples must be an (m, D) matrix, got shape {x.shape}")
    if not len(x):
        raise EmptySetError("no samples to train the VAE on")
    mean, std = _standardize_stats(x)
    xs = x - mean
    xs /= std
    d = xs.shape[1]

    rng = np.random.default_rng(seed)
    encoder = nn.init_mlp([d, *hidden, 2 * latent_dim], "identity", rng)
    decoder = nn.init_mlp([latent_dim, *reversed(hidden), d], "identity", rng)
    enc_adam = nn.AdamState.for_params(encoder)
    dec_adam = nn.AdamState.for_params(decoder)

    m = xs.shape[0]
    l = latent_dim
    enc_dout = np.empty((batch_size, 2 * l))  # [dmu | dlogvar] of a batch
    history = []
    for epoch in range(epochs):
        order = rng.permutation(m)
        epoch_loss = 0.0
        for start in range(0, m, batch_size):
            xb = xs.take(order[start:start + batch_size], axis=0)
            b = xb.shape[0]
            enc_out, enc_cache = nn.mlp_forward(encoder, xb)
            mu, logvar = enc_out[:, :l], enc_out[:, l:]
            sigma = logvar * 0.5
            np.exp(sigma, out=sigma)
            eps = rng.standard_normal((b, l))
            z = sigma * eps
            z += mu
            xh, dec_cache = nn.mlp_forward(decoder, z)

            # Loss: mean of ||xh - xb||^2 + kl_weight * 0.5 * sum(S) with
            # S = sigma^2 + mu^2 - 1 - logvar; err becomes the decoder's
            # output gradient 2 (xh - xb) / b once the loss is taken.
            err = xh - xb
            recon = np.add.reduce(err * err, axis=1)
            s = sigma * sigma
            s += mu * mu
            s -= 1.0
            s -= logvar
            kl = np.add.reduce(s, axis=1)
            kl *= 0.5
            kl *= kl_weight
            recon += kl
            loss = float(np.add.reduce(recon)) / b
            if not math.isfinite(loss):
                raise NumericError(f"VAE loss diverged at epoch {epoch}")
            epoch_loss += loss * b

            err *= 2.0
            err /= b
            _, dz = nn.mlp_backward(decoder, dec_cache, err)
            dout = enc_dout[:b]
            dmu, dlogvar = dout[:, :l], dout[:, l:]
            np.multiply(mu, kl_weight, out=dmu)
            dmu /= b
            dmu += dz
            # dsigma = dz * eps + kl_weight * (sigma - 1 / sigma) / b, in s.
            np.divide(1.0, sigma, out=s)
            np.subtract(sigma, s, out=s)
            s *= kl_weight
            s /= b
            dz *= eps
            s += dz
            np.multiply(sigma, 0.5, out=dlogvar)
            dlogvar *= s
            nn.mlp_backward(encoder, enc_cache, dout)
            nn.adam_step(dec_adam, decoder, lr)
            nn.adam_step(enc_adam, encoder, lr)
        history.append(epoch_loss / m)

    return VaeModel(encoder, decoder, mean, std, history)


def encode(model: VaeModel, x: np.ndarray) -> LatentStats:
    """Posterior (mu, sigma) of one sample under the trained encoder."""

    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise DimensionError(
            f"sample length {x.shape} does not match encoder input "
            f"{model.input_dim}"
        )
    out, _ = nn.mlp_forward(model.encoder, (x - model.feature_mean) / model.feature_std)
    mu = out[: model.latent_dim]
    sigma = np.exp(0.5 * out[model.latent_dim:])
    return LatentStats(mu, sigma)


def encode_samples(model: VaeModel, x: np.ndarray) -> LatentStats:
    """Posterior set (n, L) of the rows of the (n, D) sample matrix ``x``,
    one encoder forward per row; row i equals ``encode(model, x[i])``."""

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimensionError(
            f"sample matrix {x.shape} does not match encoder input {model.input_dim}")
    xs = (x - model.feature_mean) / model.feature_std
    out = np.empty((len(xs), model.encoder.out_dim))
    for i, row in enumerate(xs):
        out[i] = nn.mlp_forward(model.encoder, row)[0]
    return LatentStats(out[:, :model.latent_dim],
                       np.exp(0.5 * out[:, model.latent_dim:]))


def kl_gaussian(p: LatentStats, q: LatentStats) -> float:
    """Closed-form KL divergence between two diagonal Gaussians."""

    if p.mu.shape != q.mu.shape:
        raise DimensionError("latent dimensions differ")
    if np.any(q.sigma <= 0):
        raise SingularityError("q has a zero-variance latent dimension")
    vp = p.sigma**2
    vq = q.sigma**2
    dmu = p.mu - q.mu
    with np.errstate(divide="ignore"):
        log_ratio = np.log(vq) - np.log(vp)
    return 0.5 * float(
        np.sum(log_ratio) - p.mu.size + np.sum(dmu * dmu / vq) + np.sum(vp / vq)
    )


def kl_mean_simplified(
    mu_n: np.ndarray, mu_m: np.ndarray, sigma: float
) -> float:
    """The mean-difference lemma: KL when both covariances are sigma^2 * I."""

    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    mu_n = np.asarray(mu_n, dtype=np.float64)
    mu_m = np.asarray(mu_m, dtype=np.float64)
    if mu_n.shape != mu_m.shape:
        raise DimensionError("latent dimensions differ")
    d = mu_n - mu_m
    return float(np.sum(d * d)) / (2.0 * sigma**2)


def kl_distance(source: LatentStats, target: LatentStats) -> float:
    """Mean pairwise KL(source sample || target sample) over two posterior
    sets (n, L), in closed form.

    With vp, vq the variances, the (Ns, Nt) pair block is
    0.5 * (((log_term - L) + quad) + trace), where
    log_term = sum(log vq) - sum(log vp), quad = (A - B) + C with
    A = mu_s^2 @ (1/vq)^T, B = (2 mu_s) @ (mu_t/vq)^T, C = sum(mu_t^2/vq),
    and trace = vp @ (1/vq)^T. Memory: the one (Ns, Nt) float64 output
    block and one (``KL_ROW_BLOCK``, Nt) temporary. The block is built
    ``KL_ROW_BLOCK`` source rows at a time: each product is written into
    those rows of the output or into the temporary, and the rest is summed
    in place in that grouping and operand order, so the result has the
    bits of the one-expression form. No ufunc broadcasts a vector over a block, since
    numpy buffers such an operand (64 KiB each): C is copied into the
    temporary and log_term is written row by row.
    """

    mu_s, sig_s, mu_t, sig_t = source.mu, source.sigma, target.mu, target.sigma
    if mu_s.ndim != 2 or mu_t.ndim != 2:
        raise DimensionError("latent sets must be (n, L) arrays")
    if not len(mu_s) or not len(mu_t):
        raise EmptySetError("latent sets must be non-empty")
    if mu_s.shape[1] != mu_t.shape[1]:
        raise DimensionError("latent dimensions differ between sets")
    if np.any(sig_t <= 0):
        raise SingularityError("a target sample has a zero-variance dimension")
    l = mu_s.shape[1]
    inv_vq = 1.0 / sig_t**2  # (Nt, L)
    scaled_mu_t = (mu_t * inv_vq).T
    c = np.sum(mu_t**2 * inv_vq, axis=1)
    with np.errstate(divide="ignore"):
        log_vq_sum = np.log(sig_t**2).sum(axis=1)
        log_vp_sum = np.log(sig_s**2).sum(axis=1)
    kl = np.empty((len(mu_s), len(mu_t)))
    work = np.empty((min(KL_ROW_BLOCK, len(mu_s)), len(mu_t)))
    for start in range(0, len(mu_s), KL_ROW_BLOCK):
        rows = slice(start, start + KL_ROW_BLOCK)
        out = kl[rows]
        tmp = work[:len(out)]
        np.matmul(mu_s[rows]**2, inv_vq.T, out=out)  # A
        np.matmul(2.0 * mu_s[rows], scaled_mu_t, out=tmp)  # B
        out -= tmp
        tmp[...] = c  # C, one row per source sample
        out += tmp
        for row, log_vp_i in zip(tmp, log_vp_sum[rows]):
            np.subtract(log_vq_sum, log_vp_i, out=row)  # log_term
        tmp -= l
        tmp += out
        np.matmul(sig_s[rows]**2, inv_vq.T, out=out)  # trace
        tmp += out
        np.multiply(tmp, 0.5, out=out)
    return float(np.mean(kl))


@dataclass
class DistanceMatrix:
    """Distances from each candidate source agent to one target agent."""

    target: int
    entries: dict[int, float]
    counts: dict[int, int]

    def __post_init__(self) -> None:
        for i, d in self.entries.items():
            if not math.isfinite(d):
                raise NumericError(f"distance for source {i} is not finite: {d}")
            if d < 0:
                raise DomainError(f"negative distance for source {i}")


def compute_distance_matrix(
    latents_by_agent: dict[int, LatentStats],
    target: int,
    candidates: Sequence[int],
) -> DistanceMatrix:
    """Distance from each candidate's posterior set to the target's."""

    if target not in latents_by_agent:
        raise EmptySetError(f"no latent samples for target agent {target}")
    if not candidates:
        raise EmptySetError("no candidate source agents")
    if target in candidates:
        raise DomainError(f"target agent {target} is among the candidate sources")
    for i in candidates:
        if i not in latents_by_agent:
            raise EmptySetError(f"no latent samples for candidate agent {i}")
    counts = {i: len(latents_by_agent[i].mu) for i in [target, *candidates]}
    entries = {i: kl_distance(latents_by_agent[i], latents_by_agent[target])
               for i in candidates}
    return DistanceMatrix(target, entries, counts)


def select_source(distances: DistanceMatrix) -> int:
    """Candidate with the smallest distance; ties break to the lowest id."""

    if not distances.entries:
        raise EmptySetError("distance matrix has no candidates")
    return min(distances.entries, key=lambda i: (distances.entries[i], i))


def write_distances_csv(path, distances: DistanceMatrix) -> None:
    ids = sorted(distances.entries)
    n = len(ids)
    write_csv(
        path,
        ("source", "target", "distance", "n_source", "n_target"),
        [(np.array(ids), np.full(n, distances.target),
          np.array([distances.entries[i] for i in ids], dtype=np.float64),
          np.array([distances.counts[i] for i in ids]),
          np.full(n, distances.counts[distances.target]))],
    )


def write_latents_csv(path, latents: dict[int, LatentStats]) -> None:
    """One row per sample, agent by agent in the dict's order: the agent id,
    then the sample's posterior mu and sigma. Each agent's set is one block
    of ``write_csv``, so only one set's text is held at a time."""

    if not latents:
        raise EmptySetError("no latents to write")
    l = next(iter(latents.values())).mu.shape[1]
    if any(s.mu.shape[1] != l for s in latents.values()):
        raise DimensionError("latent dimensions differ between sets")
    write_csv(
        path,
        ["agent", *(f"mu_{j}" for j in range(l)), *(f"sigma_{j}" for j in range(l))],
        ((np.full(len(s.mu), agent), *s.mu.T, *s.sigma.T) for agent, s in latents.items()),
    )
