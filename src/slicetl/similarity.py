"""Inter-agent similarity via VAE latent features and Gaussian KL distance.

One general VAE is trained on the pooled (state, reward) sample matrices of
all agents, collected under a shared default action: one (n, 4N+1) matrix
per agent, one row per sample. Each sample's posterior
N(mu, diag(sigma^2)) is a latent feature, and an agent's posterior set is
one pair of (n, L) ``mu`` and ``sigma`` arrays. The distance between two
agents is the mean pairwise KL divergence between their posteriors, with a
mean-squared-difference fast path valid when all posterior sigmas collapse
to a common small value.
"""

from __future__ import annotations

import csv
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

DEFAULT_MIN_SAMPLES = 50
SIMPLIFIED_SIGMA_LIMIT = 1e-3
ACTION_MATCH_TOL = 1e-9
MODES = ("exact", "simplified")  # KL distance: closed form, common-sigma fast path


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
    kl_weight: float
    latent_dim: int
    feature_mean: np.ndarray
    feature_std: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim


def collect_default_samples(
    trace, default_shares: np.ndarray, agent: int
) -> np.ndarray:
    """The (n, 4N+1) sample matrix of ``agent``: one [state, reward] row per
    step the agent executed under the default share row ``default_shares``.

    ``trace`` holds one row per (step, cell) in the columns ``cell``,
    ``states``, ``actions`` and ``rewards`` (see
    :class:`slicetl.runner.Trace`).
    """

    rows = np.max(np.abs(trace.actions - default_shares), axis=1) <= ACTION_MATCH_TOL
    rows &= trace.cell == agent
    if not rows.any():
        raise EmptySetError(f"no steps under the default action for agent {agent}")
    return np.hstack([trace.states[rows], trace.rewards[rows, None]])


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
    min_samples: int = DEFAULT_MIN_SAMPLES,
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
    if x.shape[0] < min_samples:
        raise EmptySetError(
            f"need at least {min_samples} pooled samples, got {x.shape[0]}"
        )
    mean, std = _standardize_stats(x)
    xs = (x - mean) / std
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
            dec_grads, dz = nn.mlp_backward(decoder, dec_cache, err)
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
            enc_grads, _ = nn.mlp_backward(encoder, enc_cache, dout)
            nn.adam_step(dec_adam, decoder, dec_grads, lr)
            nn.adam_step(enc_adam, encoder, enc_grads, lr)
        history.append(epoch_loss / m)

    return VaeModel(encoder, decoder, kl_weight, latent_dim, mean, std, history)


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


def reconstruct(model: VaeModel, x: np.ndarray) -> np.ndarray:
    """Deterministic reconstruction through the posterior mean (for tests)."""

    stats = encode(model, x)
    xh, _ = nn.mlp_forward(model.decoder, stats.mu)
    return xh * model.feature_std + model.feature_mean


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
    """Mean-difference fast path: KL when both covariances are sigma^2 * I."""

    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    mu_n = np.asarray(mu_n, dtype=np.float64)
    mu_m = np.asarray(mu_m, dtype=np.float64)
    if mu_n.shape != mu_m.shape:
        raise DimensionError("latent dimensions differ")
    d = mu_n - mu_m
    return float(np.sum(d * d)) / (2.0 * sigma**2)


def kl_distance(
    source: LatentStats,
    target: LatentStats,
    mode: str = "exact",
    sigma: float | None = None,
) -> tuple[float, str]:
    """Mean pairwise KL(source sample || target sample) over two posterior
    sets (n, L), and the form that computed it, ``"exact"`` or
    ``"simplified"``.

    ``mode='simplified'`` uses the common-sigma fast path with ``sigma``
    (pooled median posterior sigma when not given), but falls back to the
    exact form whenever any posterior sigma exceeds the validity limit.
    """

    mu_s, sig_s, mu_t, sig_t = source.mu, source.sigma, target.mu, target.sigma
    if mu_s.ndim != 2 or mu_t.ndim != 2:
        raise DimensionError("latent sets must be (n, L) arrays")
    if not len(mu_s) or not len(mu_t):
        raise EmptySetError("latent sets must be non-empty")
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if mu_s.shape[1] != mu_t.shape[1]:
        raise DimensionError("latent dimensions differ between sets")

    if mode == "simplified":
        max_sigma = max(float(sig_s.max()), float(sig_t.max()))
        if max_sigma <= SIMPLIFIED_SIGMA_LIMIT:
            if sigma is None:
                sigma = float(np.median(np.concatenate([sig_s.ravel(), sig_t.ravel()])))
            if sigma <= 0:
                raise DomainError("pooled sigma must be positive")
            diff2 = (
                np.sum(mu_s**2, axis=1)[:, None]
                + np.sum(mu_t**2, axis=1)[None, :]
                - 2.0 * mu_s @ mu_t.T
            )
            distance = float(np.mean(np.maximum(diff2, 0.0))) / (2.0 * sigma**2)
            return distance, "simplified"
        # Lemma precondition violated: fall through to the exact form.

    if np.any(sig_t <= 0):
        raise SingularityError("a target sample has a zero-variance dimension")
    vp = sig_s**2  # (Ns, L)
    vq = sig_t**2  # (Nt, L)
    with np.errstate(divide="ignore"):
        log_vp = np.log(vp)
        log_vq = np.log(vq)
    l = mu_s.shape[1]
    log_term = log_vq.sum(axis=1)[None, :] - log_vp.sum(axis=1)[:, None]
    inv_vq = 1.0 / vq
    quad = (
        (mu_s**2 @ inv_vq.T)
        - 2.0 * mu_s @ (mu_t * inv_vq).T
        + np.sum(mu_t**2 * inv_vq, axis=1)[None, :]
    )
    trace = vp @ inv_vq.T
    kl = 0.5 * (log_term - l + quad + trace)
    return float(np.mean(kl)), "exact"


@dataclass
class DistanceMatrix:
    """Distances from each candidate source agent to one target agent."""

    target: int
    entries: dict[int, float]
    counts: dict[int, int]
    mode: str = "exact"  # the form requested
    paths: dict[int, str] = field(default_factory=dict)  # the form each source took

    def __post_init__(self) -> None:
        for i, d in self.entries.items():
            if d < 0:
                raise DomainError(f"negative distance for source {i}")
        for i, path in self.paths.items():
            if i not in self.entries or path not in MODES:
                raise DomainError(f"invalid KL path {path!r} for source {i}")


def require_samples(counts: dict[int, int], min_samples: int) -> None:
    """Raise ``EmptySetError`` naming the first agent of ``counts`` (agent
    id -> sample count) with fewer than ``min_samples`` samples."""

    for i, n in counts.items():
        if n < min_samples:
            raise EmptySetError(
                f"agent {i} has fewer than {min_samples} default-action samples"
            )


def compute_distance_matrix(
    latents_by_agent: dict[int, LatentStats],
    target: int,
    candidates: Sequence[int] | None = None,
    mode: str = "simplified",
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> DistanceMatrix:
    """Distance from each candidate's posterior set to the target's; the
    candidates default to every other agent of ``latents_by_agent``."""

    if target not in latents_by_agent:
        raise EmptySetError(f"no latent samples for target agent {target}")
    candidates = (
        sorted(i for i in latents_by_agent if i != target)
        if candidates is None else list(candidates)
    )
    if not candidates:
        raise EmptySetError("no candidate source agents")
    if target in candidates:
        raise DomainError(f"target agent {target} is among the candidate sources")
    counts = {i: len(latents_by_agent[i].mu) if i in latents_by_agent else 0
              for i in [target, *candidates]}
    require_samples(counts, min_samples)
    results = {
        i: kl_distance(latents_by_agent[i], latents_by_agent[target], mode)
        for i in candidates
    }
    return DistanceMatrix(target, {i: r[0] for i, r in results.items()}, counts, mode,
                          {i: r[1] for i, r in results.items()})


def select_source(distances: DistanceMatrix, target: int | None = None) -> int:
    """Candidate with the smallest distance; ties break to the lowest id."""

    if target is not None and target != distances.target:
        raise DomainError(
            f"distance matrix was computed for target {distances.target}"
        )
    if not distances.entries:
        raise EmptySetError("distance matrix has no candidates")
    return min(distances.entries, key=lambda i: (distances.entries[i], i))


def write_distances_csv(path, distances: DistanceMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "distance", "n_source", "n_target",
                         "mode", "kl_path"])
        for i in sorted(distances.entries):
            writer.writerow([
                i, distances.target, repr(distances.entries[i]),
                distances.counts[i], distances.counts[distances.target],
                distances.mode, distances.paths.get(i, ""),
            ])


def write_latents_csv(path, latents: dict[int, LatentStats]) -> None:
    """One row per sample, agent by agent in the dict's order: the agent id,
    then the sample's posterior mu and sigma."""

    if not latents:
        raise EmptySetError("no latents to write")
    sets = list(latents.values())
    mu = np.concatenate([s.mu for s in sets])
    sigma = np.concatenate([s.sigma for s in sets])
    l = mu.shape[1]
    write_csv(
        path,
        ["agent", *(f"mu_{j}" for j in range(l)), *(f"sigma_{j}" for j in range(l))],
        [(np.repeat(list(latents), [len(s.mu) for s in sets]), *mu.T, *sigma.T)],
    )
