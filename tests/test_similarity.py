"""Similarity tests: Gaussian KL truths, VAE training, distance matrices."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from slicetl import nn
from slicetl.env import equal_partition
from slicetl.errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    NumericError,
    SingularityError,
)
from slicetl.similarity import (
    DistanceMatrix,
    LatentStats,
    collect_default_samples,
    compute_distance_matrix,
    encode,
    encode_samples,
    kl_distance,
    kl_gaussian,
    kl_mean_simplified,
    select_source,
    vae_train,
    write_distances_csv,
    write_latents_csv,
)


def _latent(mu, sigma):
    return LatentStats(np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float))


def _set(latents):
    """One (n, L) posterior set from single posteriors, row by row."""

    return LatentStats(np.stack([p.mu for p in latents]),
                       np.stack([p.sigma for p in latents]))


# ---------------------------------------------------------------------------
# Closed-form KL
# ---------------------------------------------------------------------------


def test_kl_self_is_exactly_zero():
    p = _latent([0.3, -1.2, 4.0], [0.5, 2.0, 0.1])
    assert kl_gaussian(p, p) == 0.0


def test_kl_unit_shift_is_half():
    # 1-D: KL(N(0,1) || N(1,1)) = 1/2.
    assert kl_gaussian(_latent([0.0], [1.0]), _latent([1.0], [1.0])) == \
        pytest.approx(0.5, abs=1e-12)


def test_kl_variance_only_case():
    # KL(N(0, s^2) || N(0, 1)) = (s^2 - 1 - 2 ln s) / 2.
    s = 2.0
    expected = 0.5 * (s**2 - 1.0 - 2.0 * np.log(s))
    assert kl_gaussian(_latent([0.0], [s]), _latent([0.0], [1.0])) == \
        pytest.approx(expected, rel=1e-12)


def test_kl_factorizes_over_dimensions():
    p = _latent([0.0, 0.0], [1.0, 2.0])
    q = _latent([1.0, 0.0], [1.0, 1.0])
    per_dim = (
        kl_gaussian(_latent([0.0], [1.0]), _latent([1.0], [1.0]))
        + kl_gaussian(_latent([0.0], [2.0]), _latent([0.0], [1.0]))
    )
    assert kl_gaussian(p, q) == pytest.approx(per_dim, rel=1e-12)


def test_kl_non_negative_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = _latent(rng.standard_normal(4), rng.uniform(0.1, 3.0, 4))
        q = _latent(rng.standard_normal(4), rng.uniform(0.1, 3.0, 4))
        assert kl_gaussian(p, q) >= 0.0


def test_kl_rejects_singular_target_and_dim_mismatch():
    with pytest.raises(SingularityError):
        kl_gaussian(_latent([0.0], [1.0]), _latent([0.0], [0.0]))
    with pytest.raises(DimensionError):
        kl_gaussian(_latent([0.0], [1.0]), _latent([0.0, 1.0], [1.0, 1.0]))


def test_simplified_kl_matches_exact_for_common_sigma():
    rng = np.random.default_rng(1)
    sigma = 1e-4
    for _ in range(100):
        mu_n, mu_m = rng.standard_normal(4), rng.standard_normal(4)
        exact = kl_gaussian(_latent(mu_n, np.full(4, sigma)),
                            _latent(mu_m, np.full(4, sigma)))
        fast = kl_mean_simplified(mu_n, mu_m, sigma)
        assert fast == pytest.approx(exact, rel=1e-9)


def test_simplified_kl_rejects_non_positive_sigma():
    with pytest.raises(DomainError):
        kl_mean_simplified(np.zeros(2), np.ones(2), 0.0)


# ---------------------------------------------------------------------------
# Inter-agent distance
# ---------------------------------------------------------------------------


def test_exact_distance_matches_pairwise_brute_force():
    rng = np.random.default_rng(2)
    src = [_latent(rng.standard_normal(3), rng.uniform(0.2, 2.0, 3))
           for _ in range(7)]
    tgt = [_latent(rng.standard_normal(3), rng.uniform(0.2, 2.0, 3))
           for _ in range(5)]
    brute = np.mean([[kl_gaussian(p, q) for q in tgt] for p in src])
    assert kl_distance(_set(src), _set(tgt)) == \
        pytest.approx(float(brute), rel=1e-10)


def _kl_distance_reference(source, target):
    """The distance as one expression over whole (Ns, Nt) temporaries."""

    mu_s, sig_s, mu_t, sig_t = source.mu, source.sigma, target.mu, target.sigma
    vp = sig_s**2
    vq = sig_t**2
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
    return float(np.mean(kl))


def _random_set(rng, n, l=4):
    return LatentStats(rng.standard_normal((n, l)), rng.uniform(0.05, 3.0, (n, l)))


@pytest.mark.parametrize("ns, nt", [
    (1, 1), (7, 5), (5, 7), (300, 250),
    # Source counts around the row block, one-row tails included.
    *((ns, nt) for ns in (1, 63, 64, 65, 129, 301) for nt in (2, 64))])
def test_distance_equals_one_expression_reference(ns, nt):
    """The distance built row block by row block has the bits of the
    one-expression form."""

    rng = np.random.default_rng(ns * 1000 + nt)
    for _ in range(5):
        source, target = _random_set(rng, ns), _random_set(rng, nt)
        assert kl_distance(source, target) == _kl_distance_reference(source, target)


def _traced_peak(call):
    """Peak traced bytes of a second call; the first pays numpy's lazy
    set-up."""

    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distance_holds_one_pair_block_and_one_row_block():
    rng = np.random.default_rng(13)
    source, target = _random_set(rng, 600), _random_set(rng, 500)
    peak = _traced_peak(lambda: kl_distance(source, target))
    # The (600, 500) output block and one (64, 500) row block.
    assert peak <= (600 + 64) * 500 * 8 + 64 * 1024


def test_distance_rejects_empty_sets():
    p = _latent([[0.0]], [[1.0]])
    with pytest.raises(EmptySetError):
        kl_distance(_latent(np.zeros((0, 1)), np.zeros((0, 1))), p)


# ---------------------------------------------------------------------------
# Sample collection
# ---------------------------------------------------------------------------


def _columns(actions, n=2):
    """One agent's states (T, 4N), actions (T, N) and rewards (T,): state
    row t is all t, reward t is t / 10."""

    t = np.arange(len(actions), dtype=np.float64)
    return (np.repeat(t[:, None], 4 * n, axis=1), np.array(actions, dtype=np.float64),
            t / 10)


def test_collect_default_samples_filters_on_action():
    states, actions, rewards = _columns([[0.5, 0.5], [0.9, 0.1], [0.5, 0.5]])
    samples = collect_default_samples(states, actions, rewards, equal_partition(2))
    assert samples.shape == (2, 9)  # the non-default step 1 is dropped
    assert np.array_equal(samples[:, :-1], states[[0, 2]])
    assert np.array_equal(samples[:, -1], rewards[[0, 2]])  # reward is the last feature


def test_collect_default_samples_without_default_steps_is_empty():
    """No default-action step gives an empty matrix; run_similarity's sample
    rule rejects it, naming the agent."""

    samples = collect_default_samples(*_columns([[0.9, 0.1]]), equal_partition(2))
    assert samples.shape == (0, 9)


# ---------------------------------------------------------------------------
# VAE
# ---------------------------------------------------------------------------


def _synthetic_samples(rng, n_per=60, n_agents=2, dim=9):
    """Two well-separated clusters, one per agent, as one sample matrix:
    agent a's rows are the a-th block of ``n_per``."""

    samples = []
    for agent in range(1, n_agents + 1):
        center = np.zeros(dim)
        center[: dim // 2] = 4.0 * agent
        for _ in range(n_per):
            samples.append(center + 0.1 * rng.standard_normal(dim))
    return np.stack(samples)


def test_vae_loss_decreases_and_reconstructs():
    rng = np.random.default_rng(5)
    samples = _synthetic_samples(rng)
    model = vae_train(samples, epochs=200, seed=0, latent_dim=2,
                      hidden=(16, 8))
    assert model.loss_history[-1] < 0.5 * model.loss_history[0]
    # Reconstruct through the posterior mean.
    x = samples[0]
    xh, _ = nn.mlp_forward(model.decoder, encode(model, x).mu)
    xh = xh * model.feature_std + model.feature_mean
    err = np.linalg.norm(xh - x) / np.linalg.norm(x)
    assert err < 0.1


def test_vae_rejects_an_empty_input():
    with pytest.raises(EmptySetError):
        vae_train(np.zeros((0, 9)))


def test_encode_shapes_and_latent_clusters():
    rng = np.random.default_rng(7)
    samples = _synthetic_samples(rng)
    model = vae_train(samples, epochs=60, seed=0, latent_dim=2, hidden=(16, 8))
    latents = {a: encode_samples(model, samples[60 * (a - 1):60 * a]) for a in (1, 2)}
    stats = latents[1]
    assert stats.mu.shape == (60, 2) and stats.sigma.shape == (60, 2)
    assert np.all(stats.sigma > 0)
    d_self = kl_distance(latents[1], latents[1])
    d_cross = kl_distance(latents[1], latents[2])
    assert d_cross > d_self


def test_encode_samples_equals_stacked_encode():
    """The posterior set is bit for bit the per-row posteriors stacked."""

    rng = np.random.default_rng(12)
    x = _synthetic_samples(rng)
    model = vae_train(x, epochs=5, seed=0, latent_dim=3, hidden=(16, 8))
    stats = encode_samples(model, x)
    rows = [encode(model, row) for row in x]
    assert stats.mu.tobytes() == np.stack([r.mu for r in rows]).tobytes()
    assert stats.sigma.tobytes() == np.stack([r.sigma for r in rows]).tobytes()
    with pytest.raises(DimensionError):
        encode_samples(model, x[0])
    empty = encode_samples(model, x[:0])
    assert empty.mu.shape == empty.sigma.shape == (0, 3)


def test_encode_rejects_wrong_dim():
    rng = np.random.default_rng(8)
    model = vae_train(_synthetic_samples(rng), epochs=2, seed=0,
                      latent_dim=2, hidden=(16, 8))
    with pytest.raises(DimensionError):
        encode(model, np.zeros(3))


# ---------------------------------------------------------------------------
# Distance matrix and source selection
# ---------------------------------------------------------------------------


def _cluster_latents(rng, center, n=60):
    return _set([_latent(center + 0.05 * rng.standard_normal(2),
                         np.full(2, 1e-4)) for _ in range(n)])


def test_distance_matrix_and_selection_prefer_nearby_cluster():
    rng = np.random.default_rng(9)
    latents = {
        1: _cluster_latents(rng, np.array([0.0, 0.0])),
        2: _cluster_latents(rng, np.array([5.0, 5.0])),
        3: _cluster_latents(rng, np.array([0.1, 0.0])),
    }
    dm = compute_distance_matrix(latents, target=3, candidates=[1, 2])
    assert set(dm.entries) == {1, 2}
    assert dm.entries[1] < dm.entries[2]
    assert select_source(dm) == 1
    with pytest.raises(DomainError):
        compute_distance_matrix(latents, target=3, candidates=[1, 3])


@pytest.mark.parametrize("target, candidates", [(3, [1]), (2, [1, 3])],
                         ids=["target", "candidate"])
def test_distance_matrix_rejects_a_missing_agent(target, candidates):
    rng = np.random.default_rng(10)
    latents = {1: _cluster_latents(rng, np.zeros(2)),
               2: _cluster_latents(rng, np.zeros(2))}
    with pytest.raises(EmptySetError, match="no latent samples for .*agent 3"):
        compute_distance_matrix(latents, target=target, candidates=candidates)


@pytest.mark.parametrize("candidates", [[1, 2], [2, 1]], ids=["first", "last"])
@pytest.mark.parametrize("field, value", [("mu", np.nan), ("sigma", np.inf)])
def test_distance_matrix_rejects_a_non_finite_distance(candidates, field, value):
    """A NaN distance is refused whatever the candidates' order; ordering it
    against the finite one would pick the source by that order."""

    rng = np.random.default_rng(11)
    latents = {i: _cluster_latents(rng, np.zeros(2)) for i in (1, 2, 3)}
    getattr(latents[2], field)[4, 1] = value
    with np.errstate(invalid="ignore"):  # inf - inf in the sigma case
        assert math.isnan(kl_distance(latents[2], latents[3]))
        with pytest.raises(NumericError, match="source 2 is not finite") as err:
            compute_distance_matrix(latents, target=3, candidates=candidates)
    assert err.value.exit_code == 6


def test_select_source_tie_breaks_to_lowest_id():
    dm = DistanceMatrix(target=9, entries={5: 1.0, 2: 1.0, 7: 3.0},
                        counts={9: 60, 5: 60, 2: 60, 7: 60})
    assert select_source(dm) == 2


def test_distances_csv_round_trip(tmp_path):
    entries = {1: 0.1 + 0.2, 2: 1.0 / 3.0}
    dm = DistanceMatrix(target=3, entries=entries, counts={3: 60, 1: 60, 2: 55})
    path = tmp_path / "distances.csv"
    write_distances_csv(path, dm)
    assert path.read_text().splitlines()[0] == "source,target,distance,n_source,n_target"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        distance = float(row["distance"])
        assert distance.hex() == entries[int(row["source"])].hex()
    assert rows[0]["source"] == "1" and rows[0]["target"] == "3"
    assert rows[1]["n_source"] == "55"


def _latent_sets(rng, sizes):
    return {agent: _random_set(rng, n, l=3) for agent, n in sizes.items()}


def test_latents_csv_matches_csv_writer(tmp_path):
    """Sets of unequal sizes, one a single row, in the dict's (unsorted)
    order: the file is csv.writer's, floats by repr."""

    rng = np.random.default_rng(14)
    latents = _latent_sets(rng, {4: 5, 2: 1, 7: 3})
    latents[7].mu[0, 0] = -0.0
    path = tmp_path / "latents.csv"
    write_latents_csv(path, latents)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["agent", "mu_0", "mu_1", "mu_2", "sigma_0", "sigma_1", "sigma_2"])
    for agent, s in latents.items():
        writer.writerows([agent, *map(repr, mu), *map(repr, sigma)]
                         for mu, sigma in zip(s.mu.tolist(), s.sigma.tolist()))
    assert path.read_bytes() == expected.getvalue().encode()


def test_latents_csv_rejects_sets_of_other_latent_widths(tmp_path):
    rng = np.random.default_rng(15)
    latents = {1: _random_set(rng, 3, l=3), 2: _random_set(rng, 3, l=2)}
    with pytest.raises(DimensionError):
        write_latents_csv(tmp_path / "latents.csv", latents)
    assert not (tmp_path / "latents.csv").exists()


def test_latents_csv_is_written_one_set_at_a_time(tmp_path):
    """Twelve sets of 300 rows: only one set's text is held at a time."""

    rng = np.random.default_rng(16)
    latents = _latent_sets(rng, dict.fromkeys(range(1, 13), 300))
    peak = _traced_peak(lambda: write_latents_csv(tmp_path / "latents.csv", latents))
    assert peak < 1_000_000
