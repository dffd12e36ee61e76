"""Similarity tests: Gaussian KL truths, VAE training, distance matrices."""

import csv

import numpy as np
import pytest

from slicetl.env import equal_partition
from slicetl.errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    SingularityError,
)
from slicetl.runner import Trace
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
    reconstruct,
    select_source,
    vae_train,
    write_distances_csv,
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
    assert kl_distance(_set(src), _set(tgt), mode="exact")[0] == \
        pytest.approx(float(brute), rel=1e-10)


def test_simplified_distance_falls_back_when_sigma_large():
    rng = np.random.default_rng(3)
    src = [_latent(rng.standard_normal(3), rng.uniform(0.5, 1.5, 3))
           for _ in range(6)]
    tgt = [_latent(rng.standard_normal(3), rng.uniform(0.5, 1.5, 3))
           for _ in range(6)]
    # Sigmas far above the fast-path validity limit: both modes must agree.
    src, tgt = _set(src), _set(tgt)
    assert kl_distance(src, tgt, mode="simplified")[0] == \
        pytest.approx(kl_distance(src, tgt, mode="exact")[0], rel=1e-12)


def test_simplified_distance_uses_mean_difference_form():
    rng = np.random.default_rng(4)
    sigma = 5e-5
    src = [_latent(rng.standard_normal(2), np.full(2, sigma)) for _ in range(4)]
    tgt = [_latent(rng.standard_normal(2), np.full(2, sigma)) for _ in range(3)]
    expected = np.mean([
        [kl_mean_simplified(p.mu, q.mu, sigma) for q in tgt] for p in src
    ])
    assert kl_distance(_set(src), _set(tgt), mode="simplified", sigma=sigma)[0] == \
        pytest.approx(float(expected), rel=1e-9)


def test_kl_distance_reports_the_form_taken():
    rng = np.random.default_rng(5)

    def latents(sigma, n):
        return _set([_latent(rng.standard_normal(2), np.full(2, sigma))
                     for _ in range(n)])

    small_src, small_tgt = latents(5e-5, 4), latents(5e-5, 3)
    large_src, large_tgt = latents(0.075, 4), latents(0.075, 3)
    exact = kl_distance(small_src, small_tgt, mode="exact")
    assert exact[1] == "exact"
    fast = kl_distance(small_src, small_tgt, mode="simplified")
    assert fast[1] == "simplified"
    assert fast[0] == pytest.approx(exact[0], rel=1e-6)
    # Sigma above the fast path's limit: the exact form runs, and says so.
    fallback = kl_distance(large_src, large_tgt, mode="simplified")
    assert fallback == kl_distance(large_src, large_tgt, mode="exact")
    assert fallback[1] == "exact"


def test_distance_matrix_records_each_sources_path():
    rng = np.random.default_rng(11)
    latents = {i: _cluster_latents(rng, np.full(2, float(i))) for i in (1, 2, 3)}
    latents[2] = _latent(latents[2].mu, np.full_like(latents[2].sigma, 0.5))
    dm = compute_distance_matrix(latents, target=3, mode="simplified")
    assert dm.mode == "simplified"
    assert dm.paths == {1: "simplified", 2: "exact"}
    assert compute_distance_matrix(latents, target=3, mode="exact").paths == {
        1: "exact", 2: "exact"}
    with pytest.raises(DomainError):
        DistanceMatrix(target=3, entries={1: 1.0}, counts={3: 1, 1: 1},
                       paths={1: "approximate"})


def test_distance_rejects_empty_and_unknown_mode():
    p = _latent([[0.0]], [[1.0]])
    with pytest.raises(EmptySetError):
        kl_distance(_latent(np.zeros((0, 1)), np.zeros((0, 1))), p)
    with pytest.raises(DomainError):
        kl_distance(p, p, mode="fancy")


# ---------------------------------------------------------------------------
# Sample collection
# ---------------------------------------------------------------------------


def _trace(cells, actions, reward=0.5, n=2):
    rows = len(cells)
    return Trace(np.ones(rows, dtype=np.int64), np.array(cells),
                 np.full((rows, 4 * n), 0.1), np.array(actions, dtype=np.float64),
                 np.full(rows, reward))


def test_collect_default_samples_filters_on_action():
    default = equal_partition(2)
    records = _trace([1, 1, 2], [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5]])
    samples = collect_default_samples(records, default, agent=1)
    assert samples.shape == (1, 9)  # cell 1's non-default step is dropped
    assert samples[0, -1] == 0.5  # reward appended as the last feature
    only_two = collect_default_samples(records, default, agent=2)
    assert only_two.shape == (1, 9)


def test_collect_default_samples_empty_raises_with_agent():
    records = _trace([1], [[0.9, 0.1]])
    with pytest.raises(EmptySetError, match="1"):
        collect_default_samples(records, equal_partition(2), agent=1)


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
    x = samples[0]
    err = np.linalg.norm(reconstruct(model, x) - x) / np.linalg.norm(x)
    assert err < 0.1


def test_vae_requires_min_samples():
    rng = np.random.default_rng(6)
    samples = _synthetic_samples(rng, n_per=10)
    with pytest.raises(EmptySetError):
        vae_train(samples, min_samples=50)


def test_encode_shapes_and_latent_clusters():
    rng = np.random.default_rng(7)
    samples = _synthetic_samples(rng)
    model = vae_train(samples, epochs=60, seed=0, latent_dim=2, hidden=(16, 8))
    latents = {a: encode_samples(model, samples[60 * (a - 1):60 * a]) for a in (1, 2)}
    stats = latents[1]
    assert stats.mu.shape == (60, 2) and stats.sigma.shape == (60, 2)
    assert np.all(stats.sigma > 0)
    d_self = kl_distance(latents[1], latents[1], mode="exact")[0]
    d_cross = kl_distance(latents[1], latents[2], mode="exact")[0]
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
    dm = compute_distance_matrix(latents, target=3)
    assert set(dm.entries) == {1, 2}
    assert dm.entries[1] < dm.entries[2]
    assert select_source(dm) == 1
    with pytest.raises(DomainError):
        compute_distance_matrix(latents, target=3, candidates=[1, 3])


def test_distance_matrix_enforces_min_samples():
    rng = np.random.default_rng(10)
    latents = {1: _cluster_latents(rng, np.zeros(2), n=10),
               2: _cluster_latents(rng, np.zeros(2))}
    with pytest.raises(EmptySetError):
        compute_distance_matrix(latents, target=2, min_samples=50)


def test_select_source_tie_breaks_to_lowest_id():
    dm = DistanceMatrix(target=9, entries={5: 1.0, 2: 1.0, 7: 3.0},
                        counts={9: 60, 5: 60, 2: 60, 7: 60})
    assert select_source(dm) == 2


def test_select_source_rejects_wrong_target():
    dm = DistanceMatrix(target=9, entries={5: 1.0}, counts={9: 1, 5: 1})
    with pytest.raises(DomainError):
        select_source(dm, target=4)


def test_distances_csv_round_trip(tmp_path):
    dm = DistanceMatrix(target=3, entries={1: 0.125, 2: 7.5},
                        counts={3: 60, 1: 60, 2: 55}, mode="simplified",
                        paths={1: "simplified", 2: "exact"})
    path = tmp_path / "distances.csv"
    write_distances_csv(path, dm)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["distance"]) == 0.125
    assert rows[0]["source"] == "1" and rows[0]["target"] == "3"
    assert rows[1]["n_source"] == "55"
    assert [r["mode"] for r in rows] == ["simplified", "simplified"]
    assert [r["kl_path"] for r in rows] == ["simplified", "exact"]
