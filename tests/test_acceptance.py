"""Acceptance gate: one test per release criterion, at the stated tolerances.

Criteria 1-5 are exact-math checks against independent oracles; criteria
6-10 reproduce the qualitative orderings of the method (similarity
clustering, clone selection, transfer jumpstart, distance-gain ordering,
and final method ranking); criterion 11 checks determinism and bit-exact
persistence. The expensive full-budget pipeline is shared through the
session-scoped ``pipeline`` fixture.
"""

import dataclasses
import json
import time

import numpy as np

from slicetl import harness, nn
from slicetl import similarity as simm
from slicetl.agent import Td3Agent, Td3Config, load_agent, save_agent, train_step
from slicetl.env import (
    baseline_shares,
    check_shares,
    equal_partition,
    slice_rewards,
)
from slicetl.harness import rollout
from slicetl.scenario import EvaluateParams
from slicetl.transfer import fine_tune, integrated_transfer
from tests.test_nn import finite_difference_check


def test_criterion_01_simplified_kl_matches_exact_form():
    """Mean-difference fast path vs the closed form: 1e4 random latent
    pairs with a common sigma of 1e-4, relative error below 1e-6, < 1s."""

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    sigma = 1e-4
    worst = 0.0
    for _ in range(10_000):
        mu_n = rng.standard_normal(4)
        mu_m = rng.standard_normal(4)
        exact = simm.kl_gaussian(
            simm.LatentStats(mu_n, np.full(4, sigma)),
            simm.LatentStats(mu_m, np.full(4, sigma)),
        )
        fast = simm.kl_mean_simplified(mu_n, mu_m, sigma)
        worst = max(worst, abs(fast - exact) / max(abs(exact), 1e-300))
    assert worst < 1e-6
    assert time.perf_counter() - start < 1.0


def test_criterion_02_gaussian_kl_unit_truths():
    """KL(p, p) = 0 exactly; 1-D N(0,1)||N(1,1) = 1/2 within 1e-12;
    non-negativity over 1e4 fuzzed diagonal-Gaussian pairs."""

    rng = np.random.default_rng(1)
    p = simm.LatentStats(rng.standard_normal(5), rng.uniform(0.1, 3.0, 5))
    assert simm.kl_gaussian(p, p) == 0.0

    half = simm.kl_gaussian(
        simm.LatentStats(np.array([0.0]), np.array([1.0])),
        simm.LatentStats(np.array([1.0]), np.array([1.0])),
    )
    assert abs(half - 0.5) <= 1e-12

    for _ in range(10_000):
        a = simm.LatentStats(rng.standard_normal(3), rng.uniform(0.05, 4.0, 3))
        b = simm.LatentStats(rng.standard_normal(3), rng.uniform(0.05, 4.0, 3))
        assert simm.kl_gaussian(a, b) >= 0.0


def test_criterion_03_gradients_all_architectures():
    """Central finite differences over every weight and bias of the four
    production architectures, relative error < 1e-4, < 10 s."""

    start = time.perf_counter()
    rng = np.random.default_rng(2)
    architectures = [
        ([16, 48, 24, 4], "softmax"),   # actor
        ([20, 64, 24, 1], "identity"),  # critic
        ([17, 64, 24, 8], "identity"),  # VAE encoder
        ([4, 24, 64, 17], "identity"),  # VAE decoder
    ]
    for sizes, head in architectures:
        params = nn.init_mlp(sizes, head, rng)
        x = rng.standard_normal((2, sizes[0]))
        assert finite_difference_check(params, x, rng) < 1e-4
    assert time.perf_counter() - start < 10.0


def test_criterion_04_reward_and_action_invariants():
    """1e5 fuzzed inputs: reward stays in [0, 1] and every emitted action
    is simplex-valid, < 5 s."""

    start = time.perf_counter()
    rng = np.random.default_rng(3)
    n_fuzz = 100_000

    tps = rng.uniform(0.0, 10.0, (n_fuzz, 4))
    delays = rng.uniform(0.0, 25.0, (n_fuzz, 4))
    tp_target, delay_target = np.array(
        list(zip(rng.uniform(0.5, 5.0, 4), rng.uniform(0.5, 5.0, 4)))).T[:, None]
    for i in range(n_fuzz):  # one cell's reward per call
        r = float(slice_rewards(tps[i:i + 1], delays[i:i + 1], tp_target,
                                delay_target)[0])
        assert 0.0 <= r <= 1.0

    # Actions emitted through the softmax head, the actor, and the baseline.
    logits = rng.standard_normal((n_fuzz, 4)) * rng.uniform(0.1, 30.0, (n_fuzz, 1))
    shares = nn.softmax(logits)
    assert np.all(shares >= 0.0) and np.all(shares <= 1.0)
    assert np.all(np.abs(shares.sum(axis=1) - 1.0) <= 1e-9)
    for i in range(0, n_fuzz, 200):
        check_shares(shares[i], (4,))  # env.step's check of every share row
    agent = Td3Agent(0, 4, Td3Config(explore_noise=3.0), seed=0)
    for _ in range(300):
        a = harness.select_action(agent, rng.standard_normal(16),
                                   agent.config.explore_noise)
        assert np.all(a >= 0.0) and abs(a.sum() - 1.0) <= 1e-9
    for _ in range(300):
        b = baseline_shares(rng.uniform(0.0, 50.0, (1, 4)))[0]
        assert np.all(b >= 0.0) and abs(b.sum() - 1.0) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_05_td3_two_state_value_oracle():
    """Scripted 2-state alternating chain with gamma = 0.1: the learned
    critic must be within 1e-2 of the tabular value-iteration fixed point
    after at most 5k training steps, < 1 min."""

    start = time.perf_counter()
    gamma = 0.1
    r0, r1 = 0.2, 0.8
    # Tabular fixed point of V = r + gamma * V(next) on the 2-cycle.
    v0 = (r0 + gamma * r1) / (1.0 - gamma**2)
    v1 = (r1 + gamma * r0) / (1.0 - gamma**2)

    n = 2
    s0, s1 = np.zeros(4 * n), np.ones(4 * n)
    agent = Td3Agent(0, n, Td3Config(gamma=gamma), seed=4)
    rng = np.random.default_rng(4)
    for _ in range(500):
        agent.buffer.add(s0, rng.dirichlet(np.ones(n)), r0, s1, 0)
        agent.buffer.add(s1, rng.dirichlet(np.ones(n)), r1, s0, 0)
    for _ in range(5000):
        train_step(agent, agent.buffer.sample(32))

    for s, v in ((s0, v0), (s1, v1)):
        for _ in range(10):
            a = rng.dirichlet(np.ones(n))
            q, _ = nn.mlp_forward(agent.q1, np.concatenate([s, a]))
            assert abs(q[0] - v) < 1e-2
    assert time.perf_counter() - start < 60.0


def test_criterion_06_similarity_clustering_twelve_cells(full_cfg):
    """On the 12-cell two-group scenario the mean intra-group latent
    distance must be below the mean inter-group distance for both groups,
    over 3 seeds, <= 15 min."""

    start = time.perf_counter()
    sc = full_cfg.scenario
    group_a = {1, 2, 3, 7, 8, 9}
    a_prime = equal_partition(sc.n_slices)
    equal = np.tile(a_prime, (sc.n_cells, 1))
    sim = full_cfg.similarity
    for seed in (0, 1, 2):
        log = rollout(sc, lambda t, net_state, states: equal, sim.steps, seed,
                      trace=True)
        samples = {
            c.cell_id: simm.collect_default_samples(
                log.states[:, k], log.actions[:, k], log.rewards[:, k], a_prime)
            for k, c in enumerate(sc.cells)
        }
        pooled = np.concatenate(list(samples.values()))
        model = simm.vae_train(pooled, kl_weight=sim.kl_weight,
                               epochs=sim.epochs, seed=seed,
                               latent_dim=sim.latent_dim,
                               batch_size=sim.batch_size, lr=sim.lr)
        latents = {i: simm.encode_samples(model, g) for i, g in samples.items()}
        intra, inter = {"a": [], "b": []}, []
        for i in latents:
            for j in latents:
                if i == j:
                    continue
                d = simm.kl_distance(latents[i], latents[j])
                if (i in group_a) == (j in group_a):
                    intra["a" if i in group_a else "b"].append(d)
                else:
                    inter.append(d)
        assert np.mean(intra["a"]) < np.mean(inter)
        assert np.mean(intra["b"]) < np.mean(inter)
    assert time.perf_counter() - start < 15 * 60


def test_criterion_07_clone_source_selection(smoke_cfg):
    """Cell 3 is a configuration clone of cell 1: the similarity pipeline
    must pick cell 1 as transfer source in 3/3 seeds."""

    sc = smoke_cfg.scenario
    sim = smoke_cfg.similarity
    a_prime = equal_partition(sc.n_slices)
    equal = np.tile(a_prime, (sc.n_cells, 1))
    for seed in (0, 1, 2):
        log = rollout(sc, lambda t, net_state, states: equal, sim.steps, seed,
                      trace=True)
        samples = {
            c.cell_id: simm.collect_default_samples(
                log.states[:, k], log.actions[:, k], log.rewards[:, k], a_prime)
            for k, c in enumerate(sc.cells)
        }
        pooled = np.concatenate(list(samples.values()))
        model = simm.vae_train(pooled, kl_weight=sim.kl_weight,
                               epochs=sim.epochs, seed=seed,
                               latent_dim=sim.latent_dim,
                               batch_size=sim.batch_size, lr=sim.lr)
        latents = {i: simm.encode_samples(model, g) for i, g in samples.items()}
        distances = simm.compute_distance_matrix(latents, target=3, candidates=[1, 2])
        assert simm.select_source(distances) == 1


def _tl_and_scratch_traces(pipeline, source_id, seed, steps=200):
    cfg = pipeline["cfg"]
    sc = cfg.scenario
    target_id = 3
    pretrained = harness.load_pretrained(pipeline["root"] / "train", sc, seed)
    peers = {i: a for i, a in pretrained.items() if i != target_id}
    tl = Td3Agent(target_id, sc.n_slices, cfg.td3,
                  harness._agent_seed(seed, target_id))
    integrated_transfer(pretrained[source_id], tl, cfg.transfer.instance_fraction,
                        seed)
    tl_trace = fine_tune(tl, sc, peers, steps, seed)
    scratch = Td3Agent(target_id, sc.n_slices, cfg.td3,
                       harness._agent_seed(seed + 1, target_id))
    scratch_trace = fine_tune(scratch, sc, peers, steps, seed)
    return tl_trace, scratch_trace


def test_criterion_08_transfer_jumpstart(pipeline):
    """Integrated TL must out-earn paired-seed scratch training by at least
    10% relative mean reward over fine-tuning steps 1-200, in 3/3 seeds."""

    source = pipeline["transfer"].source
    for seed in (0, 1, 2):
        tl_trace, scratch_trace = _tl_and_scratch_traces(pipeline, source, seed)
        assert tl_trace.mean() >= 1.10 * scratch_trace.mean()


def test_criterion_09_distance_gain_ordering(pipeline):
    """TL from the lowest-distance source must achieve a mean early gain at
    least as high as TL from the highest-distance source, in 3/3 seeds."""

    cfg = pipeline["cfg"]
    cfg = dataclasses.replace(cfg, similarity=dataclasses.replace(
        cfg.similarity, trace=str(pipeline["root"] / "train" / "default_trace.npz")))
    distances, _ = harness.run_similarity(
        cfg, seed=1, out=pipeline["root"] / "similarity_ordering")
    nearest = min(distances.entries, key=distances.entries.get)
    farthest = max(distances.entries, key=distances.entries.get)
    assert nearest != farthest
    for seed in (0, 1, 2):
        tl_near, scratch = _tl_and_scratch_traces(pipeline, nearest, seed)
        tl_far, _ = _tl_and_scratch_traces(pipeline, farthest, seed)
        gain_near = float((tl_near - scratch).mean())
        gain_far = float((tl_far - scratch).mean())
        assert gain_near >= gain_far


def test_criterion_10_method_ordering_after_convergence(pipeline):
    """Mean evaluation min-satisfaction must rank TL >= MADRL >= baseline
    under full training budgets, with TL strictly above the baseline,
    <= 30 min wall clock for the whole pipeline."""

    baseline = pipeline["baseline"].evaluation.rewards.mean()
    madrl = pipeline["train"].evaluation.rewards.mean()
    tl = pipeline["transfer"].evaluation.rewards.mean()
    assert tl >= madrl >= baseline
    assert tl > baseline
    assert pipeline["elapsed"] < 30 * 60


def test_criterion_11_determinism_and_persistence(tiny_cfg, tmp_path):
    """Identical seeds give bit-identical metrics.csv for both the baseline
    and a training run; agent checkpoints round-trip bit-exactly."""

    a = tmp_path / "a"
    b = tmp_path / "b"
    harness.run_baseline(tiny_cfg, seed=5, out=a)
    harness.run_baseline(tiny_cfg, seed=5, out=b)
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    ta = tmp_path / "train_a"
    tb = tmp_path / "train_b"
    harness.run_madrl(tiny_cfg, seed=5, out=ta)
    harness.run_madrl(tiny_cfg, seed=5, out=tb)
    assert (ta / "metrics.csv").read_bytes() == (tb / "metrics.csv").read_bytes()

    # Checkpoint persistence: load and re-save must reproduce the file's bytes.
    for cid in tiny_cfg.scenario.cell_ids:
        path = ta / "checkpoints" / f"cell_{cid}.npz"
        resaved = tmp_path / f"resaved_{cid}.npz"
        harness.save_agent(harness.load_agent(path), resaved)
        assert resaved.read_bytes() == path.read_bytes()


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.int64)


def test_shipped_checkpoints_load_bit_for_bit(pipeline, tmp_path):
    """At the shipped budget, whose Adam moments hold subnormal entries,
    each train checkpoint loads into an agent equal to the trained one bit
    for bit, and re-saving it reproduces the file's bytes."""

    for cid, trained in pipeline["train"].agents.items():
        path = pipeline["root"] / "train" / "checkpoints" / f"cell_{cid}.npz"
        loaded = load_agent(path)
        for name, net in trained.networks().items():
            assert np.array_equal(_bits(loaded.networks()[name].flat), _bits(net.flat))
        for name, adam in trained.adams().items():
            twin = loaded.adams()[name]
            assert twin.t == adam.t
            assert np.array_equal(_bits(twin.m), _bits(adam.m))
            assert np.array_equal(_bits(twin.v), _bits(adam.v))
        assert (loaded.step_count, loaded.frozen_actor_layers) == (
            trained.step_count, trained.frozen_actor_layers)
        resaved = tmp_path / f"cell_{cid}.npz"
        save_agent(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()


def test_shipped_transfer_output_evaluates_to_its_evaluation(pipeline, tmp_path):
    """Evaluating the shipped transfer's checkpoints at its evaluation seed
    repeats its evaluation slots, its CDFs and its mean satisfaction byte
    for byte."""

    cfg, tl_out = pipeline["cfg"], pipeline["root"] / "transfer"
    harness.run_evaluate(dataclasses.replace(cfg, evaluate=EvaluateParams(str(tl_out))),
                         seed=2, out=tmp_path)
    sc = cfg.scenario
    rows = cfg.phases.evaluation * sc.n_cells * sc.n_slices
    assert rows == 3000
    evaluated = (tmp_path / "metrics.csv").read_bytes().splitlines(keepends=True)
    transferred = (tl_out / "metrics.csv").read_bytes().splitlines(keepends=True)
    assert evaluated[1:] == transferred[-rows:]
    for name in ("cdf_throughput.csv", "cdf_delay.csv"):
        assert (tmp_path / name).read_bytes() == (tl_out / name).read_bytes()
    meta_eval, meta_tl = (json.loads((out / "run_meta.json").read_text())
                          for out in (tmp_path, tl_out))
    assert meta_eval["eval_seed"] == meta_tl["eval_seed"] == 2
    assert meta_eval["mean_satisfaction"] == meta_tl["mean_satisfaction"]
