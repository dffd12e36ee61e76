"""Harness, config, and CLI tests: file formats, determinism, exit codes."""

import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from slicetl import harness, runner
from slicetl.agent import Td3Agent, train_step
from slicetl.cli import main
from slicetl.csvio import write_csv
from slicetl.env import equal_partition
from slicetl.errors import (
    ConfigurationError,
    DependencyError,
    EmptySetError,
    NumericError,
)
from slicetl.harness import (
    constant_policy,
    empirical_cdf,
    evaluate_policies,
    load_trace,
    rollout,
    run_baseline,
    run_evaluate,
    save_trace,
    write_cdf_csv,
    write_metrics_csv,
)
from slicetl.runner import Trace, follow
from slicetl.transfer import STRATEGIES
from slicetl.scenario import (
    config_from_dict,
    config_to_dict,
    load_config,
    full_scenario,
    save_config,
    smoke_scenario,
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_builtin_configs_load():
    smoke = load_config("smoke3")
    full = load_config("full12")
    assert smoke.scenario.n_cells == 3
    assert full.scenario.n_cells == 12
    assert smoke.scenario.n_slices == full.scenario.n_slices == 4


def test_builtin_scenarios_have_symmetric_sites():
    full = full_scenario()
    for cell in full.cells:
        assert len(cell.neighbor_ids) == 2  # three-sector sites
    smoke = smoke_scenario()
    for cell in smoke.cells:
        assert len(cell.neighbor_ids) == 2  # fully meshed triple


def test_config_yaml_round_trip(tmp_path, smoke_cfg, full_cfg):
    for cfg in (smoke_cfg, full_cfg):
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        assert config_to_dict(loaded) == config_to_dict(cfg)


def test_cell_without_neighbors_loads(tmp_path, smoke_cfg):
    d = config_to_dict(smoke_cfg)
    lone = d["scenario"]["cells"][0]
    del lone["neighbor_ids"], lone["interference_gains"]
    d["scenario"]["cells"] = [lone]
    d["similarity"]["target"] = d["transfer"]["target"] = None
    path = tmp_path / "lone.yaml"
    path.write_text(yaml.safe_dump(d))
    cell = load_config(path).scenario.cells[0]
    assert cell.neighbor_ids == cell.interference_gains == ()
    save_config(load_config(path), path)
    assert load_config(path).scenario.cells == (cell,)


def test_config_dict_round_trip(smoke_cfg):
    assert config_from_dict(config_to_dict(smoke_cfg)) == smoke_cfg


def test_load_config_missing_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/config.yaml")


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_config_rejects_missing_scenario():
    with pytest.raises(ConfigurationError):
        config_from_dict({"seed": 3})


@pytest.mark.parametrize("keys, value, match", [
    (("transfer", "strategy"), "telepathy", None),
    (("similarity", "mode"), "approximate", None),
    (("similarity", "target"), 9, None),
    (("similarity", "candidates"), [1, 9], None),
    (("transfer", "target"), 9, None),
    # Misspelt keys name themselves instead of falling back to defaults.
    (("simlarity",), {"mode": "exact"}, "simlarity"),
    (("scenario", "dleay"), {"d_min": 1.0}, "dleay"),
    (("scenario", "cells", 0, "neighbour_ids"), [2, 3], "neighbour_ids"),
    (("scenario", "cells", 1, "requirements", 0, "delay_taget"), 2.0, "delay_taget"),
    (("scenario", "seed"), 0, "seed"),  # run seeds are the top-level seed
    # Values whose type differs from the field's name the field. PyYAML
    # reads an exponent without a dot, 5e-4, as the string '5e-4'.
    (("td3", "actor_lr"), yaml.safe_load("5e-4"), r"td3\.actor_lr"),
    (("similarity", "epochs"), 2.5, r"similarity\.epochs"),
    (("phases", "training"), True, r"phases\.training"),
    (("similarity", "candidates"), 3, r"similarity\.candidates"),
    (("td3", "actor_hidden"), [48], r"td3\.actor_hidden"),
    (("scenario", "cells", 2, "masks", 1, "period"), "100",
     r"scenario\.cells\[2\]\.masks\[1\]\.period"),
    # Values that would fail late or silently in a run.
    (("td3", "batch_size"), 0, "td3: batch_size"),
    (("td3", "policy_delay"), 0, "td3: policy_delay"),
    (("td3", "buffer_capacity"), 0, "td3: buffer_capacity"),
    (("td3", "updates_per_step"), -1, "td3: updates_per_step"),
    (("td3", "tau"), 2.0, "td3: tau"),
    (("td3", "tau"), -0.5, "td3: tau"),
    (("td3", "gamma"), 1.0, "td3: gamma"),
    (("td3", "gamma"), -0.1, "td3: gamma"),
    (("td3", "actor_lr"), 0.0, "td3: actor_lr"),
    (("td3", "critic_lr"), -1e-3, "td3: critic_lr"),
    (("td3", "target_noise"), -0.1, "td3: target_noise"),
    (("td3", "noise_clip"), -0.2, "td3: noise_clip"),
    (("td3", "explore_noise"), -0.3, "td3: explore_noise"),
    (("td3", "explore_noise_final"), -0.05, "td3: explore_noise_final"),
    (("td3", "actor_hidden"), [48, 0], "td3: actor_hidden"),
    (("td3", "critic_hidden"), [0, 24], "td3: critic_hidden"),
    (("similarity", "steps"), 0, "similarity: steps"),
    (("similarity", "epochs"), 0, "similarity: epochs"),
    (("similarity", "batch_size"), 0, "similarity: batch_size"),
    (("similarity", "latent_dim"), 0, "similarity: latent_dim"),
    (("similarity", "min_samples"), 0, "similarity: min_samples"),
    (("similarity", "lr"), 0.0, "similarity: lr"),
    (("similarity", "kl_weight"), -1e-3, "similarity: kl_weight"),
    (("transfer", "instance_fraction"), 1.5, "transfer: instance_fraction"),
    (("transfer", "instance_fraction"), -0.5, "transfer: instance_fraction"),
    (("transfer",), {"strategy": "feature", "frozen_layers": 0},
     r"transfer\.frozen_layers"),
    (("transfer",), {"strategy": "feature", "frozen_layers": 3},
     r"transfer\.frozen_layers"),
], ids=["strategy", "mode", "target", "candidates", "transfer-target",
        "top-level-key", "scenario-key", "cell-key", "requirement-key",
        "scenario-seed", "yaml-exponent", "float-for-int", "bool-for-int",
        "int-for-list", "short-tuple", "str-for-int", "batch-size",
        "policy-delay", "buffer-capacity", "updates-per-step", "tau-high",
        "tau-low", "gamma-one", "gamma-negative", "actor-lr", "critic-lr",
        "target-noise", "noise-clip", "explore-noise", "explore-noise-final",
        "actor-hidden", "critic-hidden", "similarity-steps", "epochs",
        "similarity-batch-size", "latent-dim", "min-samples", "similarity-lr",
        "kl-weight", "fraction-high", "fraction-low", "frozen-layers-low",
        "frozen-layers-high"])
def test_load_config_rejects_bad_choices(tmp_path, smoke_cfg, keys, value, match):
    d = config_to_dict(smoke_cfg)
    section = d
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(ConfigurationError, match=match):
        load_config(path)


@pytest.mark.parametrize("sections", [
    {"transfer": {"source": 99}},
    {"transfer": {"source": 3}},  # the default targets resolve to the last cell
    {"transfer": {"source": 2, "target": 2}},
    {"similarity": {"candidates": [1, 3]}},
    {"similarity": {"target": 2, "candidates": [1, 2]}, "transfer": {"target": 2}},
    {"similarity": {"candidates": [1, 1]}},
    # Similarity could not rank sources for the transfer target.
    {"similarity": {"target": 2}, "transfer": {"target": 3, "source": None}},
], ids=["source-unknown", "source-is-default-target", "source-is-target",
        "candidate-is-default-target", "candidate-is-target", "candidate-repeats",
        "targets-differ-without-source"])
def test_config_rejects_bad_source_and_candidates(smoke_cfg, sections):
    d = config_to_dict(smoke_cfg)
    for name, values in sections.items():
        d[name].update(values)
    with pytest.raises(ConfigurationError):
        config_from_dict(d)


def test_config_rejects_unknown_td3_key(smoke_cfg):
    d = config_to_dict(smoke_cfg)
    d["td3"]["warp_speed"] = 9
    with pytest.raises(ConfigurationError):
        config_from_dict(d)


# ---------------------------------------------------------------------------
# CSV and trace formats
# ---------------------------------------------------------------------------


def test_empirical_cdf_oracle():
    xs, ps = empirical_cdf(np.array([3.0, 1.0, 2.0, 2.0]))
    assert np.array_equal(xs, [1.0, 2.0, 2.0, 3.0])
    assert np.array_equal(ps, [0.25, 0.5, 0.75, 1.0])


def test_cdf_csv_round_trip(tmp_path):
    values = np.array([0.5, 0.25, 0.75])
    path = tmp_path / "cdf.csv"
    write_cdf_csv(path, values, "satisfaction")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["satisfaction"]) for r in rows] == [0.25, 0.5, 0.75]
    assert [float(r["cdf"]) for r in rows] == [1 / 3, 2 / 3, 1.0]


def test_metrics_csv_schema_and_float_round_trip(tmp_path):
    scenario = smoke_scenario()
    records = rollout(
        scenario,
        follow(scenario, {c.cell_id: constant_policy(equal_partition(scenario.n_slices))
                for c in scenario.cells}),
        steps=3, seed=0,
    )
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, records)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * scenario.n_cells * scenario.n_slices
    assert set(rows[0]) == {"t", "cell", "slice", "throughput", "delay",
                            "load", "ues", "share", "reward"}
    # repr() serialization must survive a float() round trip bit-exactly.
    first = records[0]
    assert float(rows[0]["reward"]) == first.rewards[0]
    assert float(rows[0]["throughput"]) == first.throughput[0, 0]
    assert float(rows[0]["delay"]) == first.delay[0, 0]
    assert float(rows[0]["load"]) == first.load[0, 0]
    assert float(rows[0]["share"]) == first.actions[0, 0]
    assert all(np.isfinite(float(row[column])) for row in rows
               for column in ("throughput", "delay", "load", "share", "reward"))


def _reference_csv(header, rows) -> bytes:
    """What csv.writer writes for rows of Python values, floats as repr."""

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue().encode()


def _reference_metrics_csv(records) -> bytes:
    rows = [
        [r.t, cell, n, float(r.throughput[k, n]), float(r.delay[k, n]),
         float(r.load[k, n]), int(r.ues[k, n]), float(r.actions[k, n]),
         float(r.rewards[k])]
        for r in records for k, cell in enumerate(r.cells.tolist())
        for n in range(r.actions.shape[1])
    ]
    return _reference_csv(harness.METRICS_HEADER, rows)


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1e-05, 1e+16, 1.5e300, 0.1, 1 / 3, float("inf"), float("-inf")]),
    st.floats(),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_writer_matches_csv_writer(data):
    """Blocks of float and integer columns, with heavy repetition, signed
    zeros, subnormals and exponent reprs, give csv.writer's bytes."""

    n = data.draw(st.integers(0, 40))
    pool = data.draw(st.lists(FLOATS, min_size=1, max_size=4))
    repeated = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    mixed = data.draw(st.lists(st.sampled_from(pool) | FLOATS, min_size=n, max_size=n))
    ints = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    small = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    split = data.draw(st.integers(0, n))
    columns = [np.array(ints, dtype=np.int64), np.array(repeated, dtype=np.float64),
               np.array(mixed, dtype=np.float64), np.array(small, dtype=np.int64)]
    header = ("i", "repeated", "mixed", "small")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "columns.csv"
        write_csv(path, header, [[c[:split] for c in columns],
                                 [c[split:] for c in columns]])
        written = path.read_bytes()
    assert written == _reference_csv(header, zip(ints, repeated, mixed, small))


def test_learned_runs_write_the_reference_metrics_csv(tmp_path, tiny_cfg):
    """The actors' shares are distinct values in every row, unlike the
    baseline's; both runs' files match csv.writer over their slot records."""

    train = harness.run_madrl(tiny_cfg, seed=0, out=tmp_path / "train")
    assert ((tmp_path / "train" / "metrics.csv").read_bytes()
            == _reference_metrics_csv(train.records + train.eval_records))
    tl = harness.run_transfer(_transfer_cfg(tiny_cfg, tmp_path / "train"), seed=0,
                              out=tmp_path / "tl")
    assert ((tmp_path / "tl" / "metrics.csv").read_bytes()
            == _reference_metrics_csv(tl.records + tl.eval_records))


def test_trace_round_trip(tmp_path):
    scenario = smoke_scenario()
    records = rollout(
        scenario,
        follow(scenario, {c.cell_id: constant_policy(equal_partition(scenario.n_slices))
                for c in scenario.cells}),
        steps=4, seed=1,
    )
    path = tmp_path / "trace.npz"
    trace = Trace.of(records)
    save_trace(path, trace)
    loaded = load_trace(path)
    k = scenario.n_cells
    assert np.array_equal(loaded.t, np.repeat(np.arange(1, 5), k))
    assert np.array_equal(loaded.cell, np.tile(scenario.cell_ids, 4))
    for name in Trace._fields:
        assert np.array_equal(getattr(loaded, name), getattr(trace, name))
    for i, record in enumerate(records):
        assert np.array_equal(loaded.states[i * k:(i + 1) * k], record.states)
        assert np.array_equal(loaded.actions[i * k:(i + 1) * k], record.actions)
        assert np.array_equal(loaded.rewards[i * k:(i + 1) * k], record.rewards)


def test_load_trace_missing_file(tmp_path):
    with pytest.raises(DependencyError):
        load_trace(tmp_path / "nope.npz")


# ---------------------------------------------------------------------------
# Rollout and evaluation
# ---------------------------------------------------------------------------


def test_rollout_is_deterministic():
    scenario = smoke_scenario()
    act = follow(scenario, {
        c.cell_id: constant_policy(equal_partition(scenario.n_slices))
        for c in scenario.cells})
    a = rollout(scenario, act, steps=10, seed=5)
    b = rollout(scenario, act, steps=10, seed=5)
    assert all(
        np.array_equal(x.rewards, y.rewards) and np.array_equal(x.states, y.states)
        for x, y in zip(a, b)
    )
    c = rollout(scenario, act, steps=10, seed=6)
    assert any(not np.array_equal(x.rewards, y.rewards) for x, y in zip(a, c))


def test_evaluate_policies_summary_shapes():
    scenario = smoke_scenario()
    act = follow(scenario, {
        c.cell_id: constant_policy(equal_partition(scenario.n_slices))
        for c in scenario.cells})
    summary = evaluate_policies(scenario, act, steps=8, seed=0)
    assert summary.satisfaction.shape == (8 * scenario.n_cells,)
    assert summary.max_delay.shape == (8 * scenario.n_cells,)
    assert 0.0 <= summary.mean_satisfaction <= 1.0
    assert summary.mean_max_delay >= 0.5


# ---------------------------------------------------------------------------
# Top-level runs (reduced budgets)
# ---------------------------------------------------------------------------


def test_run_baseline_artifacts(tmp_path, tiny_cfg):
    out = tmp_path / "base"
    run_baseline(tiny_cfg, seed=0, out=out)
    assert (out / "metrics.csv").exists()
    assert (out / "cdf_throughput.csv").exists()
    assert (out / "cdf_delay.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["method"] == "baseline"
    assert meta["seed"] == 0
    assert 0.0 <= meta["mean_satisfaction"] <= 1.0


def test_baseline_shares_follow_the_slot_demands(tmp_path, tiny_cfg):
    """Each (t, cell) share is that same slot's ues x ue_rates, normalised."""

    run_baseline(tiny_cfg, seed=3, out=tmp_path)
    rates = {c.cell_id: np.array(c.ue_rates) for c in tiny_cfg.scenario.cells}
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    n = tiny_cfg.scenario.n_slices
    assert len(rows) == tiny_cfg.phases.evaluation * tiny_cfg.scenario.n_cells * n
    for i in range(0, len(rows), n):
        record = rows[i:i + n]
        assert len({(r["t"], r["cell"]) for r in record}) == 1
        ues = np.array([int(r["ues"]) for r in record])
        demands = ues * rates[int(record[0]["cell"])]
        shares = np.array([float(r["share"]) for r in record])
        assert np.array_equal(shares, demands / demands.sum())


def test_evaluate_without_checkpoints_is_the_baseline(tmp_path, tiny_cfg):
    run_baseline(tiny_cfg, seed=4, out=tmp_path / "base")
    run_evaluate(tiny_cfg, seed=4, out=tmp_path / "eval")
    assert ((tmp_path / "eval" / "metrics.csv").read_bytes()
            == (tmp_path / "base" / "metrics.csv").read_bytes())


def test_run_madrl_then_transfer_and_evaluate(tmp_path, tiny_cfg):
    train_out = tmp_path / "train"
    result = harness.run_madrl(tiny_cfg, seed=0, out=train_out)
    for cid in tiny_cfg.scenario.cell_ids:
        assert (train_out / "checkpoints" / f"cell_{cid}.npz").exists()
        assert (train_out / "buffers" / f"cell_{cid}.npz").exists()
    assert (train_out / "default_trace.npz").exists()
    assert json.loads((train_out / "run_meta.json").read_text())["diverged"] == {}
    assert result.extras["summary"].satisfaction.size > 0

    cfg_tl = dataclasses.replace(
        tiny_cfg,
        transfer=dataclasses.replace(tiny_cfg.transfer, artifacts=str(train_out)),
    )
    tl_out = tmp_path / "tl"
    tl = harness.run_transfer(cfg_tl, seed=0, out=tl_out)
    meta = json.loads((tl_out / "run_meta.json").read_text())
    assert meta["target"] == 3
    assert meta["source"] in (1, 2)
    with open(tl_out / "gain.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == tiny_cfg.phases.tl_training
    assert all(
        float(r["gain"]) == float(r["reward_tl"]) - float(r["reward_scratch"])
        for r in rows
    )

    eval_cfg = dataclasses.replace(
        cfg_tl,
        evaluate=dataclasses.replace(cfg_tl.evaluate, checkpoints=str(train_out)),
    )
    summary = run_evaluate(eval_cfg, seed=0, out=tmp_path / "eval")
    assert 0.0 <= summary.mean_satisfaction <= 1.0


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory, tiny_cfg):
    out = tmp_path_factory.mktemp("artifacts")
    harness.run_madrl(tiny_cfg, seed=0, out=out)
    return out


def _transfer_cfg(tiny_cfg, artifacts, **transfer):
    return dataclasses.replace(tiny_cfg, transfer=dataclasses.replace(
        tiny_cfg.transfer, source=1, artifacts=str(artifacts), **transfer))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_transfer_runs_every_strategy(tmp_path, tiny_cfg, tiny_artifacts,
                                          strategy):
    cfg = _transfer_cfg(tiny_cfg, tiny_artifacts, strategy=strategy)
    result = harness.run_transfer(cfg, seed=0, out=tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert (meta["source"], meta["target"]) == (1, 3)
    assert meta["config"]["transfer"]["strategy"] == strategy
    assert (meta["config"]["transfer"]["frozen_layers"]
            == tiny_cfg.transfer.frozen_layers)
    assert meta["diverged"] == {}
    agent = result.extras["tl_agent"]
    assert agent.frozen_actor_layers == (
        tiny_cfg.transfer.frozen_layers if strategy == "feature" else 0)
    foreign = agent.buffer.origin_counts().get(1, 0)
    assert (foreign > 0) == (strategy in ("instance", "integrated"))
    with open(tmp_path / "gain.csv") as fh:
        assert len(list(csv.DictReader(fh))) == tiny_cfg.phases.tl_training


def test_run_transfer_survives_a_diverging_fine_tune(tmp_path, tiny_cfg,
                                                     tiny_artifacts, monkeypatch):
    calls = []

    def diverge_once(agent, batch):
        calls.append(agent)
        if len(calls) == 1:
            raise NumericError("non-finite critic loss; step aborted")
        return train_step(agent, batch)

    monkeypatch.setattr(runner, "train_step", diverge_once)
    harness.run_transfer(_transfer_cfg(tiny_cfg, tiny_artifacts), seed=0,
                         out=tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["diverged"] == {"tl": "non-finite critic loss; step aborted"}
    with open(tmp_path / "gain.csv") as fh:
        assert len(list(csv.DictReader(fh))) == tiny_cfg.phases.tl_training
    with open(tmp_path / "metrics.csv") as fh:
        assert {int(r["t"]) for r in csv.DictReader(fh)} >= set(
            range(1, tiny_cfg.phases.tl_training + 1))
    assert len(calls) > 1  # the scratch run kept training


def test_loaded_agents_draw_their_own_streams(tiny_cfg, tiny_artifacts):
    ids = tiny_cfg.scenario.cell_ids
    agents = harness.load_pretrained(tiny_artifacts, ids, seed=7)
    draws = {}
    for cid, agent in agents.items():
        fresh = Td3Agent(cid, tiny_cfg.scenario.n_slices, tiny_cfg.td3,
                         harness._agent_seed(7, cid))
        draws[cid] = agent.explore_rng.standard_normal(6)
        assert np.array_equal(draws[cid], fresh.explore_rng.standard_normal(6))
        assert agent.buffer.seed == fresh.buffer.seed
        assert len(agent.buffer) > 0
    assert not np.array_equal(draws[ids[0]], draws[ids[1]])
    assert agents[ids[0]].buffer.seed != agents[ids[1]].buffer.seed


def test_run_transfer_ranks_sources_for_the_transfer_target(tmp_path, tiny_cfg,
                                                            tiny_artifacts):
    cfg = dataclasses.replace(
        tiny_cfg,
        similarity=dataclasses.replace(tiny_cfg.similarity, target=None),
        transfer=dataclasses.replace(tiny_cfg.transfer, target=1,
                                     artifacts=str(tiny_artifacts)),
    )
    result = harness.run_transfer(cfg, seed=5, out=tmp_path)
    assert result.extras["source"] in (2, 3)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert (meta["source"], meta["target"]) == (result.extras["source"], 1)
    with open(tmp_path / "similarity" / "distances.csv") as fh:
        assert {int(r["target"]) for r in csv.DictReader(fh)} == {1}


def test_run_transfer_requires_artifacts(tmp_path, tiny_cfg):
    with pytest.raises(DependencyError):
        harness.run_transfer(tiny_cfg, seed=0, out=tmp_path / "tl")


def test_run_similarity_selects_a_source(tmp_path, tiny_cfg):
    distances, source = harness.run_similarity(tiny_cfg, seed=0,
                                               out=tmp_path / "sim")
    assert distances.target == 3
    assert source in (1, 2)
    with open(tmp_path / "sim" / "distances.csv") as fh:
        distance_rows = list(csv.DictReader(fh))
    # The posterior sigmas lie far above the fast path's limit, so the
    # requested simplified form falls back to the exact one.
    assert [(r["mode"], r["kl_path"]) for r in distance_rows] == [
        ("simplified", "exact")] * 2
    with open(tmp_path / "sim" / "latents.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(np.isfinite(float(v))
                        for r in rows for k, v in r.items() if k != "agent")


def test_run_similarity_checks_sample_counts_before_training(tmp_path, tiny_cfg,
                                                             monkeypatch):
    """30 default-action steps give each agent 30 < min_samples samples:
    the run fails before the VAE trains."""

    cfg = dataclasses.replace(
        tiny_cfg, similarity=dataclasses.replace(tiny_cfg.similarity, steps=30))

    def must_not_train(*args, **kwargs):
        raise AssertionError("vae_train ran although an agent lacks samples")

    monkeypatch.setattr(harness.simm, "vae_train", must_not_train)
    with pytest.raises(EmptySetError, match="agent 3 has fewer than 50"):
        harness.run_similarity(cfg, seed=0, out=tmp_path / "sim")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_tiny_yaml(tmp_path, tiny_cfg):
    path = tmp_path / "tiny.yaml"
    save_config(tiny_cfg, path)
    return path


def test_cli_baseline(tmp_path, tiny_cfg):
    cfg_path = _write_tiny_yaml(tmp_path, tiny_cfg)
    out = tmp_path / "out"
    code = main(["baseline", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()


def test_cli_seed_override(tmp_path, tiny_cfg):
    cfg_path = _write_tiny_yaml(tmp_path, tiny_cfg)
    out = tmp_path / "out"
    main(["baseline", "--config", str(cfg_path), "--seed", "77",
          "--out", str(out)])
    assert json.loads((out / "run_meta.json").read_text())["seed"] == 77


def test_cli_missing_config_exit_code(tmp_path, capsys):
    code = main(["train", "--config", "/nope.yaml", "--out", str(tmp_path)])
    assert code == ConfigurationError.exit_code
    assert "ConfigurationError" in capsys.readouterr().err


def test_cli_malformed_yaml_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: [cells\nseed: 0\n")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == ConfigurationError.exit_code
    assert "ConfigurationError" in capsys.readouterr().err


def test_cli_transfer_without_artifacts_exit_code(tmp_path, tiny_cfg, capsys):
    cfg_path = _write_tiny_yaml(tmp_path, tiny_cfg)
    code = main(["transfer", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == DependencyError.exit_code


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_builtin_yaml_matches_programmatic_scenario():
    cfg = load_config("smoke3")
    assert cfg.scenario == smoke_scenario()
    assert load_config("full12").scenario == full_scenario()
