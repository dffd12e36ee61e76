"""Harness, config, and CLI tests: file formats, determinism, exit codes."""

import csv
import dataclasses
import gc
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from slicetl import harness, runner
from slicetl.agent import (
    BUFFER_VERSION,
    CHECKPOINT_VERSION,
    ReplayBuffer,
    Td3Agent,
    Td3Config,
    load_agent,
    save_agent,
    train_step,
)
from slicetl.cli import main
from slicetl.codec import from_plain, to_plain, write_npz
from slicetl.csvio import write_csv
from slicetl.env import METRICS, equal_partition
from slicetl.errors import (
    ConfigurationError,
    ContractViolationError,
    DependencyError,
    DimensionError,
    EmptySetError,
    NumericError,
)
from slicetl.harness import (
    TRACE_VERSION,
    empirical_cdf,
    evaluate_policies,
    load_trace,
    rollout,
    run_baseline,
    run_evaluate,
    save_trace,
    write_cdf_csvs,
    write_metrics_csv,
)
from slicetl.runner import RunLog, agents_act, record_step, run_slots
from slicetl.transfer import INSTANCE_STRATEGIES, STRATEGIES
from slicetl.scenario import (
    EvaluateParams,
    ExperimentConfig,
    Phases,
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
    # The last cell is the similarity and transfer target.
    assert (smoke.similarity.target, full.similarity.target) == (3, 12)
    assert (smoke.similarity_target, full.similarity_target) == (3, 12)


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
        assert to_plain(loaded) == to_plain(cfg)


def test_builtin_config_does_not_import_yaml():
    """Only config files need YAML: a fresh interpreter that loads the
    harness and a builtin config leaves ``yaml`` unimported."""

    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import slicetl.harness; "
            "from slicetl.scenario import load_config; load_config('full12'); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))")
    result = subprocess.run([sys.executable, "-c", code, str(src)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cell_without_neighbors_loads(tmp_path, smoke_cfg):
    d = to_plain(smoke_cfg)
    lone = d["scenario"]["cells"][0]
    del lone["neighbor_ids"], lone["interference_gains"]
    d["scenario"]["cells"] = [lone]
    d["similarity"]["target"] = None
    path = tmp_path / "lone.yaml"
    path.write_text(yaml.safe_dump(d))
    cell = load_config(path).scenario.cells[0]
    assert cell.neighbor_ids == cell.interference_gains == ()
    save_config(load_config(path), path)
    assert load_config(path).scenario.cells == (cell,)


def test_config_dict_round_trip(smoke_cfg):
    assert from_plain(ExperimentConfig, to_plain(smoke_cfg)) == smoke_cfg


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
        from_plain(ExperimentConfig, {})


@pytest.mark.parametrize("keys, value, match", [
    (("transfer", "strategy"), "telepathy", None),
    # A key this version dropped fails by name, as any unknown key does.
    (("similarity", "mode"), "simplified", "mode"),
    (("similarity", "target"), 9, None),
    (("similarity", "candidates"), [1, 9], None),
    # similarity.target names the one target cell; transfer has none.
    (("transfer", "target"), 3, r"unknown key\(s\) \['target'\] in transfer"),
    # Misspelt keys name themselves instead of falling back to defaults.
    (("simlarity",), {"mode": "exact"}, "simlarity"),
    (("scenario", "dleay"), {"d_min": 1.0}, "dleay"),
    (("scenario", "cells", 0, "neighbour_ids"), [2, 3], "neighbour_ids"),
    (("scenario", "cells", 1, "requirements", 0, "delay_taget"), 2.0, "delay_taget"),
    # The run seed is --seed alone; neither the scenario nor the config has one.
    (("scenario", "seed"), 0, "seed"),
    (("seed",), 3, r"unknown key\(s\) \['seed'\] in the config"),
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
    (("phases", "evaluation"), 0, "phases: phase evaluation"),
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
        "scenario-seed", "top-level-seed", "yaml-exponent", "float-for-int",
        "bool-for-int", "int-for-list", "short-tuple", "str-for-int",
        "evaluation-slots", "batch-size",
        "policy-delay", "buffer-capacity", "updates-per-step", "tau-high",
        "tau-low", "gamma-one", "gamma-negative", "actor-lr", "critic-lr",
        "target-noise", "noise-clip", "explore-noise", "explore-noise-final",
        "actor-hidden", "critic-hidden", "similarity-steps", "epochs",
        "similarity-batch-size", "latent-dim", "min-samples", "similarity-lr",
        "kl-weight", "fraction-high", "fraction-low", "frozen-layers-low",
        "frozen-layers-high"])
def test_load_config_rejects_bad_choices(tmp_path, smoke_cfg, keys, value, match):
    d = to_plain(smoke_cfg)
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
    {"similarity": {"target": 2}, "transfer": {"source": 2}},
    {"similarity": {"candidates": [1, 3]}},
    {"similarity": {"target": 2, "candidates": [1, 2]}},
    {"similarity": {"candidates": [1, 1]}},
], ids=["source-unknown", "source-is-default-target", "source-is-target",
        "candidate-is-default-target", "candidate-is-target", "candidate-repeats"])
def test_config_rejects_bad_source_and_candidates(smoke_cfg, sections):
    d = to_plain(smoke_cfg)
    for name, values in sections.items():
        d[name].update(values)
    with pytest.raises(ConfigurationError):
        from_plain(ExperimentConfig, d)


def test_config_rejects_unknown_td3_key(smoke_cfg):
    d = to_plain(smoke_cfg)
    d["td3"]["warp_speed"] = 9
    with pytest.raises(ConfigurationError):
        from_plain(ExperimentConfig, d)


# ---------------------------------------------------------------------------
# CSV and trace formats
# ---------------------------------------------------------------------------


def test_empirical_cdf_oracle():
    xs, ps = empirical_cdf(np.array([3.0, 1.0, 2.0, 2.0]))
    assert np.array_equal(xs, [1.0, 2.0, 2.0, 3.0])
    assert np.array_equal(ps, [0.25, 0.5, 0.75, 1.0])


def test_cdf_csv_round_trip(tmp_path):
    values = np.array([0.5, 0.25, 0.75])
    path, delays = tmp_path / "cdf.csv", tmp_path / "delay.csv"
    write_cdf_csvs({path: ("satisfaction", values),
                    delays: ("max_delay_ms", np.array([[4.0], [2.0], [9.0]]))})
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["satisfaction"]) for r in rows] == [0.25, 0.5, 0.75]
    assert [float(r["cdf"]) for r in rows] == [1 / 3, 2 / 3, 1.0]
    with open(delays) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["max_delay_ms"]) for r in rows] == [2.0, 4.0, 9.0]
    assert [float(r["cdf"]) for r in rows] == [1 / 3, 2 / 3, 1.0]


def test_cdf_csvs_of_unequal_sizes_are_refused(tmp_path):
    """The levels are formatted once, for one sample size."""

    with pytest.raises(ValueError):
        write_cdf_csvs({tmp_path / "a.csv": ("satisfaction", np.ones(3)),
                        tmp_path / "b.csv": ("max_delay_ms", np.ones(4))})
    assert not (tmp_path / "b.csv").exists()


def _equal_split(scenario):
    """Act hook in which every cell holds the equal split."""

    equal = np.tile(equal_partition(scenario.n_slices), (scenario.n_cells, 1))
    return lambda t, net_state, states: equal


def test_metrics_csv_schema_and_float_round_trip(tmp_path):
    scenario = smoke_scenario()
    log = rollout(scenario, _equal_split(scenario), steps=3, seed=0)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [log])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * scenario.n_cells * scenario.n_slices
    assert set(rows[0]) == {"t", "cell", "slice", "throughput", "delay",
                            "load", "ues", "share", "reward"}
    # repr() serialization must survive a float() round trip bit-exactly.
    assert float(rows[0]["reward"]) == log.rewards[0, 0]
    assert float(rows[0]["throughput"]) == log.throughput[0, 0, 0]
    assert float(rows[0]["delay"]) == log.delay[0, 0, 0]
    assert float(rows[0]["load"]) == log.load[0, 0, 0]
    assert float(rows[0]["share"]) == log.actions[0, 0, 0]
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


def _reference_metrics_csv(logs) -> bytes:
    rows = [
        [int(log.t[i]), cell, n, float(log.throughput[i, k, n]),
         float(log.delay[i, k, n]), float(log.load[i, k, n]), int(log.ues[i, k, n]),
         float(log.actions[i, k, n]), float(log.rewards[i, k])]
        for log in logs for i in range(log.t.size)
        for k, cell in enumerate(log.cells.tolist())
        for n in range(log.actions.shape[2])
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
    # Integer, float and name columns in one block, the names both as an
    # array and as text already formatted.
    names = data.draw(st.lists(st.sampled_from(["exact", "simplified", ""]),
                               min_size=n, max_size=n))
    named = (np.array(small, dtype=np.int64), np.array(mixed, dtype=np.float64),
             np.array(ints, dtype=np.int64), np.array(names), names)
    named_header = ("id", "value", "count", "name", "name_text")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "columns.csv"
        write_csv(path, header, [[c[:split] for c in columns],
                                 [c[split:] for c in columns]])
        written = path.read_bytes()
        write_csv(path, named_header, [named])
        written_named = path.read_bytes()
    assert written == _reference_csv(header, zip(ints, repeated, mixed, small))
    assert written_named == _reference_csv(
        named_header, zip(small, mixed, ints, names, names))


@pytest.mark.parametrize("existing", [None, b"kept\r\n"], ids=["no-file", "old-file"])
def test_write_csv_failing_midway_leaves_no_file(tmp_path, existing):
    """A block iterator that raises after its first block leaves no file
    under the final name (or the earlier one untouched) and no temp file."""

    def blocks():
        yield [np.arange(3)]
        raise RuntimeError("block failed")

    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(RuntimeError, match="block failed"):
        write_csv(path, ("x",), blocks())
    assert sorted(tmp_path.iterdir()) == ([] if existing is None else [path])
    if existing is not None:
        assert path.read_bytes() == existing


def test_trace_round_trip(tmp_path):
    """The file holds one flat row per (slot, cell), slot-major; it loads
    back as the log's (T, K, ...) columns."""

    scenario = smoke_scenario()
    log = rollout(scenario, _equal_split(scenario), steps=4, seed=1, trace=True)
    path = tmp_path / "trace.npz"
    save_trace(path, log)
    k = scenario.n_cells
    with np.load(path) as data:
        assert np.array_equal(data["t"], np.repeat(np.arange(1, 5), k))
        assert np.array_equal(data["cell"], np.tile(scenario.cell_ids, 4))
        for i in range(4):
            assert np.array_equal(data["states"][i * k:(i + 1) * k], log.states[i])
            assert np.array_equal(data["actions"][i * k:(i + 1) * k], log.actions[i])
            assert np.array_equal(data["rewards"][i * k:(i + 1) * k], log.rewards[i])
    loaded = load_trace(path, scenario)
    for name, column in zip(("states", "actions", "rewards"), loaded):
        assert np.array_equal(column, getattr(log, name)), name


def test_a_log_is_written_only_to_the_file_of_its_kind(tmp_path):
    """A metrics log holds no states, so it makes no trace file; a trace
    log holds no metric columns, so it makes no ``metrics.csv``. Neither
    file is left behind."""

    scenario = smoke_scenario()
    metrics = rollout(scenario, _equal_split(scenario), steps=2, seed=0)
    trace = rollout(scenario, _equal_split(scenario), steps=2, seed=0, trace=True)
    assert metrics.states is None
    assert all(getattr(trace, name) is None for name in METRICS)
    with pytest.raises(ContractViolationError):
        save_trace(tmp_path / "trace.npz", metrics)
    with pytest.raises(ContractViolationError):
        write_metrics_csv(tmp_path / "metrics.csv", [metrics, trace])
    assert list(tmp_path.iterdir()) == []


def test_load_trace_missing_file(tmp_path):
    with pytest.raises(DependencyError):
        load_trace(tmp_path / "nope.npz", smoke_scenario())


# ---------------------------------------------------------------------------
# Rollout and evaluation
# ---------------------------------------------------------------------------


def test_rollout_is_deterministic():
    scenario = smoke_scenario()
    act = _equal_split(scenario)
    a = rollout(scenario, act, steps=10, seed=5, trace=True)
    b = rollout(scenario, act, steps=10, seed=5, trace=True)
    assert np.array_equal(a.rewards, b.rewards) and np.array_equal(a.states, b.states)
    c = rollout(scenario, act, steps=10, seed=6, trace=True)
    assert not np.array_equal(a.rewards, c.rewards)


def test_record_step_copies_the_slot():
    """Each kind of log holds copies of its columns: overwriting every
    writable array of each yielded slot after ``record_step`` leaves the
    log as it was. The UE counts are rows of the read-only traffic block,
    so no caller can overwrite them."""

    scenario = smoke_scenario()
    for trace, columns in ((False, METRICS), (True, ("states",))):
        expected = rollout(scenario, _equal_split(scenario), steps=4, seed=1, trace=trace)
        log, slots = RunLog(scenario, 4, trace=trace), []
        for slot in run_slots(scenario, 1, 4, _equal_split(scenario)):
            record_step(log, slot)
            slots.append(slot)
        for slot in slots:
            assert not slot.net_state.ues.flags.writeable
            for array in (slot.states, slot.actions, slot.rewards, slot.next_states,
                          *(getattr(slot.net_state, name) for name in METRICS
                            if name != "ues")):
                array[...] = -1
        for name in ("t", "actions", "rewards", *columns):
            assert np.array_equal(getattr(log, name), getattr(expected, name)), name


def _traced_peak(call):
    """Peak traced bytes of a second call, and its result; the first pays
    numpy's lazy set-up."""

    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _column_bytes(scenario, slots: int, widths) -> int:
    """Bytes of the time, action and reward columns every log holds, plus
    one (slots, K, width) float64 column per entry of ``widths``."""

    k, n = scenario.n_cells, scenario.n_slices
    return 8 * slots * (1 + k * n + k + sum(k * w for w in widths))


def test_an_evaluation_rollout_allocates_no_states(full_cfg):
    """A 300-slot full12 evaluation holds time, actions, rewards and the
    four metric columns; its peak stays below what a states column more
    would take."""

    scenario = full_cfg.scenario
    n = scenario.n_slices
    peak, log = _traced_peak(
        lambda: evaluate_policies(scenario, _equal_split(scenario), steps=300, seed=0))
    assert peak < _column_bytes(scenario, 300, [n] * len(METRICS) + [4 * n])
    assert log.states is None


def test_a_default_action_trace_allocates_no_metric_columns(tmp_path, full_cfg,
                                                            monkeypatch):
    """The 300-slot full12 default-action rollout holds time, states,
    actions and rewards; its peak, before the file is written, stays below
    what the four metric columns more would take."""

    scenario = full_cfg.scenario
    n = scenario.n_slices
    saved = []
    monkeypatch.setattr(harness, "save_trace", lambda path, log: saved.append(log))
    peak, log = _traced_peak(
        lambda: harness.default_action_trace(scenario, 300, 0, tmp_path))
    assert peak < _column_bytes(scenario, 300, [4 * n] + [n] * len(METRICS))
    assert saved[-1] is log
    assert all(getattr(log, name) is None for name in METRICS)


def test_evaluate_policies_summary_shapes():
    scenario = smoke_scenario()
    act = _equal_split(scenario)
    log = evaluate_policies(scenario, act, steps=8, seed=0)
    assert log.rewards.shape == (8, scenario.n_cells)
    assert log.delay.shape == (8, scenario.n_cells, scenario.n_slices)
    assert 0.0 <= log.rewards.mean() <= 1.0
    assert log.delay.max(axis=-1).mean() >= 0.5


# ---------------------------------------------------------------------------
# Top-level runs (reduced budgets)
# ---------------------------------------------------------------------------


RUNS = {
    "baseline": lambda cfg, artifacts, out: run_baseline(cfg, 0, out),
    "train": lambda cfg, artifacts, out: harness.run_madrl(cfg, 0, out),
    "transfer": lambda cfg, artifacts, out: harness.run_transfer(
        _transfer_cfg(cfg, artifacts), 0, out),
    "evaluate-checkpoints": lambda cfg, artifacts, out: run_evaluate(
        dataclasses.replace(cfg, evaluate=EvaluateParams(str(artifacts))), 0, out),
}


@pytest.mark.parametrize("run, method", [
    ("baseline", "baseline"), ("train", "madrl"), ("transfer", "tl"),
    ("evaluate-checkpoints", "evaluate"),
], ids=list(RUNS))
def test_run_baseline_artifacts(tmp_path, tiny_cfg, tiny_artifacts, run, method):
    """Every evaluating run ends with the same tail: metrics.csv, both
    CDFs, and run_meta.json written last. metrics.csv matches csv.writer
    over the run logs, also where the actors' shares are distinct
    values in every row, unlike the baseline's."""

    out = tmp_path / run
    result = RUNS[run](tiny_cfg, tiny_artifacts, out)
    files = [p for p in out.rglob("*") if p.is_file()]
    names = {p.name for p in files}
    assert {"metrics.csv", "cdf_throughput.csv", "cdf_delay.csv",
            "run_meta.json"} <= names
    meta_path = out / "run_meta.json"
    assert all(meta_path.stat().st_mtime_ns >= p.stat().st_mtime_ns for p in files)
    meta = json.loads(meta_path.read_text())
    assert (meta["method"], meta["seed"]) == (method, 0)
    # Learning runs evaluate on the next seed, so a baseline at seed s + 1
    # and a train run at seed s evaluate on the same slots.
    assert meta["eval_seed"] == (1 if run in ("train", "transfer") else 0)
    assert 0.0 <= meta["mean_satisfaction"] <= 1.0
    assert meta["mean_max_delay"] == result.evaluation.delay.max(axis=-1).mean()
    assert ("diverged" in meta) == (run in ("train", "transfer"))
    # The evaluation's slots end metrics.csv, after the learning slots.
    assert result.evaluation.t.tolist() == list(range(1, tiny_cfg.phases.evaluation + 1))
    assert (result.learning is not None) == (run in ("train", "transfer"))
    logs = [log for log in (result.learning, result.evaluation) if log is not None]
    assert (out / "metrics.csv").read_bytes() == _reference_metrics_csv(logs)


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


def test_evaluate_without_checkpoints_exits_11(tmp_path, tiny_cfg, monkeypatch,
                                              capsys):
    """``slicetl baseline`` is the one way to evaluate the baseline: an
    evaluate run without ``evaluate.checkpoints`` fails before any slot."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(harness, "run_slots", must_not_run)
    cfg_path = _write_tiny_yaml(tmp_path, tiny_cfg)
    code = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == DependencyError.exit_code == 11
    assert "evaluate.checkpoints" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_transfer_output_is_evaluable(tmp_path, tiny_cfg, tiny_artifacts):
    """A transfer run's checkpoints are every cell's: evaluating them at the
    transfer's evaluation seed repeats its evaluation byte for byte."""

    tl_out, eval_out = tmp_path / "tl", tmp_path / "eval"
    harness.run_transfer(_transfer_cfg(tiny_cfg, tiny_artifacts), seed=2, out=tl_out)
    assert sorted(p.name for p in (tl_out / "checkpoints").iterdir()) == [
        f"cell_{cid}.npz" for cid in tiny_cfg.scenario.cell_ids]
    run_evaluate(dataclasses.replace(tiny_cfg, evaluate=EvaluateParams(str(tl_out))),
                 seed=3, out=eval_out)
    sc = tiny_cfg.scenario
    rows = tiny_cfg.phases.evaluation * sc.n_cells * sc.n_slices
    evaluated = (eval_out / "metrics.csv").read_bytes().splitlines(keepends=True)
    transferred = (tl_out / "metrics.csv").read_bytes().splitlines(keepends=True)
    assert len(evaluated) == rows + 1
    assert evaluated[1:] == transferred[-rows:]
    meta_eval, meta_tl = (json.loads((out / "run_meta.json").read_text())
                          for out in (eval_out, tl_out))
    assert meta_eval["eval_seed"] == meta_tl["eval_seed"] == 3
    assert meta_eval["mean_satisfaction"] == meta_tl["mean_satisfaction"]


def test_run_madrl_then_transfer_and_evaluate(tmp_path, tiny_cfg):
    train_out = tmp_path / "train"
    result = harness.run_madrl(tiny_cfg, seed=0, out=train_out)
    for cid in tiny_cfg.scenario.cell_ids:
        assert (train_out / "checkpoints" / f"cell_{cid}.npz").exists()
        assert (train_out / "buffers" / f"cell_{cid}.npz").exists()
    assert (train_out / "default_trace.npz").exists()
    assert json.loads((train_out / "run_meta.json").read_text())["diverged"] == {}
    assert result.evaluation.rewards.size > 0

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
    result = run_evaluate(eval_cfg, seed=0, out=tmp_path / "eval")
    assert 0.0 <= result.evaluation.rewards.mean() <= 1.0


def test_zero_length_learning_phases_write_only_the_evaluation(tmp_path, tiny_cfg):
    """A train run without exploration or training and a transfer without
    fine-tuning slots write the evaluation's rows alone, and the transfer's
    gain.csv holds only its header."""

    cfg = dataclasses.replace(tiny_cfg, phases=Phases(
        exploration=0, training=0, evaluation=5, tl_training=0))
    harness.run_madrl(cfg, seed=0, out=tmp_path / "train")
    harness.run_transfer(_transfer_cfg(cfg, tmp_path / "train"), seed=0,
                         out=tmp_path / "tl")
    for run in ("train", "tl"):
        lines = (tmp_path / run / "metrics.csv").read_bytes().splitlines()
        assert len(lines) == 61  # 5 slots x 3 cells x 4 slices, and the header
        assert lines[1].startswith(b"1,1,0,") and lines[-1].startswith(b"5,3,3,")
    assert (tmp_path / "tl" / "gain.csv").read_bytes() == (
        b"t,reward_tl,reward_scratch,gain\r\n")


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
    agent = result.agents[3]
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


def test_run_madrl_stops_only_the_diverging_agent(tmp_path, tiny_cfg, monkeypatch):
    """An update that raises stops its own agent's training and is recorded
    under its cell; the other agents train on."""

    calls = {cid: 0 for cid in tiny_cfg.scenario.cell_ids}

    def diverge_once(agent, batch):
        calls[agent.cell_id] += 1
        if agent.cell_id == 2 and calls[2] == 3:
            raise NumericError("non-finite critic loss; step aborted")
        return train_step(agent, batch)

    monkeypatch.setattr(runner, "train_step", diverge_once)
    result = harness.run_madrl(tiny_cfg, seed=0, out=tmp_path)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["diverged"] == {"2": "non-finite critic loss; step aborted"}
    agents = result.agents
    assert agents[2].diverged == "non-finite critic loss; step aborted"
    assert (calls[2], agents[2].q1_adam.t) == (3, 2)
    assert agents[1].diverged is None and agents[3].diverged is None
    # Every training slot after the first batch fills runs one update.
    trained = tiny_cfg.phases.training * tiny_cfg.td3.updates_per_step
    assert calls[1] == calls[3] == agents[1].q1_adam.t == agents[3].q1_adam.t
    assert calls[1] == trained


def test_loaded_agents_draw_their_own_streams(tiny_cfg, tiny_artifacts):
    ids = tiny_cfg.scenario.cell_ids
    agents = harness.load_pretrained(tiny_artifacts, tiny_cfg.scenario, seed=7)
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
        similarity=dataclasses.replace(tiny_cfg.similarity, target=1),
        transfer=dataclasses.replace(tiny_cfg.transfer, artifacts=str(tiny_artifacts)),
    )
    result = harness.run_transfer(cfg, seed=5, out=tmp_path)
    assert result.source in (2, 3)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert (meta["source"], meta["target"]) == (result.source, 1)
    with open(tmp_path / "similarity" / "distances.csv") as fh:
        assert {int(r["target"]) for r in csv.DictReader(fh)} == {1}


def test_run_transfer_reads_a_configured_trace(tmp_path, tiny_cfg, tiny_artifacts):
    """A configured ``similarity.trace`` wins over the artifacts' trace."""

    other = tmp_path / "other"
    other.mkdir()
    harness.default_action_trace(tiny_cfg.scenario, tiny_cfg.similarity.steps, 7, other)
    trace = str(other / "default_trace.npz")
    cfg = dataclasses.replace(
        tiny_cfg,
        similarity=dataclasses.replace(tiny_cfg.similarity, trace=trace),
        transfer=dataclasses.replace(tiny_cfg.transfer, artifacts=str(tiny_artifacts)),
    )
    harness.run_transfer(cfg, seed=0, out=tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "similarity" / "run_meta.json").read_text())
    assert meta["config"]["similarity"]["trace"] == trace


def _copy_artifacts(tiny_artifacts, tmp_path):
    artifacts = tmp_path / "artifacts"
    shutil.copytree(tiny_artifacts, artifacts)
    return artifacts


def test_load_pretrained_rejects_a_buffer_of_other_widths(tmp_path, tiny_cfg,
                                                          tiny_artifacts):
    """A buffer of a 5-slice run next to a 3-slice checkpoint fails at load,
    naming the file, not as a broadcast error deep inside fine-tuning."""

    artifacts = _copy_artifacts(tiny_artifacts, tmp_path)
    rng = np.random.default_rng(0)
    other = ReplayBuffer(16, seed=0, owner=1, dims=(20, 5))
    for _ in range(4):
        other.add(rng.standard_normal(20), rng.dirichlet(np.ones(5)), 0.5,
                  rng.standard_normal(20), 1)
    path = artifacts / "buffers" / "cell_1.npz"
    other.export(path)
    with pytest.raises(DimensionError, match=re.escape(str(path))):
        harness.load_pretrained(artifacts, tiny_cfg.scenario, seed=0)
    with pytest.raises(DimensionError, match=re.escape(str(path))):
        harness.run_transfer(_transfer_cfg(tiny_cfg, artifacts), seed=0,
                             out=tmp_path / "tl")


@pytest.mark.parametrize("kind", ["checkpoint", "buffer", "slices"])
def test_load_pretrained_rejects_mislabelled_artifacts(tmp_path, tiny_cfg,
                                                       tiny_artifacts, capsys, kind):
    """Cell 1's checkpoint or buffer copied over cell 2's, or a checkpoint
    of another slice count, fails at load naming the file, and the CLI
    exits with the artifact error's code: ``evaluate`` for a checkpoint,
    ``transfer`` for a buffer, which ``evaluate`` does not read."""

    artifacts = _copy_artifacts(tiny_artifacts, tmp_path)
    folder = "buffers" if kind == "buffer" else "checkpoints"
    path = artifacts / folder / "cell_2.npz"
    if kind == "slices":
        save_agent(Td3Agent(2, tiny_cfg.scenario.n_slices + 1, tiny_cfg.td3, 0), path)
    else:
        shutil.copyfile(artifacts / folder / "cell_1.npz", path)
    with pytest.raises(DependencyError, match=re.escape(str(path))):
        harness.load_pretrained(artifacts, tiny_cfg.scenario, seed=0)
    if kind == "buffer":
        cfg_path = tmp_path / "tl.yaml"
        save_config(_transfer_cfg(tiny_cfg, artifacts), cfg_path)
        code = main(["transfer", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    else:
        code = _evaluate_code(tmp_path, tiny_cfg)
    assert code == DependencyError.exit_code == 11
    assert str(path) in capsys.readouterr().err


def test_evaluate_reads_only_checkpoints(tmp_path, tiny_cfg, tiny_artifacts,
                                         monkeypatch):
    """A frozen evaluation needs the actors only: with no buffer loadable it
    writes the metrics of the agents loaded with their buffers."""

    scenario = tiny_cfg.scenario
    agents = harness.load_pretrained(tiny_artifacts, scenario, seed=4)
    evaluation = evaluate_policies(scenario, agents_act(scenario, agents),
                                   tiny_cfg.phases.evaluation, seed=4)
    write_metrics_csv(tmp_path / "expected.csv", [evaluation])

    def must_not_load(*args, **kwargs):
        raise AssertionError("a buffer was loaded")

    monkeypatch.setattr(ReplayBuffer, "load", must_not_load)
    result = run_evaluate(dataclasses.replace(
        tiny_cfg, evaluate=EvaluateParams(str(tiny_artifacts))), seed=4,
        out=tmp_path / "eval")
    assert ((tmp_path / "eval" / "metrics.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
    assert all(len(agent.buffer) == 0 for agent in result.agents.values())


def test_run_transfer_explores_only_the_learner(tmp_path, tiny_cfg, tiny_artifacts):
    """The pretrained peers act greedily through both fine-tunings and the
    evaluation: their exploration streams stay where a fresh agent's start.
    The transferred learner's moves."""

    result = harness.run_transfer(_transfer_cfg(tiny_cfg, tiny_artifacts), seed=0,
                                  out=tmp_path)
    for cid, agent in result.agents.items():
        fresh = Td3Agent(cid, tiny_cfg.scenario.n_slices, tiny_cfg.td3,
                         harness._agent_seed(0, cid))
        untouched = (agent.explore_rng.bit_generator.state
                     == fresh.explore_rng.bit_generator.state)
        assert untouched == (cid != tiny_cfg.similarity_target)


def test_run_transfer_releases_the_agents_it_is_done_with(tmp_path, tiny_cfg,
                                                        tiny_artifacts, monkeypatch):
    """By the evaluation, the target's loaded agent and the finished scratch
    learner are gone; the evaluated agents are the peers and the transferred
    learner, in the scenario's cell order."""

    target = tiny_cfg.similarity_target
    loaded, built, checked = {}, [], []

    def keep_loaded(*args, **kwargs):
        agent = load_agent(*args, **kwargs)
        loaded[agent.cell_id] = weakref.ref(agent)
        return agent

    def keep_built(*args, **kwargs):
        agent = Td3Agent(*args, **kwargs)
        built.append(weakref.ref(agent))
        return agent

    evaluate_and_write = harness._evaluate_and_write

    def evaluate_after_release(*args, **kwargs):
        gc.collect()
        assert loaded[target]() is None, "the target's loaded agent is alive"
        assert built[1]() is None, "the scratch learner is alive"
        checked.append(True)
        return evaluate_and_write(*args, **kwargs)

    monkeypatch.setattr(harness, "load_agent", keep_loaded)
    monkeypatch.setattr(harness, "Td3Agent", keep_built)
    monkeypatch.setattr(harness, "_evaluate_and_write", evaluate_after_release)
    result = harness.run_transfer(_transfer_cfg(tiny_cfg, tiny_artifacts), seed=0,
                                  out=tmp_path)
    assert checked and len(built) == 2
    assert list(result.agents) == list(tiny_cfg.scenario.cell_ids)
    assert result.agents[target] is built[0]()
    assert all(result.agents[cid] is loaded[cid]()
               for cid in tiny_cfg.scenario.cell_ids if cid != target)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_transfer_without_the_source_buffer(tmp_path, tiny_cfg, tiny_artifacts,
                                                monkeypatch, strategy):
    """Only the strategies that move source transitions need the source's
    buffer file; they fail naming it before any transfer runs."""

    artifacts = _copy_artifacts(tiny_artifacts, tmp_path)
    path = artifacts / "buffers" / "cell_1.npz"
    path.unlink()
    cfg = _transfer_cfg(tiny_cfg, artifacts, strategy=strategy)
    if strategy in INSTANCE_STRATEGIES:
        def no_transfer(*args):
            raise AssertionError("apply_transfer ran")

        monkeypatch.setattr(harness, "apply_transfer", no_transfer)
        with pytest.raises(DependencyError, match=re.escape(str(path))):
            harness.run_transfer(cfg, seed=0, out=tmp_path / "tl")
    else:
        result = harness.run_transfer(cfg, seed=0, out=tmp_path / "tl")
        assert len(result.agents[1].buffer) == 0


def test_peers_without_buffers_still_transfer_and_evaluate(tmp_path, tiny_cfg,
                                                           tiny_artifacts):
    artifacts = _copy_artifacts(tiny_artifacts, tmp_path)
    (artifacts / "buffers" / "cell_2.npz").unlink()
    result = harness.run_transfer(_transfer_cfg(tiny_cfg, artifacts), seed=0,
                                  out=tmp_path / "tl")
    assert result.agents[3].buffer.origin_counts().get(1, 0) > 0
    assert len(result.agents[2].buffer) == 0
    shutil.rmtree(artifacts / "buffers")
    result = run_evaluate(dataclasses.replace(
        tiny_cfg, evaluate=EvaluateParams(str(artifacts))), seed=0,
        out=tmp_path / "eval")
    assert 0.0 <= result.evaluation.rewards.mean() <= 1.0


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
    assert [int(r["source"]) for r in distance_rows] == [1, 2]
    with open(tmp_path / "sim" / "latents.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(np.isfinite(float(v))
                        for r in rows for k, v in r.items() if k != "agent")


def test_run_similarity_encodes_views_of_the_pooled_samples(tmp_path, tiny_cfg,
                                                           monkeypatch):
    """The VAE trains on one pooled sample matrix, and each agent's samples
    handed to encode_samples are a view of its rows, not a copy."""

    pooled, encoded = [], []
    vae_train, encode_samples = harness.simm.vae_train, harness.simm.encode_samples

    def keep_pooled(x, **kwargs):
        pooled.append(x)
        return vae_train(x, **kwargs)

    def keep_encoded(model, x):
        encoded.append(x)
        return encode_samples(model, x)

    monkeypatch.setattr(harness.simm, "vae_train", keep_pooled)
    monkeypatch.setattr(harness.simm, "encode_samples", keep_encoded)
    harness.run_similarity(tiny_cfg, seed=0, out=tmp_path / "sim")
    assert len(pooled) == 1 and len(encoded) == 3
    assert all(np.shares_memory(x, pooled[0]) for x in encoded)
    assert np.array_equal(np.concatenate(encoded), pooled[0])


def test_run_similarity_checks_sample_counts_before_training(tmp_path, tiny_cfg,
                                                             monkeypatch):
    """A 30-slot trace gives each agent 30 < min_samples samples: the run
    fails before the VAE trains."""

    harness.default_action_trace(tiny_cfg.scenario, 30, 0, tmp_path)
    cfg = dataclasses.replace(tiny_cfg, similarity=dataclasses.replace(
        tiny_cfg.similarity, trace=str(tmp_path / "default_trace.npz")))

    def must_not_train(*args, **kwargs):
        raise AssertionError("vae_train ran although an agent lacks samples")

    monkeypatch.setattr(harness.simm, "vae_train", must_not_train)
    with pytest.raises(EmptySetError, match="agent 3 has fewer than 50"):
        harness.run_similarity(cfg, seed=0, out=tmp_path / "sim")


def test_run_similarity_checks_steps_before_the_rollout(tmp_path, tiny_cfg,
                                                       monkeypatch):
    """Without a trace, 30 default-action steps give each agent 30 <
    min_samples samples: the run fails before any slot runs."""

    cfg = dataclasses.replace(
        tiny_cfg, similarity=dataclasses.replace(tiny_cfg.similarity, steps=30))

    def must_not_roll_out(*args, **kwargs):
        raise AssertionError("the rollout ran although an agent lacks samples")

    monkeypatch.setattr(harness, "default_action_trace", must_not_roll_out)
    with pytest.raises(EmptySetError, match="agent 3 has fewer than 50"):
        harness.run_similarity(cfg, seed=0, out=tmp_path / "sim")
    assert not (tmp_path / "sim" / "default_trace.npz").exists()


def test_cli_similarity_without_default_steps_of_an_agent_exit_code(
        tmp_path, tiny_cfg, capsys, monkeypatch):
    """A trace in which cell 1 never takes the default action gives it no
    samples: exit 9 naming the agent, before the VAE trains."""

    scenario = tiny_cfg.scenario
    shares = np.tile(equal_partition(scenario.n_slices), (scenario.n_cells, 1))
    shares[0] = [0.7, 0.1, 0.1, 0.1]
    harness.save_trace(tmp_path / "trace.npz", rollout(
        scenario, lambda t, net_state, states: shares, 60, 0, trace=True))
    cfg = dataclasses.replace(tiny_cfg, similarity=dataclasses.replace(
        tiny_cfg.similarity, trace=str(tmp_path / "trace.npz"), min_samples=1))

    def must_not_train(*args, **kwargs):
        raise AssertionError("vae_train ran although an agent has no samples")

    monkeypatch.setattr(harness.simm, "vae_train", must_not_train)
    code = main(["similarity", "--config", str(_write_tiny_yaml(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == EmptySetError.exit_code == 9
    assert "agent 1 has fewer than 1 default-action samples" in capsys.readouterr().err


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
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 77 and "seed" not in meta["config"]


@pytest.mark.parametrize("value", ["-1", "x"])
def test_cli_rejects_a_bad_seed(tmp_path, capsys, value):
    """A negative or non-integer --seed fails when the arguments are parsed."""

    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--config", "smoke3", "--seed", value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument --seed: expected an integer >= 0, got '{value}'" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_cli_rejects_empty_similarity_candidates(tmp_path, tiny_cfg, monkeypatch,
                                                capsys):
    """An explicit empty candidate list fails at load, before any slot runs;
    an unset list means every other cell."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(harness, "run_slots", must_not_run)
    d = to_plain(tiny_cfg)
    d["similarity"]["candidates"] = []
    path = tmp_path / "empty.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(ConfigurationError, match="candidates is empty"):
        load_config(path)
    code = main(["similarity", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == ConfigurationError.exit_code == 2
    assert "similarity.candidates is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    d["similarity"]["candidates"] = None
    path.write_text(yaml.safe_dump(d))
    assert load_config(path).similarity_candidates == (1, 2)


def test_cli_rejects_a_saved_transfer_target(tmp_path, tiny_cfg, capsys):
    """A config saved when transfer had its own target fails at load."""

    d = to_plain(tiny_cfg)
    d["transfer"]["target"] = 3
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(d))
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == ConfigurationError.exit_code == 2
    assert "unknown key(s) ['target'] in transfer" in capsys.readouterr().err


def test_cli_similarity_rejects_a_trace_of_another_slice_count(
        tmp_path, tiny_cfg, capsys):
    """A trace of 3-slice rows fails a 4-slice similarity run as an artifact
    fault naming the file, before any sample is read."""

    trace = tmp_path / "trace3.npz"
    rows = 2 * tiny_cfg.scenario.n_cells
    write_npz(trace, TRACE_VERSION, {
        "t": np.repeat([1, 2], tiny_cfg.scenario.n_cells),
        "cell": np.tile(tiny_cfg.scenario.cell_ids, 2), "states": np.zeros((rows, 12)),
        "actions": np.full((rows, 3), 1 / 3), "rewards": np.zeros(rows)})
    cfg = dataclasses.replace(tiny_cfg, similarity=dataclasses.replace(
        tiny_cfg.similarity, trace=str(trace), min_samples=1))
    code = main(["similarity", "--config", str(_write_tiny_yaml(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == DependencyError.exit_code == 11
    assert f"{trace} holds (state, action) rows of widths (12, 3), expected (16, 4)" \
        in capsys.readouterr().err


def test_cli_similarity_rejects_a_trace_of_another_scenario(
        tmp_path, tiny_cfg, full_cfg, capsys, monkeypatch):
    """A full12 default-action trace has smoke3's widths but not its cells:
    a smoke3 similarity run fails as an artifact fault naming the file,
    before the VAE trains."""

    harness.default_action_trace(full_cfg.scenario, 60, 3, tmp_path)
    trace = tmp_path / "default_trace.npz"
    cfg = dataclasses.replace(tiny_cfg, similarity=dataclasses.replace(
        tiny_cfg.similarity, trace=str(trace)))

    def must_not_train(*args, **kwargs):
        raise AssertionError("vae_train ran on another scenario's trace")

    monkeypatch.setattr(harness.simm, "vae_train", must_not_train)
    code = main(["similarity", "--config", str(_write_tiny_yaml(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == DependencyError.exit_code == 11
    assert (f"{trace} does not hold slot-major rows over the scenario's cells "
            f"[1, 2, 3]") in capsys.readouterr().err


def test_cli_transfer_without_artifacts_exit_code(tmp_path, tiny_cfg, capsys):
    cfg_path = _write_tiny_yaml(tmp_path, tiny_cfg)
    code = main(["transfer", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == DependencyError.exit_code


# What each npz reader needs: a valid file to write, the reader, a member it
# cannot do without, and the version it reads.
NPZ_READERS = {
    "trace": (lambda path: save_trace(path, rollout(
        smoke_scenario(), _equal_split(smoke_scenario()), steps=2, seed=0, trace=True)),
        lambda path: load_trace(path, smoke_scenario()), "states", TRACE_VERSION),
    "checkpoint": (lambda path: save_agent(Td3Agent(1, 2, Td3Config(), seed=0), path),
                   load_agent, "actor", CHECKPOINT_VERSION),
    "buffer": (lambda path: ReplayBuffer(4, seed=0, owner=1, dims=(8, 2)).export(path),
               lambda path: ReplayBuffer(4, seed=0, owner=1, dims=(8, 2)).load(path),
               "rewards", BUFFER_VERSION),
}


def _rewrite_npz(path, version, drop=None) -> None:
    """Rewrite an npz artifact with another ``version`` member and without
    the member ``drop``."""

    with np.load(path) as data:
        kept = {k: data[k] for k in data.files if k not in ("version", drop)}
    np.savez(path, version=version, **kept)


@pytest.mark.parametrize(
    "defect",
    ["missing-file", "missing-member", "not-an-npz", "corrupt-member", "version-999",
     "float-version"])
@pytest.mark.parametrize("reader", sorted(NPZ_READERS))
def test_malformed_artifact_raises_dependency_error(tmp_path, reader, defect):
    write, read, member, version = NPZ_READERS[reader]
    path = tmp_path / "artifact.npz"
    write(path)
    if defect == "missing-file":
        path.unlink()
        match = rf"missing {re.escape(str(path))}$"
    elif defect == "missing-member":
        _rewrite_npz(path, np.array(version), drop=member)
        match = rf"{re.escape(str(path))} has no member '{member}'"
    elif defect == "not-an-npz":
        path.write_bytes(b"not an npz archive\n")
        match = rf"{re.escape(str(path))} is not a readable npz archive"
    elif defect == "corrupt-member":
        path.write_bytes(path.read_bytes().replace(b"\x93NUMPY", b"\x93NUMPX", 1))
        match = rf"{re.escape(str(path))} is not a readable npz archive"
    elif defect == "version-999":
        _rewrite_npz(path, np.array(999))
        match = rf"{re.escape(str(path))} is version 999, expected version {version}"
    else:
        _rewrite_npz(path, np.array(float(version)))
        match = (rf"{re.escape(str(path))} is version {float(version)}, "
                 rf"expected version {version}")
    with pytest.raises(DependencyError, match=match):
        read(path)


def _write_buffer(path) -> None:
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(4, seed=0, owner=1, dims=(8, 2))
    for _ in range(3):
        buf.add(rng.standard_normal(8), rng.dirichlet(np.ones(2)), 0.5,
                rng.standard_normal(8), 1)
    buf.export(path)


def _edit_meta(edit):
    def apply(members):
        meta = json.loads(str(members["meta_json"]))
        edit(meta)
        members["meta_json"] = np.array(json.dumps(meta))
    return apply


# Readers of each artifact kind: they must raise DependencyError.
ARTIFACT_READERS = {
    "buffer": (_write_buffer, NPZ_READERS["buffer"][1]),
    "checkpoint": (lambda path: save_agent(Td3Agent(1, 2, Td3Config(), seed=0), path),
                   load_agent),
    "trace": NPZ_READERS["trace"][:2],
}

# One malformed member each: the artifact it is in and how it is rewritten.
MALFORMED_MEMBERS = {
    "0-d-rewards": ("buffer", lambda m: m.update(rewards=m["rewards"][0])),
    "1-d-states": ("buffer", lambda m: m.update(states=m["states"][:, 0])),
    "2-d-origins": ("buffer", lambda m: m.update(origins=m["origins"][:, None])),
    "wider-next-states": ("buffer", lambda m: m.update(
        next_states=np.hstack([m["next_states"], m["next_states"][:, :1]]))),
    "two-owners": ("buffer", lambda m: m.update(owner=np.array([1, 1]))),
    "text-states": ("buffer", lambda m: m.update(states=m["states"].astype(str))),
    "non-json-meta": ("checkpoint", lambda m: m.update(meta_json=np.array("{cell"))),
    "meta-without-cell-id": ("checkpoint", _edit_meta(lambda meta: meta.pop("cell_id"))),
    "text-n-slices": ("checkpoint", _edit_meta(lambda meta: meta.update(n_slices="2"))),
    "zero-n-slices": ("checkpoint", _edit_meta(lambda meta: meta.update(n_slices=0))),
    "negative-step-count": ("checkpoint",
                            _edit_meta(lambda meta: meta.update(step_count=-1))),
    "negative-frozen-actor-layers": ("checkpoint", _edit_meta(
        lambda meta: meta.update(frozen_actor_layers=-1))),
    # The default actor has 3 layers; freezing all of them would stop its training.
    "3-frozen-actor-layers": ("checkpoint", _edit_meta(
        lambda meta: meta.update(frozen_actor_layers=3))),
    "negative-adam-step": ("checkpoint", _edit_meta(
        lambda meta: meta.update(adam_steps=[0, -1, 0]))),
    "short-actor": ("checkpoint", lambda m: m.update(actor=m["actor"][1:])),
    "2-d-q1": ("checkpoint", lambda m: m.update(q1=m["q1"][:, None])),
    "text-m": ("checkpoint", lambda m: m.update({"q2.m": m["q2.m"].astype(str)})),
    "short-v": ("checkpoint", lambda m: m.update({"q1.v": m["q1.v"][:-1]})),
    "2-d-trace-rewards": ("trace", lambda m: m.update(rewards=m["rewards"][:, None])),
    "short-trace-states": ("trace", lambda m: m.update(states=m["states"][:-1])),
    "narrow-trace-actions": ("trace", lambda m: m.update(actions=m["actions"][:, :1])),
    "cell-major-trace": ("trace", lambda m: m.update(cell=np.sort(m["cell"]))),
    "short-trace": ("trace", lambda m: m.update(
        {k: m[k][:-1] for k in ("t", "cell", "states", "actions", "rewards")})),
}


def _edit_npz(path, edit) -> None:
    """Rewrite an npz artifact after ``edit`` changed its member dict."""

    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    edit(members)
    np.savez(path, **members)


@pytest.mark.parametrize("fault", sorted(MALFORMED_MEMBERS))
def test_malformed_member_raises_dependency_error(tmp_path, fault):
    """A member of the wrong rank, kind or length fails as an artifact fault
    naming the file, not as a TypeError or IndexError deep in a run."""

    kind, edit = MALFORMED_MEMBERS[fault]
    write, read = ARTIFACT_READERS[kind]
    path = tmp_path / "artifact.npz"
    write(path)
    _edit_npz(path, edit)
    with pytest.raises(DependencyError, match=re.escape(str(path))):
        read(path)


def _write_checkpoints(tmp_path, tiny_cfg) -> Path:
    """Fresh agents' checkpoints for every cell under ``tmp_path /
    "artifacts"``; returns the checkpoint directory."""

    checkpoints = tmp_path / "artifacts" / "checkpoints"
    checkpoints.mkdir(parents=True)
    for cid in tiny_cfg.scenario.cell_ids:
        save_agent(Td3Agent(cid, tiny_cfg.scenario.n_slices, tiny_cfg.td3, seed=0),
                   checkpoints / f"cell_{cid}.npz")
    return checkpoints


def test_cli_evaluate_with_a_non_json_checkpoint_meta_exit_code(
        tmp_path, tiny_cfg, capsys):
    checkpoints = _write_checkpoints(tmp_path, tiny_cfg)
    _edit_npz(checkpoints / "cell_2.npz",
              lambda members: members.update(meta_json=np.array("{cell")))
    assert _evaluate_code(tmp_path, tiny_cfg) == DependencyError.exit_code
    assert "meta_json is not JSON" in capsys.readouterr().err


def _evaluate_code(tmp_path, tiny_cfg) -> int:
    """Exit code of ``slicetl evaluate`` on the checkpoints under
    ``tmp_path / "artifacts"``."""

    cfg = dataclasses.replace(
        tiny_cfg, evaluate=EvaluateParams(str(tmp_path / "artifacts")))
    cfg_path = tmp_path / "eval.yaml"
    save_config(cfg, cfg_path)
    return main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def test_cli_evaluate_with_a_junk_checkpoint_exit_code(tmp_path, tiny_cfg, capsys):
    checkpoints = tmp_path / "artifacts" / "checkpoints"
    checkpoints.mkdir(parents=True)
    for cid in tiny_cfg.scenario.cell_ids:
        (checkpoints / f"cell_{cid}.npz").write_bytes(b"junk")
    assert _evaluate_code(tmp_path, tiny_cfg) == DependencyError.exit_code
    assert "error [DependencyError]" in capsys.readouterr().err


def test_cli_evaluate_with_an_unknown_checkpoint_version_exit_code(
        tmp_path, tiny_cfg, capsys):
    """A v999 checkpoint is an artifact fault like any other: exit 11."""

    checkpoints = _write_checkpoints(tmp_path, tiny_cfg)
    _rewrite_npz(checkpoints / "cell_1.npz", np.array(999))
    assert _evaluate_code(tmp_path, tiny_cfg) == DependencyError.exit_code
    assert "cell_1.npz is version 999, expected version 2" in capsys.readouterr().err


def test_cli_evaluate_with_a_v1_checkpoint_exit_code(tmp_path, tiny_cfg, capsys):
    """A checkpoint of the per-layer v1 format is not read: exit 11, as for
    any other version; re-running ``slicetl train`` writes v2 checkpoints."""

    checkpoints = _write_checkpoints(tmp_path, tiny_cfg)
    _rewrite_npz(checkpoints / "cell_1.npz", np.array(1))
    assert _evaluate_code(tmp_path, tiny_cfg) == DependencyError.exit_code == 11
    assert "cell_1.npz is version 1, expected version 2" in capsys.readouterr().err


def test_cli_evaluate_with_a_missing_checkpoint_exit_code(tmp_path, tiny_cfg, capsys):
    """A deleted checkpoint is reported by ``codec.read_npz`` like any
    missing artifact: exit 11, naming the file."""

    path = _write_checkpoints(tmp_path, tiny_cfg) / "cell_2.npz"
    path.unlink()
    assert _evaluate_code(tmp_path, tiny_cfg) == DependencyError.exit_code == 11
    assert f"missing {path}" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
def test_cli_rejects_an_out_that_is_not_a_directory(tmp_path, tiny_cfg, monkeypatch,
                                                    capsys, below):
    """An ``--out`` that is a file, or lies below one, fails with exit 2
    naming the path, before any slot runs."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(harness, "run_slots", must_not_run)
    cfg_path = _write_tiny_yaml(tmp_path, tiny_cfg)
    out = tmp_path / "file"
    out.write_text("not a directory\n")
    if below:
        out = out / "sub"
    code = main(["baseline", "--config", str(cfg_path), "--out", str(out)])
    assert code == ConfigurationError.exit_code == 2
    assert str(out) in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
