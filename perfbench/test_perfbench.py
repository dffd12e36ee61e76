"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration and metric naming."""

import dataclasses
import importlib.util
import json
import re
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
if importlib.util.find_spec("slicetl") is None:
    sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from slicetl import harness  # noqa: E402
from slicetl.scenario import Phases, load_config  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _synthetic_modules():
    home = types.ModuleType("home")
    user = types.ModuleType("user")
    exec(
        "class Box:\n"
        "    def put(self):\n"
        "        return inner()\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "def inner():\n"
        "    return 1\n"
        "def outer():\n"
        "    return inner() + inner()\n",
        home.__dict__,
    )
    exec("def call():\n    return outer()\n", user.__dict__)
    user.outer = home.outer  # imported by name, as `from home import outer`
    return home, user


def _targets(home):
    return [Target("home.outer", home, "outer"), Target("home.inner", home, "inner"),
            Target("home.Box.put", home, "Box.put"),
            Target("home.Box.make", home, "Box.make")]


def test_self_time_is_span_minus_children():
    home, user = _synthetic_modules()
    ticks = iter(range(100))
    tracer = Tracer(_targets(home), [home, user], clock=lambda: float(next(ticks)))
    with tracer:
        assert user.call() == 2  # spans: outer [0, 5] around inner [1, 2], [3, 4]
        assert home.Box.make().put() == 1  # make [6, 7], put [8, 11] > inner [9, 10]
    s = tracer.summary()
    assert s["home.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert s["home.inner"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert s["home.Box.make"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert s["home.Box.put"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert tracer.child_time("home.outer") == {"home.inner": 2.0}
    assert tracer.span_parent == [-1, 0, 0, -1, -1, 4]


def test_wrappers_restored_after_synthetic_trace():
    home, user = _synthetic_modules()
    before = [dict(vars(home)), dict(vars(user)), dict(vars(home.Box))]
    tracer = Tracer(_targets(home), [home, user])
    with tracer:
        assert user.outer is not before[1]["outer"]
        assert tracer.leftover_wrappers()
    after = [dict(vars(home)), dict(vars(user)), dict(vars(home.Box))]
    assert all(a[k] is b[k] for a, b in zip(after, before) for k in b)
    assert tracer.leftover_wrappers() == []


def _snapshot(modules):
    seen = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    seen[(mod.__name__, attr, name)] = member
    return seen


def test_wrappers_restored_after_traced_harness_run(tmp_path):
    base = load_config("smoke3")
    cfg = dataclasses.replace(
        base,
        phases=Phases(exploration=6, training=6, evaluation=3, tl_training=4),
        similarity=dataclasses.replace(base.similarity, steps=5),
        td3=dataclasses.replace(base.td3, batch_size=4, updates_per_step=1),
    )
    modules = workloads.package_modules()
    before = _snapshot(modules)
    tracer = Tracer(workloads.trace_targets(), modules, workloads.FLOP_COUNTERS)
    with tracer:
        harness.run_madrl(cfg, 0, tmp_path / "train")
        cfg_tl = dataclasses.replace(cfg, transfer=dataclasses.replace(
            cfg.transfer, source=1, artifacts=str(tmp_path / "train")))
        harness.run_transfer(cfg_tl, 0, tmp_path / "tl")
    after = _snapshot(workloads.package_modules())
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.leftover_wrappers() == []
    summary = tracer.summary()
    # Reached through names imported into harness/transfer, and via classes.
    for label in ("agent.train_step", "agent.select_action", "runner.record_step",
                  "agent.ReplayBuffer.load", "agent.ReplayBuffer.add",
                  "transfer.instance_transfer", "nn.adam_step"):
        assert summary[label]["calls"] > 0, label
    assert tracer.flops > 0


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    names = [*e2e, *layers, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for u in [*e2e.values(), *layers.values()])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
