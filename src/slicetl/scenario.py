"""Experiment configuration: YAML parsing, validation, and builtin scenarios.

An experiment file has nested sections ``scenario``, ``phases``, ``td3``,
``similarity``, ``transfer`` and ``evaluate``. Two builtin configurations
ship with the package: ``smoke3`` (one cell per requirement group plus a
clone target) and ``full12`` (four three-sector sites, two requirement
groups).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import yaml

from .agent import Td3Config
from .env import (
    CellConfig,
    DelayModel,
    ScenarioConfig,
    SliceRequirement,
    TrafficMaskParams,
)
from .errors import ConfigurationError
from .similarity import MODES
from .transfer import STRATEGIES

# Per-slice (throughput Mbit/s, delay ms) targets of the two cell groups.
GROUP_A = ((4.0, 3.0), (3.0, 2.0), (2.0, 1.0), (1.0, 1.0))
GROUP_B = ((2.5, 1.0), (2.0, 1.0), (1.5, 1.0), (1.0, 1.0))


@dataclass(frozen=True)
class Phases:
    exploration: int = 3000
    training: int = 5500
    evaluation: int = 250
    tl_training: int = 4000

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 0:
                raise ConfigurationError(f"phase {name} must be >= 0")


@dataclass(frozen=True)
class SimilarityParams:
    steps: int = 300  # default-action rollout length
    min_samples: int = 50
    latent_dim: int = 4
    kl_weight: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    mode: str = "simplified"
    target: int | None = None
    candidates: tuple[int, ...] | None = None
    trace: str | None = None  # path to an existing default-action trace

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown similarity mode {self.mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class TransferParams:
    strategy: str = "integrated"
    source: int | None = None  # None: pick via similarity analysis
    target: int | None = None
    instance_fraction: float = 1.0
    frozen_layers: int = 1
    artifacts: str | None = None  # directory of a previous train run

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown transfer strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}")


@dataclass(frozen=True)
class EvaluateParams:
    checkpoints: str | None = None  # None: evaluate the baseline policy


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    phases: Phases = field(default_factory=Phases)
    td3: Td3Config = field(default_factory=Td3Config)
    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    transfer: TransferParams = field(default_factory=TransferParams)
    evaluate: EvaluateParams = field(default_factory=EvaluateParams)
    seed: int = 0

    def __post_init__(self) -> None:
        sim, tr = self.similarity, self.transfer
        candidates = sim.candidates or ()
        named = [sim.target, *candidates, tr.target, tr.source]
        ids = self.scenario.cell_ids
        unknown = [i for i in named if i is not None and i not in ids]
        if unknown:
            raise ConfigurationError(
                f"similarity/transfer cell ids {unknown} are not cells of the scenario")
        if self.similarity_target in candidates:
            raise ConfigurationError(
                f"similarity target {self.similarity_target} is also a candidate")
        if len(set(candidates)) != len(candidates):
            raise ConfigurationError(f"similarity candidates {list(candidates)} repeat")
        if tr.source is not None and tr.source == self.transfer_target:
            raise ConfigurationError(
                f"transfer source {tr.source} is the transfer target")

    @property
    def similarity_target(self) -> int:
        """``similarity.target``, or the scenario's last cell when unset."""

        target = self.similarity.target
        return target if target is not None else self.scenario.cell_ids[-1]

    @property
    def transfer_target(self) -> int:
        """``transfer.target``, or the similarity target when unset."""

        target = self.transfer.target
        return target if target is not None else self.similarity_target


def _slice_phases(n_slices: int) -> list[float]:
    return [2.0 * math.pi * n / n_slices for n in range(n_slices)]


def _make_cell(
    cell_id: int,
    group: tuple[tuple[float, float], ...],
    neighbor_ids: tuple[int, ...],
    bandwidth: float = 20.0,
    base_snr_db: float = 12.0,
    max_ues_per_slice: int = 8,
    gain: float = 1.0,
    amplitude: float = 0.2,
    noise_std: float = 0.01,
) -> CellConfig:
    n = len(group)
    return CellConfig(
        cell_id=cell_id,
        bandwidth=bandwidth,
        requirements=tuple(SliceRequirement(tp, d) for tp, d in group),
        neighbor_ids=neighbor_ids,
        max_ues_per_slice=max_ues_per_slice,
        base_snr_db=base_snr_db,
        interference_gains=tuple(gain for _ in neighbor_ids),
        ue_rates=tuple(tp for tp, _ in group),
        masks=tuple(
            TrafficMaskParams(period=100, amplitude=amplitude, offset=0.5,
                              phase=ph, noise_std=noise_std)
            for ph in _slice_phases(n)
        ),
    )


def smoke_scenario() -> ScenarioConfig:
    """Three mutually interfering cells: group A, group B, and an A-clone target."""

    groups = {1: GROUP_A, 2: GROUP_B, 3: GROUP_A}
    cells = tuple(
        _make_cell(i, groups[i], tuple(j for j in (1, 2, 3) if j != i))
        for i in (1, 2, 3)
    )
    return ScenarioConfig(cells=cells)


def full_scenario() -> ScenarioConfig:
    """Twelve cells in four three-sector sites with two requirement groups."""

    group_a_ids = {1, 2, 3, 7, 8, 9}
    cells = []
    for site in range(4):
        ids = tuple(site * 3 + j for j in (1, 2, 3))
        for cid in ids:
            cells.append(
                _make_cell(
                    cid,
                    GROUP_A if cid in group_a_ids else GROUP_B,
                    tuple(j for j in ids if j != cid),
                )
            )
    return ScenarioConfig(cells=tuple(cells))


BUILTIN_SCENARIOS = {"smoke3": smoke_scenario, "full12": full_scenario}


# ---------------------------------------------------------------------------
# Dict <-> dataclass conversion for the YAML file format.
# ---------------------------------------------------------------------------


def _check_keys(d: dict, known: type, where: str) -> None:
    """Raise ``ConfigurationError`` naming any key of ``d`` that is not a
    field of the dataclass ``known``."""

    unknown = sorted(set(d) - {f.name for f in fields(known)}, key=str)
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown} in {where}")


def scenario_from_dict(d: dict) -> ScenarioConfig:
    try:
        _check_keys(d, ScenarioConfig, "scenario")
        for i, c in enumerate(d["cells"]):
            _check_keys(c, CellConfig, f"scenario cells[{i}]")
            for j, r in enumerate(c["requirements"]):
                _check_keys(r, SliceRequirement, f"scenario cells[{i}] requirements[{j}]")
        cells = tuple(
            CellConfig(
                cell_id=int(c["cell_id"]),
                bandwidth=float(c["bandwidth"]),
                requirements=tuple(
                    SliceRequirement(float(r["throughput_target"]),
                                     float(r["delay_target"]))
                    for r in c["requirements"]
                ),
                neighbor_ids=tuple(int(j) for j in c.get("neighbor_ids", [])),
                max_ues_per_slice=int(c["max_ues_per_slice"]),
                base_snr_db=float(c["base_snr_db"]),
                interference_gains=tuple(
                    float(g) for g in c.get("interference_gains", [])
                ),
                ue_rates=tuple(float(r) for r in c["ue_rates"]),
                masks=tuple(TrafficMaskParams(**m) for m in c["masks"]),
            )
            for c in d["cells"]
        )
        delay = DelayModel(**d.get("delay", {}))
        return ScenarioConfig(cells=cells, delay=delay)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed scenario section: {exc}") from exc


def scenario_to_dict(s: ScenarioConfig) -> dict:
    return {
        "delay": asdict(s.delay),
        "cells": [
            {
                "cell_id": c.cell_id,
                "bandwidth": c.bandwidth,
                "base_snr_db": c.base_snr_db,
                "max_ues_per_slice": c.max_ues_per_slice,
                "neighbor_ids": list(c.neighbor_ids),
                "interference_gains": list(c.interference_gains),
                "ue_rates": list(c.ue_rates),
                "requirements": [asdict(r) for r in c.requirements],
                "masks": [asdict(m) for m in c.masks],
            }
            for c in s.cells
        ],
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    if "scenario" not in d:
        raise ConfigurationError("config file must contain a 'scenario' section")
    _check_keys(d, ExperimentConfig, "the config")
    scenario = scenario_from_dict(d["scenario"])
    try:
        td3_dict = dict(d.get("td3", {}))
        for key in ("actor_hidden", "critic_hidden"):
            if key in td3_dict:
                td3_dict[key] = tuple(td3_dict[key])
        sim_dict = dict(d.get("similarity", {}))
        if sim_dict.get("candidates") is not None:
            sim_dict["candidates"] = tuple(sim_dict["candidates"])
        return ExperimentConfig(
            scenario=scenario,
            phases=Phases(**d.get("phases", {})),
            td3=Td3Config(**td3_dict),
            similarity=SimilarityParams(**sim_dict),
            transfer=TransferParams(**d.get("transfer", {})),
            evaluate=EvaluateParams(**d.get("evaluate", {})),
            seed=int(d.get("seed", 0)),
        )
    except TypeError as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    sim = asdict(cfg.similarity)
    if sim.get("candidates") is not None:
        sim["candidates"] = list(sim["candidates"])
    td3 = asdict(cfg.td3)
    td3["actor_hidden"] = list(td3["actor_hidden"])
    td3["critic_hidden"] = list(td3["critic_hidden"])
    return {
        "seed": cfg.seed,
        "scenario": scenario_to_dict(cfg.scenario),
        "phases": asdict(cfg.phases),
        "td3": td3,
        "similarity": sim,
        "transfer": asdict(cfg.transfer),
        "evaluate": asdict(cfg.evaluate),
    }


def load_config(path_or_name: str | Path) -> ExperimentConfig:
    """Load an experiment config from a YAML file or a builtin name."""

    name = str(path_or_name)
    if name in BUILTIN_SCENARIOS:
        ref = resources.files("slicetl.configs").joinpath(f"{name}.yaml")
        text = ref.read_text()
    else:
        path = Path(path_or_name)
        if not path.exists():
            raise ConfigurationError(f"config file {path} does not exist")
        text = path.read_text()
    data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise ConfigurationError("config file must contain a YAML mapping")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
