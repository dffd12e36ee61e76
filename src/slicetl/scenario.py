"""Experiment configuration: sections, load-time checks, YAML files, builtins.

An experiment file has nested sections ``scenario``, ``phases``, ``td3``,
``similarity``, ``transfer`` and ``evaluate``. Two builtin configurations
ship with the package: ``smoke3`` (one cell per requirement group plus a
clone target) and ``full12`` (four three-sector sites, two requirement
groups). The section dataclasses are the file format: ``slicetl.codec``
reads and writes them by their type hints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .agent import Td3Config
from .codec import from_plain, to_plain
from .env import (
    CellConfig,
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
        for name in ("steps", "epochs", "batch_size", "latent_dim", "min_samples"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not self.lr > 0.0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if not self.kl_weight >= 0.0:
            raise ConfigurationError(f"kl_weight must be >= 0, got {self.kl_weight}")


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
        if not (0.0 <= self.instance_fraction <= 1.0):
            raise ConfigurationError("instance_fraction must lie in [0, 1]")


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
        if (tr.source is None and None not in (sim.target, tr.target)
                and sim.target != tr.target):
            raise ConfigurationError(
                f"similarity.target {sim.target} differs from transfer.target "
                f"{tr.target}, so similarity cannot pick transfer.source")
        hidden = len(self.td3.actor_hidden)
        if tr.strategy == "feature" and not 1 <= tr.frozen_layers <= hidden:
            raise ConfigurationError(
                f"transfer.frozen_layers must lie in [1, {hidden}] "
                f"(the actor's hidden layers), got {tr.frozen_layers}")

    @property
    def similarity_target(self) -> int:
        """``similarity.target``, else ``transfer.target``, else the
        scenario's last cell."""

        for target in (self.similarity.target, self.transfer.target):
            if target is not None:
                return target
        return self.scenario.cell_ids[-1]

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


def config_from_dict(d: dict) -> ExperimentConfig:
    return from_plain(ExperimentConfig, d)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return to_plain(cfg)


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
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {name} is not valid YAML: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
