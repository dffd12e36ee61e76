"""Experiment configuration: sections, load-time checks, YAML files, builtins.

An experiment file has nested sections ``scenario``, ``phases``, ``td3``,
``similarity``, ``transfer`` and ``evaluate``. Two builtin configurations
are built here in Python: ``smoke3`` (one cell per requirement group plus a
clone target) and ``full12`` (four three-sector sites, two requirement
groups). The section dataclasses are the file format: ``slicetl.codec``
reads and writes them by their type hints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .agent import Td3Config
from .codec import atomic_open, from_plain, to_plain
from .env import (
    CellConfig,
    ScenarioConfig,
    SliceRequirement,
    TrafficMaskParams,
)
from .errors import ConfigurationError
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
        if self.evaluation < 1:
            raise ConfigurationError("phase evaluation must be >= 1: the "
                                     "evaluation means need at least one slot")


@dataclass(frozen=True)
class SimilarityParams:
    steps: int = 300  # default-action rollout length
    min_samples: int = 50  # default-action samples each agent needs
    latent_dim: int = 4
    kl_weight: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    target: int | None = None
    candidates: tuple[int, ...] | None = None
    trace: str | None = None  # path to an existing default-action trace

    def __post_init__(self) -> None:
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
    checkpoints: str | None = None  # directory of a train or transfer run


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    phases: Phases = field(default_factory=Phases)
    td3: Td3Config = field(default_factory=Td3Config)
    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    transfer: TransferParams = field(default_factory=TransferParams)
    evaluate: EvaluateParams = field(default_factory=EvaluateParams)

    def __post_init__(self) -> None:
        sim, tr = self.similarity, self.transfer
        candidates = sim.candidates or ()
        named = [sim.target, *candidates, tr.source]
        ids = self.scenario.cell_ids
        unknown = [i for i in named if i is not None and i not in ids]
        if unknown:
            raise ConfigurationError(
                f"similarity/transfer cell ids {unknown} are not cells of the scenario")
        if self.similarity_target in candidates:
            raise ConfigurationError(
                f"similarity target {self.similarity_target} is also a candidate")
        if sim.candidates is not None and not sim.candidates:
            raise ConfigurationError(
                "similarity.candidates is empty; leave it unset for every other cell")
        if len(set(candidates)) != len(candidates):
            raise ConfigurationError(f"similarity candidates {list(candidates)} repeat")
        if tr.source == self.similarity_target:
            raise ConfigurationError(
                f"transfer source {tr.source} is the target cell")
        hidden = len(self.td3.actor_hidden)
        if tr.strategy == "feature" and not 1 <= tr.frozen_layers <= hidden:
            raise ConfigurationError(
                f"transfer.frozen_layers must lie in [1, {hidden}] "
                f"(the actor's hidden layers), got {tr.frozen_layers}")

    @property
    def similarity_target(self) -> int:
        """The target cell of similarity and transfer: ``similarity.target``,
        else the scenario's last cell."""

        target = self.similarity.target
        return target if target is not None else self.scenario.cell_ids[-1]

    @property
    def similarity_candidates(self) -> tuple[int, ...]:
        """``similarity.candidates``, else every other cell in scenario order."""

        if self.similarity.candidates is not None:
            return self.similarity.candidates
        return tuple(i for i in self.scenario.cell_ids if i != self.similarity_target)


def _slice_phases(n_slices: int) -> list[float]:
    return [2.0 * math.pi * n / n_slices for n in range(n_slices)]


# Every builtin cell's radio and traffic parameters.
CELL_BANDWIDTH = 20.0  # MHz
CELL_SNR_DB = 12.0
CELL_MAX_UES = 8  # per slice
NEIGHBOR_GAIN = 1.0
MASK_AMPLITUDE = 0.2
MASK_NOISE_STD = 0.01


def _make_cell(
    cell_id: int,
    group: tuple[tuple[float, float], ...],
    neighbor_ids: tuple[int, ...],
) -> CellConfig:
    n = len(group)
    return CellConfig(
        cell_id=cell_id,
        bandwidth=CELL_BANDWIDTH,
        requirements=tuple(SliceRequirement(tp, d) for tp, d in group),
        neighbor_ids=neighbor_ids,
        max_ues_per_slice=CELL_MAX_UES,
        base_snr_db=CELL_SNR_DB,
        interference_gains=tuple(NEIGHBOR_GAIN for _ in neighbor_ids),
        ue_rates=tuple(tp for tp, _ in group),
        masks=tuple(
            TrafficMaskParams(period=100, amplitude=MASK_AMPLITUDE, offset=0.5,
                              phase=ph, noise_std=MASK_NOISE_STD)
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


def load_config(path_or_name: str | Path) -> ExperimentConfig:
    """Load an experiment config from a YAML file or a builtin name."""

    name = str(path_or_name)
    if name in BUILTIN_SCENARIOS:
        # Default sections; the last cell is the target.
        scenario = BUILTIN_SCENARIOS[name]()
        return ExperimentConfig(
            scenario, similarity=SimilarityParams(target=scenario.cell_ids[-1]))
    path = Path(path_or_name)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    import yaml  # only config files need it; a builtin run skips its import

    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {name} is not valid YAML: {exc}") from exc
    return from_plain(ExperimentConfig, data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    import yaml

    with atomic_open(path) as fh:
        yaml.safe_dump(to_plain(cfg), fh, sort_keys=False)
