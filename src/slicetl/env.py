"""Multi-cell network-slicing simulator with load-coupled interference.

The simulator is deterministic under a fixed seed and purely functional:
``step`` consumes a :class:`NetworkState` and returns a new one, carrying
the RNG state along explicitly. Inter-cell interference is coupled through
the previous step's neighbor loads, mirroring the one-step message-sharing
delay of the coordination scheme.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ActionError, ConfigurationError, DimensionError, DomainError

SIMPLEX_TOL = 1e-9
CAPACITY_EPS = 1e-9


@dataclass(frozen=True)
class SliceRequirement:
    """Per-slice service targets: average user throughput and delay."""

    throughput_target: float  # Mbit/s
    delay_target: float  # ms

    def __post_init__(self) -> None:
        if self.throughput_target <= 0 or self.delay_target <= 0:
            raise ConfigurationError(
                f"slice targets must be positive, got {self}"
            )


@dataclass(frozen=True)
class TrafficMaskParams:
    """Sinusoidal traffic mask scaling the per-slice UE population."""

    period: int = 100
    amplitude: float = 0.4
    offset: float = 0.5
    phase: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"mask period must be positive, got {self.period}")
        if self.noise_std < 0:
            raise ConfigurationError("mask noise_std must be >= 0")


@dataclass(frozen=True)
class DelayModel:
    """M/M/1-style delay d = d_min / (1 - load), clipped to [d_min, d_max]."""

    d_min: float = 0.5  # ms
    d_max: float = 20.0  # ms
    epsilon: float = 0.05  # floor on (1 - load)

    def __post_init__(self) -> None:
        if not (0 < self.d_min <= self.d_max) or not (0 < self.epsilon < 1):
            raise ConfigurationError(f"invalid delay model {self}")

    def delay(self, load: float) -> float:
        return min(self.d_max, self.d_min / max(self.epsilon, 1.0 - load))


@dataclass(frozen=True)
class CellConfig:
    cell_id: int
    bandwidth: float  # MHz
    requirements: tuple[SliceRequirement, ...]
    neighbor_ids: tuple[int, ...]
    max_ues_per_slice: int
    base_snr_db: float
    interference_gains: tuple[float, ...]  # aligned with neighbor_ids
    ue_rates: tuple[float, ...]  # per-slice, Mbit/s per UE
    masks: tuple[TrafficMaskParams, ...]  # per-slice

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"cell {self.cell_id}: bandwidth must be positive"
            )
        if self.max_ues_per_slice < 1:
            raise ConfigurationError(
                f"cell {self.cell_id}: max_ues_per_slice must be >= 1"
            )
        if self.cell_id in self.neighbor_ids:
            raise ConfigurationError(
                f"cell {self.cell_id}: neighbor list must exclude the cell itself"
            )
        if len(self.interference_gains) != len(self.neighbor_ids):
            raise ConfigurationError(
                f"cell {self.cell_id}: one interference gain per neighbor required"
            )
        if any(g < 0 for g in self.interference_gains):
            raise ConfigurationError(
                f"cell {self.cell_id}: interference gains must be >= 0"
            )
        n = len(self.requirements)
        if not (len(self.ue_rates) == len(self.masks) == n):
            raise ConfigurationError(
                f"cell {self.cell_id}: requirements, ue_rates and masks must all "
                f"have one entry per slice"
            )
        if any(r < 0 for r in self.ue_rates):
            raise ConfigurationError(f"cell {self.cell_id}: ue_rates must be >= 0")

    @property
    def n_slices(self) -> int:
        return len(self.requirements)

    @property
    def max_throughput_target(self) -> float:
        return max(r.throughput_target for r in self.requirements)


@dataclass(frozen=True)
class ScenarioConfig:
    cells: tuple[CellConfig, ...]
    delay: DelayModel = field(default_factory=DelayModel)
    seed: int = 0

    def __post_init__(self) -> None:
        validate_scenario(self)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_slices(self) -> int:
        return self.cells[0].n_slices

    @property
    def cell_ids(self) -> tuple[int, ...]:
        return tuple(c.cell_id for c in self.cells)

    def cell(self, cell_id: int) -> CellConfig:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise ConfigurationError(f"unknown cell id {cell_id}")


def validate_scenario(scenario: ScenarioConfig) -> None:
    if len(scenario.cells) < 1:
        raise ConfigurationError("scenario needs at least one cell")
    ids = [c.cell_id for c in scenario.cells]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate cell ids in {ids}")
    n = scenario.cells[0].n_slices
    if n < 1:
        raise ConfigurationError("scenario needs at least one slice")
    for c in scenario.cells:
        if c.n_slices != n:
            raise ConfigurationError("all cells must declare the same slice count")
        for j in c.neighbor_ids:
            if j not in ids:
                raise ConfigurationError(
                    f"cell {c.cell_id} references unknown neighbor {j}"
                )
            if c.cell_id not in scenario.cells[ids.index(j)].neighbor_ids:
                raise ConfigurationError(
                    f"asymmetric neighbor declaration between cells "
                    f"{c.cell_id} and {j}"
                )


@dataclass(frozen=True)
class PartitionAction:
    """Simplex vector of per-slice resource shares."""

    shares: np.ndarray

    def __post_init__(self) -> None:
        shares = np.asarray(self.shares, dtype=np.float64)
        object.__setattr__(self, "shares", shares)
        if shares.ndim != 1:
            raise ActionError(f"shares must be a vector, got ndim={shares.ndim}")
        if not np.all(np.isfinite(shares)):
            raise ActionError("shares must be finite")
        if np.any(shares < 0.0) or np.any(shares > 1.0):
            raise ActionError(f"shares must lie in [0, 1], got {shares}")
        if abs(float(shares.sum()) - 1.0) > SIMPLEX_TOL:
            raise ActionError(f"shares must sum to 1, got {shares.sum()!r}")

    @property
    def n_slices(self) -> int:
        return self.shares.shape[0]


def equal_partition(n_slices: int) -> PartitionAction:
    return PartitionAction(np.full(n_slices, 1.0 / n_slices))


@dataclass(frozen=True)
class SliceMetrics:
    throughput: float  # Mbit/s per user
    delay: float  # ms
    load: float  # in [0, 1]
    ue_count: int


@dataclass(frozen=True)
class NetworkState:
    """Snapshot of all per-cell per-slice metrics at one time step."""

    step: int
    per_cell: tuple[tuple[SliceMetrics, ...], ...]  # K x N
    rng_state: dict

    def total_load(self, cell_index: int) -> float:
        return float(sum(m.load for m in self.per_cell[cell_index]))


def traffic_mask(
    t: int,
    slice_index: int,
    masks: Sequence[TrafficMaskParams],
    rng: np.random.Generator | None = None,
) -> float:
    """Deterministic (optionally noisy) traffic scaler in [0, 1]."""

    if t < 0:
        raise DomainError(f"time step must be >= 0, got {t}")
    p = masks[slice_index]
    value = p.offset + p.amplitude * math.sin(
        2.0 * math.pi * t / p.period + p.phase
    )
    if p.noise_std > 0 and rng is not None:
        value += p.noise_std * rng.standard_normal()
    return min(1.0, max(0.0, value))


def compute_efficiency(cell: CellConfig, neighbor_total_loads: Sequence[float]) -> float:
    """Shannon-style spectral efficiency with load-proportional interference.

    e = log2(1 + SNR / (1 + sum_j g_j * min(1, l_j))) in bit/s/Hz, strictly
    decreasing in every neighbor's total load.
    """

    loads = np.asarray(neighbor_total_loads, dtype=np.float64)
    if loads.shape != (len(cell.neighbor_ids),):
        raise DimensionError(
            f"cell {cell.cell_id}: expected {len(cell.neighbor_ids)} neighbor "
            f"loads, got shape {loads.shape}"
        )
    snr_lin = 10.0 ** (cell.base_snr_db / 10.0)
    interference = float(
        np.dot(np.asarray(cell.interference_gains), np.minimum(1.0, loads))
    )
    return math.log2(1.0 + snr_lin / (1.0 + interference))


def compute_slice_metrics(
    cell: CellConfig,
    action: PartitionAction,
    demands: Sequence[float],
    ue_counts: Sequence[int],
    efficiency: float,
    delay_model: DelayModel | None = None,
) -> tuple[SliceMetrics, ...]:
    """Per-slice throughput/delay/load under a given partitioning.

    Capacity of slice n is a_n * B * e; load is capped at 1; per-user
    throughput is the served traffic divided by the user count. A slice
    with zero share but positive demand is fully congested by definition.
    """

    dm = delay_model or DelayModel()
    demands = np.asarray(demands, dtype=np.float64)
    if np.any(demands < 0):
        raise DomainError(f"demands must be >= 0, got {demands}")
    if efficiency <= 0:
        raise DomainError(f"efficiency must be positive, got {efficiency}")
    if action.n_slices != cell.n_slices or len(demands) != cell.n_slices:
        raise DimensionError(
            f"cell {cell.cell_id}: action/demand length must equal slice count"
        )
    out = []
    for n in range(cell.n_slices):
        u = int(ue_counts[n])
        capacity = action.shares[n] * cell.bandwidth * efficiency
        if capacity <= CAPACITY_EPS and demands[n] > 0:
            out.append(SliceMetrics(0.0, dm.d_max, 1.0, u))
            continue
        load = min(1.0, demands[n] / max(capacity, CAPACITY_EPS))
        throughput = min(demands[n], capacity) / max(u, 1)
        out.append(SliceMetrics(float(throughput), float(dm.delay(load)),
                                float(load), u))
    return tuple(out)


def reward(
    metrics: Sequence[SliceMetrics], reqs: Sequence[SliceRequirement]
) -> float:
    """Minimum per-slice satisfaction, capped at 1.

    Each slice contributes min(throughput ratio, inverse delay ratio, 1);
    the cell reward is the worst slice. Zero delay counts as fully
    satisfied rather than a division fault.
    """

    if len(metrics) != len(reqs):
        raise DimensionError("metrics and requirements must have equal length")
    worst = 1.0
    for m, req in zip(metrics, reqs):
        tp_term = m.throughput / req.throughput_target
        delay_term = req.delay_target / m.delay if m.delay > 0 else 1.0
        worst = min(worst, tp_term, delay_term)
    return max(0.0, min(1.0, worst))


def baseline_action(demands: Sequence[float]) -> PartitionAction:
    """Traffic-aware baseline: shares proportional to per-slice demand."""

    demands = np.asarray(demands, dtype=np.float64)
    if np.any(demands < 0):
        raise DomainError(f"demands must be >= 0, got {demands}")
    total = demands.sum()
    if total <= 0:
        return equal_partition(len(demands))
    return PartitionAction(demands / total)


def _cell_traffic(
    cell: CellConfig, t: int, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """UE counts and demands for one cell at step t (draws mask noise in order)."""

    ues = np.empty(cell.n_slices, dtype=np.int64)
    for n in range(cell.n_slices):
        tau = traffic_mask(t, n, cell.masks, rng)
        ues[n] = int(round(cell.max_ues_per_slice * tau))
    demands = ues * np.asarray(cell.ue_rates, dtype=np.float64)
    return ues, demands


def init_network(scenario: ScenarioConfig, seed: int) -> NetworkState:
    """Initial state at t=0 under the default equal partition, no interference history."""

    rng = np.random.default_rng(seed)
    per_cell = []
    for cell in scenario.cells:
        ues, demands = _cell_traffic(cell, 0, rng)
        eff = compute_efficiency(cell, np.zeros(len(cell.neighbor_ids)))
        per_cell.append(
            compute_slice_metrics(
                cell, equal_partition(cell.n_slices), demands, ues, eff,
                scenario.delay,
            )
        )
    return NetworkState(0, tuple(per_cell), rng.bit_generator.state)


def peek_demands(state: NetworkState, scenario: ScenarioConfig) -> dict[int, np.ndarray]:
    """Demands each cell will see at the next step (perfect-knowledge oracle).

    Replays the exact RNG draws the next ``step`` call will make, without
    advancing the state.
    """

    rng = np.random.default_rng()
    rng.bit_generator.state = copy.deepcopy(state.rng_state)
    out = {}
    for cell in scenario.cells:
        _, demands = _cell_traffic(cell, state.step + 1, rng)
        out[cell.cell_id] = demands
    return out


def step(
    state: NetworkState,
    actions: Sequence[PartitionAction],
    scenario: ScenarioConfig,
) -> tuple[NetworkState, np.ndarray]:
    """Advance the whole network by one slot; returns (new state, per-cell rewards).

    Interference is computed from the previous step's neighbor total loads.
    """

    if len(actions) != scenario.n_cells:
        raise ActionError(
            f"expected {scenario.n_cells} actions, got {len(actions)}"
        )
    for a in actions:
        if a.n_slices != scenario.n_slices:
            raise ActionError("action slice count does not match scenario")
    rng = np.random.default_rng()
    rng.bit_generator.state = copy.deepcopy(state.rng_state)
    t = state.step + 1
    index_of = {c.cell_id: i for i, c in enumerate(scenario.cells)}
    prev_total = {c.cell_id: state.total_load(index_of[c.cell_id]) for c in scenario.cells}

    per_cell = []
    rewards = np.empty(scenario.n_cells)
    for i, cell in enumerate(scenario.cells):
        ues, demands = _cell_traffic(cell, t, rng)
        eff = compute_efficiency(
            cell, [prev_total[j] for j in cell.neighbor_ids]
        )
        metrics = compute_slice_metrics(
            cell, actions[i], demands, ues, eff, scenario.delay
        )
        per_cell.append(metrics)
        rewards[i] = reward(metrics, cell.requirements)
    new_state = NetworkState(t, tuple(per_cell), rng.bit_generator.state)
    return new_state, rewards
