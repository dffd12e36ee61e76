"""Multi-cell network-slicing simulator with load-coupled interference.

The simulator is deterministic under a fixed seed and purely functional:
``step`` consumes a :class:`NetworkState` and returns a new one, carrying
the RNG state along explicitly. Inter-cell interference is coupled through
the previous step's neighbor loads, mirroring the one-step message-sharing
delay of the coordination scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ActionError, ConfigurationError, DomainError

SIMPLEX_TOL = 1e-9
CAPACITY_EPS = 1e-9
TWO_PI = 2.0 * math.pi


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

    def delay(self, load):
        """Delay of a load or an array of loads."""

        return np.minimum(self.d_max, self.d_min / np.maximum(self.epsilon, 1.0 - load))


@dataclass(frozen=True)
class CellConfig:
    cell_id: int
    bandwidth: float  # MHz
    requirements: tuple[SliceRequirement, ...]
    neighbor_ids: tuple[int, ...] = field(default=(), kw_only=True)
    max_ues_per_slice: int
    base_snr_db: float
    interference_gains: tuple[float, ...] = field(  # aligned with neighbor_ids
        default=(), kw_only=True)
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

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.base_snr_db / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    cells: tuple[CellConfig, ...]
    delay: DelayModel = field(default_factory=DelayModel)

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

    @cached_property
    def arrays(self) -> ScenarioArrays:
        """The cells' parameters as arrays, built on first use."""

        return ScenarioArrays.of(self)


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


# ---------------------------------------------------------------------------
# Scenario parameters as arrays, built once per scenario.
# ---------------------------------------------------------------------------


class MaskArrays(NamedTuple):
    """Traffic-mask parameters as same-shaped arrays (cells x slices)."""

    period: np.ndarray
    phase: np.ndarray
    offset: np.ndarray
    amplitude: np.ndarray
    noisy: np.ndarray  # bool: entries with noise_std > 0
    noise_std: np.ndarray  # noise_std of the noisy entries, row-major

    @classmethod
    def of(cls, masks: Sequence[Sequence[TrafficMaskParams]]) -> "MaskArrays":
        def column(name: str) -> np.ndarray:
            return np.array([[getattr(p, name) for p in row] for row in masks],
                            dtype=np.float64)

        noise = column("noise_std")
        noisy = noise > 0
        return cls(column("period"), column("phase"), column("offset"),
                   column("amplitude"), noisy, noise[noisy])


class NeighborGroup(NamedTuple):
    """The cells with one neighbour count d, in scenario order."""

    rows: np.ndarray  # (k,) the cells' rows
    neighbors: np.ndarray  # (k, d) their neighbours' rows, in declaration order
    gains: np.ndarray  # (k, d) the matching interference gains


@dataclass(frozen=True, eq=False)
class ScenarioArrays:
    """Every per-cell parameter the slot needs, one row per cell in
    scenario order (K cells, N slices)."""

    cell_ids: np.ndarray  # (K,) int64, ``ScenarioConfig.cell_ids``
    bandwidth: np.ndarray  # (K, 1) MHz
    snr_linear: np.ndarray  # (K,)
    max_ues: np.ndarray  # (K, 1) as float
    ue_rates: np.ndarray  # (K, N) Mbit/s per UE
    masks: MaskArrays  # (K, N)
    throughput_target: np.ndarray  # (K, N)
    delay_target: np.ndarray  # (K, N)
    throughput_scale: np.ndarray  # (K, 1) max throughput target, the state normaliser
    neighbor_groups: tuple[NeighborGroup, ...]
    delay: DelayModel

    @classmethod
    def of(cls, scenario: ScenarioConfig) -> "ScenarioArrays":
        cells = scenario.cells
        row_of = {c.cell_id: i for i, c in enumerate(cells)}
        # Grouped by neighbour count rather than padded: each cell's
        # interference is then a dot product of its own length, which
        # rounds like the per-cell np.dot (zero padding can change the
        # reduction's blocking).
        by_degree: dict[int, list[int]] = {}
        for i, c in enumerate(cells):
            by_degree.setdefault(len(c.neighbor_ids), []).append(i)
        groups = tuple(
            NeighborGroup(
                np.array(rows, dtype=np.intp),
                np.array([[row_of[j] for j in cells[i].neighbor_ids] for i in rows],
                         dtype=np.intp).reshape(len(rows), d),
                np.array([cells[i].interference_gains for i in rows],
                         dtype=np.float64).reshape(len(rows), d),
            )
            for d, rows in sorted(by_degree.items())
        )

        def array(values) -> np.ndarray:
            return np.array(values, dtype=np.float64)

        return cls(
            cell_ids=np.array(scenario.cell_ids, dtype=np.int64),
            bandwidth=array([[c.bandwidth] for c in cells]),
            snr_linear=array([c.snr_linear for c in cells]),
            max_ues=array([[c.max_ues_per_slice] for c in cells]),
            # + 0.0 turns a -0.0 rate, which the >= 0 check lets through,
            # into +0.0, so no demand or metric carries its sign.
            ue_rates=array([c.ue_rates for c in cells]) + 0.0,
            masks=MaskArrays.of([c.masks for c in cells]),
            throughput_target=array(
                [[r.throughput_target for r in c.requirements] for c in cells]),
            delay_target=array(
                [[r.delay_target for r in c.requirements] for c in cells]),
            throughput_scale=array([[c.max_throughput_target] for c in cells]),
            neighbor_groups=groups,
            delay=scenario.delay,
        )

    def over_neighbors(self, values: np.ndarray, reduce: Callable) -> np.ndarray:
        """``reduce(gains, values[neighbors])`` of each neighbour group, (k, d)
        and (k, d, ...) -> (k, ...), in the group's rows of an array shaped
        like ``values`` (K, ...); zeros for cells without neighbours."""

        groups = self.neighbor_groups
        if len(groups) == 1 and groups[0].neighbors.shape[1]:
            # The one group's rows are all cells in order: no scatter.
            return reduce(groups[0].gains, values[groups[0].neighbors])
        out = np.zeros_like(values)
        for group in groups:
            if group.neighbors.shape[1]:
                out[group.rows] = reduce(group.gains, values[group.neighbors])
        return out


# ---------------------------------------------------------------------------
# Actions and network state.
# ---------------------------------------------------------------------------


def check_shares(shares, shape: tuple[int, ...]) -> np.ndarray:
    """Shares as float64 of the given shape, each last-axis row a simplex
    vector; raises ``ActionError`` otherwise."""

    try:
        shares = np.asarray(shares, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ActionError(f"shares must be numeric: {exc}") from exc
    if shares.shape != shape:
        raise ActionError(f"expected shares of shape {shape}, got {shares.shape}")
    # NaN fails both comparisons, so one range test also rejects it. The
    # ufunc reductions are what ndarray.min/max/sum call, minus the wrapper.
    if not (np.minimum.reduce(shares, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(shares, axis=None, initial=1.0) <= 1.0):
        if not np.all(np.isfinite(shares)):
            raise ActionError("shares must be finite")
        raise ActionError(f"shares must lie in [0, 1], got {shares}")
    # Finite from here on, so the largest deviation decides.
    sums = np.add.reduce(shares, axis=-1)
    if np.maximum.reduce(np.abs(sums - 1.0), axis=None, initial=0.0) > SIMPLEX_TOL:
        raise ActionError(f"shares must sum to 1, got {sums!r}")
    return shares


def equal_partition(n_slices: int) -> np.ndarray:
    """The equal split: one share row of 1/N each."""

    return np.full(n_slices, 1.0 / n_slices)


METRICS = ("throughput", "delay", "load", "ues")


@dataclass(frozen=True, eq=False)
class NetworkState:
    """All per-cell per-slice metrics at one time step, as (K, N) arrays in
    scenario order, and the traffic already drawn: the block of
    ``TRAFFIC_BLOCK`` slots that holds step + 1, which consecutive states
    share, and the RNG state after that block's draw. The traffic arrays
    are read-only, so no caller can change what another state holds."""

    step: int
    throughput: np.ndarray  # Mbit/s per user
    delay: np.ndarray  # ms
    load: np.ndarray  # in [0, 1]
    ues: np.ndarray  # user counts, whole floats
    next_ues: np.ndarray  # user counts at step + 1, a row of ``traffic``
    next_demands: np.ndarray  # Mbit/s at step + 1, a row of ``traffic``
    traffic: np.ndarray  # (TRAFFIC_BLOCK, 2, K, N) UE counts and demands per slot
    rng_state: dict  # after the draw of ``traffic``

    def total_loads(self) -> np.ndarray:
        """Per-cell sum of the slice loads, added left to right."""

        total = self.load[:, 0]
        for n in range(1, self.load.shape[1]):
            total = total + self.load[:, n]
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkState):
            return NotImplemented
        return (self.step == other.step and self.rng_state == other.rng_state
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in (*METRICS, "next_ues", "next_demands", "traffic")))


# ---------------------------------------------------------------------------
# Kernels over all cells; one cell is a one-row call. Each keeps the
# operation order of the per-cell scalar formula (written out as the
# reference in tests/test_env.py), so its results are bit-identical.
# ---------------------------------------------------------------------------


def mask_values(
    t: int | np.ndarray, masks: MaskArrays, rng: np.random.Generator | None
) -> np.ndarray:
    """Sinusoidal traffic scalers in [0, 1] at step t (K, N), or at each of
    a vector of steps (T, K, N), plus Gaussian noise on the noisy entries
    when ``rng`` is given: one draw each, step by step and row-major."""

    t = np.asarray(t)
    if np.minimum.reduce(t, axis=None) < 0:
        raise DomainError(f"time step must be >= 0, got {t}")
    arg = (TWO_PI * t[..., None, None]) / masks.period + masks.phase
    sin = np.fromiter(map(math.sin, arg.ravel().tolist()), np.float64, arg.size)
    value = masks.offset + masks.amplitude * sin.reshape(arg.shape)
    if rng is not None and masks.noise_std.size:
        noise = masks.noise_std * rng.standard_normal((*t.shape, masks.noise_std.size))
        if noise.size == value.size:  # every entry noisy: no mask to write through
            value += noise.reshape(value.shape)
        else:
            value[..., masks.noisy] += noise
    # + 0.0 makes a -0.0 that np.maximum may keep +0.0, as max(0.0, value)
    # gives; every other value is unchanged.
    return np.minimum(1.0, np.maximum(0.0, value)) + 0.0


def interference(gains: np.ndarray, neighbor_loads: np.ndarray) -> np.ndarray:
    """Per-row sum_j g_j * min(1, l_j) of (k, d) arrays; each row is reduced
    by the same dot-product kernel as ``np.dot`` of two vectors."""

    return (gains[:, None, :] @ np.minimum(1.0, neighbor_loads)[:, :, None])[:, 0, 0]


def efficiency(snr_linear: np.ndarray, inter: np.ndarray) -> np.ndarray:
    """Shannon-style spectral efficiency log2(1 + SNR / (1 + I)) per cell, in
    bit/s/Hz. ``math.log2`` per cell: ``np.log2`` rounds some inputs differently."""

    arg = 1.0 + snr_linear / (1.0 + inter)
    return np.fromiter(map(math.log2, arg.tolist()), np.float64, arg.size)


def slice_metrics(
    shares: np.ndarray,
    bandwidth: np.ndarray,
    eff: np.ndarray,
    demands: np.ndarray,
    ues: np.ndarray,
    delay_model: DelayModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(throughput, delay, load), each (K, N), under shares (K, N) and
    per-cell bandwidth (K, 1) and efficiency (K,).

    Capacity of a slice is (a_n * B) * e; load is capped at 1; per-user
    throughput is the served traffic divided by the user count. A slice
    with no capacity but positive demand is fully congested by definition.
    """

    if np.logical_or.reduce(eff <= 0, axis=None):
        raise DomainError(f"efficiency must be positive, got {eff}")
    capacity = shares * bandwidth * eff[:, None]
    load = np.minimum(1.0, demands / np.maximum(capacity, CAPACITY_EPS))
    throughput = np.minimum(demands, capacity) / np.maximum(ues, 1)
    delay = delay_model.delay(load)
    starved = capacity <= CAPACITY_EPS
    if np.logical_or.reduce(starved, axis=None):  # no slice congested otherwise
        congested = starved & (demands > 0)
        throughput[congested] = 0.0
        delay[congested] = delay_model.d_max
        load[congested] = 1.0
    return throughput, delay, load


def slice_rewards(
    throughput: np.ndarray,
    delay: np.ndarray,
    throughput_target: np.ndarray,
    delay_target: np.ndarray,
) -> np.ndarray:
    """Per-row minimum slice satisfaction, in [0, 1].

    Each slice contributes min(throughput ratio, inverse delay ratio, 1);
    a row's reward is its worst slice. Zero delay counts as fully
    satisfied rather than a division fault.
    """

    if np.minimum.reduce(delay, axis=None) > 0:  # as every DelayModel delay is
        delay_term = delay_target / delay
    else:
        delay_term = delay_target / np.where(delay > 0, delay, delay_target)  # 0 delay: 1
    worst = np.minimum.reduce(np.minimum(throughput / throughput_target, delay_term),
                              axis=1, initial=1.0)
    return np.maximum(0.0, worst)


def baseline_shares(demands: np.ndarray) -> np.ndarray:
    """Traffic-aware baseline: each row's shares proportional to its
    demands, the equal split where a row demands nothing."""

    total = np.add.reduce(demands, axis=1, keepdims=True)
    if np.minimum.reduce(total, axis=None) > 0:  # no row needs the equal split
        return demands / total
    return np.divide(demands, total, out=np.full(demands.shape, 1.0 / demands.shape[1]),
                     where=total > 0)


# ---------------------------------------------------------------------------
# Stepping the network.
# ---------------------------------------------------------------------------


TRAFFIC_BLOCK = 64  # slots of traffic drawn at a time

# The one generator ``step`` draws from: repositioned from the state's RNG
# state at each block boundary, which costs a fraction of building a PCG64,
# and read back before the step returns, so no draw depends on an earlier
# step's use. Its seed is never used. Two threads must not step at once.
_SCRATCH = np.random.Generator(np.random.PCG64(0))


def _traffic_block(
    arrays: ScenarioArrays, start: int, rng: np.random.Generator
) -> np.ndarray:
    """UE counts and demands of the ``TRAFFIC_BLOCK`` slots from ``start``,
    (TRAFFIC_BLOCK, 2, K, N) and read-only; draws their mask noise."""

    masks = mask_values(np.arange(start, start + TRAFFIC_BLOCK), arrays.masks, rng)
    counts = np.rint(arrays.max_ues * masks)
    block = np.stack((counts, counts * arrays.ue_rates), axis=1)
    block.flags.writeable = False
    return block


def _metrics(
    arrays: ScenarioArrays,
    shares: np.ndarray,
    prev_total_loads: np.ndarray,
    demands: np.ndarray,
    ues: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice metrics under interference from the neighbours' previous loads."""

    eff = efficiency(arrays.snr_linear,
                     arrays.over_neighbors(prev_total_loads, interference))
    return slice_metrics(shares, arrays.bandwidth, eff, demands, ues, arrays.delay)


def init_network(scenario: ScenarioConfig, seed: int) -> NetworkState:
    """Initial state at t=0 under the default equal partition, no interference
    history; draws the traffic block of slots 0 to ``TRAFFIC_BLOCK - 1``,
    which holds t=0 and t=1."""

    arrays = scenario.arrays
    rng = np.random.default_rng(seed)
    traffic = _traffic_block(arrays, 0, rng)
    ues, demands = traffic[0]
    k, n = demands.shape
    metrics = _metrics(arrays, np.full((k, n), 1.0 / n), np.zeros(k), demands, ues)
    return NetworkState(0, *metrics, ues, *traffic[1], traffic, rng.bit_generator.state)


def peek_demands(state: NetworkState) -> np.ndarray:
    """Demands (K, N) the cells will see at the next step (perfect-knowledge
    oracle), as the caller's own copy."""

    return state.next_demands.copy()


def step(
    state: NetworkState, shares: np.ndarray, scenario: ScenarioConfig
) -> tuple[NetworkState, np.ndarray]:
    """Advance the whole network by one slot under one share row per cell
    (K, N); returns (new state, per-cell rewards).

    The slot's traffic is the one ``state`` holds; interference is computed
    from the previous step's neighbor total loads. The new state reads the
    traffic of the step after it from the state's block; only when that
    step starts a block does it draw the next ``TRAFFIC_BLOCK`` slots.
    """

    arrays = scenario.arrays
    shares = check_shares(shares, arrays.ue_rates.shape)
    tp, delay, load = _metrics(arrays, shares, state.total_loads(),
                               state.next_demands, state.next_ues)
    rewards = slice_rewards(tp, delay, arrays.throughput_target, arrays.delay_target)
    after = state.step + 2
    traffic, rng_state = state.traffic, state.rng_state
    if after % TRAFFIC_BLOCK == 0:
        bits = _SCRATCH.bit_generator
        bits.state = rng_state
        traffic = _traffic_block(arrays, after, _SCRATCH)
        rng_state = bits.state
    return NetworkState(state.step + 1, tp, delay, load, state.next_ues,
                        *traffic[after % TRAFFIC_BLOCK], traffic, rng_state), rewards
