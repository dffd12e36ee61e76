"""Environment unit tests: masks, efficiency, slice metrics, reward, stepping."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicetl import env
from slicetl.runner import assemble_all_states
from slicetl.env import (
    CellConfig,
    DelayModel,
    MaskArrays,
    ScenarioConfig,
    SliceRequirement,
    TrafficMaskParams,
    equal_partition,
)
from slicetl.errors import ActionError, ConfigurationError, DomainError
from slicetl.harness import rollout, write_metrics_csv
from slicetl.scenario import full_scenario, smoke_scenario


def _cell(n_slices=2, neighbors=(), gains=None, snr_db=10.0, bandwidth=10.0):
    gains = tuple(1.0 for _ in neighbors) if gains is None else gains
    return CellConfig(
        cell_id=0,
        bandwidth=bandwidth,
        requirements=tuple(SliceRequirement(2.0, 2.0) for _ in range(n_slices)),
        neighbor_ids=tuple(neighbors),
        max_ues_per_slice=8,
        base_snr_db=snr_db,
        interference_gains=gains,
        ue_rates=tuple(2.0 for _ in range(n_slices)),
        masks=tuple(TrafficMaskParams() for _ in range(n_slices)),
    )


# ---------------------------------------------------------------------------
# Traffic mask
# ---------------------------------------------------------------------------


def _mask(t, params, rng=None):
    """One slice's traffic scaler: a one-row call of ``mask_values``."""

    return float(env.mask_values(t, MaskArrays.of([[params]]), rng)[0, 0])


def test_traffic_mask_matches_sinusoid():
    mask = TrafficMaskParams(period=50, amplitude=0.3, offset=0.5, phase=0.7)
    for t in (0, 7, 25, 49, 123):
        expected = 0.5 + 0.3 * math.sin(2 * math.pi * t / 50 + 0.7)
        assert _mask(t, mask) == pytest.approx(expected, abs=1e-15)


def test_traffic_mask_clipped_to_unit_interval():
    mask = TrafficMaskParams(period=10, amplitude=5.0, offset=0.5)
    values = [_mask(t, mask) for t in range(20)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert max(values) == 1.0 and min(values) == 0.0


def test_traffic_mask_noise_is_seed_deterministic():
    mask = TrafficMaskParams(noise_std=0.1)
    a = [_mask(t, mask, np.random.default_rng(5)) for t in range(10)]
    b = [_mask(t, mask, np.random.default_rng(5)) for t in range(10)]
    assert a == b
    c = [_mask(t, mask, np.random.default_rng(6)) for t in range(10)]
    assert a != c


@pytest.mark.parametrize("noisy", [lambda i, n: (i + n) % 2 == 0, lambda i, n: True],
                         ids=["some-noisy", "all-noisy"])
def test_traffic_mask_of_steps_stacks_one_step_calls(noisy):
    """A vector of steps gives the one-step results in turn, noise drawn
    step by step and row-major, and leaves the generator where they do."""

    masks = _graph_scenario(3, [(0, 1)], noisy).arrays.masks
    steps, one = np.random.default_rng(8), np.random.default_rng(8)
    got = env.mask_values(np.arange(5, 12), masks, steps)
    want = np.stack([env.mask_values(t, masks, one) for t in range(5, 12)])
    assert _same_bits(got, want)
    assert steps.bit_generator.state == one.bit_generator.state


def test_traffic_mask_rejects_negative_time():
    with pytest.raises(DomainError):
        _mask(-1, TrafficMaskParams())
    with pytest.raises(DomainError):
        env.mask_values(np.array([3, -1]), MaskArrays.of([[TrafficMaskParams()]]), None)


# ---------------------------------------------------------------------------
# Spectral efficiency
# ---------------------------------------------------------------------------


def _efficiency(cell, neighbor_loads):
    """One cell's spectral efficiency under its neighbours' total loads:
    one-row calls of ``interference`` and ``efficiency``."""

    gains = np.array([cell.interference_gains]).reshape(1, -1)
    loads = np.array([neighbor_loads], dtype=np.float64).reshape(1, -1)
    return float(env.efficiency(np.array([cell.snr_linear]),
                                env.interference(gains, loads))[0])


def test_efficiency_closed_form():
    cell = _cell(neighbors=(1, 2), gains=(0.5, 2.0), snr_db=10.0)
    snr = 10.0  # 10 dB
    expected = math.log2(1 + snr / (1 + 0.5 * 0.4 + 2.0 * 0.9))
    assert _efficiency(cell, [0.4, 0.9]) == pytest.approx(expected, rel=1e-12)


def test_efficiency_no_neighbors_is_pure_snr():
    cell = _cell(snr_db=10.0)
    assert _efficiency(cell, []) == pytest.approx(math.log2(11.0), rel=1e-12)


def test_efficiency_decreases_with_neighbor_load():
    cell = _cell(neighbors=(1,))
    effs = [_efficiency(cell, [l]) for l in (0.0, 0.3, 0.7, 1.0)]
    assert all(a > b for a, b in zip(effs, effs[1:]))


def test_efficiency_saturates_above_full_load():
    cell = _cell(neighbors=(1,))
    assert _efficiency(cell, [1.0]) == _efficiency(cell, [3.5])


def test_efficiency_rejects_wrong_load_count():
    """Gains and loads are multiplied, not broadcast: a wrong count fails."""

    with pytest.raises(ValueError):
        _efficiency(_cell(neighbors=(1, 2)), [0.5])


# ---------------------------------------------------------------------------
# Slice metrics
# ---------------------------------------------------------------------------


def _slice_metrics(cell, shares, demands, ues, efficiency):
    """One cell's (throughput, delay, load) rows: a one-row call of
    ``slice_metrics`` under the default delay model."""

    tp, delay, load = env.slice_metrics(
        np.array([shares], dtype=np.float64), np.array([[cell.bandwidth]]),
        np.array([efficiency], dtype=np.float64),
        np.array([demands], dtype=np.float64), np.array([ues]), DelayModel())
    return tp[0], delay[0], load[0]


def test_slice_metrics_hand_computed():
    cell = _cell(n_slices=2, bandwidth=10.0)
    # efficiency 2 -> capacities (12, 8); demands (6, 16); ues (3, 8)
    tp, delay, load = _slice_metrics(cell, [0.6, 0.4], [6.0, 16.0], [3, 8], 2.0)
    assert load[0] == pytest.approx(0.5)
    assert tp[0] == pytest.approx(6.0 / 3)
    assert delay[0] == pytest.approx(0.5 / 0.5)
    assert load[1] == 1.0  # demand exceeds capacity, capped
    assert tp[1] == pytest.approx(8.0 / 8)
    assert delay[1] == pytest.approx(0.5 / 0.05)  # epsilon floor on 1 - load


def test_slice_metrics_zero_share_positive_demand_is_congested():
    cell = _cell(n_slices=2)
    tp, delay, load = _slice_metrics(cell, [0.0, 1.0], [4.0, 4.0], [2, 2], 2.0)
    assert tp[0] == 0.0
    assert load[0] == 1.0
    assert delay[0] == DelayModel().d_max


def test_slice_metrics_rejects_bad_inputs():
    cell = _cell(n_slices=2)
    with pytest.raises(DomainError):
        _slice_metrics(cell, equal_partition(2), [1.0, 1.0], [1, 1], 0.0)
    with pytest.raises(ValueError):  # three shares for two demands
        _slice_metrics(cell, equal_partition(3), [1.0, 1.0], [1, 1], 2.0)


def test_delay_model_formula():
    dm = DelayModel(d_min=0.5, d_max=20.0, epsilon=0.05)
    assert dm.delay(0.0) == pytest.approx(0.5)
    assert dm.delay(0.75) == pytest.approx(2.0)
    assert dm.delay(1.0) == pytest.approx(10.0)  # epsilon floor
    assert dm.delay(0.99) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------


def _reward(metrics, reqs):
    """One cell's reward from (throughput, delay) per slice: a one-row call
    of ``slice_rewards``."""

    tp, delay = np.array(metrics, dtype=np.float64).T[:, None]
    tp_target, delay_target = np.array(
        [(q.throughput_target, q.delay_target) for q in reqs]).T[:, None]
    return float(env.slice_rewards(tp, delay, tp_target, delay_target)[0])


def test_reward_fully_satisfied_is_one():
    reqs = [SliceRequirement(2.0, 2.0)]
    assert _reward([(5.0, 1.0)], reqs) == 1.0


def test_reward_throughput_binding():
    reqs = [SliceRequirement(4.0, 10.0)]
    assert _reward([(1.0, 1.0)], reqs) == pytest.approx(0.25)


def test_reward_delay_binding():
    reqs = [SliceRequirement(1.0, 2.0)]
    assert _reward([(5.0, 8.0)], reqs) == pytest.approx(0.25)


def test_reward_takes_worst_slice():
    reqs = [SliceRequirement(2.0, 2.0), SliceRequirement(2.0, 2.0)]
    assert _reward([(4.0, 1.0), (0.5, 1.0)], reqs) == pytest.approx(0.25)


def test_reward_zero_delay_counts_as_satisfied():
    reqs = [SliceRequirement(2.0, 2.0)]
    assert _reward([(4.0, 0.0)], reqs) == 1.0


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def test_partition_action_validation():
    """One cell's share row, checked as ``env.step`` checks every slot."""

    env.check_shares(np.array([0.5, 0.5]), (2,))  # valid
    with pytest.raises(ActionError):
        env.check_shares(np.array([0.7, 0.6]), (2,))
    with pytest.raises(ActionError):
        env.check_shares(np.array([-0.1, 1.1]), (2,))
    with pytest.raises(ActionError):
        env.check_shares(np.array([np.nan, 1.0]), (2,))
    with pytest.raises(ActionError):
        env.check_shares(np.eye(2), (2,))


def test_equal_partition():
    shares = equal_partition(4)
    assert shares.shape == (4,) and np.allclose(shares, 0.25)


def test_baseline_action_proportional():
    assert np.allclose(env.baseline_shares(np.array([[1.0, 3.0]]))[0], [0.25, 0.75])
    assert np.allclose(env.baseline_shares(np.array([[0.0, 0.0]]))[0], 0.5)


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


def test_scenario_rejects_asymmetric_neighbors():
    a = _cell()
    b = CellConfig(
        cell_id=1, bandwidth=10.0,
        requirements=a.requirements, neighbor_ids=(0,),
        max_ues_per_slice=8, base_snr_db=10.0, interference_gains=(1.0,),
        ue_rates=a.ue_rates, masks=a.masks,
    )
    with pytest.raises(ConfigurationError):
        ScenarioConfig(cells=(a, b))


def test_cell_config_rejects_self_neighbor_and_gain_mismatch():
    with pytest.raises(ConfigurationError):
        _cell(neighbors=(0,))
    with pytest.raises(ConfigurationError):
        _cell(neighbors=(1, 2), gains=(1.0,))


# ---------------------------------------------------------------------------
# Network stepping
# ---------------------------------------------------------------------------


def _rows(*actions):
    """Share matrix of ``env.step``: one share row per cell, in scenario order."""

    return np.stack(actions)


def test_step_is_deterministic_and_functional():
    scenario = smoke_scenario()
    actions = _rows(*[equal_partition(scenario.n_slices)] * scenario.n_cells)
    s0 = env.init_network(scenario, seed=7)
    s1a, r1a = env.step(s0, actions, scenario)
    s1b, r1b = env.step(s0, actions, scenario)  # same input state, same result
    assert np.array_equal(r1a, r1b)
    assert s1a == s1b
    assert s1a.step == 1 and s0.step == 0


def test_step_rewards_in_unit_interval():
    scenario = smoke_scenario()
    state = env.init_network(scenario, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(30):
        actions = _rows(*[rng.dirichlet(np.ones(scenario.n_slices))
                          for _ in range(scenario.n_cells)])
        state, rewards = env.step(state, actions, scenario)
        assert np.all(rewards >= 0.0) and np.all(rewards <= 1.0)


def test_step_rejects_wrong_action_count():
    scenario = smoke_scenario()
    state = env.init_network(scenario, seed=0)
    with pytest.raises(ActionError):
        env.step(state, _rows(equal_partition(scenario.n_slices)), scenario)


def test_peek_demands_matches_realized_ue_counts():
    scenario = smoke_scenario()
    state = env.init_network(scenario, seed=11)
    actions = _rows(*[equal_partition(scenario.n_slices)] * scenario.n_cells)
    for _ in range(5):
        peeked = env.peek_demands(state)
        again = env.peek_demands(state)  # peeking must not advance
        assert np.array_equal(peeked, again)
        state, _ = env.step(state, actions, scenario)
        for i, cell in enumerate(scenario.cells):
            ues = state.ues[i]
            rates = np.asarray(cell.ue_rates)
            assert np.allclose(peeked[i], ues * rates)


def test_state_holds_the_next_slots_traffic(monkeypatch):
    """Each state carries the traffic of the step after it: a peek reads it
    without drawing, a step inside a traffic block draws nothing, and the
    step whose next slot starts a block draws that one block."""

    scenario = smoke_scenario()
    actions = _rows(*[equal_partition(scenario.n_slices)] * scenario.n_cells)
    state = env.init_network(scenario, seed=11)
    draws = []
    mask_values = env.mask_values
    monkeypatch.setattr(env, "mask_values", lambda *args: draws.append(
        np.asarray(args[0]).tolist()) or mask_values(*args))
    peeked = env.peek_demands(state)
    assert draws == []
    assert np.array_equal(peeked, state.next_ues * scenario.arrays.ue_rates)
    peeked[...] = 0.0  # the caller's own copy: the step does not see this
    stepped, _ = env.step(state, actions, scenario)
    assert draws == []
    assert np.array_equal(stepped.ues, state.next_ues)
    assert np.array_equal(stepped.ues * scenario.arrays.ue_rates, state.next_demands)
    assert stepped == env.step(env.init_network(scenario, seed=11), actions, scenario)[0]
    block = env.TRAFFIC_BLOCK
    assert draws == [list(range(block))]  # the fresh network's block 0
    draws.clear()
    while stepped.step < block - 2:
        stepped, _ = env.step(stepped, actions, scenario)
    assert draws == [] and stepped.traffic is state.traffic
    boundary, _ = env.step(stepped, actions, scenario)
    assert draws == [list(range(block, 2 * block))]
    assert boundary.step == block - 1 and boundary.traffic is not state.traffic
    assert np.array_equal(boundary.ues, stepped.next_ues)


def test_traffic_is_read_only():
    """States share their traffic block, so no caller may write into it;
    a peek is the caller's own copy."""

    scenario = smoke_scenario()
    state = env.init_network(scenario, seed=2)
    state, _ = env.step(state, env.baseline_shares(env.peek_demands(state)), scenario)
    for name in ("ues", "next_ues", "next_demands", "traffic"):
        with pytest.raises(ValueError):
            getattr(state, name)[0, 0] = 1.0
    peeked = env.peek_demands(state)
    peeked[0, 0] = -1.0
    assert env.peek_demands(state)[0, 0] != -1.0


def test_interference_couples_through_previous_load():
    """A neighbor's heavy load at step t lowers this cell's capacity at t+1."""

    scenario = smoke_scenario()
    n = scenario.n_slices
    starved = np.array([1.0 - 1e-6] + [1e-6 / (n - 1)] * (n - 1))
    s0 = env.init_network(scenario, seed=4)

    # Variant A: all equal; variant B: neighbors of cell 1 starve themselves
    # (high load) while cell 1 acts identically in both.
    eq = equal_partition(n)
    a1, _ = env.step(s0, _rows(eq, eq, eq), scenario)
    b1, _ = env.step(s0, _rows(eq, starved, starved), scenario)
    a2, _ = env.step(a1, _rows(eq, eq, eq), scenario)
    b2, _ = env.step(b1, _rows(eq, eq, eq), scenario)
    # Same demands (same rng stream), so loads differ only via efficiency.
    assert b2.total_loads()[0] >= a2.total_loads()[0]


# ---------------------------------------------------------------------------
# The array slot path against a per-cell reference
# ---------------------------------------------------------------------------
#
# The reference is the scalar, one-cell-at-a-time form of the simulator:
# a loop per cell and per slice, Python min/max, math.sin and math.log2,
# np.dot over a cell's neighbours, and one standard_normal() per noisy mask.
# The array path must reproduce it bit for bit.


def _ref_traffic(scenario, t, rng):
    out = []
    for cell in scenario.cells:
        ues = []
        for p in cell.masks:
            value = p.offset + p.amplitude * math.sin(
                2.0 * math.pi * t / p.period + p.phase)
            if p.noise_std > 0:
                value += p.noise_std * rng.standard_normal()
            ues.append(int(round(cell.max_ues_per_slice * min(1.0, max(0.0, value)))))
        ues = np.array(ues, dtype=np.int64)
        out.append((ues, ues * np.asarray(cell.ue_rates, dtype=np.float64)))
    return out


def _ref_slot(scenario, t, rng, shares, prev_loads):
    """Per-cell [(throughput, delay, load, ues) per slice] and rewards."""

    dm = scenario.delay
    index = {c.cell_id: i for i, c in enumerate(scenario.cells)}
    totals = [float(sum(loads)) for loads in prev_loads]
    metrics, rewards = [], []
    for i, (cell, (ues, demands)) in enumerate(
            zip(scenario.cells, _ref_traffic(scenario, t, rng))):
        loads = np.array([totals[index[j]] for j in cell.neighbor_ids])
        inter = float(np.dot(np.asarray(cell.interference_gains, dtype=np.float64),
                             np.minimum(1.0, loads)))
        eff = math.log2(1.0 + 10.0 ** (cell.base_snr_db / 10.0) / (1.0 + inter))
        cell_metrics = []
        for n in range(cell.n_slices):
            u = int(ues[n])
            capacity = shares[i][n] * cell.bandwidth * eff
            if capacity <= env.CAPACITY_EPS and demands[n] > 0:
                cell_metrics.append((0.0, dm.d_max, 1.0, u))
                continue
            load = min(1.0, demands[n] / max(capacity, env.CAPACITY_EPS))
            tp = min(demands[n], capacity) / max(u, 1)
            delay = min(dm.d_max, dm.d_min / max(dm.epsilon, 1.0 - load))
            cell_metrics.append((float(tp), float(delay), float(load), u))
        worst = 1.0
        for (tp, delay, _, _), req in zip(cell_metrics, cell.requirements):
            delay_term = req.delay_target / delay if delay > 0 else 1.0
            worst = min(worst, tp / req.throughput_target, delay_term)
        metrics.append(cell_metrics)
        rewards.append(max(0.0, min(1.0, worst)))
    return metrics, rewards


def _ref_states(scenario, metrics):
    index = {c.cell_id: i for i, c in enumerate(scenario.cells)}
    states = []
    for cell, cell_metrics in zip(scenario.cells, metrics):
        tp, load, _, ues = (np.array(column) for column in zip(*[
            (m[0], m[2], m[1], m[3]) for m in cell_metrics]))
        neighbors = [np.array([m[2] for m in metrics[index[j]]])
                     for j in cell.neighbor_ids]
        features = (np.stack(neighbors).mean(axis=0) if neighbors
                    else np.zeros(cell.n_slices))
        states.append(np.concatenate([
            tp / cell.max_throughput_target, load, ues / cell.max_ues_per_slice,
            features]))
    return np.stack(states)


def _same_bits(array, reference):
    reference = np.asarray(reference, dtype=array.dtype)
    return array.shape == reference.shape and array.tobytes() == reference.tobytes()


def _check_state(state, metrics):
    columns = [np.array([[m[f] for m in cell] for cell in metrics]) for f in range(4)]
    for name, column in zip(env.METRICS, columns):
        assert _same_bits(getattr(state, name), column), name


def _check_next_traffic(scenario, state, t, rng):
    """``state`` holds the reference traffic of step t, drawn from ``rng``
    (not advanced), and the generator state after the draw of the traffic
    block that holds step t."""

    after = copy.deepcopy(rng)
    ues, demands = (np.stack(column) for column in
                    zip(*_ref_traffic(scenario, t, after)))
    assert _same_bits(state.next_ues, ues)
    assert _same_bits(state.next_demands, demands)
    for later in range(t + 1, (t // env.TRAFFIC_BLOCK + 1) * env.TRAFFIC_BLOCK):
        _ref_traffic(scenario, later, after)
    assert state.rng_state == after.bit_generator.state


_positive = st.floats(0.1, 50.0, allow_nan=False)
_zero_or = lambda strategy: st.one_of(st.just(0.0), strategy)  # noqa: E731


@st.composite
def _scenarios(draw):
    k = draw(st.integers(1, 5))  # at most 4 neighbours per cell
    n = draw(st.integers(1, 5))
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if draw(st.booleans())]
    cells = []
    for i in range(k):
        neighbors = draw(st.permutations(
            [j for a, b in edges for j in (a, b) if i in (a, b) and j != i]))
        cells.append(env.CellConfig(
            cell_id=10 + i,
            bandwidth=draw(_positive),
            requirements=tuple(env.SliceRequirement(draw(_positive), draw(_positive))
                               for _ in range(n)),
            neighbor_ids=tuple(10 + j for j in neighbors),
            max_ues_per_slice=draw(st.integers(1, 12)),
            base_snr_db=draw(st.floats(-5.0, 25.0)),
            interference_gains=tuple(draw(_zero_or(st.floats(0.01, 3.0)))
                                     for _ in neighbors),
            ue_rates=tuple(draw(_zero_or(st.floats(0.01, 6.0))) for _ in range(n)),
            masks=tuple(env.TrafficMaskParams(
                period=draw(st.integers(1, 200)),
                amplitude=draw(st.floats(0.0, 1.0)),
                offset=draw(st.floats(-0.2, 1.2)),
                phase=draw(st.floats(0.0, 2 * math.pi)),
                noise_std=draw(_zero_or(st.floats(0.001, 0.5))),
            ) for _ in range(n)),
        ))
    d_min = draw(st.floats(0.1, 2.0))
    delay = env.DelayModel(d_min=d_min, d_max=d_min + draw(st.floats(0.0, 30.0)),
                           epsilon=draw(st.floats(0.01, 0.5)))
    return env.ScenarioConfig(cells=tuple(cells), delay=delay)


@st.composite
def _shares(draw, k, n):
    """Share rows with exact zeros, one-hot rows and the equal split."""

    rows = []
    for _ in range(k):
        weights = np.array([draw(_zero_or(st.floats(0.01, 1.0))) for _ in range(n)])
        if weights.sum() == 0:
            weights[draw(st.integers(0, n - 1))] = 1.0
        rows.append(weights / weights.sum())
    return np.stack(rows)


def _check_slot_path(scenario, seed, share_rows):
    """Step the array path under each (K, N) share matrix of ``share_rows``
    and compare every state, reward and assembled state with the reference."""

    k, n = scenario.n_cells, scenario.n_slices
    rng = np.random.default_rng(seed)
    equal = np.full((k, n), 1.0 / n)
    metrics, _ = _ref_slot(scenario, 0, rng, equal, [[0.0] * n] * k)
    state = env.init_network(scenario, seed)
    _check_state(state, metrics)
    _check_next_traffic(scenario, state, 1, rng)
    assert _same_bits(assemble_all_states(scenario, state),
                      _ref_states(scenario, metrics))
    for t, shares in enumerate(share_rows, start=1):
        peek_rng = copy.deepcopy(rng)
        peeked = np.stack([d for _, d in _ref_traffic(scenario, t, peek_rng)])
        assert _same_bits(env.peek_demands(state), peeked)
        assert _same_bits(env.baseline_shares(peeked), np.stack(
            [peeked[i] / peeked[i].sum() if peeked[i].sum() > 0 else np.full(n, 1.0 / n)
             for i in range(k)]))
        prev = [[m[2] for m in cell] for cell in metrics]
        metrics, rewards = _ref_slot(scenario, t, rng, shares, prev)
        state, got = env.step(state, shares, scenario)
        _check_state(state, metrics)
        assert _same_bits(got, rewards)
        assert state.step == t
        _check_next_traffic(scenario, state, t + 1, rng)
        assert _same_bits(assemble_all_states(scenario, state),
                          _ref_states(scenario, metrics))


@settings(max_examples=80, deadline=None)
@given(scenario=_scenarios(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_array_slot_path_matches_per_cell_reference(scenario, seed, data):
    k, n = scenario.n_cells, scenario.n_slices
    _check_slot_path(scenario, seed,
                     data.draw(st.lists(_shares(k, n), min_size=1, max_size=4)))


def test_a_mask_at_negative_zero_gives_unsigned_zero_traffic():
    """A mask whose value is -0.0 clamps to +0.0, as the reference's
    ``max(0.0, value)`` does: no UE count, demand or metric carries the sign
    bit, so ``metrics.csv`` never writes ``-0.0``."""

    scenario = env.ScenarioConfig(cells=(env.CellConfig(
        cell_id=1, bandwidth=1.0, requirements=(env.SliceRequirement(1.0, 1.0),),
        max_ues_per_slice=1, base_snr_db=0.0, ue_rates=(0.0,),
        masks=(env.TrafficMaskParams(period=1, amplitude=0.0, offset=-0.0),)),))
    state = env.init_network(scenario, 0)
    for name in ("next_ues", "next_demands"):
        assert not np.signbit(getattr(state, name)).any(), name
    state, _ = env.step(state, np.ones((1, 1)), scenario)
    for name in ("throughput", "ues", "next_ues", "next_demands"):
        assert not np.signbit(getattr(state, name)).any(), name
    _check_slot_path(scenario, 0, [np.ones((1, 1))])


def test_a_negative_zero_ue_rate_gives_unsigned_zero_demands(tmp_path):
    """A UE rate of -0.0 passes the >= 0 check and is stored as +0.0: no
    demand, metric or reward carries the sign bit, so ``metrics.csv`` never
    writes ``-0.0``."""

    scenario = env.ScenarioConfig(cells=(env.CellConfig(
        cell_id=1, bandwidth=1.0, requirements=(env.SliceRequirement(1.0, 1.0),),
        max_ues_per_slice=2, base_snr_db=0.0, ue_rates=(-0.0,),
        masks=(env.TrafficMaskParams(period=1, amplitude=0.0, offset=0.5),)),))
    state = env.init_network(scenario, 0)
    assert not np.signbit(state.next_demands).any()
    state, rewards = env.step(state, np.ones((1, 1)), scenario)
    for name in ("throughput", "load", "next_demands"):
        assert not np.signbit(getattr(state, name)).any(), name
    assert not np.signbit(rewards).any()
    log = rollout(scenario, lambda t, net_state, states: np.ones((1, 1)), 3, 0)
    write_metrics_csv(tmp_path / "metrics.csv", [log])
    assert "-0.0" not in (tmp_path / "metrics.csv").read_text()


def _graph_scenario(k, edges, noisy):
    """K cells of three slices on an undirected graph; each cell lists its
    neighbours in descending order, and ``noisy(i, n)`` says which masks
    draw noise."""

    cells = []
    for i in range(k):
        neighbors = sorted((j for a, b in edges for j in (a, b) if i in (a, b) and j != i),
                           reverse=True)
        cells.append(env.CellConfig(
            cell_id=20 + i,
            bandwidth=5.0 + i,
            requirements=tuple(env.SliceRequirement(1.0 + n, 0.5 + n) for n in range(3)),
            neighbor_ids=tuple(20 + j for j in neighbors),
            max_ues_per_slice=6 + i,
            base_snr_db=8.0 + 2.0 * i,
            interference_gains=tuple(0.4 + 0.3 * j + 0.1 * i for j in neighbors),
            ue_rates=(0.0, 1.5, 2.5 + i),
            masks=tuple(env.TrafficMaskParams(
                period=30 + 7 * n, amplitude=0.5, offset=0.6, phase=1.3 * i + n,
                noise_std=0.2 if noisy(i, n) else 0.0) for n in range(3)),
        ))
    return env.ScenarioConfig(cells=tuple(cells))


# Degrees 1, 3, 1, 2, 1 and 0: four neighbour groups; some masks noisy.
MIXED_DEGREE = _graph_scenario(6, [(0, 1), (1, 2), (1, 3), (3, 4)],
                               lambda i, n: (i + n) % 2 == 0)


@pytest.mark.parametrize("scenario, one_group", [
    # One cell with no neighbours: one group of degree 0, no noise.
    (_graph_scenario(1, [], lambda i, n: False), True),
    # A ring: every cell has two neighbours, so one group covers all cells;
    # every mask is noisy.
    (_graph_scenario(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], lambda i, n: True),
     True),
    # Four groups scattered into place; noisy and quiet masks.
    (MIXED_DEGREE, False),
], ids=["lone-cell", "ring", "mixed-degree"])
def test_array_slot_path_matches_reference_on_fixed_graphs(scenario, one_group):
    """Both neighbour paths, the single group and the scatter, on every run,
    past two traffic-block boundaries; the first slot starves one slice
    that has demand."""

    assert (len(scenario.arrays.neighbor_groups) == 1) == one_group
    k, n = scenario.n_cells, scenario.n_slices
    rng = np.random.default_rng(3)
    share_rows = []
    for t in range(2 * env.TRAFFIC_BLOCK + 3):
        weights = rng.uniform(0.0, 1.0, (k, n))
        weights[:, 2] = np.maximum(weights[:, 2], 0.1)  # rows never all zero
        if t == 0:
            weights[:, 1] = 0.0  # slice 1 (rate 1.5) has demand wherever it has users
        share_rows.append(weights / weights.sum(axis=1, keepdims=True))
    _check_slot_path(scenario, 11, share_rows)


def test_interleaved_networks_step_as_if_alone():
    """``step`` draws from one scratch generator: two networks stepped in
    turn, past a traffic-block boundary, each see the states (RNG state
    included), rewards and next-slot traffic they see when stepped alone."""

    runs = ((smoke_scenario(), 5), (full_scenario(), 6))

    def step_baseline(state, scenario):
        return env.step(state, env.baseline_shares(env.peek_demands(state)), scenario)

    alone = []
    for scenario, seed in runs:
        state, slots = env.init_network(scenario, seed), []
        for _ in range(70):
            state, rewards = step_baseline(state, scenario)
            slots.append((state, rewards))
        alone.append(slots)
    states = [env.init_network(scenario, seed) for scenario, seed in runs]
    for t in range(70):
        for i, (scenario, _) in enumerate(runs):
            states[i], rewards = step_baseline(states[i], scenario)
            want, want_rewards = alone[i][t]
            assert states[i] == want  # rng_state and the next slot's traffic too
            assert _same_bits(states[i].next_demands, want.next_demands)
            assert _same_bits(rewards, want_rewards)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_interference_rows_match_np_dot(d, seed):
    """Each row is reduced like the per-cell ``np.dot`` of the gains with the
    capped loads (loads below 1, where a product rounds)."""

    rng = np.random.default_rng(seed)
    gains, loads = rng.uniform(0.0, 3.0, (40, d)), rng.uniform(0.0, 1.2, (40, d))
    expected = [float(np.dot(g, np.minimum(1.0, l))) for g, l in zip(gains, loads)]
    assert _same_bits(env.interference(gains, loads), expected)


def test_efficiency_rounds_like_math_log2():
    """``np.log2`` rounds a few of these inputs differently."""

    rng = np.random.default_rng(12)
    snr = 10.0 ** (rng.uniform(-0.5, 2.5, 200_000))
    inter = rng.uniform(0.0, 4.0, 200_000)
    expected = [math.log2(1.0 + s / (1.0 + i))
                for s, i in zip(snr.tolist(), inter.tolist())]
    assert _same_bits(env.efficiency(snr, inter), expected)


@pytest.mark.parametrize("corrupt", [
    lambda a: a[:, :-1],  # too few slices
    lambda a: a[:-1],  # too few cells
    lambda a: a[0],  # one row only
    lambda a: np.where(np.arange(a.size).reshape(a.shape) == 5, np.nan, a),
    lambda a: np.where(np.arange(a.size).reshape(a.shape) == 2, np.inf, a),
    lambda a: a + np.array([0.3, -0.3, 0.0, 0.0]),  # negative entries, sums kept
    lambda a: a * (1.0 + 1e-6),  # rows off the simplex
    lambda a: [["a"] * 4] * 3,  # not numbers
])
def test_step_rejects_malformed_share_matrices(corrupt):
    scenario = smoke_scenario()
    state = env.init_network(scenario, seed=0)
    shares = np.full((3, 4), 0.25)
    shares[1] = [0.05, 0.15, 0.3, 0.5]
    with pytest.raises(ActionError):
        env.step(state, corrupt(shares), scenario)
