"""Walk through the multi-cell slicing environment step by step.

Shows how demand follows the sinusoidal traffic masks, how the simplex
partition action maps to per-slice loads and delays, and how a congested
neighbor drags down a cell's spectral efficiency one step later.
"""

import numpy as np

from slicetl import env
from slicetl.env import baseline_shares
from slicetl.scenario import smoke_scenario

scenario = smoke_scenario()
n = scenario.n_slices
print(f"scenario: {scenario.n_cells} cells, {n} slices per cell")
for cell in scenario.cells:
    targets = [(r.throughput_target, r.delay_target) for r in cell.requirements]
    print(f"  cell {cell.cell_id}: targets (Mbit/s, ms) = {targets}")

# --- a few steps under the equal split -----------------------------------
state = env.init_network(scenario, seed=0)
equal = np.full((scenario.n_cells, n), 1.0 / n)  # one share row per cell
print("\nequal split, first 5 steps (per-cell reward = worst slice):")
for t in range(5):
    state, rewards = env.step(state, equal, scenario)
    loads = [round(load, 2) for load in state.total_loads().tolist()]
    print(f"  t={state.step}: rewards {np.round(rewards, 3)}, total loads {loads}")

# --- the traffic-aware proportional baseline ------------------------------
print("\ndemand-proportional baseline over 200 steps:")
state = env.init_network(scenario, seed=0)
totals = np.zeros(scenario.n_cells)
for _ in range(200):
    demands = env.peek_demands(state)  # (cells, slices)
    state, rewards = env.step(state, baseline_shares(demands), scenario)
    totals += rewards
print(f"  mean reward per cell: {np.round(totals / 200, 3)}")

# --- spectral efficiency falls with the neighbors' previous-step load -----
print("\nspectral efficiency of cell 1 vs neighbor load (saturates at 1):")
cell = scenario.cells[0]
gains = np.array([cell.interference_gains])  # one row: cell 1's neighbours
for load in (0.0, 0.25, 0.5, 1.0, 2.5):
    inter = env.interference(gains, np.full(gains.shape, load))
    e = env.efficiency(np.array([cell.snr_linear]), inter)[0]
    print(f"  both neighbors at total load {load:>4}: "
          f"e = {e:.3f} bit/s/Hz -> cell capacity {cell.bandwidth * e:.1f} Mbit/s")
