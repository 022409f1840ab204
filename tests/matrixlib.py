"""Shared scenario builders and the session sweep matrix.

The acceptance tests all draw on one matrix of simulation cells; running it
once per session keeps the suite inside its time budget. Module tests use
the same builders for small one-off runs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from collectsim.bounds import multi_lb_avg, single_collector_lb
from collectsim.cli import run_cells
from collectsim.core import ScenarioConfig
from collectsim.engine import StopRule
from collectsim.policies import PolicyKind
from collectsim.stats import SimResult, TraceStats, pool_stats

# Linear SNR for the 17 dB / 20 dB operating points (decoding threshold 2,
# fourth-power path loss) giving reception radii of about 2.24 and 2.66.
SNR_17DB = 10.0 ** 1.7
SNR_20DB = 10.0 ** 2.0

MID_LOAD = 0.5


def case2_config(load: float, seed: int) -> ScenarioConfig:
    """Balanced travel/reception scenario: 60-area square, fast collector."""
    return ScenarioConfig(
        area=60.0, arrival_rate=load / 2.0, reception_time=2.0, speed=10.0,
        snr_ref=SNR_17DB, snr_threshold=2.0, path_loss=4.0, collectors=1,
        seed=seed)


def case1_config(load: float, seed: int) -> ScenarioConfig:
    """Travel-dominated scenario: 800-area square, slow collector."""
    return ScenarioConfig(
        area=800.0, arrival_rate=load / 2.0, reception_time=2.0, speed=1.0,
        snr_ref=SNR_17DB, snr_threshold=2.0, path_loss=4.0, collectors=1,
        seed=seed)


def fleet_config(load: float, seed: int, collectors: int = 4) -> ScenarioConfig:
    """Four-collector scenario: 500-area square, 20 dB channel."""
    return ScenarioConfig(
        area=500.0, arrival_rate=load * collectors / 2.0, reception_time=2.0,
        speed=1.0, snr_ref=SNR_20DB, snr_threshold=2.0, path_loss=4.0,
        collectors=collectors, seed=seed)


def reception_queue_config(load: float, seed: int) -> ScenarioConfig:
    """Whole region inside the reception disk (radius 4 vs half-diagonal
    sqrt(2)), so a center-parked collector never travels and the system is a
    pure single-server queue with deterministic service."""
    return ScenarioConfig(
        area=4.0, arrival_rate=load, reception_time=1.0, speed=1.0,
        snr_ref=256.0, snr_threshold=1.0, path_loss=4.0, collectors=1,
        seed=seed)


def wide_region_config(load: float, seed: int, reception_time: float = 0.4,
                       speed: float = 1.0) -> ScenarioConfig:
    """200-area square with reception radius exactly 2.2 (slow collector)."""
    return ScenarioConfig(
        area=200.0, arrival_rate=load / reception_time,
        reception_time=reception_time, speed=speed,
        snr_ref=2.0 * 2.2 ** 4, snr_threshold=2.0, path_loss=4.0,
        collectors=1, seed=seed)


@dataclass(frozen=True)
class Cell:
    """One (scenario, policy, load) sweep cell pooled over its seeds."""

    scenario: str
    policy: str
    load: float
    seeds: tuple[int, ...]
    config: ScenarioConfig  # representative config (first seed)
    parts: tuple[TraceStats, ...]  # per-seed summaries, seed order
    result: SimResult

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(p.verdict for p in self.parts)

    @property
    def delay_bound(self) -> float:
        """The applicable analytic delay floor for this cell's scenario."""
        if self.config.collectors == 1:
            return single_collector_lb(self.config)
        return multi_lb_avg(self.config)


# -- the session sweep matrix ------------------------------------------------

RECEPTION_QUEUE_LOADS = {0.3: 30_000, 0.5: 50_000, 0.8: 100_000}
CASE2_SWEEP_LOADS = (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
FLEET_LOADS = (0.3, 0.5, 0.7, 0.9)
FCFS_LOADS = (0.3, 0.5, 0.8)
DICHOTOMY_LOAD = 0.95
DICHOTOMY_SEEDS = (31, 32, 33, 34, 35)
WARMUP = 0.2

_GRID = PolicyKind.GRID_PARTITIONING
_FCFS = PolicyKind.FCFS
_TSPN = PolicyKind.TSPN_CYCLIC

# (scenario, builder, kind, loads, seeds, message budget, divergence
# threshold or None for the engine default); one cell per load, in order
MATRIX = (
    *(("reception_queue", reception_queue_config, _GRID, (load,),
       (1, 2, 3, 4, 5), budget, None)
      for load, budget in RECEPTION_QUEUE_LOADS.items()),
    ("case2", case2_config, _GRID, CASE2_SWEEP_LOADS, (11, 12, 13, 14),
     25_000, None),
    ("fleet", fleet_config, PolicyKind.MULTI_PARTITIONING, FLEET_LOADS,
     (21, 22, 23), 30_000, None),
    *(("case2", case2_config, kind, (load,), (11, 12), 20_000, None)
      for load in FCFS_LOADS for kind in (_FCFS, PolicyKind.FCFS_RETURN)),
    # stability dichotomy at high load: oldest-first diverges, the cyclic
    # policies stay put. The oldest-first drift is ~0.004 messages per time
    # unit, so its threshold crossing needs the full message budget; the
    # tour policy needs long runs for its occupancy slices to settle.
    ("case2", case2_config, _FCFS, (DICHOTOMY_LOAD,), DICHOTOMY_SEEDS,
     200_000, None),
    ("case2", case2_config, _TSPN, (DICHOTOMY_LOAD,), DICHOTOMY_SEEDS,
     200_000, None),
    ("case2", case2_config, _GRID, (DICHOTOMY_LOAD,), DICHOTOMY_SEEDS,
     40_000, None),
    # tour-policy stability example on the wide region; its stable occupancy
    # is travel-dominated (~740), above the queueing-scaled default trigger,
    # so this cell carries an explicit generous threshold.
    ("wide_region", wide_region_config, _TSPN, (0.8,), (41, 42, 43, 44, 45),
     30_000, 5000.0),
)


def build_matrix() -> list[Cell]:
    """Run every sweep cell the acceptance tests share: one job per
    (cell, seed), all through the CLI's ``run_cells`` on every CPU, seed by
    seed, so that a worker's consecutive jobs of one seed replay its arrival
    draws."""
    cells = [(scenario, kind, load, seeds,
              [(builder(load, seed), kind,
                StopRule(max_messages=budget, divergence_threshold=threshold),
                WARMUP) for seed in seeds])
             for scenario, builder, kind, loads, seeds, budget, threshold
             in MATRIX for load in loads]
    flat = [job for *_, jobs in cells for job in jobs]
    order = sorted(range(len(flat)), key=lambda i: flat[i][0].seed)
    by_job = dict(zip(order, run_cells([flat[i] for i in order],
                                       parallel=os.cpu_count() or 1)))
    parts = iter(by_job[i] for i in range(len(flat)))
    out = []
    for scenario, kind, load, seeds, jobs in cells:
        cell_parts = tuple(next(parts) for _ in jobs)
        out.append(Cell(scenario=scenario, policy=kind.value, load=load,
                        seeds=seeds, config=jobs[0][0], parts=cell_parts,
                        result=pool_stats(cell_parts)))
    return out


def find_cells(matrix: list[Cell], scenario: str | None = None,
               policy: str | None = None, load: float | None = None,
               seeds: tuple[int, ...] | None = None) -> list[Cell]:
    out = []
    for cell in matrix:
        if scenario is not None and cell.scenario != scenario:
            continue
        if policy is not None and cell.policy != policy:
            continue
        if load is not None and abs(cell.load - load) > 1e-12:
            continue
        if seeds is not None and cell.seeds != seeds:
            continue
        out.append(cell)
    return out


# -- acceptance-criteria reporting -------------------------------------------

CRITERION_LINES: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    CRITERION_LINES[number] = (passed, detail)
