"""End-to-end acceptance checks tying simulated delays to the closed forms.

Each test here covers one numbered item of the project's acceptance
checklist and records a one-line PASS/FAIL verdict that the terminal
summary prints (see conftest). The verdict is recorded *before* the assert
so the summary table is complete even when a criterion fails.

Most tests draw on the session-scoped sweep matrix (see matrixlib), which
runs every shared simulation cell exactly once per session.
"""
from __future__ import annotations

import math

import numpy as np

from collectsim.bounds import (
    excess_cost,
    multi_lb_avg,
    multi_lb_mdm_raw,
    multi_lb_partition_class,
    multi_partitioning_delay,
    partitioning_delay,
    pk_mg1_wait,
    single_collector_lb,
)
from collectsim.commmodel import reception_radius
from collectsim.core import Message, ScenarioConfig, build_grid, uniform_point
from collectsim.engine import Simulation, StopRule
from collectsim.policies import PolicyKind, make_policy
from collectsim.stats import scaling_fit
from collectsim.tspn import nn_tspn_tour, plan_tour, tour_cap, tsp_upper_bound

from matrixlib import (
    DICHOTOMY_LOAD,
    DICHOTOMY_SEEDS,
    MID_LOAD,
    case1_config,
    case2_config,
    find_cells,
    fleet_config,
    record_criterion,
)

GRID = PolicyKind.GRID_PARTITIONING.value
MULTI = PolicyKind.MULTI_PARTITIONING.value
FCFS = PolicyKind.FCFS.value
TSPN = PolicyKind.TSPN_CYCLIC.value


def _one(cells):
    assert len(cells) == 1, f"expected exactly one matching cell, got {cells}"
    return cells[0]


# -- criterion 1: pure-queue reduction --------------------------------------


def test_criterion_01_pure_queue_matches_mg1_wait(sweep_matrix):
    """With the whole region inside the reception disk and a center-parked
    collector, the simulated mean wait must match the M/G/1 mean-wait
    formula within 3% relative and within the pooled 95% CI."""
    rows = []
    ok = True
    for load in (0.3, 0.5, 0.8):
        cell = _one(find_cells(sweep_matrix, scenario="reception_queue",
                               policy=GRID, load=load))
        cfg = cell.config
        radius = reception_radius(cfg.snr_ref, cfg.snr_threshold,
                                  cfg.path_loss)
        # the reduction premise: the reception disk covers the region
        assert radius >= math.sqrt(cfg.area / 2.0)
        expected = pk_mg1_wait(cfg.arrival_rate, cfg.reception_time)
        wait = cell.result.mean_delay - cfg.reception_time
        rel = abs(wait - expected) / expected
        covered = abs(wait - expected) <= cell.result.delay_ci
        stable = cell.result.stability == "stable"
        ok = ok and rel <= 0.03 and covered and stable
        rows.append(f"{load:g}:{rel:.2%}{'' if covered else '(CI-miss)'}")
    detail = ("pure-queue wait vs M/G/1 formula, rel err by load "
              + " ".join(rows) + " (cap 3%, CI-covered)")
    record_criterion(1, ok, detail)
    assert ok, detail


# -- criterion 2: single-collector sweep formula -----------------------------


def test_criterion_02_grid_policy_matches_partitioning_formula(sweep_matrix):
    """Simulated grid-sweep mean delay matches the cell-partitioning delay
    formula within 5% at loads 0.3/0.5/0.7 and within 10% at 0.9."""
    tolerances = {0.3: 0.05, 0.5: 0.05, 0.7: 0.05, 0.9: 0.10}
    rows = []
    ok = True
    for load, tol in tolerances.items():
        cell = _one(find_cells(sweep_matrix, scenario="case2", policy=GRID,
                               load=load, seeds=(11, 12, 13, 14)))
        expected = partitioning_delay(cell.config)
        rel = abs(cell.result.mean_delay - expected) / expected
        stable = cell.result.stability == "stable"
        ok = ok and rel <= tol and stable
        rows.append(f"{load:g}:{rel:.2%}")
    detail = ("grid sweep vs partitioning formula, rel err by load "
              + " ".join(rows) + " (caps 5/5/5/10%)")
    record_criterion(2, ok, detail)
    assert ok, detail


# -- criterion 3: fleet formula + single-collector reduction -----------------


def _completed_records(kind: PolicyKind, config: ScenarioConfig,
                       messages: int):
    sim = Simulation(config, make_policy(kind, config),
                     StopRule(max_messages=messages))
    trace = sim.run()
    return [(m.id, m.arrival_time, m.location, m.reception_start,
             m.departure_time, m.collector)
            for m in trace.completed]


def test_criterion_03_fleet_policy_matches_formula_and_reduces_to_grid(
        sweep_matrix):
    """The four-collector partitioning policy matches its delay formula at
    the single-collector tolerances, and with one collector its trace is
    bit-identical to the single-collector grid-sweep policy."""
    tolerances = {0.3: 0.05, 0.5: 0.05, 0.7: 0.05, 0.9: 0.10}
    rows = []
    ok = True
    for load, tol in tolerances.items():
        cell = _one(find_cells(sweep_matrix, scenario="fleet", policy=MULTI,
                               load=load))
        expected = multi_partitioning_delay(cell.config)
        rel = abs(cell.result.mean_delay - expected) / expected
        stable = cell.result.stability == "stable"
        ok = ok and rel <= tol and stable
        rows.append(f"{load:g}:{rel:.2%}")

    single = fleet_config(MID_LOAD, seed=77, collectors=1)
    multi_trace = _completed_records(PolicyKind.MULTI_PARTITIONING, single,
                                     5000)
    grid_trace = _completed_records(PolicyKind.GRID_PARTITIONING, single,
                                    5000)
    identical = multi_trace == grid_trace and len(multi_trace) == 5000
    ok = ok and identical
    detail = ("fleet policy vs formula, rel err by load " + " ".join(rows)
              + f"; one-collector trace identical: {identical}")
    record_criterion(3, ok, detail)
    assert ok, detail


# -- criterion 4: bound dominance --------------------------------------------


def test_criterion_04_no_stable_run_beats_its_lower_bound(sweep_matrix):
    """Every stable cell's pooled mean delay must sit at or above the
    applicable analytic floor, with the CI half-width as margin."""
    violations = []
    checked = 0
    for cell in sweep_matrix:
        if cell.result.stability != "stable":
            continue
        checked += 1
        if cell.result.mean_delay + cell.result.delay_ci < cell.delay_bound:
            violations.append(
                f"{cell.scenario}/{cell.policy}@{cell.load:g}: "
                f"{cell.result.mean_delay:.4g}+{cell.result.delay_ci:.2g}"
                f" < {cell.delay_bound:.4g}")
    ok = not violations and checked >= 15
    detail = (f"{len(violations)} bound violations across {checked} stable "
              f"cells" + (f": {'; '.join(violations)}" if violations else ""))
    record_criterion(4, ok, detail)
    assert ok, detail


# -- criterion 5: stability dichotomy ----------------------------------------


def test_criterion_05_stability_dichotomy_at_high_load(sweep_matrix):
    """At load 0.95 the oldest-first policy diverges while both cyclic
    policies stay stable, for every one of the five seeds."""
    outcomes = {}
    for policy, want in ((FCFS, "diverged"), (GRID, "stable"),
                         (TSPN, "stable")):
        cell = _one(find_cells(sweep_matrix, scenario="case2", policy=policy,
                               load=DICHOTOMY_LOAD, seeds=DICHOTOMY_SEEDS))
        hits = sum(v == want for v in cell.verdicts)
        outcomes[policy] = (hits, len(cell.verdicts), want)
    ok = all(hits == total for hits, total, _ in outcomes.values())
    detail = "; ".join(f"{p}: {h}/{t} {w}"
                       for p, (h, t, w) in outcomes.items())
    record_criterion(5, ok, f"at load {DICHOTOMY_LOAD:g}: {detail}")
    assert ok, detail


# -- criterion 6: scaling exponent -------------------------------------------


def test_criterion_06_delay_scaling_exponent(sweep_matrix):
    """Grid-sweep delay grows like 1/(1-rho): the fitted exponent of
    (delay - s) against 1/(1-rho) stays near 1, and the fit flags a
    synthetic quadratic control as near 2."""
    loads = (0.6, 0.7, 0.8, 0.9, 0.95)
    points = []
    s = math.nan
    for load in loads:
        cell = _one(find_cells(sweep_matrix, scenario="case2", policy=GRID,
                               load=load, seeds=(11, 12, 13, 14)))
        points.append((load, cell.result.mean_delay))
        s = cell.config.reception_time
    fit = scaling_fit(points, s)
    control = [(load, s + 0.7 / (1.0 - load) ** 2) for load in loads]
    control_fit = scaling_fit(control, s)
    ok = 0.85 <= fit.slope <= 1.25 and 1.8 <= control_fit.slope <= 2.2
    detail = (f"grid-sweep exponent {fit.slope:.3f} in [0.85, 1.25]; "
              f"quadratic control {control_fit.slope:.3f} in [1.8, 2.2]")
    record_criterion(6, ok, detail)
    assert ok, detail


# -- criterion 7: tour-length caps -------------------------------------------


def _uniform_messages(rng, count: int, side: float):
    return [Message(id=i, arrival_time=0.0, location=uniform_point(rng, side))
            for i in range(count)]


def test_criterion_07_tour_lengths_respect_caps():
    """plan_tour never exceeds the grid-cycle cap on random batches of up
    to 1e4 messages, and the greedy disk tour at radius zero respects the
    classic sqrt(2*A*N) + 1.75*sqrt(A) square-region TSP cap."""
    area = 200.0
    side = math.sqrt(area)
    radius = 2.2
    grid = build_grid(area, radius)
    cap = tour_cap(grid)
    rng = np.random.default_rng(7007)
    sizes = [int(n) for n in rng.integers(1, 3001, size=92)]
    sizes += [5000, 5000, 8000, 8000, 10_000, 10_000, 10_000, 10_000]
    worst_plan = 0.0
    for count in sizes:
        tour = plan_tour(_uniform_messages(rng, count, side), grid, radius)
        worst_plan = max(worst_plan, tour.total_length / cap)
    plan_ok = worst_plan <= 1.0 + 1e-9

    worst_tsp = 0.0
    start = grid.center
    for count in (10, 100, 1000):
        bound = tsp_upper_bound(count, area)
        for seed in range(20):
            msgs = _uniform_messages(np.random.default_rng(9100 + seed),
                                     count, side)
            tour = nn_tspn_tour(msgs, 0.0, start)
            worst_tsp = max(worst_tsp, tour.total_length / bound)
    tsp_ok = worst_tsp <= 1.0
    ok = plan_ok and tsp_ok
    detail = (f"worst planned-tour/cap {worst_plan:.3f} over "
              f"{len(sizes)} instances; worst zero-radius tour/TSP-cap "
              f"{worst_tsp:.3f} over 60 instances")
    record_criterion(7, ok, detail)
    assert ok, detail


# -- criterion 8: Little's-law audit ------------------------------------------


def test_criterion_08_littles_law_audit(sweep_matrix):
    """Mean occupancy and arrival_rate * mean delay must agree within the
    joint CI on at least 95% of stable cells."""
    passed = 0
    failed = []
    for cell in sweep_matrix:
        res = cell.result
        if res.stability != "stable":
            continue
        gap = abs(res.mean_occupancy - res.arrival_rate * res.mean_delay)
        joint = res.occupancy_ci + res.arrival_rate * res.delay_ci
        if gap <= joint:
            passed += 1
        else:
            failed.append(f"{cell.scenario}/{cell.policy}@{cell.load:g}: "
                          f"gap {gap:.3g} > CI {joint:.3g}")
    total = passed + len(failed)
    ok = total >= 15 and passed >= 0.95 * total
    detail = (f"{passed}/{total} stable cells within joint CI"
              + (f"; outliers: {'; '.join(failed)}" if failed else ""))
    record_criterion(8, ok, detail)
    assert ok, detail


# -- criterion 9: formula spot checks -----------------------------------------


def test_criterion_09_radius_captions_bound_identity_convexity():
    """Reception radii reproduce the three reference values to two
    significant digits; the averaged fleet bound is exactly the mean of its
    two ingredients on random configs; the excess-travel cost helper is
    convex on random triples."""
    captions = {17.0: 2.2, 30.0: 4.7, 20.0: 2.6}
    radius_rows = []
    radii_ok = True
    for db, caption in captions.items():
        radius = reception_radius(10.0 ** (db / 10.0), 2.0, 4.0)
        # two significant digits, truncated toward zero (all values in
        # [1, 10), so two significant digits means one decimal place)
        truncated = math.floor(radius * 10.0) / 10.0
        radii_ok = radii_ok and truncated == caption
        radius_rows.append(f"{db:g}dB:{radius:.4f}->{truncated:g}")

    rng = np.random.default_rng(424242)
    identity_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 6)) ** 2
        s = float(rng.uniform(0.5, 3.0))
        cfg = ScenarioConfig(
            area=float(rng.uniform(10.0, 900.0)),
            arrival_rate=float(rng.uniform(0.05, 0.95)) * m / s,
            reception_time=s,
            speed=float(rng.uniform(0.5, 20.0)),
            snr_ref=float(rng.uniform(10.0, 2000.0)),
            snr_threshold=2.0,
            path_loss=float(rng.uniform(2.0, 6.0)),
            collectors=m,
            seed=0)
        avg = multi_lb_avg(cfg)
        mean = 0.5 * (multi_lb_mdm_raw(cfg) + multi_lb_partition_class(cfg))
        if not math.isclose(avg, mean, rel_tol=1e-12, abs_tol=1e-12):
            identity_ok = False
            break

    convex_ok = True
    for _ in range(10_000):
        c1, c2 = rng.uniform(0.1, 5.0, size=2)
        xs = np.sort(rng.uniform(0.0, 50.0, size=3))
        if xs[2] - xs[0] < 1e-9:
            continue
        lam = (xs[2] - xs[1]) / (xs[2] - xs[0])
        mid = excess_cost(float(xs[1]), c1, c2)
        chord = (lam * excess_cost(float(xs[0]), c1, c2)
                 + (1.0 - lam) * excess_cost(float(xs[2]), c1, c2))
        if mid > chord + 1e-9 + 1e-12 * abs(chord):
            convex_ok = False
            break

    ok = radii_ok and identity_ok and convex_ok
    detail = ("radii " + " ".join(radius_rows)
              + f"; avg-bound identity on 100 configs: {identity_ok}"
              + f"; excess-cost convexity on 10000 triples: {convex_ok}")
    record_criterion(9, ok, detail)
    assert ok, detail


# -- criterion 10: delay-to-bound ratio bands ---------------------------------


def test_criterion_10_delay_to_bound_ratio_bands():
    """The closed-form policy-delay-to-lower-bound ratios must land in
    coarse target bands. The fleet-scenario clause (band [5, 9] at mid
    load) is arithmetically unattainable: the pinned formulas give about
    10.5 there, so this test is EXPECTED TO FAIL on that clause. It asserts
    the band as stated rather than widening it; the assertion message
    carries all three computed ratios."""
    fleet = fleet_config(MID_LOAD, seed=0)
    fleet_ratio = multi_partitioning_delay(fleet) / multi_lb_avg(fleet)
    slow = case1_config(MID_LOAD, seed=0)
    slow_ratio = partitioning_delay(slow) / single_collector_lb(slow)
    fast = case2_config(0.95, seed=0)
    fast_ratio = partitioning_delay(fast) / single_collector_lb(fast)
    fleet_ok = 5.0 <= fleet_ratio <= 9.0
    slow_ok = 8.0 <= slow_ratio <= 13.0
    fast_ok = 1.8 <= fast_ratio <= 3.2
    ok = fleet_ok and slow_ok and fast_ok
    detail = (f"fleet mid-load ratio {fleet_ratio:.4g} vs [5, 9] "
              f"({'ok' if fleet_ok else 'OUT'}); travel-dominated mid-load "
              f"{slow_ratio:.4g} vs [8, 13] ({'ok' if slow_ok else 'OUT'}); "
              f"balanced high-load {fast_ratio:.4g} vs [1.8, 3.2] "
              f"({'ok' if fast_ok else 'OUT'})")
    record_criterion(10, ok, detail)
    assert ok, detail
