"""Closed-form delay bounds against hand-computed, frozen and Monte Carlo
oracles."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectsim.bounds import (BoundReport, bound_report, excess_cost,
                               expected_excess_distance, expected_excess_floor,
                               multi_lb_avg, multi_lb_mdm, multi_lb_mdm_raw,
                               multi_lb_partition_class,
                               multi_partitioning_delay, partitioning_delay,
                               pk_mg1_wait, single_collector_lb)
from collectsim.core import ConfigurationError, ScenarioConfig

from matrixlib import case1_config, case2_config, fleet_config

# -- M/D/1 wait ----------------------------------------------------------------


@pytest.mark.parametrize("lam,wait", [
    (0.3, 0.3 / 1.4), (0.5, 0.5), (0.8, 2.0), (0.9, 4.5),
])
def test_pk_wait_unit_service(lam, wait):
    assert pk_mg1_wait(lam, 1.0) == pytest.approx(wait, rel=1e-12)


def test_pk_wait_scales_with_service_squared():
    # lambda*s fixed at 0.5: doubling s doubles the wait
    assert pk_mg1_wait(0.25, 2.0) == pytest.approx(2 * pk_mg1_wait(0.5, 1.0))


def test_pk_wait_saturates():
    assert pk_mg1_wait(1.0, 1.0) == math.inf
    assert pk_mg1_wait(2.0, 1.0) == math.inf


def test_pk_wait_validates():
    with pytest.raises(ConfigurationError):
        pk_mg1_wait(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        pk_mg1_wait(0.5, -1.0)


# -- mean excess distance ------------------------------------------------------


def test_excess_distance_zero_radius_is_mean_center_distance():
    # unit square: E||U - center|| = 0.3825978582...
    assert expected_excess_distance(1.0, 0.0) == pytest.approx(
        0.3825978582, abs=1e-8)
    # scales with the side length
    assert expected_excess_distance(100.0, 0.0) == pytest.approx(
        3.825978582, abs=1e-7)


def test_excess_distance_frozen_values():
    r17 = (10.0 ** 1.7 / 2.0) ** 0.25
    assert expected_excess_distance(1.0, 0.1) == pytest.approx(
        0.2836450558, abs=1e-8)
    assert expected_excess_distance(60.0, r17) == pytest.approx(
        0.9216772452, abs=1e-7)
    assert expected_excess_distance(800.0, r17) == pytest.approx(
        8.5987685219, abs=1e-6)
    assert expected_excess_distance(200.0, 2.2) == pytest.approx(
        3.26650360, abs=1e-6)
    # radius beyond the half side: the disk pokes out through the edges
    assert expected_excess_distance(1.0, 0.6) == pytest.approx(
        0.0017179920508808, rel=1e-9)
    assert expected_excess_distance(50.0, 4.9) == pytest.approx(
        2.68038587919e-05, rel=1e-9)


def test_excess_distance_vanishes_when_disk_covers_square():
    # half-diagonal of a square of area A is sqrt(A/2)
    assert expected_excess_distance(50.0, 5.0) == 0.0
    assert expected_excess_distance(50.0, 5.0 + 1e-9) == 0.0
    # 2% below the covering radius the four corners of the square still
    # poke out of the disk
    assert expected_excess_distance(50.0, 4.9) > 0.0


def test_excess_distance_monte_carlo_agreement():
    rng = np.random.default_rng(12345)
    n = 2_000_000
    for _ in range(10):
        area = float(rng.uniform(1.0, 900.0))
        half_diag = math.sqrt(area / 2.0)
        radius = float(rng.uniform(0.0, 0.9 * half_diag))
        side = math.sqrt(area)
        pts = rng.uniform(0.0, side, size=(n, 2))
        d = np.hypot(pts[:, 0] - side / 2, pts[:, 1] - side / 2)
        excess = np.maximum(0.0, d - radius)
        mc = float(excess.mean())
        se = float(excess.std(ddof=1)) / math.sqrt(n)
        exact = expected_excess_distance(area, radius)
        assert abs(exact - mc) <= 4.0 * se + 1e-9, (area, radius, exact, mc)


def test_excess_distance_validates():
    with pytest.raises(ConfigurationError):
        expected_excess_distance(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        expected_excess_distance(1.0, -0.5)


def test_excess_floor_values_and_clamp():
    assert expected_excess_floor(100.0, 1.0) == pytest.approx(
        0.383 * 10.0 - 1.0)
    assert expected_excess_floor(1.0, 0.5) == 0.0  # clamped
    with pytest.raises(ConfigurationError):
        expected_excess_floor(1.0, -0.1)


@settings(deadline=None, max_examples=20)
@given(area=st.floats(min_value=1.0, max_value=400.0),
       frac=st.floats(min_value=0.0, max_value=0.95))
def test_excess_floor_never_exceeds_true_excess(area, frac):
    # the floor's 0.383 constant is rounded up from the exact mean center
    # distance 0.3825978582, so allow exactly that rounding gap (plus a
    # 2e-6 * sqrt(area) numerical margin) before calling the floor an
    # overshoot
    radius = frac * math.sqrt(area / 2.0)
    rounding_gap = (0.383 - 0.3825978582) * math.sqrt(area)
    assert expected_excess_floor(area, radius) <= (
        expected_excess_distance(area, radius) + rounding_gap
        + 2e-6 * math.sqrt(area))


# -- single-collector bound and sweep formula ----------------------------------

CASE2_TABLE = [
    # load -> (sweep delay, lower bound)
    (0.30, 4.033093, 2.560240),
    (0.50, 5.194691, 3.184335),
    (0.70, 7.905085, 4.640559),
    (0.80, 11.293077, 6.460839),
    (0.90, 21.457055, 11.921677),
    (0.95, 41.785011, 22.843354),
]

CASE1_TABLE = [
    (0.30, 183.582594, 14.712526),
    (0.50, 255.987093, 20.197537),
    (0.70, 424.930922, 32.995895),
    (0.80, 636.110709, 48.993843),
    (0.90, 1269.650071, 96.987685),
]


@pytest.mark.parametrize("load,sweep,lb", CASE2_TABLE)
def test_fast_collector_small_region_formulas(load, sweep, lb):
    cfg = case2_config(load, seed=0)
    assert partitioning_delay(cfg) == pytest.approx(sweep, abs=2e-5)
    assert single_collector_lb(cfg) == pytest.approx(lb, abs=2e-5)


@pytest.mark.parametrize("load,sweep,lb", CASE1_TABLE)
def test_slow_collector_large_region_formulas(load, sweep, lb):
    cfg = case1_config(load, seed=0)
    assert partitioning_delay(cfg) == pytest.approx(sweep, abs=2e-4)
    assert single_collector_lb(cfg) == pytest.approx(lb, abs=2e-4)


def test_single_lb_loose_variant():
    cfg = case2_config(0.95, seed=0)
    loose = single_collector_lb(cfg, loose=True)
    assert loose == pytest.approx(22.458622, abs=2e-5)
    assert loose <= single_collector_lb(cfg)


def test_sweep_delay_reduces_to_queue_when_one_cell_covers_region():
    # radius 4 on a 2x2 square: a single cell, so the collector never moves
    cfg = ScenarioConfig(area=4.0, arrival_rate=0.5, reception_time=1.0,
                         speed=1.0, snr_ref=256.0, snr_threshold=1.0,
                         path_loss=4.0, collectors=1, seed=0)
    assert partitioning_delay(cfg) == pytest.approx(
        pk_mg1_wait(0.5, 1.0) + 1.0, rel=1e-12)
    assert single_collector_lb(cfg) == pytest.approx(
        pk_mg1_wait(0.5, 1.0) + 1.0, rel=1e-9)


def test_bounds_saturate_at_unit_load():
    sat = dataclasses.replace(case2_config(0.5, seed=0), arrival_rate=0.5)
    assert sat.load == 1.0
    assert single_collector_lb(sat) == math.inf
    assert partitioning_delay(sat) == math.inf


@settings(deadline=None, max_examples=30)
@given(area=st.floats(min_value=1.0, max_value=1000.0),
       load=st.floats(min_value=0.05, max_value=0.95),
       speed=st.floats(min_value=0.1, max_value=20.0),
       reception=st.floats(min_value=0.1, max_value=5.0))
def test_lower_bound_never_exceeds_sweep_formula(area, load, speed, reception):
    cfg = ScenarioConfig(area=area, arrival_rate=load / reception,
                         reception_time=reception, speed=speed,
                         snr_ref=10.0 ** 1.7, snr_threshold=2.0,
                         path_loss=4.0, collectors=1, seed=0)
    assert single_collector_lb(cfg) <= partitioning_delay(cfg) * (1 + 1e-9)


def test_bounds_increase_with_load():
    delays = [partitioning_delay(case2_config(rho, 0)) for rho, _, _ in
              CASE2_TABLE]
    lbs = [single_collector_lb(case2_config(rho, 0)) for rho, _, _ in
           CASE2_TABLE]
    assert delays == sorted(delays)
    assert lbs == sorted(lbs)


# -- fleet bounds ---------------------------------------------------------------

FLEET_TABLE = [
    # load -> (sweep delay, raw queue bound, partition-class bound, average)
    (0.25, 24.07288, 1.33333, 4.06143, 2.69738),
    (0.50, 34.67763, None, None, 3.29607),
    (0.90, 161.93459, None, None, 10.48036),
]


@pytest.mark.parametrize("load,sweep,raw,part,avg", FLEET_TABLE)
def test_fleet_formulas(load, sweep, raw, part, avg):
    cfg = fleet_config(load, seed=0, collectors=4)
    assert multi_partitioning_delay(cfg) == pytest.approx(sweep, abs=2e-4)
    assert multi_lb_avg(cfg) == pytest.approx(avg, abs=2e-4)
    if raw is not None:
        assert multi_lb_mdm_raw(cfg) == pytest.approx(raw, abs=2e-4)
    if part is not None:
        assert multi_lb_partition_class(cfg) == pytest.approx(part, abs=2e-4)


def test_mdm_floor_applies_at_light_load():
    cfg = ScenarioConfig(area=4.0, arrival_rate=0.2, reception_time=1.0,
                         speed=1.0, snr_ref=256.0, snr_threshold=1.0,
                         path_loss=4.0, collectors=2, seed=0)
    assert multi_lb_mdm_raw(cfg) == pytest.approx(0.75 + 0.2 / 7.2, rel=1e-12)
    assert multi_lb_mdm_raw(cfg) < cfg.reception_time
    assert multi_lb_mdm(cfg) == cfg.reception_time


def test_mdm_raw_hand_value():
    cfg = ScenarioConfig(area=4.0, arrival_rate=1.0, reception_time=1.0,
                         speed=1.0, snr_ref=256.0, snr_threshold=1.0,
                         path_loss=4.0, collectors=2, seed=0)
    assert multi_lb_mdm_raw(cfg) == pytest.approx(1.0, rel=1e-12)


def test_partition_class_hand_value():
    # area 36*pi with 4 collectors gives a travel floor of exactly
    # (2/3)*3 - r; radius 1 and half load at unit speed make it 1/0.5 + 1
    cfg = ScenarioConfig(area=36.0 * math.pi, arrival_rate=2.0,
                         reception_time=1.0, speed=1.0, snr_ref=2.0,
                         snr_threshold=2.0, path_loss=4.0, collectors=4,
                         seed=0)
    assert multi_lb_partition_class(cfg) == pytest.approx(3.0, rel=1e-12)


def test_partition_class_floor_clamps():
    cfg = ScenarioConfig(area=4.0, arrival_rate=0.5, reception_time=1.0,
                         speed=1.0, snr_ref=256.0, snr_threshold=1.0,
                         path_loss=4.0, collectors=4, seed=0)
    # radius 4 dwarfs (2/3)*sqrt(A/(4*pi)); only the reception time remains
    assert multi_lb_partition_class(cfg) == cfg.reception_time


@settings(deadline=None, max_examples=100)
@given(area=st.floats(min_value=1.0, max_value=2000.0),
       load=st.floats(min_value=0.05, max_value=0.95),
       speed=st.floats(min_value=0.1, max_value=20.0),
       reception=st.floats(min_value=0.1, max_value=5.0),
       collectors=st.integers(min_value=1, max_value=16),
       snr_db=st.floats(min_value=3.0, max_value=30.0))
def test_average_bound_is_mean_of_its_parts(area, load, speed, reception,
                                            collectors, snr_db):
    cfg = ScenarioConfig(area=area,
                         arrival_rate=load * collectors / reception,
                         reception_time=reception, speed=speed,
                         snr_ref=10.0 ** (snr_db / 10.0), snr_threshold=2.0,
                         path_loss=4.0, collectors=collectors, seed=0)
    expected = (multi_lb_mdm_raw(cfg) + multi_lb_partition_class(cfg)) / 2.0
    assert multi_lb_avg(cfg) == pytest.approx(expected, rel=1e-12)


def test_multi_sweep_requires_square_fleet():
    cfg = ScenarioConfig(area=500.0, arrival_rate=1.0, reception_time=2.0,
                         speed=1.0, snr_ref=100.0, snr_threshold=2.0,
                         path_loss=4.0, collectors=3, seed=0)
    with pytest.raises(ConfigurationError):
        multi_partitioning_delay(cfg)


def test_multi_sweep_with_one_collector_matches_single_formula():
    cfg = case2_config(0.5, seed=0)
    assert multi_partitioning_delay(cfg) == pytest.approx(
        partitioning_delay(cfg), rel=1e-12)


def test_fleet_bounds_saturate_at_unit_load():
    sat = dataclasses.replace(fleet_config(0.5, seed=0, collectors=4),
                              arrival_rate=2.0)
    assert sat.load == 1.0
    assert multi_lb_mdm(sat) == math.inf
    assert multi_lb_partition_class(sat) == math.inf
    assert multi_lb_avg(sat) == math.inf
    assert multi_partitioning_delay(sat) == math.inf


# -- cost kernel -----------------------------------------------------------------


def test_excess_cost_values():
    assert excess_cost(4.0, 1.0, 1.0) == pytest.approx(4.0)
    assert excess_cost(0.0, 5.0, 1.0) == 0.0
    assert excess_cost(1.0, 1.0, 2.0) == 0.0  # clamped branch
    with pytest.raises(ConfigurationError):
        excess_cost(-1.0, 1.0, 1.0)


def test_excess_cost_convex_and_increasing():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        c1, c2 = rng.uniform(0.1, 5.0, 2)
        x, y = np.sort(rng.uniform(0.0, 50.0, 2))
        lam = rng.uniform(0.0, 1.0)
        fx = excess_cost(float(x), c1, c2)
        fy = excess_cost(float(y), c1, c2)
        mid = excess_cost(float(lam * x + (1 - lam) * y), c1, c2)
        assert fx <= fy + 1e-12  # non-decreasing
        assert mid <= lam * fx + (1 - lam) * fy + 1e-9  # convex


# -- consolidated report -----------------------------------------------------------


def test_bound_report_fields():
    cfg = case2_config(0.5, seed=0)
    rep = bound_report(cfg)
    assert isinstance(rep, BoundReport)
    assert rep.load == pytest.approx(0.5)
    assert rep.reception_radius == pytest.approx(2.2373941648, abs=1e-9)
    assert rep.pk_wait == pytest.approx(pk_mg1_wait(0.25, 2.0))
    assert rep.single_lb == pytest.approx(3.184335, abs=2e-5)
    assert rep.partitioning_delay == pytest.approx(5.194691, abs=2e-5)
    assert rep.multi_partitioning_delay == pytest.approx(
        rep.partitioning_delay)


def test_bound_report_skips_sweep_for_nonsquare_fleet():
    cfg = ScenarioConfig(area=500.0, arrival_rate=1.0, reception_time=2.0,
                         speed=1.0, snr_ref=100.0, snr_threshold=2.0,
                         path_loss=4.0, collectors=3, seed=0)
    rep = bound_report(cfg)
    assert rep.multi_partitioning_delay is None
    assert rep.multi_lb_avg > 0
