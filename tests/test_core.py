"""Region geometry, scenario validation and the serpentine cell cycle."""
from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectsim.core import (ConfigurationError, Point, RegionGrid,
                             ScenarioConfig, build_grid, distance,
                             uniform_point)

R_17DB = (10.0 ** 1.7 / 2.0) ** 0.25
R_20DB = (10.0 ** 2.0 / 2.0) ** 0.25


# -- points ------------------------------------------------------------------


def test_point_is_frozen():
    p = Point(1.0, 2.0)
    with pytest.raises(AttributeError):
        p.x = 3.0  # type: ignore[misc]
    # its __init__ sets the slots directly; it stays a frozen dataclass
    assert Point(x=1.0, y=2.0) == p == pickle.loads(pickle.dumps(p))
    assert dataclasses.replace(p, y=5.0) == Point(1.0, 5.0)
    assert hash(p) == hash(Point(1.0, 2.0))
    assert repr(p) == "Point(x=1.0, y=2.0)"


def test_distance_euclidean():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(-1, -1), Point(-1, -1)) == 0.0


def test_uniform_point_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = uniform_point(rng, 3.0)
        assert 0.0 <= p.x <= 3.0
        assert 0.0 <= p.y <= 3.0


def test_uniform_point_deterministic():
    a = [uniform_point(np.random.default_rng(5), 2.0) for _ in range(1)][0]
    b = [uniform_point(np.random.default_rng(5), 2.0) for _ in range(1)][0]
    assert a == b


# -- scenario configuration ---------------------------------------------------


def _config(**overrides) -> ScenarioConfig:
    base = dict(area=60.0, arrival_rate=0.25, reception_time=2.0, speed=10.0,
                snr_ref=10.0 ** 1.7, snr_threshold=2.0, path_loss=4.0,
                collectors=1, seed=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_derived_properties():
    cfg = _config()
    assert cfg.side == pytest.approx(math.sqrt(60.0))
    assert cfg.center.x == pytest.approx(cfg.side / 2.0)
    assert cfg.center.y == pytest.approx(cfg.side / 2.0)
    assert cfg.load == pytest.approx(0.25 * 2.0 / 1)


def test_config_load_splits_across_collectors():
    cfg = _config(collectors=4, arrival_rate=1.0)
    assert cfg.load == pytest.approx(1.0 * 2.0 / 4)


@pytest.mark.parametrize("field,value", [
    ("area", 0.0), ("area", -1.0),
    ("arrival_rate", 0.0),
    ("reception_time", 0.0),
    ("speed", 0.0), ("speed", -2.0),
    ("snr_ref", 0.0),
    ("snr_threshold", 0.0),
    ("path_loss", 1.9), ("path_loss", 6.1),
    ("collectors", 0),
    ("seed", -1), ("seed", 1.5),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError):
        _config(**{field: value})


def test_config_names_the_bad_seed():
    with pytest.raises(ConfigurationError, match="got -1"):
        _config(seed=-1)


def test_config_allows_infinite_speed():
    assert math.isinf(_config(speed=math.inf).speed)


# -- grid construction against hand-computed geometry -------------------------

GRID_TABLE = [
    # (area, radius, k, num_cells, cell_side, effective_radius)
    (60.0, R_17DB, 3, 9, 2.581989, 1.825742),
    (800.0, R_17DB, 9, 81, 3.142697, 2.222222),
    (125.0, R_20DB, 3, 9, 3.726780, 2.635231),
    (200.0, 5.0, 2, 4, 7.071068, 5.000000),
    (800.0, 2.2, 10, 100, 2.828427, 2.000000),
    (200.0, 2.2, 5, 25, 2.828427, 2.000000),
]


@pytest.mark.parametrize("area,radius,k,n_s,cell_side,eff", GRID_TABLE)
def test_grid_table(area, radius, k, n_s, cell_side, eff):
    g = build_grid(area, radius)
    assert g.cells_per_side == k
    assert g.num_cells == n_s
    assert g.cell_side == pytest.approx(cell_side, abs=1e-6)
    assert g.effective_radius == pytest.approx(eff, abs=1e-6)


def test_grid_single_cell_region():
    g = build_grid(4.0, 4.0)
    assert g.num_cells == 1
    assert g.closing_edge == 0.0
    assert g.cell_center(g.cycle()[0]) == g.center


def test_grid_cycle_visits_every_cell_once():
    for k in range(1, 11):
        area = float(k * k)  # unit cells when radius = 1/sqrt(2)
        g = build_grid(area, 1.0 / math.sqrt(2.0) + 1e-9)
        assert g.cells_per_side == k
        centers = [g.cell_center(cell) for cell in g.cycle()]
        assert len(centers) == k * k
        assert len(set(centers)) == k * k


def test_grid_cycle_hops_are_one_cell_side():
    for k in range(2, 11):
        g = build_grid(float(k * k), 1.0 / math.sqrt(2.0) + 1e-9)
        centers = [g.cell_center(cell) for cell in g.cycle()]
        hops = [distance(a, b) for a, b in zip(centers, centers[1:])]
        assert all(h == pytest.approx(g.cell_side, rel=1e-12) for h in hops)
        expected_closing = (g.cell_side if k % 2 == 0
                            else (k // 2) * math.sqrt(2.0) * g.cell_side)
        assert g.closing_edge == pytest.approx(expected_closing, rel=1e-12)


# the visit order, written out by hand as (col, row) per step
VISIT_ORDERS = {
    1: [(0, 0)],
    2: [(0, 0), (1, 0), (1, 1), (0, 1)],
    3: [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0),
        (1, 1)],
    4: [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (1, 1), (1, 2),
        (2, 2), (3, 2), (3, 3), (2, 3), (1, 3), (0, 3), (0, 2), (0, 1)],
    5: [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4),
        (4, 4), (4, 3), (4, 2), (4, 1), (4, 0), (3, 0), (2, 0), (1, 0),
        (1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1),
        (2, 2)],
}


@pytest.mark.parametrize("k", sorted(VISIT_ORDERS))
def test_grid_visit_order_small_k(k):
    g = RegionGrid(Point(0.0, 0.0), float(k), k)
    assert [(cell % k, cell // k) for cell in g.cycle()] == VISIT_ORDERS[k]


def test_grid_visit_rank_inverts_cycle_with_unit_hops():
    for k in range(1, 41):
        g = RegionGrid(Point(0.0, 0.0), float(k), k)
        cycle = g.cycle()
        assert sorted(cycle) == list(range(k * k))
        for i, cell in enumerate(cycle):
            assert g.visit_rank(cell) == i
        for a, b in zip(cycle, cycle[1:]):
            assert abs(a % k - b % k) + abs(a // k - b // k) == 1


def test_grid_is_three_numbers():
    g = build_grid(1e4, 0.05)  # 1415 x 1415 cells, nothing built per cell
    assert [f.name for f in dataclasses.fields(RegionGrid)] == [
        "origin", "side", "cells_per_side"]
    assert g.num_cells == 1415 ** 2
    with pytest.raises(AttributeError):
        g.side = 1.0  # type: ignore[misc]


def test_grid_cycle_ends_adjacent_to_start():
    # closing the loop costs one hop for even side counts and the ring-walk
    # diagonal for odd ones
    g4 = build_grid(16.0, 1.0 / math.sqrt(2.0) + 1e-9)
    first, *_, last = g4.cycle()
    assert distance(g4.cell_center(last), g4.cell_center(first)) == (
        pytest.approx(g4.cell_side))
    g5 = build_grid(25.0, 1.0 / math.sqrt(2.0) + 1e-9)
    first, *_, last = g5.cycle()
    assert distance(g5.cell_center(last), g5.cell_center(first)) == (
        pytest.approx(g5.closing_edge))


def test_grid_cell_index_roundtrip():
    g = build_grid(200.0, 2.2)
    for cell in range(g.num_cells):
        assert g.cell_of(g.cell_center(cell)) == cell


def test_grid_cell_index_clamps_outside_points():
    g = build_grid(200.0, 2.2)
    side = g.side
    assert 0 <= g.cell_of(Point(-1.0, -1.0)) < g.num_cells
    assert 0 <= g.cell_of(Point(side + 1.0, side + 1.0)) < g.num_cells


def test_grid_covers_region_within_effective_radius():
    g = build_grid(60.0, R_17DB)
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = uniform_point(rng, g.side)
        c = g.cell_center(g.cell_of(p))
        # half-diagonal of a cell equals the effective radius, so every point
        # of a cell is reachable from the cell center
        assert distance(p, c) <= g.effective_radius * (1 + 1e-9)
        assert abs(p.x - c.x) <= g.cell_side / 2 * (1 + 1e-9)
        assert abs(p.y - c.y) <= g.cell_side / 2 * (1 + 1e-9)


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        build_grid(10.0, 0.0)


@settings(deadline=None, max_examples=60)
@given(area=st.floats(min_value=1.0, max_value=1e4),
       radius=st.floats(min_value=0.05, max_value=50.0))
def test_grid_cell_count_is_minimal_cover(area, radius):
    g = build_grid(area, radius)
    k = g.cells_per_side
    assert k >= 1
    assert k * g.cell_side == pytest.approx(g.side, rel=1e-9)
    # chosen k keeps every cell coverable from its center
    assert g.effective_radius <= radius * (1 + 1e-9)
    # and is the smallest such count
    if k > 1:
        coarser_eff = g.side / (k - 1) / math.sqrt(2.0)
        assert coarser_eff > radius * (1 - 1e-9)
