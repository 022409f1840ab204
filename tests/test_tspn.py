"""Closed-tour planners over message reception disks."""
from __future__ import annotations

import math

import numpy as np
import pytest

from collectsim import tspn
from collectsim.commmodel import in_range
from collectsim.core import Message, Point, build_grid, distance, uniform_point
from collectsim.tspn import (Tour, TourStop, grid_cover_tour, nn_tspn_tour,
                             plan_tour, tour_cap, tsp_upper_bound)


def _messages(points: list[tuple[float, float]]) -> list[Message]:
    return [Message(id=i, arrival_time=0.0, location=Point(x, y))
            for i, (x, y) in enumerate(points)]


def _random_messages(rng, n: int, side: float) -> list[Message]:
    return [Message(id=i, arrival_time=0.0,
                    location=uniform_point(rng, side))
            for i in range(n)]


def _hop_sum(tour: Tour) -> float:
    pts = [tour.start] + [s.point for s in tour.stops] + [tour.start]
    return sum(distance(a, b) for a, b in zip(pts, pts[1:]))


# -- worst-case tour length caps ------------------------------------------------


def test_tsp_upper_bound_values():
    assert tsp_upper_bound(0, 200.0) == 0.0
    assert tsp_upper_bound(8, 4.0) == pytest.approx(math.sqrt(64.0) + 3.5)
    assert tsp_upper_bound(100, 200.0) == pytest.approx(
        math.sqrt(2 * 100 * 200.0) + 1.75 * math.sqrt(200.0))
    with pytest.raises(ValueError):
        tsp_upper_bound(-1, 1.0)
    with pytest.raises(ValueError):
        tsp_upper_bound(5, 0.0)


def test_tour_cap_value():
    grid = build_grid(200.0, 2.2)  # 5 x 5 cells of side 2.828427
    assert tour_cap(grid) == pytest.approx(25 * 2.8284271247 + 8.0, abs=1e-6)


def test_tour_cap_single_cell():
    grid = build_grid(4.0, 4.0)
    assert tour_cap(grid) == pytest.approx(grid.cell_side)


# -- grid sweep planner -----------------------------------------------------------


def test_grid_cover_empty_batch():
    grid = build_grid(200.0, 2.2)
    tour = grid_cover_tour([], grid)
    assert tour.stops == ()
    assert tour.total_length == 0.0
    assert tour.start == grid.center
    assert tour.method == "grid_cover"


def test_grid_cover_single_occupied_cell_is_out_and_back():
    grid = build_grid(200.0, 2.2)
    msgs = _messages([(1.0, 1.0), (1.5, 0.5)])  # same corner cell
    start = grid.center
    tour = grid_cover_tour(msgs, grid, start)
    assert len(tour.stops) == 1
    center = grid.cell_center(grid.cell_of(msgs[0].location))
    assert tour.stops[0].point == center
    assert tour.stops[0].message_ids == (0, 1)
    assert tour.total_length == pytest.approx(2.0 * distance(start, center))


def test_grid_cover_serves_everything_from_cell_centers():
    grid = build_grid(60.0, 2.2373941648)
    rng = np.random.default_rng(2)
    msgs = _random_messages(rng, 200, grid.side)
    tour = grid_cover_tour(msgs, grid)
    assert sorted(tour.message_ids) == list(range(200))
    by_stop = {i: s.point for s in tour.stops for i in s.message_ids}
    for m in msgs:
        assert in_range(by_stop[m.id], m.location, 2.2373941648)
    assert tour.total_length == pytest.approx(_hop_sum(tour), rel=1e-9)


def test_grid_cover_rotation_is_optimal():
    grid = build_grid(200.0, 2.2)
    rng = np.random.default_rng(5)
    msgs = _random_messages(rng, 30, grid.side)
    start = Point(1.0, 12.0)
    tour = grid_cover_tour(msgs, grid, start)

    def rank(p):
        return grid.visit_rank(grid.cell_of(p))

    occupied = sorted({rank(m.location) for m in msgs})
    cycle = grid.cycle()
    pts = [grid.cell_center(cycle[i]) for i in occupied]
    m = len(pts)
    seg = [distance(pts[i], pts[(i + 1) % m]) for i in range(m)]
    per = sum(seg)
    best = min(per - seg[j - 1] + distance(start, pts[j])
               + distance(pts[j - 1], start) for j in range(m))
    assert tour.total_length == pytest.approx(best, rel=1e-12)
    # stops stay in cyclic grid order
    idx = [rank(s.point) for s in tour.stops]
    rot = idx.index(min(idx))
    assert idx[rot:] + idx[:rot] == occupied


def test_grid_cover_full_coverage_length_ignores_positions():
    grid = build_grid(200.0, 5.0)  # 2 x 2 cells
    rng = np.random.default_rng(9)
    lengths = set()
    for _ in range(5):
        msgs = []
        for i, cell in enumerate(grid.cycle()):
            c = grid.cell_center(cell)
            jx, jy = rng.uniform(-1.0, 1.0, 2)
            msgs.append(Message(id=i, arrival_time=0.0,
                                location=Point(c.x + jx, c.y + jy)))
        tour = grid_cover_tour(msgs, grid)
        lengths.add(round(tour.total_length, 9))
    assert len(lengths) == 1
    assert lengths.pop() <= tour_cap(grid) + 1e-9


# -- greedy disk planner -------------------------------------------------------------


def test_nn_tour_empty_batch():
    tour = nn_tspn_tour([], 1.0, Point(0, 0))
    assert tour.total_length == 0.0
    assert tour.method == "tspn"


def test_nn_tour_collinear_hand_value():
    # disks of radius 1 around (3,0) and (6,0), starting at the origin:
    # stop at (2,0), stop at (5,0), return -> 2 + 3 + 5 = 10
    msgs = _messages([(3.0, 0.0), (6.0, 0.0)])
    tour = nn_tspn_tour(msgs, 1.0, Point(0.0, 0.0))
    assert tour.total_length == pytest.approx(10.0, rel=1e-12)
    assert [s.point for s in tour.stops] == [Point(2.0, 0.0), Point(5.0, 0.0)]
    assert tour.message_ids == (0, 1)


def test_nn_tour_serves_batch_from_one_stop():
    # co-located messages share the single boundary stop at (3, 0)
    msgs = _messages([(5.0, 0.0), (5.0, 0.0)])
    tour = nn_tspn_tour(msgs, 2.0, Point(0.0, 0.0))
    assert len(tour.stops) == 1
    assert set(tour.stops[0].message_ids) == {0, 1}
    assert tour.total_length == pytest.approx(6.0, rel=1e-12)


def test_nn_tour_in_range_start_serves_immediately():
    msgs = _messages([(1.0, 0.0)])
    tour = nn_tspn_tour(msgs, 2.0, Point(0.0, 0.0))
    assert len(tour.stops) == 1
    assert tour.stops[0].point == Point(0.0, 0.0)
    assert tour.total_length == 0.0


def test_nn_tour_small_far_disk_takes_one_stop():
    # the plain boundary formula lands just outside this disk; the greedy
    # stop must still serve the message it was aimed at
    msgs = _messages([(50.0, 0.25)])
    tour = nn_tspn_tour(msgs, 0.01, Point(0.0, 49.0))
    assert len(tour.stops) == 1
    assert tour.stops[0].message_ids == (0,)
    assert in_range(tour.stops[0].point, msgs[0].location, 0.01)


def test_nn_tour_zero_radius_meets_tsp_bound():
    area = 200.0
    side = math.sqrt(area)
    for n in (10, 100, 1000):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            msgs = _random_messages(rng, n, side)
            tour = nn_tspn_tour(msgs, 0.0, Point(side / 2, side / 2))
            assert sorted(tour.message_ids) == list(range(n))
            assert tour.total_length <= tsp_upper_bound(n, area), (n, seed)


def test_nn_tour_invariants_random():
    rng = np.random.default_rng(77)
    radius = 2.2
    for _ in range(25):
        n = int(rng.integers(1, 60))
        msgs = _random_messages(rng, n, 14.0)
        start = uniform_point(rng, 14.0)
        tour = nn_tspn_tour(msgs, radius, start)
        assert sorted(tour.message_ids) == list(range(n))
        assert tour.start == start
        assert tour.total_length == pytest.approx(_hop_sum(tour), rel=1e-9)
        by_stop = {i: s.point for s in tour.stops for i in s.message_ids}
        for m in msgs:
            assert in_range(by_stop[m.id], m.location, radius)


# -- combined planner -------------------------------------------------------------


def test_plan_tour_prefers_direct_approach_for_one_far_message():
    grid = build_grid(200.0, 2.2)
    msgs = _messages([(13.0, 13.0)])
    tour = plan_tour(msgs, grid, 2.2)
    cell_center = grid.cell_center(grid.cell_of(msgs[0].location))
    d = distance(grid.center, msgs[0].location)
    assert tour.method == "tspn"
    assert tour.total_length == pytest.approx(2.0 * (d - 2.2), rel=1e-9)
    assert tour.total_length < 2.0 * distance(grid.center, cell_center)


def test_plan_tour_never_beats_its_components():
    rng = np.random.default_rng(31)
    grid = build_grid(200.0, 2.2)
    for _ in range(10):
        n = int(rng.integers(1, 400))
        msgs = _random_messages(rng, n, grid.side)
        tour = plan_tour(msgs, grid, 2.2)
        cover = grid_cover_tour(msgs, grid)
        greedy = nn_tspn_tour(msgs, 2.2, grid.center)
        assert tour.total_length == pytest.approx(
            min(cover.total_length, greedy.total_length), rel=1e-12)
        assert sorted(tour.message_ids) == list(range(n))


def test_plan_tour_empty():
    grid = build_grid(200.0, 2.2)
    tour = plan_tour([], grid, 2.2)
    assert tour.method == "empty"
    assert tour.total_length == 0.0


def test_plan_tour_length_capped_even_for_huge_batches():
    grid = build_grid(200.0, 2.2)
    cap = tour_cap(grid)
    rng = np.random.default_rng(4)
    for n in (1000, 10_000):
        msgs = _random_messages(rng, n, grid.side)
        tour = plan_tour(msgs, grid, 2.2)
        assert tour.total_length <= cap + 1e-9


# -- float and array planner paths ------------------------------------------------


def _row_loop_two_opt_pass(points: list[Point],
                           start: Point) -> tuple[int, int] | None:
    """The 2-opt move (i, j) as a loop over rows i with one numpy sweep over
    j each: the reference the float and blocked passes must agree with."""
    n = len(points)
    if n < 3:
        return None
    coords = np.empty((n + 2, 2))
    coords[0] = coords[-1] = (start.x, start.y)
    for i, p in enumerate(points, start=1):
        coords[i] = (p.x, p.y)
    diffs = np.diff(coords, axis=0)
    edge = np.hypot(diffs[:, 0], diffs[:, 1])
    best_gain, best_move = 1e-9, None
    for i in range(1, n):
        js = np.arange(i + 1, n + 1)
        new1 = np.hypot(coords[js, 0] - coords[i - 1, 0],
                        coords[js, 1] - coords[i - 1, 1])
        new2 = np.hypot(coords[js + 1, 0] - coords[i, 0],
                        coords[js + 1, 1] - coords[i, 1])
        gains = edge[i - 1] + edge[js] - new1 - new2
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain, best_move = gains[k], (i, int(js[k]))
    return best_move


def test_float_distance_is_numpys_hypot():
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, 50.0):
        dx, dy = rng.uniform(-scale, scale, (2, 20_000))
        assert ([abs(complex(x, y)) for x, y in zip(dx.tolist(), dy.tolist())]
                == np.hypot(dx, dy).tolist())


def _tour_on_path(monkeypatch, path: str, msgs, radius: float,
                  start: Point) -> Tour:
    size = 10**9 if path == "float" else 0
    monkeypatch.setattr(tspn, "_FLOAT_GREEDY_MAX", size)
    return nn_tspn_tour(msgs, radius, start)


@pytest.mark.parametrize("radius", [0.0, 0.01, 2.24])
def test_float_and_array_paths_plan_the_same_tours(monkeypatch, radius):
    largest = 2 * tspn._FLOAT_GREEDY_MAX
    side = math.sqrt(60.0)
    rng = np.random.default_rng(int(radius * 100) + 5)
    for n in range(1, largest + 1):
        msgs = _random_messages(rng, n, side)
        start = uniform_point(rng, side)
        float_tour = _tour_on_path(monkeypatch, "float", msgs, radius, start)
        array_tour = _tour_on_path(monkeypatch, "array", msgs, radius, start)
        assert float_tour == array_tour, n


def test_float_and_array_paths_agree_on_a_small_far_disk(monkeypatch):
    msgs = _messages([(50.0, 0.25)])
    start = Point(0.0, 49.0)
    float_tour = _tour_on_path(monkeypatch, "float", msgs, 0.01, start)
    array_tour = _tour_on_path(monkeypatch, "array", msgs, 0.01, start)
    assert float_tour == array_tour


@pytest.mark.parametrize("path", ["float", "array"])
def test_stop_points_are_plain_floats(monkeypatch, path):
    rng = np.random.default_rng(8)
    msgs = _random_messages(rng, 2 * tspn._FLOAT_GREEDY_MAX, 7.0)
    tour = _tour_on_path(monkeypatch, path, msgs, 2.24, Point(3.5, 3.5))
    assert len(tour.stops) > 3
    for stop in tour.stops:
        assert type(stop.point.x) is float and type(stop.point.y) is float


def _stop_points(rng, n: int, lattice: bool) -> list[Point]:
    if lattice:
        # many equal gains, so the first-maximum rule decides the move
        k = math.isqrt(n) + 1
        return [Point(float(i % k), float(i // k)) for i in rng.permutation(n)]
    return [uniform_point(rng, 20.0) for _ in range(n)]


@pytest.mark.parametrize("block", [1, 64, 1000])
def test_blocked_two_opt_matches_the_row_loop(monkeypatch, block):
    monkeypatch.setattr(tspn, "_TWO_OPT_BLOCK", block)
    rng = np.random.default_rng(block)
    start = Point(3.0, 4.0)
    for n in range(3, 90, 2):
        for lattice in (False, True):
            points = _stop_points(rng, n, lattice)
            move = _row_loop_two_opt_pass(points, start)
            assert tspn._two_opt_move_array(points, start) == move, n
            # the float pass too, past the sizes it serves
            assert tspn._two_opt_move_float(points, start) == move, n


def test_float_two_opt_rounds_as_numpy_does():
    # on a lattice of spacing 0.3 equal gains differ only by rounding, so a
    # different distance (math.hypot) or summation order picks another move
    rng = np.random.default_rng(5)
    start = Point(0.1, 0.2)
    for n in range(3, tspn._FLOAT_TWO_OPT_MAX + 1):
        k = math.isqrt(n) + 1
        for _ in range(40):
            points = [Point(0.3 * (i % k) + 0.1, 0.3 * (i // k) + 0.2)
                      for i in rng.permutation(n).tolist()]
            assert (tspn._two_opt_move_float(points, start)
                    == _row_loop_two_opt_pass(points, start)), n


@pytest.mark.parametrize("n, unused", [(tspn._FLOAT_TWO_OPT_MAX, "array"),
                                       (tspn._FLOAT_TWO_OPT_MAX + 1, "float")])
def test_two_opt_pass_switches_path_past_the_float_max(monkeypatch, n,
                                                       unused):
    def fail(*args):
        raise AssertionError(f"{unused} pass called at {n} stops")

    monkeypatch.setattr(tspn, f"_two_opt_move_{unused}", fail)
    rng = np.random.default_rng(n)
    start = Point(3.0, 4.0)
    for lattice in (False, True):
        points = _stop_points(rng, n, lattice)
        i, j = _row_loop_two_opt_pass(points, start)
        order = list(range(n))
        order[i - 1:j] = reversed(order[i - 1:j])
        assert tspn._two_opt_pass(points, start) == order, lattice


def test_default_blocks_match_the_row_loop():
    n = 600
    assert tspn._TWO_OPT_BLOCK // n < n - 1  # several row blocks
    rng = np.random.default_rng(3)
    points = [uniform_point(rng, 20.0) for _ in range(n)]
    start = Point(10.0, 10.0)
    assert (tspn._two_opt_move_array(points, start)
            == _row_loop_two_opt_pass(points, start))
