"""Closed-tour planners over message reception disks."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from collectsim import tspn
from collectsim.commmodel import _RANGE_SLACK, in_range, reception_point
from collectsim.core import (Message, RegionGrid, build_grid, distance,
                             uniform_point)
from collectsim.tspn import (Tour, TourStop, grid_cover_tour, nn_tspn_tour,
                             plan_tour, tour_cap, tsp_upper_bound)


def _messages(points: list[tuple[float, float]]) -> list[Message]:
    return [Message(id=i, arrival_time=0.0, location=complex(x, y))
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


# -- tour records -----------------------------------------------------------------


def test_tour_records_are_frozen_values():
    stop = TourStop(complex(1.0, 2.0), (3, 4))
    tour = Tour((stop, TourStop(3j, (5,))), 7.5, 0.5 + 0j, "tspn")
    twin = Tour((TourStop(1.0 + 2.0j, (3, 4)), TourStop(3j, (5,))), 7.5,
                0.5 + 0j, "tspn")
    for record, field in ((stop, "point"), (tour, "total_length")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 0.0)
    assert (stop.point, stop.message_ids) == (1.0 + 2.0j, (3, 4))
    assert (tour.stops[0], tour.total_length, tour.start, tour.method) == (
        stop, 7.5, 0.5 + 0j, "tspn")
    assert tour == twin and hash(tour) == hash(twin)
    assert hash(stop) == hash(twin.stops[0]) and tour.message_ids == (3, 4, 5)
    for record in (stop, tour):
        assert dataclasses.replace(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    assert dataclasses.replace(tour, method="grid_cover") != tour


# -- grid sweep planner -----------------------------------------------------------


def test_grid_cover_empty_batch():
    grid = build_grid(200.0, 2.2)
    tour = grid_cover_tour([], grid, grid.center)
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
    tour = grid_cover_tour(msgs, grid, grid.center)
    assert sorted(tour.message_ids) == list(range(200))
    by_stop = {i: s.point for s in tour.stops for i in s.message_ids}
    for m in msgs:
        assert in_range(by_stop[m.id], m.location, 2.2373941648)
    assert tour.total_length == pytest.approx(_hop_sum(tour), rel=1e-9)


def test_grid_cover_rotation_is_optimal():
    grid = build_grid(200.0, 2.2)
    rng = np.random.default_rng(5)
    msgs = _random_messages(rng, 30, grid.side)
    start = complex(1.0, 12.0)
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
                                location=complex(c.real + jx, c.imag + jy)))
        tour = grid_cover_tour(msgs, grid, grid.center)
        lengths.add(round(tour.total_length, 9))
    assert len(lengths) == 1
    assert lengths.pop() <= tour_cap(grid) + 1e-9


# -- greedy disk planner -------------------------------------------------------------


def test_nn_tour_empty_batch():
    tour = nn_tspn_tour([], 1.0, complex(0, 0))
    assert tour.total_length == 0.0
    assert tour.method == "tspn"


def test_nn_tour_collinear_hand_value():
    # disks of radius 1 around (3,0) and (6,0), starting at the origin:
    # stop at (2,0), stop at (5,0), return -> 2 + 3 + 5 = 10
    msgs = _messages([(3.0, 0.0), (6.0, 0.0)])
    tour = nn_tspn_tour(msgs, 1.0, complex(0.0, 0.0))
    assert tour.total_length == pytest.approx(10.0, rel=1e-12)
    assert [s.point for s in tour.stops] == [complex(2.0, 0.0),
                                             complex(5.0, 0.0)]
    assert tour.message_ids == (0, 1)


def test_nn_tour_serves_batch_from_one_stop():
    # co-located messages share the single boundary stop at (3, 0)
    msgs = _messages([(5.0, 0.0), (5.0, 0.0)])
    tour = nn_tspn_tour(msgs, 2.0, complex(0.0, 0.0))
    assert len(tour.stops) == 1
    assert set(tour.stops[0].message_ids) == {0, 1}
    assert tour.total_length == pytest.approx(6.0, rel=1e-12)


def test_nn_tour_in_range_start_serves_immediately():
    msgs = _messages([(1.0, 0.0)])
    tour = nn_tspn_tour(msgs, 2.0, complex(0.0, 0.0))
    assert len(tour.stops) == 1
    assert tour.stops[0].point == complex(0.0, 0.0)
    assert tour.total_length == 0.0


def test_nn_tour_small_far_disk_takes_one_stop():
    # the plain boundary formula lands just outside this disk; the greedy
    # stop must still serve the message it was aimed at
    msgs = _messages([(50.0, 0.25)])
    tour = nn_tspn_tour(msgs, 0.01, complex(0.0, 49.0))
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
            tour = nn_tspn_tour(msgs, 0.0, complex(side / 2, side / 2))
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
    tour = plan_tour(msgs, grid, 2.2, grid.center)
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
        tour = plan_tour(msgs, grid, 2.2, grid.center)
        cover = grid_cover_tour(msgs, grid, grid.center)
        greedy = nn_tspn_tour(msgs, 2.2, grid.center)
        assert tour.total_length == pytest.approx(
            min(cover.total_length, greedy.total_length), rel=1e-12)
        assert sorted(tour.message_ids) == list(range(n))


def test_plan_tour_empty():
    grid = build_grid(200.0, 2.2)
    tour = plan_tour([], grid, 2.2, grid.center)
    assert tour.method == "empty"
    assert tour.total_length == 0.0


def test_plan_tour_length_capped_even_for_huge_batches():
    grid = build_grid(200.0, 2.2)
    cap = tour_cap(grid)
    rng = np.random.default_rng(4)
    for n in (1000, 10_000):
        msgs = _random_messages(rng, n, grid.side)
        tour = plan_tour(msgs, grid, 2.2, grid.center)
        assert tour.total_length <= cap + 1e-9


# -- float and array planner paths ------------------------------------------------


def _row_loop_two_opt_pass(points: list[complex],
                           start: complex) -> tuple[int, int] | None:
    """The 2-opt move (i, j) as a loop over rows i with one numpy sweep over
    j each: the reference the float and blocked passes must agree with."""
    n = len(points)
    if n < 3:
        return None
    coords = np.empty((n + 2, 2))
    coords[0] = coords[-1] = (start.real, start.imag)
    for i, p in enumerate(points, start=1):
        coords[i] = (p.real, p.imag)
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
        # and so does the range test's metric
        assert ([distance(complex(x, y), 0j)
                 for x, y in zip(dx.tolist(), dy.tolist())]
                == np.hypot(dx, dy).tolist())


def _tour_on_path(monkeypatch, path: str, msgs, radius: float,
                  start: complex) -> Tour:
    size = 10**9 if path == "float" else 0
    monkeypatch.setattr(tspn, "_FLOAT_GREEDY_MAX", size)
    return nn_tspn_tour(msgs, radius, start)


@pytest.mark.parametrize("radius", [0.0, 0.01, 2.24])
def test_float_and_array_paths_plan_the_same_tours(monkeypatch, radius):
    # the small sizes, both sides of the crossover and the top end of
    # sizes up to twice the crossover
    crossover = tspn._FLOAT_GREEDY_MAX
    sizes = [*range(1, 13), *range(crossover - 4, crossover + 5),
             *range(2 * crossover - 4, 2 * crossover + 1)]
    side = math.sqrt(60.0)
    rng = np.random.default_rng(int(radius * 100) + 5)
    for n in sizes:
        msgs = _random_messages(rng, n, side)
        start = uniform_point(rng, side)
        float_tour = _tour_on_path(monkeypatch, "float", msgs, radius, start)
        array_tour = _tour_on_path(monkeypatch, "array", msgs, radius, start)
        assert float_tour == array_tour, n


def test_float_and_array_paths_agree_on_a_small_far_disk(monkeypatch):
    msgs = _messages([(50.0, 0.25)])
    start = complex(0.0, 49.0)
    float_tour = _tour_on_path(monkeypatch, "float", msgs, 0.01, start)
    array_tour = _tour_on_path(monkeypatch, "array", msgs, 0.01, start)
    assert float_tour == array_tour


@pytest.mark.parametrize("path", ["float", "array"])
def test_served_messages_pass_in_range_at_the_threshold(monkeypatch, path):
    # Q lies within one ulp of the slackened radius from S, where math.hypot
    # and the C library's hypot round apart: the planners served Q from S
    # while in_range, then on math.hypot, rejected it
    start = complex(4.643559328992893, 0.9684965013453617)
    far = complex(2.311232943385412, 8.377794889348364)
    radius = 7.7677183890344565
    msgs = _messages([(start.real, start.imag), (far.real, far.imag)])
    size = 10**9 if path == "float" else 0
    monkeypatch.setattr(tspn, "_FLOAT_GREEDY_MAX", size)
    tour = plan_tour(msgs, build_grid(100.0, radius), radius, start)
    assert [(s.point, s.message_ids) for s in tour.stops] == [(start, (0, 1))]
    for stop in tour.stops:
        for mid in stop.message_ids:
            assert in_range(stop.point, msgs[mid].location, radius), mid


@pytest.mark.parametrize("path", ["float", "array"])
def test_stop_points_are_plain_floats(monkeypatch, path):
    rng = np.random.default_rng(8)
    msgs = _random_messages(rng, 2 * tspn._FLOAT_GREEDY_MAX, 7.0)
    tour = _tour_on_path(monkeypatch, path, msgs, 2.24, complex(3.5, 3.5))
    assert len(tour.stops) > 3
    for stop in tour.stops:
        assert type(stop.point) is complex


def _scan_greedy_stops(messages, radius: float, start: complex):
    """The float greedy with a full scan for each stop's message and for the
    messages it serves: the reference its shortcuts must agree with."""
    slack = radius * (1.0 + _RANGE_SLACK)
    ids = [m.id for m in messages]
    zs = [m.location for m in messages]
    here = start
    dist = [abs(z - here) for z in zs]
    length = 0.0
    stops, run = [], []
    while ids:
        cut = max(min(dist) - radius, 0.0)
        k = next(q for q, d in enumerate(dist) if d - radius <= cut)
        point = reception_point(here, zs[k], radius)
        if point is not here:
            length += distance(here, point)
            here = point
            dist = [abs(z - here) for z in zs]
        served = [q for q, d in enumerate(dist) if d <= slack]
        stops.append((here, [ids[q] for q in served]))
        run.append(length)
        for q in reversed(served):
            del ids[q], zs[q], dist[q]
    return stops, run, length + distance(here, start)


def _assert_greedy_is_the_scan(msgs, radius: float, start: complex) -> None:
    assert (_bits(tspn._greedy_stops_float(msgs, radius, start))
            == _bits(_scan_greedy_stops(msgs, radius, start)))


def test_float_greedy_matches_the_full_scan_on_random_batches():
    side = math.sqrt(60.0)
    rng = np.random.default_rng(2027)
    for radius in (0.0, 0.01, 2.24):
        for n in [1, 2, 3, tspn._FLOAT_GREEDY_MAX,
                  *(int(v) for v in rng.integers(1, 97, 12))]:
            for clustered in (False, True):
                if clustered:
                    msgs = _clustered_messages(rng, n, side, radius)
                else:
                    msgs = _random_messages(rng, n, side)
                start = uniform_point(rng, side)
                _assert_greedy_is_the_scan(msgs, radius, start)


def test_float_greedy_matches_the_full_scan_on_constructed_batches():
    u = math.ulp(5.0)
    cases = [
        # duplicate locations, served together, out of the start's reach
        ([(3.0, 4.0), (3.0, 4.0), (-3.0, 4.0), (3.0, 4.0)], 1.0, 0j),
        # duplicates inside the start's disk, the nearest not the first
        ([(1.5, 0.0), (0.5, 0.0), (0.5, 0.0), (9.0, 0.0)], 2.0, 0j),
        # a message exactly at the radius from the start: served there
        ([(6.0, 0.0), (2.0, 0.0), (0.0, -2.0)], 2.0, 0j),
        # several messages in range of one stop, around the first one
        ([(5.0, 0.0), (6.0, 0.5), (6.0, -0.5), (6.5, 0.0), (20.0, 0.0)],
         1.0, 0j),
        # a stop serving one message, then one serving two duplicates: the
        # least distance kept from the pair's stop names a served message
        ([(4.0, 0.0), (4.0, 0.0), (3.5, 0.0), (9.0, 0.0), (0.0, 7.0)],
         1.0, 0j),
        # distances one ulp apart whose excess rounds to the same float:
        # the first of least excess is the farther message, not the nearest
        ([(5.0 + 2 * u, 0.0), (5.0 + u, 0.0)], 1.5 * u, 0j),
        # one ulp apart, excesses apart: the nearest one
        ([(5.0 + u, 0.0), (5.0, 0.0)], 1.5 * u, 0j),
    ]
    for points, radius, start in cases:
        _assert_greedy_is_the_scan(_messages(points), radius, start)
    # the tie case is one: both excesses round to 5.0
    assert (5.0 + 2 * u) - 1.5 * u == (5.0 + u) - 1.5 * u == 5.0
    stops = tspn._greedy_stops_float(_messages(cases[-2][0]), 1.5 * u, 0j)[0]
    assert stops[0][1][0] == 0


def _stop_points(rng, n: int, lattice: bool) -> list[complex]:
    if lattice:
        # many equal gains, so the first-maximum rule decides the move
        k = math.isqrt(n) + 1
        return [complex(i % k, i // k) for i in rng.permutation(n)]
    return [uniform_point(rng, 20.0) for _ in range(n)]


@pytest.mark.parametrize("block", [1, 64, 1000])
def test_blocked_two_opt_matches_the_row_loop(monkeypatch, block):
    monkeypatch.setattr(tspn, "_TWO_OPT_BLOCK", block)
    rng = np.random.default_rng(block)
    start = complex(3.0, 4.0)
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
    start = complex(0.1, 0.2)
    for n in range(3, tspn._FLOAT_TWO_OPT_MAX + 1):
        k = math.isqrt(n) + 1
        for _ in range(40):
            points = [complex(0.3 * (i % k) + 0.1, 0.3 * (i // k) + 0.2)
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
    start = complex(3.0, 4.0)
    for lattice in (False, True):
        points = _stop_points(rng, n, lattice)
        move = _row_loop_two_opt_pass(points, start)
        assert move is not None
        assert tspn._two_opt_move(points, start) == move, lattice


def test_default_blocks_match_the_row_loop():
    n = 600
    assert tspn._TWO_OPT_BLOCK // n < n - 1  # several row blocks
    rng = np.random.default_rng(3)
    points = [uniform_point(rng, 20.0) for _ in range(n)]
    start = complex(10.0, 10.0)
    assert (tspn._two_opt_move_array(points, start)
            == _row_loop_two_opt_pass(points, start))


# -- resumed re-projection, the cover skip and the cycle tables -----------------


def _closed_length(points: list[complex], start: complex) -> float:
    total = 0.0
    prev = start
    for p in points:
        total += distance(prev, p)
        prev = p
    return total + distance(prev, start)


def _full_reproject_tour(msgs, radius: float, start: complex) -> Tour:
    """nn_tspn_tour with every 2-opt round re-projecting the whole reordered
    stop list and summing its length anew: the reference for the resumed
    re-projection and the carried lengths."""
    locate = {m.id: m.location for m in msgs}.__getitem__
    if len(msgs) <= tspn._FLOAT_GREEDY_MAX:
        best, _, _ = tspn._greedy_stops_float(msgs, radius, start)
    else:
        best, _, _ = tspn._greedy_stops_array(msgs, radius, start)
    best_len = _closed_length([p for p, _ in best], start)
    for _ in range(8):
        move = tspn._two_opt_move([p for p, _ in best], start)
        if move is None:
            break
        i, j = move
        order = list(range(len(best)))
        order[i - 1:j] = reversed(order[i - 1:j])
        candidate, prev = [], start
        for point, mids in (best[k] for k in order):
            if len(mids) == 1:
                point = reception_point(prev, locate(mids[0]), radius)
            candidate.append((point, mids))
            prev = point
        cand_len = _closed_length([p for p, _ in candidate], start)
        if cand_len < best_len - 1e-12:
            best, best_len = candidate, cand_len
        else:
            break
    stops = tuple(TourStop(p, tuple(mids)) for p, mids in best)
    return Tour(stops, best_len, start, "tspn")


def _bits(planned) -> tuple:
    """Stops, running lengths and closed length, floats as their exact bits."""
    stops, run, length = planned
    return ([(p.real.hex(), p.imag.hex(), list(mids))
             for p, mids in stops], [v.hex() for v in run], length.hex())


def _assert_fixed_point(planned, msgs, radius: float, start: complex) -> None:
    """Re-projecting the whole greedy tour returns it bit for bit: its stops,
    running lengths and closed length."""
    locate = {m.id: m.location for m in msgs}.__getitem__
    again = tspn._reproject(planned[0], radius, start, locate, 0, [])
    assert _bits(again) == _bits(planned)


@pytest.mark.parametrize("greedy", [tspn._greedy_stops_float,
                                    tspn._greedy_stops_array])
def test_greedy_tour_is_a_fixed_point_of_reprojection(greedy):
    # the first message lies in in_range's slack band around the start: the
    # greedy serves it from the start, and re-projection must not move it
    start = complex(0.0, 0.0)
    msgs = _messages([(1 + 1e-13, 0.0), (5.0, 3.0), (-4.0, 6.0), (7.0, -2.0)])
    planned = greedy(msgs, 1.0, start)
    assert planned[0][0] == (start, [0])
    _assert_fixed_point(planned, msgs, 1.0, start)


def _clustered_messages(rng, n: int, side: float,
                        radius: float) -> list[Message]:
    # clusters of about five, half of each on its center: a stop at the edge
    # of the center's disk serves all of those at once, mid-tour too
    centers = [uniform_point(rng, side) for _ in range(max(1, n // 5))]
    spread = radius / 3.0
    msgs = []
    for i in range(n):
        c = centers[int(rng.integers(len(centers)))]
        dx, dy = rng.uniform(-spread, spread, 2).tolist()
        if rng.random() < 0.5:
            dx = dy = 0.0
        msgs.append(Message(id=i, arrival_time=0.0,
                            location=complex(c.real + dx, c.imag + dy)))
    return msgs


@pytest.mark.parametrize("radius", [0.0, 0.01, 2.24])
def test_resumed_reprojection_matches_the_full_one(monkeypatch, radius):
    firsts = []
    reproject = tspn._reproject

    def recording(stops, radius, start, locate, first, run):
        firsts.append(first)
        return reproject(stops, radius, start, locate, first, run)

    monkeypatch.setattr(tspn, "_reproject", recording)
    side = math.sqrt(60.0)
    rng = np.random.default_rng(int(radius * 100) + 19)
    batched_mid_tour = 0
    for clustered in (False, True):
        for n in [int(v) for v in rng.integers(1, 201, size=8)] + [200]:
            if clustered:
                msgs = _clustered_messages(rng, n, side, radius)
            else:
                msgs = _random_messages(rng, n, side)
            start = uniform_point(rng, side)
            # both greedy paths carry the length that summing anew gives,
            # and re-projection leaves their tours as they are
            for greedy in (tspn._greedy_stops_float, tspn._greedy_stops_array):
                planned = greedy(msgs, radius, start)
                stops, _, length = planned
                assert length.hex() == _closed_length([p for p, _ in stops],
                                                      start).hex()
                _assert_fixed_point(planned, msgs, radius, start)
            tour = nn_tspn_tour(msgs, radius, start)
            want = _full_reproject_tour(msgs, radius, start)
            assert tour == want, (clustered, n)
            assert tour.total_length.hex() == want.total_length.hex()
            batched_mid_tour += any(len(s.message_ids) > 1
                                    for s in tour.stops[1:-1])
    # the check covers resumed rounds and batched stops inside the tour
    assert any(first > 0 for first in firsts)
    assert batched_mid_tour > 0


def _plan_both(msgs, grid, radius: float, start: complex) -> Tour:
    """plan_tour as it was before the cover skip: both tours, the greedy one
    only if strictly shorter."""
    cover = grid_cover_tour(msgs, grid, start)
    greedy = nn_tspn_tour(msgs, radius, start)
    return greedy if greedy.total_length < cover.total_length else cover


def _counting_cover(monkeypatch) -> list[int]:
    calls = []
    cover = tspn.grid_cover_tour

    def counting(*args):
        calls.append(1)
        return cover(*args)

    monkeypatch.setattr(tspn, "grid_cover_tour", counting)
    return calls


def _cover_bounds(msgs, grid, start: complex) -> tuple[float, float]:
    """The two lower bounds on the cover's length: out to the farthest
    nonempty cell center and back, and one cell side per nonempty cell when
    there are two or more."""
    cells = {grid.cell_of(m.location) for m in msgs}
    reach = max(distance(start, grid.cell_center(c)) for c in cells)
    count = len(cells) * grid.cell_side if len(cells) > 1 else 0.0
    return 2.0 * reach, count


def _cover_bound_holds(msgs, grid, radius: float, start: complex) -> bool:
    greedy = nn_tspn_tour(msgs, radius, start)
    return greedy.total_length < (1.0 - 1e-9) * max(
        _cover_bounds(msgs, grid, start))


def test_cover_skip_plans_what_planning_both_does(monkeypatch):
    calls = _counting_cover(monkeypatch)
    rng = np.random.default_rng(1919)
    # skipped by the far bound alone, by the cell-count bound alone, and
    # planned, losing and winning
    seen = {"far": 0, "count": 0, "tspn": 0, "grid_cover": 0}
    for area, radius in ((60.0, 2.24), (200.0, 2.2), (800.0, 2.24)):
        grid = build_grid(area, radius)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            msgs = _random_messages(rng, n, grid.side)
            start = grid.center if rng.random() < 0.5 else uniform_point(
                rng, grid.side)
            skip = _cover_bound_holds(msgs, grid, radius, start)
            calls.clear()
            tour = plan_tour(msgs, grid, radius, start)
            assert len(calls) == (0 if skip else 1), (area, n)
            assert tour == _plan_both(msgs, grid, radius, start), (area, n)
            if not skip:
                seen[tour.method] += 1
                continue
            # the tour is the greedy one: which bound alone rules out the cover
            far, count = (tour.total_length < (1.0 - 1e-9) * bound
                          for bound in _cover_bounds(msgs, grid, start))
            if far != count:
                seen["far" if far else "count"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("area", [60.0, 200.0, 800.0])
def test_cover_is_never_shorter_than_its_bounds(area):
    # radii giving odd and even k on each area
    grids = [build_grid(area, radius) for radius in (1.5, 2.24, 2.6)]
    assert {g.cells_per_side % 2 for g in grids} == {0, 1}
    rng = np.random.default_rng(int(area))
    for grid in grids:
        for n in [2, 3, 200, *(int(v) for v in rng.integers(2, 201, 20))]:
            msgs = _random_messages(rng, n, grid.side)
            for start in (grid.center, uniform_point(rng, grid.side)):
                cover = grid_cover_tour(msgs, grid, start).total_length
                assert cover >= (1 - 1e-9) * max(
                    _cover_bounds(msgs, grid, start)), n


def test_one_message_in_the_start_cell_keeps_the_cover(monkeypatch):
    calls = _counting_cover(monkeypatch)
    grid = build_grid(60.0, 2.24)  # 3 x 3, the start is the middle center
    start = grid.center
    msgs = _messages([(start.real + 0.5, start.imag - 0.25)])
    tour = plan_tour(msgs, grid, 2.24, start)
    assert len(calls) == 1  # a bound of zero cannot rule the cover out
    assert nn_tspn_tour(msgs, 2.24, start).total_length == 0.0
    assert tour.method == "grid_cover" and tour.total_length == 0.0
    assert tour == _plan_both(msgs, grid, 2.24, start)


def test_batch_in_the_farthest_cells_only(monkeypatch):
    calls = _counting_cover(monkeypatch)
    grid = build_grid(60.0, 2.24)
    start = grid.center
    k = grid.cells_per_side
    corners = (0, k - 1, k * (k - 1), k * k - 1)
    far = max(distance(start, grid.cell_center(c)) for c in range(k * k))
    for count in (1, 2, 4):
        points = [grid.cell_center(c) for c in corners[:count]]
        msgs = _messages([(p.real, p.imag) for p in points])
        assert all(distance(start, p) == pytest.approx(far, rel=1e-12)
                   for p in points)
        skip = _cover_bound_holds(msgs, grid, 2.24, start)
        calls.clear()
        tour = plan_tour(msgs, grid, 2.24, start)
        assert len(calls) == (0 if skip else 1), count
        assert tour == _plan_both(msgs, grid, 2.24, start), count
    # one far corner: the greedy tour stops short of it, so the cover loses
    # without being planned, on the far bound; all four: the greedy tour is
    # longer than the far bound but shorter than four cell sides, so the
    # cell-count bound alone skips the cover
    greedy = nn_tspn_tour(msgs, 2.24, start).total_length
    far, count = _cover_bounds(msgs, grid, start)
    assert _cover_bounds(msgs[:1], grid, start)[1] == 0.0
    assert _cover_bound_holds(msgs[:1], grid, 2.24, start)
    assert far < greedy < (1.0 - 1e-9) * count
    assert tour.method == "tspn"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
def test_cycle_tables_are_the_grid_arithmetic(k):
    for origin in (0j, complex(-3.5, 12.25)):
        grid = RegionGrid(origin=origin, side=7.0, cells_per_side=k)
        ranks, centers = tspn._cycle_tables(grid)
        cells = range(grid.num_cells)
        assert ranks == tuple(grid.visit_rank(c) for c in cells)
        assert centers == tuple(grid.cell_center(c) for c in cells)


def test_cycle_table_cache_is_bounded():
    bound = tspn._cycle_tables.cache_info().maxsize
    assert bound == 8
    for k in range(1, 2 * bound + 2):
        tspn._cycle_tables(RegionGrid(0j, 5.0, k))
    assert tspn._cycle_tables.cache_info().currsize == bound


def _render(tour: Tour) -> str:
    stops = ";".join(f"{s.point.real.hex()},{s.point.imag.hex()}:"
                     + ",".join(map(str, s.message_ids)) for s in tour.stops)
    return f"{tour.method} {tour.total_length.hex()} {stops}\n"


# sha256 over _render of the 200 plans of test_planned_tours_are_pinned. A
# planner change that moves a stop, reorders a tour or changes a length bit
# updates it and says why in CHANGES.md; any other change leaves it alone.
PINNED_TOURS_SHA256 = (
    "1ba36361a126a5a6979c56508adbd96711d631c62f6b20834ecd8c78f1c2df68")


def test_planned_tours_are_pinned():
    rng = np.random.default_rng(2019)
    digest = hashlib.sha256()
    for area in (60.0, 800.0):
        grid = build_grid(area, 2.24)
        for i in range(100):
            n = int(rng.integers(1, 121))
            if i % 4 == 3:
                msgs = _clustered_messages(rng, n, grid.side, 2.24)
            else:
                msgs = _random_messages(rng, n, grid.side)
            start = grid.center if i % 2 else uniform_point(rng, grid.side)
            digest.update(_render(plan_tour(msgs, grid, 2.24,
                                            start)).encode())
    assert digest.hexdigest() == PINNED_TOURS_SHA256
