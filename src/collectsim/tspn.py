"""Closed-tour planning over message reception disks.

A collector serving a batch of messages needs a closed walk from its start
point that enters every message's reception disk. Two planners are provided:
a sweep over the covering grid's nonempty cells (bounded length regardless of
batch size) and a nearest-disk greedy construction polished by 2-opt, which
wins when messages are few or clustered. ``plan_tour`` plans the greedy tour
first and skips the sweep where it is shorter than the larger of two lower
bounds on the sweep: out to the farthest nonempty cell center and back, and
one cell side per nonempty cell when there are two or more. Every 2-opt
round re-projects the stops from its first reversed one on, and the cells'
visit ranks and centers come from tables cached per grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .commmodel import _RANGE_SLACK, reception_point
from .core import RegionGrid


@dataclass(frozen=True, slots=True)
class TourStop:
    """One standing point and the messages received from it."""

    point: complex
    message_ids: tuple[int, ...]

    def __init__(self, point: complex, message_ids: tuple[int, ...]) -> None:
        _set_point(self, point)  # through the slots, as engine.TravelTo
        _set_message_ids(self, message_ids)


@dataclass(frozen=True, slots=True)
class Tour:
    """Closed tour: start -> each stop in order -> back to start."""

    stops: tuple[TourStop, ...]
    total_length: float
    start: complex
    method: str

    def __init__(self, stops, total_length, start, method) -> None:
        _set_stops(self, stops)  # through the slots, as TourStop
        _set_total_length(self, total_length)
        _set_start(self, start)
        _set_method(self, method)

    @property
    def message_ids(self) -> tuple[int, ...]:
        return tuple(i for stop in self.stops for i in stop.message_ids)


(_set_point, _set_message_ids, _set_stops, _set_total_length, _set_start,
 _set_method) = (f.__set__ for f in (TourStop.point, TourStop.message_ids,
                 Tour.stops, Tour.total_length, Tour.start, Tour.method))


def tour_cap(grid: RegionGrid) -> float:
    """Length budget no grid-cover tour exceeds: one cell-side hop per cell
    plus the grid cycle's closing edge."""
    return grid.num_cells * grid.cell_side + grid.closing_edge


def tsp_upper_bound(n: int, area: float) -> float:
    """Worst-case length of an optimal closed tour through n points in a
    square region of the given area."""
    if n < 0:
        raise ValueError(f"point count must be non-negative, got {n}")
    if not area > 0:
        raise ValueError(f"area must be positive, got {area}")
    if n == 0:
        return 0.0
    return math.sqrt(2.0 * n * area) + 1.75 * math.sqrt(area)


@functools.lru_cache(maxsize=8)
def _cycle_tables(grid: RegionGrid) -> tuple[tuple, tuple]:
    """Visit rank and center of each cell by number; 8 grids are kept."""
    cells = range(grid.num_cells)
    return (tuple(map(grid.visit_rank, cells)),
            tuple(map(grid.cell_center, cells)))


# --------------------------------------------------------------------------
# grid sweep planner


def grid_cover_tour(messages: Sequence, grid: RegionGrid,
                    start: complex) -> Tour:
    """Visit the centers of the grid cells that hold messages, in grid cycle
    order, entering the cycle at the rotation that minimizes total length.

    Every message is receivable from its cell center by construction of the
    grid. Within a stop, messages keep their input order.
    """
    buckets: dict[int, list[int]] = {}
    for msg in messages:
        buckets.setdefault(grid.cell_of(msg.location), []).append(msg.id)
    if not buckets:
        return Tour((), 0.0, start, "grid_cover")
    ranks, centers = _cycle_tables(grid)
    order = sorted(buckets, key=ranks.__getitem__)
    pts = [centers[cell] for cell in order]
    m = len(pts)
    seg = [abs(pts[i] - pts[(i + 1) % m]) for i in range(m)]
    perimeter = sum(seg)
    best_j, best_len = 0, math.inf
    for j in range(m):
        # enter at pts[j], leave from pts[j-1]; the cyclic edge between them
        # is the one the start point replaces
        length = (perimeter - seg[j - 1]
                  + abs(start - pts[j]) + abs(pts[j - 1] - start))
        if length < best_len - 1e-12:
            best_j, best_len = j, length
    stops = tuple(
        TourStop(pts[(best_j + i) % m], tuple(buckets[order[(best_j + i) % m]]))
        for i in range(m))
    return Tour(stops, best_len, start, "grid_cover")


# --------------------------------------------------------------------------
# nearest-disk greedy + 2-opt planner


# Batches up to this many messages run the greedy on the points themselves,
# larger ones on numpy coordinate arrays, whose per-call overhead only pays
# off on longer sweeps: on uniform batches at r = 2.24 the float path is the
# faster up to 96 messages at areas 60 and 800, the array path from 112 at
# area 800 (CHANGES.md). Both return the same stops, each where
# reception_point puts it and serving what in_range accepts there: all measure
# with the C library's hypot, which abs() of a complex calls and np.hypot too.
# np.abs of a complex array does not: it differs from np.hypot in the last bit
# on about a third of random pairs (numpy 2.4), so the arrays keep np.hypot.
_FLOAT_GREEDY_MAX = 96
# Stop lists up to this many stops run the 2-opt pass as a double loop over
# the points, longer ones on numpy arrays: 16 is where the two cost the
# same per call, about 50 us on a 2-vCPU Xeon (3 against 22 us at 3 stops).
# Both take the same move, since both measure with the C library's hypot
# (see above).
_FLOAT_TWO_OPT_MAX = 16
# The array pass evaluates its gain matrix in row blocks of at most this many
# entries, so memory stays bounded at any stop count.
_TWO_OPT_BLOCK = 1 << 16
# a planned stop list: each standing point and the ids it serves
_Stops = list[tuple[complex, list[int]]]


def _greedy_stops_float(messages: Sequence, radius: float, start: complex
                        ) -> tuple[_Stops, list[float], float]:
    slack = radius * (1.0 + _RANGE_SLACK)
    ids = [m.id for m in messages]
    zs = [m.location for m in messages]
    here = start
    dist = [abs(z - here) for z in zs]
    least = min(dist, default=math.inf)
    length = 0.0
    stops: _Stops = []
    run: list[float] = []
    while ids:
        # the first message of least excess distance max(d - radius, 0), as
        # np.argmin picks it: the first of least distance, unless the next
        # float up rounds to the same excess. Within the radius any message
        # will do, as reception_point leaves the collector in place for each.
        if least <= radius or (math.nextafter(least, math.inf) - radius
                               > least - radius):
            k = dist.index(least)
        else:
            cut = least - radius
            k = next(q for q, d in enumerate(dist) if d - radius <= cut)
        point = reception_point(here, zs[k], radius)
        if point is not here:
            length += abs(here - point)
            here = point
            dist = [abs(z - here) for z in zs]
        # reception_point leaves k in range; scan for the others only if one
        # is in range too. The least of those left is the next stop's least
        aimed, dist[k] = dist[k], math.inf
        least = min(dist)
        if least > slack:
            served = [k]
        else:
            dist[k] = aimed
            served = [q for q, d in enumerate(dist) if d <= slack]
            least = min([d for d in dist if d > slack], default=math.inf)
        stops.append((here, [ids[q] for q in served]))
        run.append(length)
        # served messages leave the lists, the rest keep their order
        for q in reversed(served):
            del ids[q], zs[q], dist[q]
    return stops, run, length + abs(here - start)


def _greedy_stops_array(messages: Sequence, radius: float, start: complex
                        ) -> tuple[_Stops, list[float], float]:
    import numpy as np
    ids = [m.id for m in messages]
    aims = [m.location for m in messages]
    xs = np.array([z.real for z in aims], dtype=float)
    ys = np.array([z.imag for z in aims], dtype=float)
    slack = radius * (1.0 + _RANGE_SLACK)
    here = start
    # served messages move to x = inf, so every later sweep puts them out of
    # reach; one sweep per stop that moves serves its hits and the next argmin
    dist = np.hypot(xs - here.real, ys - here.imag)
    left = len(ids)
    length = 0.0
    stops: _Stops = []
    run: list[float] = []
    while left:
        j = int(np.argmin(np.maximum(dist - radius, 0.0)))
        point = reception_point(here, aims[j], radius)
        if point is not here:
            length += abs(here - point)
            here = point
            dist = np.hypot(xs - here.real, ys - here.imag)
        served = np.flatnonzero(dist <= slack)
        xs[served] = np.inf
        dist[served] = np.inf
        left -= len(served)
        stops.append((here, [ids[i] for i in served]))
        run.append(length)
    return stops, run, length + abs(here - start)


def _two_opt_move(points: list[complex],
                  start: complex) -> tuple[int, int] | None:
    """One best-improvement 2-opt move (i, j) on the stop order: reverse
    stops i..j. None below 3 stops or if no move improves.

    Reversing stops i..j (1-based, the start is P[0] and P[n+1]) replaces
    edges (i-1, i) and (j, j+1), for a gain of
    (|P[i-1] P[i]| + |P[j] P[j+1]|) - |P[i-1] P[j]| - |P[i] P[j+1]|, summed
    in that order. The move taken is the first of the largest gain in
    row-major (i, j) order, and only a gain above 1e-9 counts. Lists of at
    most _FLOAT_TWO_OPT_MAX stops are scored point by point, longer ones on
    numpy arrays; both take the same move.
    """
    n = len(points)
    if n < 3:
        return None
    if n <= _FLOAT_TWO_OPT_MAX:
        return _two_opt_move_float(points, start)
    return _two_opt_move_array(points, start)


def _two_opt_move_float(points: list[complex],
                        start: complex) -> tuple[int, int] | None:
    n = len(points)
    P = [start, *points, start]
    edge = [abs(b - a) for a, b in zip(P, P[1:])]  # edge[i] = |P[i] P[i+1]|
    best_gain, best_move = 1e-9, None
    for i in range(1, n):
        a, b, ea = P[i - 1], P[i], edge[i - 1]
        for j in range(i + 1, n + 1):
            gain = ea + edge[j] - abs(P[j] - a) - abs(P[j + 1] - b)
            if gain > best_gain:
                best_gain, best_move = gain, (i, j)
    return best_move


def _two_opt_move_array(points: list[complex],
                        start: complex) -> tuple[int, int] | None:
    import numpy as np
    n = len(points)
    closed = np.array([start, *points, start])
    xs, ys = closed.real, closed.imag
    edge = np.hypot(np.diff(xs), np.diff(ys))  # edge[i] = |P[i] P[i+1]|
    rows = max(1, _TWO_OPT_BLOCK // n)
    best_gain, best_move = 1e-9, None
    for lo in range(1, n, rows):
        hi = min(lo + rows, n)
        # dist[a, b] = |P[lo-1+a] P[lo+1+b]|: the new edge (i-1, j) is
        # dist[i-lo, j-lo-1] and the new edge (i, j+1) is dist[i-lo+1, j-lo]
        dx = xs[lo + 1:] - xs[lo - 1:hi, None]
        dist = np.hypot(dx, ys[lo + 1:] - ys[lo - 1:hi, None], out=dx)
        gains = edge[lo - 1:hi - 1, None] + edge[lo + 1:n + 1]
        gains -= dist[:-1, :-1]
        gains -= dist[1:, 1:]
        # row i takes j > i only
        m = hi - lo
        gains[:, :m][_below_diagonal(m)] = -np.inf
        k = int(np.argmax(gains))
        r, c = divmod(k, gains.shape[1])
        if gains[r, c] > best_gain:
            best_gain, best_move = gains[r, c], (lo + r, lo + 1 + c)
    return best_move


@functools.lru_cache(maxsize=32)  # one mask per row count, only read
def _below_diagonal(m: int):
    import numpy as np
    return np.tri(m, k=-1, dtype=bool)


def _reproject(stops: _Stops, radius: float, start: complex, locate,
               first: int, run: list[float]
               ) -> tuple[_Stops, list[float], float]:
    """Pull single-message stops from index ``first`` on toward the previous
    stop (batched stops keep their point, so the batch stays covered); the
    stops before it and their running lengths ``run`` are kept. Returns the
    stops, the running lengths and the closed length, summed left to right."""
    out, run = stops[:first], run[:first]
    prev, total = (out[-1][0], run[-1]) if first else (start, 0.0)
    for point, mids in stops[first:]:
        if len(mids) == 1:
            point = reception_point(prev, locate(mids[0]), radius)
        total += abs(prev - point)
        out.append((point, mids))
        run.append(total)
        prev = point
    return out, run, total + abs(prev - start)


def nn_tspn_tour(messages: Sequence, radius: float, start: complex) -> Tour:
    """Greedy nearest-disk tour through all message reception disks,
    improved by 2-opt reordering with boundary-point re-projection.

    The result is never longer than the plain greedy construction: each
    improvement round is kept only if the re-projected tour got shorter.
    """
    if not messages:
        return Tour((), 0.0, start, "tspn")
    if len(messages) <= _FLOAT_GREEDY_MAX:
        best, run, best_len = _greedy_stops_float(messages, radius, start)
    else:
        best, run, best_len = _greedy_stops_array(messages, radius, start)
    by_id = None  # built at the first move; most short tours make none
    for _ in range(8):
        move = _two_opt_move([p for p, _ in best], start)
        if move is None:
            break
        if by_id is None:
            by_id = {m.id: m.location for m in messages}
        i, j = move
        candidate, cand_run, cand_len = _reproject(
            best[:i - 1] + best[i - 1:j][::-1] + best[j:], radius, start,
            by_id.__getitem__, i - 1, run)
        if cand_len < best_len - 1e-12:
            best, run, best_len = candidate, cand_run, cand_len
        else:
            break
    tour_stops = tuple([TourStop(p, tuple(mids)) for p, mids in best])
    return Tour(tour_stops, best_len, start, "tspn")


def plan_tour(messages: Sequence, grid: RegionGrid, radius: float,
              start: complex) -> Tour:
    """Plan the shorter of the grid sweep and the greedy disk tour, the sweep
    on ties. The sweep is at least twice as long as its farthest cell center
    is from the start, and at least one cell side per cell when it visits two
    or more: distinct centers lie a cell side apart or more, and the two
    edges at the start are together no shorter than the hop they replace. It
    is not planned where the greedy tour is shorter than the larger bound,
    less a 1e-9 relative margin for round-off."""
    if not messages:
        return Tour((), 0.0, start, "empty")
    greedy = nn_tspn_tour(messages, radius, start)
    centers = _cycle_tables(grid)[1]
    cells = {grid.cell_of(m.location) for m in messages}
    bound = 2.0 * max(abs(start - centers[cell]) for cell in cells)
    if len(cells) > 1:
        bound = max(bound, len(cells) * grid.cell_side)
    if greedy.total_length < (1.0 - 1e-9) * bound:
        return greedy
    cover = grid_cover_tour(messages, grid, start)
    return greedy if greedy.total_length < cover.total_length else cover
