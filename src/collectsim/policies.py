"""Collector routing policies, interchangeable over the engine's action
interface.

Every policy works on the whole region, except the grid sweep: it accepts an
optional subregion (origin and area) so the partitioned multi-collector
policy can run one sweep per subregion. Policy objects are one-shot:
``attach`` initializes all mutable state at the start of a run.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

# in_range is not called here; it stays importable as policies.in_range,
# which perfbench/spans.py patches
from .commmodel import in_range, reception_point
from .core import (ConfigurationError, Message, RegionGrid,
                   ScenarioConfig, build_grid, distance, fleet_side)
from .engine import Action, Receive, Simulation, TravelTo, WAIT
from .tspn import plan_tour


class PolicyKind(str, Enum):
    FCFS = "fcfs"
    FCFS_RETURN = "fcfs_return"
    TSPN_CYCLIC = "tspn_cyclic"
    GRID_PARTITIONING = "grid_partitioning"
    MULTI_PARTITIONING = "multi_partitioning"


class Fcfs:
    """Serve messages strictly in arrival order: drive to the oldest
    message's reception point, receive, move on to the next."""

    name = "fcfs"

    def attach(self, sim: Simulation) -> None:
        self.queue: deque[int] = deque()
        self.center = sim.config.center

    def on_arrival(self, sim: Simulation, msg: Message) -> None:
        self.queue.append(msg.id)

    def next_action(self, sim: Simulation, collector_id: int) -> Action:
        if not self.queue:
            return WAIT
        position = sim.collectors[collector_id].position
        point = reception_point(position, sim.messages[self.queue[0]].location,
                                sim.radius)
        # reception_point returns its collector argument itself exactly when
        # in_range holds
        if point is position:
            return Receive(self.queue.popleft())
        return TravelTo(point)


class FcfsReturn(Fcfs):
    """Arrival-order service with a twist: after every reception the
    collector first returns to the region center before the next decision."""

    name = "fcfs_return"

    def attach(self, sim: Simulation) -> None:
        super().attach(sim)
        self._return_due = False
        # one shared action, as WAIT: actions are frozen values
        self._to_center = TravelTo(self.center)

    def next_action(self, sim: Simulation, collector_id: int) -> Action:
        if self._return_due:
            self._return_due = False
            return self._to_center
        action = Fcfs.next_action(self, sim, collector_id)
        self._return_due = isinstance(action, Receive)
        return action


class TspnCyclic:
    """Epoch service from the region center: freeze the pending set, plan
    one closed tour through all of its reception disks, execute it, return
    to the center. Arrivals during a tour wait for the next epoch.

    ``epochs`` logs (start time, frozen message ids, planner, tour length)
    per epoch for inspection.
    """

    name = "tspn_cyclic"

    def attach(self, sim: Simulation) -> None:
        self.grid = build_grid(sim.config.area, sim.radius)
        self.center = self.grid.center
        self.pending: list[int] = []
        self.script: deque[Action] = deque()
        self.epochs: list[tuple[float, tuple[int, ...], str, float]] = []

    def on_arrival(self, sim: Simulation, msg: Message) -> None:
        self.pending.append(msg.id)

    def next_action(self, sim: Simulation, collector_id: int) -> Action:
        if self.script:
            return self.script.popleft()
        if not self.pending:
            return WAIT
        batch = [sim.messages[i] for i in self.pending]
        tour = plan_tour(batch, self.grid, sim.radius, self.center)
        self.epochs.append((sim.time, tuple(self.pending), tour.method,
                            tour.total_length))
        self.pending.clear()
        for stop in tour.stops:
            self.script.append(TravelTo(stop.point))
            for mid in stop.message_ids:
                self.script.append(Receive(mid))
        self.script.append(TravelTo(self.center))
        return self.script.popleft()


class GridPartitioning:
    """Sweep the covering grid's cells in cyclic order, exhausting each
    cell's queue from its center before hopping to the next cell. The
    collector keeps cycling when everything is empty (reservation travel is
    always paid), except that it parks when nothing is queued and a lap
    takes no time: a single cell, or instantaneous motion.

    Empty cells are passed in one leg. No message can arrive before the
    engine's next arrival, so every cell the sweep would reach before that
    time stays empty; the leg runs along the cycle to the first cell that is
    non-empty, or that ends the hop in flight when the next message arrives.
    ``sim.next_arrival_time`` is read only to merge hops the sweep would
    drive anyway: path, timing and service order are those of hop-by-hop
    travel, up to round-off in the summed hop lengths.
    """

    name = "grid_partitioning"

    def __init__(self, collector_id: int = 0, origin: complex = 0j,
                 area: float | None = None) -> None:
        self.collector_id = collector_id
        self.origin = origin
        self.area = area

    def attach(self, sim: Simulation) -> None:
        area = self.area if self.area is not None else sim.config.area
        self.grid = build_grid(area, sim.radius, self.origin)
        # queues are indexed by cell number, stops by visit order
        self.queues = [deque() for _ in range(self.grid.num_cells)]
        self.stops = [(self.grid.cell_center(cell), self.queues[cell])
                      for cell in self.grid.cycle()]
        # hops[i] is the leg from stop i to the next stop in the cycle
        points = [point for point, _ in self.stops]
        self.hops = [distance(a, b)
                     for a, b in zip(points, points[1:] + points[:1])]
        self.lap = sum(self.hops)
        self.queued = 0
        self.cursor = 0
        self.speed = sim.config.speed
        sim.collectors[self.collector_id].position = self.stops[0][0]

    def on_arrival(self, sim: Simulation, msg: Message) -> None:
        self.queues[self.grid.cell_of(msg.location)].append(msg.id)
        self.queued += 1

    def next_action(self, sim: Simulation, collector_id: int) -> Action:
        stops = self.stops
        cursor = self.cursor
        queue = stops[cursor][1]
        if queue:
            self.queued -= 1
            return Receive(queue.popleft())
        speed = self.speed
        start = sim.time
        arrival = sim.next_arrival_time
        length = 0.0
        if not self.queued:
            lap_time = self.lap / speed
            if lap_time == 0.0:
                return WAIT  # zero-time laps would not advance the clock
            # whole laps end where they start; back off one for round-off
            laps = int((arrival - start) / lap_time) - 1
            if laps > 0:
                length = laps * self.lap
        last = len(stops) - 1
        while True:
            length += self.hops[cursor]
            cursor = cursor + 1 if cursor < last else 0
            if stops[cursor][1] or start + length / speed > arrival:
                break
        self.cursor = cursor
        return TravelTo(stops[cursor][0], length)


class MultiPartitioning:
    """Split the region into equal square subregions, one collector each,
    and run an independent grid sweep per subregion. Message to collector
    assignment is a pure function of location."""

    name = "multi_partitioning"

    def attach(self, sim: Simulation) -> None:
        j = fleet_side(sim.config.collectors)
        # subregions are the cells of a j x j grid, numbered row-major
        self.fleet = RegionGrid(0j, sim.config.side, j)
        sub_side = self.fleet.cell_side
        self.inners: list[GridPartitioning] = []
        for i in range(self.fleet.num_cells):
            row, col = divmod(i, j)
            inner = GridPartitioning(i, complex(col * sub_side, row * sub_side),
                                     sub_side ** 2)
            inner.attach(sim)
            self.inners.append(inner)

    def on_arrival(self, sim: Simulation, msg: Message) -> None:
        self.inners[self.fleet.cell_of(msg.location)].on_arrival(sim, msg)

    def next_action(self, sim: Simulation, collector_id: int) -> Action:
        return self.inners[collector_id].next_action(sim, collector_id)


# policy name -> class; a PolicyKind's value is its policy's name
_POLICIES = {cls.name: cls for cls in (Fcfs, FcfsReturn, TspnCyclic,
                                       GridPartitioning, MultiPartitioning)}


def make_policy(kind: PolicyKind | str, config: ScenarioConfig):
    """Build a fresh policy instance for one run, validating the collector
    count against the chosen kind."""
    kind = PolicyKind(kind)
    if kind == PolicyKind.MULTI_PARTITIONING:
        fleet_side(config.collectors)
    elif config.collectors != 1:
        raise ConfigurationError(
            f"policy {kind.value!r} drives a single collector; "
            f"configure collectors=1 or use multi_partitioning")
    return _POLICIES[kind.value]()
