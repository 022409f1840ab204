"""Continuous-time event loop driving collectors under a routing policy.

The engine owns physics and bookkeeping: Poisson arrivals, straight-line
motion at constant speed, fixed-length receptions, the per-message timing
records and wait decomposition. All routing decisions come from the
attached policy through a three-verb action interface.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .commmodel import in_range, reception_radius
from .core import (ConfigurationError, ContractViolation, Message, Point,
                   ScenarioConfig, distance, uniform_point)

# event kinds double as tie ranks: completions land before arrivals that
# share a timestamp, receptions before travel
_RECEPTION_DONE = 0
_TRAVEL_DONE = 1
_ARRIVAL = 2


# --------------------------------------------------------------------------
# policy-facing action vocabulary


@dataclass(frozen=True, slots=True)
class Wait:
    """Do nothing until the next arrival."""


@dataclass(frozen=True, slots=True)
class TravelTo:
    """Drive to the target point. ``length`` is the length of the path
    taken, at least the straight-line distance; by default the collector
    drives the straight line."""

    target: Point
    length: float | None = None


@dataclass(frozen=True, slots=True)
class Receive:
    """Start receiving the identified message (must be in range)."""

    message_id: int


Action = Wait | TravelTo | Receive
WAIT = Wait()


class Policy(Protocol):
    name: str

    def attach(self, sim: "Simulation") -> None: ...

    def on_arrival(self, sim: "Simulation", msg: Message) -> None: ...

    def next_action(self, sim: "Simulation", collector_id: int) -> Action: ...


# --------------------------------------------------------------------------
# state records


@dataclass(slots=True)
class CollectorState:
    """One collector: position, current activity and reception bookkeeping.

    ``receiving_accum`` is total completed reception time; together with
    ``receiving_since`` it gives the exact cumulative receiving time at any
    instant, which the engine snapshots to attribute waits. ``leg`` and
    ``leg_start`` are the length and start time of the current (or last)
    travel leg.
    """

    id: int
    position: Point
    phase: str = "idle"  # idle | traveling | receiving
    target: Point | None = None
    receiving_id: int | None = None
    receiving_accum: float = 0.0
    receiving_since: float | None = None
    leg: float = 0.0
    leg_start: float = 0.0

    def receiving_time(self, now: float) -> float:
        """Cumulative time spent receiving, up to ``now``."""
        if self.phase == "receiving":
            return self.receiving_accum + (now - self.receiving_since)
        return self.receiving_accum


@dataclass(frozen=True, slots=True)
class StopRule:
    """Stop after a completed-message target, a time horizon, or both
    (whichever comes first).

    The divergence trigger is always armed. Its default level is scaled to
    the queueing-only occupancy (generous for policies whose wait is mostly
    reception), so policies whose stable occupancy is dominated by travel
    (long tours at high load) may need an explicit ``divergence_threshold``.
    """

    max_messages: int | None = None
    horizon: float | None = None
    divergence_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.max_messages is None and self.horizon is None:
            raise ConfigurationError(
                "stop rule needs a message target or a horizon")
        if self.max_messages is not None and self.max_messages <= 0:
            raise ConfigurationError("message target must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if (self.divergence_threshold is not None
                and self.divergence_threshold <= 0):
            raise ConfigurationError("divergence threshold must be positive")


@dataclass(slots=True)
class EventTrace:
    """Everything a run recorded.

    ``messages`` keeps every generated message in id order (departure_time
    None: unfinished at ``end_time``); the number in system is derived from
    them. ``completed`` lists the finished ones in completion order.
    ``receiving_time`` is summed over collectors up to ``end_time``, so
    receiving_time / (m * end_time) is the measured load.
    """

    config: ScenarioConfig
    messages: list[Message]
    completed: list[Message]
    total_travel_distance: float
    end_time: float
    receiving_time: float
    diverged: bool
    divergence_threshold: float


# --------------------------------------------------------------------------
# arrivals


def generate_arrivals(arrival_rate: float, horizon: float, rng,
                      side: float) -> list[tuple[float, Point]]:
    """Poisson arrival times up to the horizon with uniform locations on a
    square of the given side, sorted by time.

    Uses the same per-arrival draw order as the simulator (gap, x, y), so a
    generator seeded identically reproduces a run's arrival stream.
    """
    if not arrival_rate > 0:
        raise ConfigurationError("arrival_rate must be positive")
    if not horizon > 0:
        raise ConfigurationError("horizon must be positive")
    out: list[tuple[float, Point]] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / arrival_rate)
        loc = uniform_point(rng, side)
        if t > horizon:
            return out
        out.append((t, loc))


# --------------------------------------------------------------------------
# the simulation proper


class Simulation:
    """Mutable world state, visible read-only to policies.

    Policies may inspect ``time``, ``messages``, ``collectors``, ``radius``,
    ``config`` and ``next_arrival_time``; all mutation goes through the
    engine.
    """

    def __init__(self, config: ScenarioConfig, policy: Policy,
                 stop: StopRule | None = None) -> None:
        self.config = config
        self.policy = policy
        self.stop = stop if stop is not None else StopRule(max_messages=50_000)
        self.radius = reception_radius(config.snr_ref, config.snr_threshold,
                                       config.path_loss)
        self.rng = np.random.default_rng(config.seed)
        self.time = 0.0
        self.messages: list[Message] = []
        self.completed: list[Message] = []
        self.collectors = [CollectorState(i, config.center)
                           for i in range(config.collectors)]
        self.total_travel_distance = 0.0
        self.diverged = False
        if self.stop.divergence_threshold is not None:
            self.divergence_threshold = self.stop.divergence_threshold
        else:
            self.divergence_threshold = 50.0 * max(
                10.0,
                config.arrival_rate * config.reception_time
                / (1.0 - min(config.load, 0.99)))
        self._busy_at_arrival: list[tuple[float, ...]] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = itertools.count()
        self._next_arrival_loc: Point | None = None
        self._next_arrival_time = 0.0

    @property
    def next_arrival_time(self) -> float:
        """Time of the next, already drawn, arrival. The arrival stream does
        not depend on the policy's actions, so no message can arrive
        earlier."""
        return self._next_arrival_time

    # -- scheduling helpers

    def _push(self, time: float, kind: int, ref: int) -> None:
        heapq.heappush(self._heap, (time, kind, next(self._seq), ref))

    def _schedule_next_arrival(self) -> None:
        gap = self.rng.exponential(1.0 / self.config.arrival_rate)
        self._next_arrival_time += gap
        self._next_arrival_loc = uniform_point(self.rng, self.config.side)
        self._push(self._next_arrival_time, _ARRIVAL, -1)

    def _dispatch(self, collector: CollectorState) -> None:
        action = step_policy(self.policy, self, collector.id)
        if isinstance(action, Wait):
            collector.phase = "idle"
            collector.target = None
            return
        if isinstance(action, TravelTo):
            leg = action.length
            if leg is None:
                leg = distance(collector.position, action.target)
            collector.phase = "traveling"
            collector.target = action.target
            collector.leg = leg
            collector.leg_start = self.time
            self._push(self.time + leg / self.config.speed, _TRAVEL_DONE,
                       collector.id)
            return
        msg = self.messages[action.message_id]
        msg.reception_start = self.time
        served_busy = collector.receiving_time(self.time)
        wait_service = served_busy - self._busy_at_arrival[msg.id][collector.id]
        msg.wait_service = wait_service
        msg.wait_travel = (self.time - msg.arrival_time) - wait_service
        collector.phase = "receiving"
        collector.receiving_id = msg.id
        collector.receiving_since = self.time
        self._push(self.time + self.config.reception_time, _RECEPTION_DONE,
                   collector.id)

    # -- event handlers

    def _handle_arrival(self) -> None:
        msg = Message(id=len(self.messages), arrival_time=self.time,
                      location=self._next_arrival_loc)
        self.messages.append(msg)
        self._busy_at_arrival.append(
            tuple(c.receiving_time(self.time) for c in self.collectors))
        self._schedule_next_arrival()
        self.policy.on_arrival(self, msg)
        for c in self.collectors:
            if c.phase == "idle":
                self._dispatch(c)

    def _handle_travel_done(self, collector: CollectorState) -> None:
        self.total_travel_distance += collector.leg
        collector.position = collector.target
        collector.target = None
        collector.phase = "idle"
        self._dispatch(collector)

    def _handle_reception_done(self, collector: CollectorState) -> None:
        msg = self.messages[collector.receiving_id]
        msg.departure_time = self.time
        collector.receiving_accum += self.config.reception_time
        collector.receiving_since = None
        collector.receiving_id = None
        collector.phase = "idle"
        self.completed.append(msg)

    def _bill_legs_in_flight(self, end_time: float) -> None:
        """Add the part of each unfinished leg covered by ``end_time``. A leg
        whose end time is not after ``end_time`` counts whole, so infinite
        speed never multiplies inf by a zero elapsed time."""
        speed = self.config.speed
        for c in self.collectors:
            if c.phase == "traveling":
                if c.leg_start + c.leg / speed <= end_time:
                    self.total_travel_distance += c.leg
                else:
                    self.total_travel_distance += speed * (end_time
                                                           - c.leg_start)

    # -- main loop

    def run(self) -> EventTrace:
        self.policy.attach(self)
        self._schedule_next_arrival()
        horizon = self.stop.horizon
        target = self.stop.max_messages
        messages, completed = self.messages, self.completed
        # the next arrival is always queued: only the stop rule ends the run
        while True:
            time, kind, _, ref = heapq.heappop(self._heap)
            if horizon is not None and time > horizon:
                end_time = horizon
                break
            self.time = time
            if kind == _ARRIVAL:
                self._handle_arrival()
                if len(messages) - len(completed) > self.divergence_threshold:
                    self.diverged = True
                    end_time = time
                    break
            elif kind == _TRAVEL_DONE:
                self._handle_travel_done(self.collectors[ref])
            else:
                self._handle_reception_done(self.collectors[ref])
                if target is not None and len(completed) >= target:
                    end_time = time
                    break
                self._dispatch(self.collectors[ref])
        self._bill_legs_in_flight(end_time)
        receiving = sum(c.receiving_time(end_time) for c in self.collectors)
        return EventTrace(
            config=self.config,
            messages=self.messages,
            completed=self.completed,
            total_travel_distance=self.total_travel_distance,
            end_time=end_time,
            receiving_time=receiving,
            diverged=self.diverged,
            divergence_threshold=self.divergence_threshold,
        )


def step_policy(policy: Policy, sim: Simulation, collector_id: int) -> Action:
    """Ask the policy for one action and enforce the physical contract:
    receptions only of unserved messages within the reception radius, and
    travel paths no shorter than the straight line."""
    action = policy.next_action(sim, collector_id)
    if isinstance(action, Receive):
        if not 0 <= action.message_id < len(sim.messages):
            raise ContractViolation(
                f"policy {policy.name!r} asked to receive unknown message "
                f"{action.message_id}")
        msg = sim.messages[action.message_id]
        if msg.reception_start is not None:
            raise ContractViolation(
                f"policy {policy.name!r} asked to receive message "
                f"{msg.id} twice")
        collector = sim.collectors[collector_id]
        if not in_range(collector.position, msg.location, sim.radius):
            raise ContractViolation(
                f"policy {policy.name!r} asked collector {collector_id} to "
                f"receive message {msg.id} from out of range "
                f"(distance {distance(collector.position, msg.location):.6g}, "
                f"radius {sim.radius:.6g})")
    elif isinstance(action, TravelTo) and action.length is not None:
        straight = distance(sim.collectors[collector_id].position,
                            action.target)
        # k collinear hops can sum one ulp short of the direct hypot
        if not action.length >= straight * (1.0 - 1e-12):
            raise ContractViolation(
                f"policy {policy.name!r} asked collector {collector_id} to "
                f"travel a path of length {action.length!r}, shorter than "
                f"the straight line ({straight:.6g})")
    return action


def run(config: ScenarioConfig, policy: Policy,
        stop: StopRule | None = None) -> EventTrace:
    """Simulate one scenario under one policy until the stop rule fires.

    A fresh policy instance is expected per run; the policy's ``attach``
    resets its state and may reposition collectors before time zero.
    """
    return Simulation(config, policy, stop).run()
