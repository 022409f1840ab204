"""Continuous-time event loop driving collectors under a routing policy.

The engine owns physics and records facts: Poisson arrivals, straight-line
motion at constant speed, fixed-length receptions, and per message its
arrival, reception start and end and receiver; ``stats`` derives the rest.
All routing decisions come from the attached policy through a three-verb
action interface. ``Simulation.run`` is the one event loop: it handles every
arrival, leg end and reception end, and carries out each action that
``step_policy`` asked for and checked in one place.
"""

from __future__ import annotations

import itertools
from array import array
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Protocol

from .commmodel import in_range, reception_radius
from .core import (ConfigurationError, ContractViolation, Message,
                   ScenarioConfig, distance, uniform_point)

# heap events are (time, kind, seq, ref): ref is the collector of a travel
# leg and the message of a reception. Kinds double as tie ranks: receptions
# end before travel legs that share a timestamp
_RECEPTION_DONE = 0
_TRAVEL_DONE = 1


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

    target: complex
    length: float | None = None

    # set through the slots: a frozen dataclass's own __init__ calls the
    # slower object.__setattr__, and at least one action is made per event
    def __init__(self, target: complex, length: float | None = None) -> None:
        _set_target(self, target)
        _set_length(self, length)


@dataclass(frozen=True, slots=True)
class Receive:
    """Start receiving the identified message (must be in range)."""

    message_id: int

    def __init__(self, message_id: int) -> None:
        _set_message_id(self, message_id)  # through the slot, as TravelTo


_set_target, _set_length = TravelTo.target.__set__, TravelTo.length.__set__
_set_message_id = Receive.message_id.__set__

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
    """One collector: position and current activity. ``leg`` and
    ``leg_start`` are the length and start time of the current (or last)
    travel leg; what it receives is recorded on the messages."""

    id: int
    position: complex
    phase: str = "idle"  # idle | traveling | receiving
    target: complex | None = None
    leg: float = 0.0
    leg_start: float = 0.0


@dataclass(frozen=True, slots=True)
class StopRule:
    """A run stops when ``max_messages`` messages have completed, or earlier
    at its divergence cutoff.

    The divergence trigger is always armed. Its default level is scaled to
    the queueing-only occupancy (generous for policies whose wait is mostly
    reception), so policies whose stable occupancy is dominated by travel
    (long tours at high load) may need an explicit ``divergence_threshold``.
    """

    max_messages: int
    divergence_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.max_messages <= 0:
            raise ConfigurationError("message target must be positive")
        if (self.divergence_threshold is not None
                and self.divergence_threshold <= 0):
            raise ConfigurationError("divergence threshold must be positive")


@dataclass(slots=True)
class EventTrace:
    """Everything a run recorded.

    ``messages`` keeps every generated message in id order (departure_time
    None: unfinished at ``end_time``); the number in system, the wait split
    and the receiving time are derived from them. ``completed`` lists the
    finished ones in completion order. ``diverged``: the run stopped at an
    arrival that put more than ``Simulation.divergence_threshold`` in
    system."""

    config: ScenarioConfig
    messages: list[Message]
    completed: list[Message]
    total_travel_distance: float
    end_time: float
    diverged: bool


# --------------------------------------------------------------------------
# the arrival stream


class ArrivalDraws:
    """The arrival draws of one seed: per arrival a standard exponential gap,
    then a point of the unit square from ``uniform_point``, drawn from
    ``default_rng(seed)`` one arrival at a time, when a run first needs it.
    ``values`` keeps them flat, three per arrival. A run scales them by its
    own mean gap and side, so every run of a seed sees the same draws,
    whatever its rate or policy. A thread keeps its latest seed's draws
    until a run of another seed or ``forget_arrivals``."""

    __slots__ = ("seed", "values", "_rng")

    def __init__(self, seed: int) -> None:
        from numpy.random import default_rng
        self.seed = seed
        self.values = array("d")
        self._rng = default_rng(seed)

    def draw(self) -> None:
        """Append the next arrival's gap and point."""
        rng = self._rng
        gap = rng.standard_exponential()
        point = uniform_point(rng, 1.0)
        self.values.extend((gap, point.real, point.imag))


# the draws of the latest seed simulated in this thread: a context variable,
# not an argument, so that run(config, policy, stop) and the wrappers that
# replace it keep their signature; one per thread, as two threads drawing
# into one ArrivalDraws could interleave their draws
_latest: ContextVar[ArrivalDraws | None] = ContextVar("latest_arrivals",
                                                      default=None)


def forget_arrivals() -> None:
    """Drop this thread's kept draws, so the next run draws anew."""
    _latest.set(None)


# --------------------------------------------------------------------------
# the simulation proper


class Simulation:
    """Mutable world state, visible read-only to policies, simulated until
    ``stop``'s message target or the divergence cutoff.

    Policies may inspect ``time``, ``messages``, ``collectors``, ``radius``,
    ``config`` and ``next_arrival_time``; all mutation goes through the
    engine. The next arrival is known ahead: the arrival stream does not
    depend on the policy's actions, so no message can arrive earlier.

    Arrivals come from ``draws``, the ``ArrivalDraws`` of the config's seed:
    each arrival comes E / arrival_rate after the one before (the first,
    after time 0) at ``complex(side * x, side * y)``, for its draws
    (E, x, y). A thread keeps its latest seed's draws until a run of
    another seed or the end of a ``cli.run_cells`` call, so consecutive runs
    of one seed replay one set of draws, in ``--parallel`` workers too; a
    run's results do not depend on which other runs shared them."""

    def __init__(self, config: ScenarioConfig, policy: Policy,
                 stop: StopRule) -> None:
        self.config = config
        self.policy = policy
        self.stop = stop
        self.radius = reception_radius(config.snr_ref, config.snr_threshold,
                                       config.path_loss)
        self.draws = _latest.get()
        if self.draws is None or self.draws.seed != config.seed:
            self.draws = ArrivalDraws(config.seed)
            _latest.set(self.draws)
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
                10.0, config.arrival_rate * config.reception_time
                / (1.0 - min(config.load, 0.99)))
        self.next_arrival_time = 0.0

    # -- accounting helper

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
        """Handle events in time order until ``stop.max_messages`` messages
        have completed or an arrival crosses the divergence cutoff. Each ends
        with one idle scan: after an arrival over every collector in id order,
        after a leg or a reception only over its own collector."""
        policy = self.policy
        policy.attach(self)
        # numpy's exponential(scale) is scale * standard_exponential(), so
        # these are the times and points of scalar draws from the seed
        mean_gap, side = 1.0 / self.config.arrival_rate, self.config.side
        values, draw = self.draws.values, self.draws.draw
        if not values:
            draw()
        self.next_arrival_time = mean_gap * values[0]
        # looked up here, not at import, so a patched module attribute holds
        step, on_arrival = step_policy, policy.on_arrival
        target, threshold = self.stop.max_messages, self.divergence_threshold
        speed, reception_time = self.config.speed, self.config.reception_time
        messages, completed, collectors = (self.messages, self.completed,
                                           self.collectors)
        heap, seq = [], itertools.count()
        # the next arrival is drawn ahead and kept outside the heap, so only
        # the stop rule ends the run; heap events at its instant go first
        while True:
            if heap and heap[0][0] <= self.next_arrival_time:
                time, kind, _, ref = heappop(heap)
            else:
                time, ref = self.next_arrival_time, -1
            self.time = time
            if ref < 0:
                k = 3 * len(messages)
                msg = Message(len(messages), time,
                              complex(side * values[k + 1],
                                      side * values[k + 2]))
                messages.append(msg)
                if k + 3 == len(values):
                    draw()
                self.next_arrival_time = time + mean_gap * values[k + 3]
                on_arrival(self, msg)
                scan = collectors
            elif kind == _TRAVEL_DONE:
                c = collectors[ref]
                self.total_travel_distance += c.leg
                c.position, c.target, c.phase = c.target, None, "idle"
                scan = (c,)
            else:
                msg = messages[ref]
                msg.departure_time = time
                completed.append(msg)
                c = collectors[msg.collector]
                c.phase = "idle"
                if len(completed) >= target:
                    end_time = time
                    break
                scan = (c,)
            for c in scan:
                if c.phase != "idle":
                    continue
                action = step(policy, self, c.id)
                if isinstance(action, TravelTo):
                    leg = action.length
                    if leg is None:
                        leg = distance(c.position, action.target)
                    c.phase, c.target = "traveling", action.target
                    c.leg, c.leg_start = leg, time
                    heappush(heap, (time + leg / speed, _TRAVEL_DONE,
                                    next(seq), c.id))
                elif isinstance(action, Receive):
                    msg = messages[action.message_id]
                    msg.reception_start, msg.collector = time, c.id
                    c.phase = "receiving"
                    heappush(heap, (time + reception_time, _RECEPTION_DONE,
                                    next(seq), msg.id))
            if ref < 0 and len(messages) - len(completed) > threshold:
                self.diverged = True
                end_time = time
                break
        self._bill_legs_in_flight(end_time)
        return EventTrace(self.config, messages, completed,
                          self.total_travel_distance, end_time, self.diverged)


def step_policy(policy: Policy, sim: Simulation, collector_id: int) -> Action:
    """Ask the policy for one action and enforce the whole action contract:
    a Wait, TravelTo or Receive; receptions only of unserved messages within
    the reception radius; travel paths no shorter than the straight line."""
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
    elif isinstance(action, TravelTo):
        if action.length is not None:
            straight = distance(sim.collectors[collector_id].position,
                                action.target)
            # k collinear hops can sum one ulp short of the direct hypot
            if not action.length >= straight * (1.0 - 1e-12):
                raise ContractViolation(
                    f"policy {policy.name!r} asked collector {collector_id} "
                    f"to travel a path of length {action.length!r}, shorter "
                    f"than the straight line ({straight:.6g})")
    elif not isinstance(action, Wait):
        raise ContractViolation(f"policy {policy.name!r} returned "
                                f"{action!r}, which is not an action")
    return action


def run(config: ScenarioConfig, policy: Policy, stop: StopRule) -> EventTrace:
    """Simulate one scenario under one policy until it completes
    ``stop.max_messages`` messages or reaches its divergence cutoff.

    A fresh policy instance is expected per run; the policy's ``attach``
    resets its state and may reposition collectors before time zero.
    """
    return Simulation(config, policy, stop).run()
