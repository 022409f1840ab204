"""Event-loop physics: arrivals, motion, receptions, waits and stop rules."""
from __future__ import annotations

import math
import pickle
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from collectsim.core import ConfigurationError, ContractViolation, distance
from collectsim.engine import (WAIT, ArrivalDraws, EventTrace, Receive,
                               Simulation, StopRule, TravelTo, Wait,
                               forget_arrivals, run, step_policy)
from collectsim.policies import PolicyKind, make_policy
from collectsim.stats import occupancy_steps, wait_split

from matrixlib import (case2_config, fleet_config, reception_queue_config,
                       wide_region_config)


def _grid_policy(cfg):
    return make_policy(PolicyKind.GRID_PARTITIONING, cfg)


def _fcfs(cfg):
    return make_policy(PolicyKind.FCFS, cfg)


# -- stop rule validation -------------------------------------------------------


def test_stop_rule_requires_some_stop():
    with pytest.raises(TypeError):
        StopRule()
    with pytest.raises(ConfigurationError):
        StopRule(max_messages=0)
    with pytest.raises(ConfigurationError):
        StopRule(max_messages=10, divergence_threshold=0.0)
    cfg = case2_config(0.5, seed=1)
    with pytest.raises(TypeError):
        Simulation(cfg, _grid_policy(cfg))


def test_stop_rule_accepts_combinations():
    StopRule(max_messages=5)
    StopRule(max_messages=5, divergence_threshold=100.0)


# -- arrival stream ---------------------------------------------------------------


def test_simulation_arrivals_match_generator():
    # the engine's stream, message by message: per arrival one exponential
    # gap of mean 1/lambda, then x, then y, uniform on the square; the
    # second rate replays the first run's draws of the same seed
    kept = []
    for load in (0.5, 0.8):
        cfg = reception_queue_config(load, seed=42)
        sim = Simulation(cfg, _grid_policy(cfg),
                         StopRule(max_messages=300))
        kept.append(sim.draws)
        trace = sim.run()
        assert len(trace.messages) >= 300
        rng = np.random.default_rng(cfg.seed)
        t = 0.0
        for msg in trace.messages:
            t += rng.exponential(1.0 / cfg.arrival_rate)
            x, y = cfg.side * rng.random(), cfg.side * rng.random()
            assert msg.arrival_time == t
            assert msg.location == complex(x, y)
    assert kept[1] is kept[0]


_ONE = StopRule(max_messages=1)


def test_a_thread_keeps_its_latest_seeds_draws():
    cfg = case2_config(0.5, seed=1)
    first = Simulation(cfg, _grid_policy(cfg), _ONE).draws
    other_rate = Simulation(replace(cfg, arrival_rate=0.4), _fcfs(cfg),
                            _ONE).draws
    other_seed = Simulation(replace(cfg, seed=2), _fcfs(cfg), _ONE).draws
    again = Simulation(cfg, _grid_policy(cfg), _ONE).draws
    forget_arrivals()
    after = Simulation(cfg, _grid_policy(cfg), _ONE).draws
    assert other_rate is first
    assert other_seed.seed == 2 and again.seed == 1
    assert again is not first and after is not again


def test_another_thread_does_not_get_this_threads_draws():
    cfg = case2_config(0.5, seed=1)
    here = Simulation(cfg, _grid_policy(cfg), _ONE).draws
    there = []
    thread = threading.Thread(target=lambda: there.append(
        Simulation(cfg, _grid_policy(cfg), _ONE).draws))
    thread.start()
    thread.join()
    assert there[0].seed == 1 and there[0] is not here
    assert Simulation(cfg, _grid_policy(cfg), _ONE).draws is here


# -- same-instant event order ------------------------------------------------------


def _scripted_draws(gaps):
    """Arrival draws of the given gaps, then a long quiet spell, with every
    message at the center of the region. The configs here have mean gap 2,
    so standard gaps of half each gap give the gaps exactly."""
    draws = ArrivalDraws(0)
    for gap in [*gaps, 1e6]:
        draws.values.extend((gap / 2.0, 0.5, 0.5))
    return draws


def test_completion_goes_before_an_arrival_at_the_same_instant():
    # message 0 arrives at 1 and is received at once, so its reception ends
    # at 2, the very instant message 1 arrives: the completion meets the
    # target and the run ends before message 1 exists
    cfg = reception_queue_config(0.5, seed=0)
    sim = Simulation(cfg, _grid_policy(cfg), StopRule(max_messages=1))
    sim.draws = _scripted_draws([1.0, cfg.reception_time])
    trace = sim.run()
    assert trace.end_time == 2.0
    assert len(trace.messages) == 1


class _TravelsThenReceives:
    """Drives one unit south from the center, then receives message 0 and
    records the time and the number of messages when the leg ended."""

    name = "travels"

    def attach(self, sim):
        self.seen = []

    def on_arrival(self, sim, msg):
        pass

    def next_action(self, sim, collector_id):
        if sim.collectors[collector_id].position == sim.config.center:
            return TravelTo(complex(1.0, 0.0))
        self.seen.append((sim.time, len(sim.messages)))
        return Receive(0)


def test_leg_end_goes_before_an_arrival_at_the_same_instant():
    # the leg starts at 1 with message 0 and takes one time unit, so it ends
    # at 2, the very instant message 1 arrives: the policy decides first
    cfg = reception_queue_config(0.5, seed=0)
    policy = _TravelsThenReceives()
    sim = Simulation(cfg, policy, StopRule(max_messages=1))
    sim.draws = _scripted_draws([1.0, 1.0])
    trace = sim.run()
    assert policy.seen == [(2.0, 1)]
    assert trace.end_time == 3.0
    assert len(trace.messages) == 2
    assert trace.total_travel_distance == 1.0


# -- dispatch order ----------------------------------------------------------------


class _Scripted:
    """Answers each (time, collector) from a script, else waits, and logs
    every question with the phases of all collectors when it was asked.
    Script entries: ("receive", message id) or ("travel", duration), a leg
    that ends where it starts."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def attach(self, sim):
        self.asked = []

    def on_arrival(self, sim, msg):
        pass

    def next_action(self, sim, collector_id):
        phases = tuple(c.phase for c in sim.collectors)
        self.asked.append((sim.time, collector_id, phases))
        verb, arg = self.script.get((sim.time, collector_id), ("wait", None))
        if verb == "receive":
            return Receive(arg)
        if verb == "travel":
            here = sim.collectors[collector_id].position
            return TravelTo(here, arg * sim.config.speed)
        return WAIT


def _scripted_run(script, gaps, collectors=3):
    # reception time 2, every message at the center, where collectors start;
    # each script receives both messages, so the run stops at the second
    # reception's end, before the quiet spell
    cfg = replace(reception_queue_config(0.5, seed=0), reception_time=2.0,
                  collectors=collectors)
    policy = _Scripted(script)
    sim = Simulation(cfg, policy, StopRule(max_messages=2))
    sim.draws = _scripted_draws(gaps)
    assert sim.run().end_time < 20.0
    return policy.asked


def test_an_arrival_asks_every_idle_collector_in_id_order():
    # arrivals at 1, 1.5 and 4; collector 1 receives message 0 from 1 to 3,
    # collector 0 message 1 from 4 to 6
    script = {(1.0, 1): ("receive", 0), (4.0, 0): ("receive", 1)}
    asked = _scripted_run(script, [1.0, 0.5, 2.5])
    assert [(t, c) for t, c, _ in asked] == [
        (1.0, 0), (1.0, 1), (1.0, 2),
        (1.5, 0), (1.5, 2),  # collector 1 is busy: not asked
        (3.0, 1),  # its reception ended: it alone is asked
        (4.0, 0), (4.0, 1), (4.0, 2)]
    for t, c, phases in asked:
        assert phases[c] == "idle", (t, c)


def test_a_wait_leaves_the_collector_idle_until_the_next_arrival():
    # collector 0 waits at 1 while collector 1 travels from 1 to 2 and
    # receives from 2 to 4: collector 0 is asked again only at the arrival
    # at 5, and stayed idle meanwhile; collector 1 then receives message 1
    script = {(1.0, 1): ("travel", 1.0), (2.0, 1): ("receive", 0),
              (5.0, 1): ("receive", 1)}
    asked = _scripted_run(script, [1.0, 4.0], collectors=2)
    assert [(t, c) for t, c, _ in asked] == [
        (1.0, 0), (1.0, 1), (2.0, 1), (4.0, 1), (5.0, 0), (5.0, 1)]
    assert all(phases[0] == "idle" for _, _, phases in asked)


def test_same_instant_events_go_receptions_first_then_by_scheduling():
    # all three end at 3: collector 1's leg is scheduled at 1, before
    # collector 2's reception and collector 0's leg (at the arrival at 2);
    # the reception goes first, then the legs in the order they were
    # scheduled, not by collector id; collector 0 then receives message 1
    script = {(1.0, 1): ("travel", 2.0), (1.0, 2): ("receive", 0),
              (2.0, 0): ("travel", 1.0), (3.0, 0): ("receive", 1)}
    asked = _scripted_run(script, [1.0, 1.0])
    assert [(t, c) for t, c, _ in asked if t == 3.0] == [
        (3.0, 2), (3.0, 1), (3.0, 0)]


# -- determinism -------------------------------------------------------------------


def test_runs_are_reproducible():
    cfg = case2_config(0.8, seed=7)
    a = run(cfg, _grid_policy(cfg), StopRule(max_messages=2000))
    b = run(cfg, _grid_policy(cfg), StopRule(max_messages=2000))
    assert [m.departure_time for m in a.completed] == \
        [m.departure_time for m in b.completed]
    assert a.total_travel_distance == b.total_travel_distance
    assert a.messages == b.messages
    assert a.end_time == b.end_time


def test_different_seeds_differ():
    cfg_a = case2_config(0.8, seed=1)
    cfg_b = case2_config(0.8, seed=2)
    a = run(cfg_a, _grid_policy(cfg_a), StopRule(max_messages=500))
    b = run(cfg_b, _grid_policy(cfg_b), StopRule(max_messages=500))
    assert [m.arrival_time for m in a.completed] != \
        [m.arrival_time for m in b.completed]


# -- accounting identities -----------------------------------------------------------


def test_delay_decomposition_is_exact():
    cfg = case2_config(0.7, seed=3)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=4000))
    assert len(trace.completed) == 4000
    s = cfg.reception_time
    travel, service, _ = wait_split(trace)
    for m in trace.completed:
        assert m.departure_time is not None
        total = m.departure_time - m.arrival_time
        assert total == pytest.approx(travel[m.id] + service[m.id] + s,
                                      abs=1e-9)
        assert travel[m.id] >= -1e-9
        assert service[m.id] >= -1e-9
        assert m.reception_start == pytest.approx(m.departure_time - s,
                                                  abs=1e-9)


def test_receiving_time_equals_completed_service():
    cfg = reception_queue_config(0.5, seed=5)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=1000))
    # single collector stopped exactly at its 1000th completion
    assert wait_split(trace)[2] == pytest.approx(
        1000 * cfg.reception_time, rel=1e-12)
    assert trace.end_time == trace.completed[-1].departure_time


def test_occupancy_samples_track_arrivals_and_departures():
    cfg = reception_queue_config(0.3, seed=8)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=500))
    assert [m.id for m in trace.messages] == list(range(len(trace.messages)))
    arrivals = [m.arrival_time for m in trace.messages]
    assert arrivals == sorted(arrivals)
    # completed holds exactly the messages with a departure time
    assert all(trace.messages[m.id] is m for m in trace.completed)
    assert {m.id for m in trace.completed} == {
        m.id for m in trace.messages if m.departure_time is not None}
    # the occupancy they imply steps by exactly +-1 and never goes negative
    occ = occupancy_steps(arrivals, [m.departure_time
                                     for m in trace.completed])
    assert len(occ) == len(trace.messages) + len(trace.completed)
    assert list(occ[:, 0]) == sorted(occ[:, 0])
    assert (np.abs(np.diff(occ[:, 1], prepend=0.0)) == 1.0).all()
    assert occ[:, 1].min() >= 0.0


def test_pure_queue_regime_has_zero_travel_wait():
    # reception disk covers the whole region: the collector never moves and
    # the system is a plain M/D/1 queue
    cfg = reception_queue_config(0.8, seed=2)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=3000))
    assert trace.total_travel_distance == 0.0
    travel = wait_split(trace)[0]
    for m in trace.completed:
        assert abs(travel[m.id]) <= 1e-9


@pytest.mark.parametrize("load", [0.3, 0.8, 0.95])
@pytest.mark.parametrize("seed", [4, 19, 33])
def test_pure_queue_departures_follow_lindley_recursion(load, seed):
    # a collector that never moves serves messages first come first served:
    # every departure is D_i = max(A_i, D_{i-1}) + s, exactly
    cfg = reception_queue_config(load, seed=seed)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=10_000))
    arrivals = [m.arrival_time for m in trace.completed]
    assert arrivals == sorted(arrivals)
    previous = 0.0
    for m in trace.completed:
        previous = max(m.arrival_time, previous) + cfg.reception_time
        assert m.departure_time == previous
    # first come first served: the unfinished messages are the latest ones
    n = len(trace.completed)
    assert trace.completed == trace.messages[:n]
    assert all(m.departure_time is None for m in trace.messages[n:])


# -- stop conditions ------------------------------------------------------------------


def test_message_target_stops_exactly():
    cfg = case2_config(0.5, seed=1)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=123))
    assert len(trace.completed) == 123
    assert len(trace.messages) >= 123


def test_default_divergence_threshold_scales_with_load():
    cfg = case2_config(0.95, seed=1)
    sim = Simulation(cfg, _grid_policy(cfg), StopRule(max_messages=10))
    assert sim.divergence_threshold == pytest.approx(950.0)
    light = reception_queue_config(0.5, seed=1)
    sim = Simulation(light, _grid_policy(light), StopRule(max_messages=10))
    assert sim.divergence_threshold == pytest.approx(500.0)


def test_divergence_threshold_override():
    cfg = case2_config(0.5, seed=1)
    sim = Simulation(cfg, _grid_policy(cfg),
                     StopRule(max_messages=10, divergence_threshold=123.0))
    assert sim.divergence_threshold == 123.0
    assert not sim.run().diverged


def test_unstable_fcfs_run_flags_divergence():
    cfg = wide_region_config(0.95, seed=6, reception_time=1.0, speed=2.0)
    sim = Simulation(cfg, _fcfs(cfg), StopRule(max_messages=100_000))
    trace = sim.run()
    assert trace.diverged
    assert len(trace.messages) < 100_000
    # backlog at the stop exceeds the threshold
    backlog = sum(m.departure_time is None for m in trace.messages)
    assert backlog > sim.divergence_threshold
    # the same scenario under the cell sweep is comfortably stable
    sweep = run(cfg, _grid_policy(cfg), StopRule(max_messages=5_000))
    assert not sweep.diverged
    assert len(sweep.completed) == 5_000


def _cutoff_cases():
    return {
        "fcfs_wide_0.95": (wide_region_config(0.95, seed=6,
                                              reception_time=1.0, speed=2.0),
                           PolicyKind.FCFS, StopRule(max_messages=100_000)),
        "grid_0.95_cutoff_20": (case2_config(0.95, seed=8),
                                PolicyKind.GRID_PARTITIONING,
                                StopRule(max_messages=5000,
                                         divergence_threshold=20)),
        "fleet_ties": (fleet_config(0.9, seed=1),
                       PolicyKind.MULTI_PARTITIONING,
                       StopRule(max_messages=4000)),
    }


@pytest.mark.parametrize("case", list(_cutoff_cases()))
def test_diverged_is_exactly_occupancy_over_the_threshold(case):
    # the verdict's cutoff has one owner: a run's rebuilt occupancy passes
    # the simulation's threshold exactly when the engine flagged it
    cfg, kind, stop = _cutoff_cases()[case]
    sim = Simulation(cfg, make_policy(kind, cfg), stop)
    trace = sim.run()
    departures = [m.departure_time for m in trace.completed]
    if case == "fleet_ties":
        assert len(set(departures)) < len(departures)
        # completion order is departure-time order, ties included, so
        # cli.dump_messages writes trace.completed unsorted
        assert departures == sorted(departures)
    occ = occupancy_steps([m.arrival_time for m in trace.messages],
                          departures)
    assert (occ[:, 1].max() > sim.divergence_threshold) == trace.diverged
    assert trace.diverged == case.startswith(("fcfs", "grid"))


# -- policy contract enforcement --------------------------------------------------------


class _RogueBase:
    name = "rogue"

    def attach(self, sim):
        pass

    def on_arrival(self, sim, msg):
        pass


class _ReceivesAnything(_RogueBase):
    def next_action(self, sim, collector_id):
        for m in sim.messages:
            if m.reception_start is None:
                return Receive(m.id)
        return WAIT


class _ReceivesUnknown(_RogueBase):
    def next_action(self, sim, collector_id):
        return Receive(999)


class _ReceivesTwice(_RogueBase):
    def next_action(self, sim, collector_id):
        if sim.messages:
            return Receive(0)
        return WAIT


class _ReturnsNothing(_RogueBase):
    def next_action(self, sim, collector_id):
        return None


class _TravelsShort(_RogueBase):
    def __init__(self, length):
        self.length = length

    def next_action(self, sim, collector_id):
        return TravelTo(complex(0.0, 0.0), self.length)


@pytest.mark.parametrize("length", [1.4, -1.0, math.nan])
def test_travel_shorter_than_the_straight_line_is_rejected(length):
    # the collector starts at the center (1, 1), sqrt(2) from the target
    cfg = reception_queue_config(0.5, seed=0)
    with pytest.raises(ContractViolation, match="policy 'rogue'.*shorter"):
        run(cfg, _TravelsShort(length), StopRule(max_messages=10))


def test_out_of_range_reception_is_rejected():
    # tiny radius on a big region: the first arrival is out of range from the
    # center with overwhelming probability; if it ever were in range the
    # repeat reception would violate instead, so the run always errors
    cfg = wide_region_config(0.5, seed=0, reception_time=1.0, speed=1.0)
    with pytest.raises(ContractViolation):
        run(cfg, _ReceivesAnything(), StopRule(max_messages=10))


def test_unknown_message_is_rejected():
    cfg = reception_queue_config(0.5, seed=0)
    with pytest.raises(ContractViolation, match="unknown"):
        run(cfg, _ReceivesUnknown(), StopRule(max_messages=10))


def test_double_reception_is_rejected():
    # radius covers the whole region, so the first Receive(0) is legal and
    # the second one must trip the duplicate check
    cfg = reception_queue_config(0.5, seed=0)
    with pytest.raises(ContractViolation, match="twice"):
        run(cfg, _ReceivesTwice(), StopRule(max_messages=10))


def test_non_action_is_rejected():
    cfg = reception_queue_config(0.5, seed=0)
    with pytest.raises(ContractViolation,
                       match="policy 'rogue' returned None, which is not"):
        run(cfg, _ReturnsNothing(), StopRule(max_messages=10))


def test_step_policy_rejects_a_non_action():
    # the contract is step_policy's own, not the event loop's
    cfg = reception_queue_config(0.5, seed=0)
    policy = _ReturnsNothing()
    sim = Simulation(cfg, policy, StopRule(max_messages=10))
    with pytest.raises(ContractViolation,
                       match="policy 'rogue' returned None, which is not"):
        step_policy(policy, sim, 0)


def test_wait_action_singleton():
    assert isinstance(WAIT, Wait)
    assert TravelTo(complex(1.0, 2.0)).target == complex(1.0, 2.0)


@pytest.mark.parametrize("action", [
    TravelTo(complex(1.0, 2.0)), TravelTo(complex(1.0, 2.0), 3.0), Receive(4)])
def test_actions_are_frozen_values(action):
    # their __init__ sets the slots directly; they stay frozen dataclasses
    values = {f.name: getattr(action, f.name) for f in fields(action)}
    with pytest.raises(AttributeError):
        setattr(action, next(iter(values)), None)
    assert type(action)(**values) == action == replace(action)
    assert hash(action) == hash(pickle.loads(pickle.dumps(action)))


# -- measured load -----------------------------------------------------------------------


def test_measured_load_tracks_offered_load():
    cfg = reception_queue_config(0.5, seed=9)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=20_000))
    measured = wait_split(trace)[2] / (cfg.collectors * trace.end_time)
    assert measured == pytest.approx(0.5, rel=0.05)


def test_infinite_speed_travel_is_instant():
    cfg = wide_region_config(0.5, seed=4, reception_time=1.0,
                             speed=math.inf)
    trace = run(cfg, _fcfs(cfg), StopRule(max_messages=2000))
    assert len(trace.completed) == 2000
    # travel takes zero time, so every wait is pure queueing
    travel = wait_split(trace)[0]
    for m in trace.completed:
        assert abs(travel[m.id]) <= 1e-9
    # distance is still accumulated even though it costs no time
    assert trace.total_travel_distance > 0.0