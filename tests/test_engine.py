"""Event-loop physics: arrivals, motion, receptions, waits and stop rules."""
from __future__ import annotations

import math

import numpy as np
import pytest

from collectsim.core import (ConfigurationError, ContractViolation, Point,
                             distance)
from collectsim.engine import (WAIT, EventTrace, Receive, Simulation,
                               StopRule, TravelTo, Wait, generate_arrivals,
                               run)
from collectsim.policies import PolicyKind, make_policy
from collectsim.stats import occupancy_steps

from matrixlib import (case2_config, reception_queue_config,
                       wide_region_config)


def _grid_policy(cfg):
    return make_policy(PolicyKind.GRID_PARTITIONING, cfg)


def _fcfs(cfg):
    return make_policy(PolicyKind.FCFS, cfg)


# -- stop rule validation -------------------------------------------------------


def test_stop_rule_requires_some_stop():
    with pytest.raises(ConfigurationError):
        StopRule()
    with pytest.raises(ConfigurationError):
        StopRule(max_messages=0)
    with pytest.raises(ConfigurationError):
        StopRule(horizon=-1.0)
    with pytest.raises(ConfigurationError):
        StopRule(max_messages=10, divergence_threshold=0.0)


def test_stop_rule_accepts_combinations():
    StopRule(max_messages=5)
    StopRule(horizon=10.0)
    StopRule(max_messages=5, horizon=10.0, divergence_threshold=100.0)


# -- arrival stream ---------------------------------------------------------------


def test_generate_arrivals_sorted_within_horizon():
    rng = np.random.default_rng(3)
    arr = generate_arrivals(2.0, 100.0, rng, 10.0)
    times = [t for t, _ in arr]
    assert times == sorted(times)
    assert times[-1] <= 100.0
    assert all(0.0 <= p.x <= 10.0 and 0.0 <= p.y <= 10.0 for _, p in arr)
    # about rate * horizon arrivals
    assert 140 <= len(arr) <= 260


def test_generate_arrivals_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        generate_arrivals(0.0, 10.0, rng, 1.0)
    with pytest.raises(ConfigurationError):
        generate_arrivals(1.0, 0.0, rng, 1.0)


def test_simulation_arrivals_match_generator():
    cfg = reception_queue_config(0.5, seed=42)
    sim = Simulation(cfg, _grid_policy(cfg), StopRule(max_messages=300))
    trace = sim.run()
    rng = np.random.default_rng(cfg.seed)
    arr = generate_arrivals(cfg.arrival_rate, trace.end_time, rng, cfg.side)
    assert abs(len(arr) - len(trace.messages)) <= 1
    assert len(trace.messages) >= 300
    for (t, loc), msg in zip(arr, sim.messages):
        assert msg.arrival_time == pytest.approx(t, rel=1e-12)
        assert msg.location == loc


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
    for m in trace.completed:
        assert m.departure_time is not None
        total = m.departure_time - m.arrival_time
        assert total == pytest.approx(m.wait_travel + m.wait_service + s,
                                      abs=1e-9)
        assert m.wait_travel >= -1e-9
        assert m.wait_service >= -1e-9
        assert m.reception_start == pytest.approx(m.departure_time - s,
                                                  abs=1e-9)


def test_receiving_time_equals_completed_service():
    cfg = reception_queue_config(0.5, seed=5)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=1000))
    # single collector stopped exactly at its 1000th completion
    assert trace.receiving_time == pytest.approx(
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
    for m in trace.completed:
        assert abs(m.wait_travel) <= 1e-9


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


def test_horizon_stops_clock():
    cfg = case2_config(0.5, seed=1)
    trace = run(cfg, _grid_policy(cfg), StopRule(horizon=200.0))
    assert trace.end_time == 200.0
    assert all(m.departure_time <= 200.0 for m in trace.completed)
    assert all(m.arrival_time <= 200.0 for m in trace.completed)


def test_earlier_of_target_and_horizon_wins():
    cfg = case2_config(0.5, seed=1)
    by_target = run(cfg, _grid_policy(cfg),
                    StopRule(max_messages=50, horizon=1e9))
    assert len(by_target.completed) == 50
    by_horizon = run(cfg, _grid_policy(cfg),
                     StopRule(max_messages=10 ** 9, horizon=100.0))
    assert by_horizon.end_time == 100.0


def test_default_divergence_threshold_scales_with_load():
    cfg = case2_config(0.95, seed=1)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=10))
    assert trace.divergence_threshold == pytest.approx(950.0)
    light = reception_queue_config(0.5, seed=1)
    t2 = run(light, _grid_policy(light), StopRule(max_messages=10))
    assert t2.divergence_threshold == pytest.approx(500.0)


def test_divergence_threshold_override():
    cfg = case2_config(0.5, seed=1)
    trace = run(cfg, _grid_policy(cfg),
                StopRule(max_messages=10, divergence_threshold=123.0))
    assert trace.divergence_threshold == 123.0
    assert not trace.diverged


def test_unstable_fcfs_run_flags_divergence():
    cfg = wide_region_config(0.95, seed=6, reception_time=1.0, speed=2.0)
    trace = run(cfg, _fcfs(cfg), StopRule(max_messages=100_000))
    assert trace.diverged
    assert len(trace.messages) < 100_000
    # backlog at the stop exceeds the threshold
    backlog = sum(m.departure_time is None for m in trace.messages)
    assert backlog > trace.divergence_threshold
    # the same scenario under the cell sweep is comfortably stable
    sweep = run(cfg, _grid_policy(cfg), StopRule(max_messages=5_000))
    assert not sweep.diverged
    assert len(sweep.completed) == 5_000


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


class _TravelsShort(_RogueBase):
    def __init__(self, length):
        self.length = length

    def next_action(self, sim, collector_id):
        return TravelTo(Point(0.0, 0.0), self.length)


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


def test_wait_action_singleton():
    assert isinstance(WAIT, Wait)
    assert TravelTo(Point(1.0, 2.0)).target == Point(1.0, 2.0)


# -- measured load -----------------------------------------------------------------------


def test_measured_load_tracks_offered_load():
    cfg = reception_queue_config(0.5, seed=9)
    trace = run(cfg, _grid_policy(cfg), StopRule(max_messages=20_000))
    measured = trace.receiving_time / (cfg.collectors * trace.end_time)
    assert measured == pytest.approx(0.5, rel=0.05)


def test_infinite_speed_travel_is_instant():
    cfg = wide_region_config(0.5, seed=4, reception_time=1.0,
                             speed=math.inf)
    trace = run(cfg, _fcfs(cfg), StopRule(max_messages=2000))
    assert len(trace.completed) == 2000
    # travel takes zero time, so every wait is pure queueing
    for m in trace.completed:
        assert abs(m.wait_travel) <= 1e-9
    # distance is still accumulated even though it costs no time
    assert trace.total_travel_distance > 0.0