"""Routing policy behavior: service order, epochs, sweeps and partitioning."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from collectsim import policies
from collectsim.core import (ConfigurationError, Point, ScenarioConfig,
                             distance)
from collectsim.engine import (WAIT, Receive, Simulation, StopRule, TravelTo,
                               run)
from collectsim.policies import (Fcfs, FcfsReturn, GridPartitioning,
                                 MultiPartitioning, PolicyKind, TspnCyclic,
                                 make_policy)

from matrixlib import (case2_config, fleet_config, reception_queue_config,
                       wide_region_config)

R_WIDE = 2.2  # reception radius of the wide_region scenarios


# -- construction and validation --------------------------------------------------


def test_make_policy_kinds_and_names():
    cfg = reception_queue_config(0.5, seed=0)
    for kind, cls in [(PolicyKind.FCFS, Fcfs),
                      (PolicyKind.FCFS_RETURN, FcfsReturn),
                      (PolicyKind.TSPN_CYCLIC, TspnCyclic),
                      (PolicyKind.GRID_PARTITIONING, GridPartitioning)]:
        pol = make_policy(kind, cfg)
        assert isinstance(pol, cls)
        assert pol.name == kind.value
    # string spellings work too
    assert isinstance(make_policy("fcfs", cfg), Fcfs)


def test_make_policy_validates_collector_count():
    multi_cfg = fleet_config(0.5, seed=0, collectors=4)
    assert isinstance(make_policy("multi_partitioning", multi_cfg),
                      MultiPartitioning)
    with pytest.raises(ConfigurationError):
        make_policy("fcfs", multi_cfg)  # single-collector policy, m = 4
    bad = fleet_config(0.5, seed=0, collectors=3)
    with pytest.raises(ConfigurationError):
        make_policy("multi_partitioning", bad)  # 3 is not a square
    with pytest.raises(ValueError):
        make_policy("no_such_policy", multi_cfg)
    # each collector sweeps its own fleet cell, from that cell's corner
    pol = make_policy("multi_partitioning", multi_cfg)
    pol.attach(Simulation(multi_cfg, pol))
    half = pol.fleet.cell_side / 2.0
    assert len(pol.inners) == pol.fleet.num_cells
    for i, inner in enumerate(pol.inners):
        assert isinstance(inner, GridPartitioning)
        center = pol.fleet.cell_center(i)
        assert (inner.grid.origin.x, inner.grid.origin.y) == pytest.approx(
            (center.x - half, center.y - half), rel=1e-12)


def test_policy_instances_are_resettable():
    cfg = wide_region_config(0.5, seed=2, reception_time=1.0, speed=2.0)
    pol = make_policy("fcfs", cfg)
    a = run(cfg, pol, StopRule(max_messages=200))
    b = run(cfg, pol, StopRule(max_messages=200))
    assert [m.departure_time for m in a.completed] == \
        [m.departure_time for m in b.completed]


# -- arrival-order service ----------------------------------------------------------


def test_fcfs_serves_in_arrival_order():
    cfg = wide_region_config(0.5, seed=1, reception_time=1.0, speed=2.0)
    trace = run(cfg, make_policy("fcfs", cfg), StopRule(max_messages=300))
    assert [m.id for m in trace.completed] == list(range(300))
    starts = [m.reception_start for m in trace.completed]
    assert starts == sorted(starts)


def test_fcfs_isolated_message_delay():
    cfg = wide_region_config(0.5, seed=0, reception_time=1.0, speed=2.0)
    sim = Simulation(cfg, make_policy("fcfs", cfg), StopRule(max_messages=1))
    trace = sim.run()
    msg = trace.completed[0]
    d = distance(cfg.center, msg.location)
    assert d > R_WIDE  # seed 0's first arrival is outside the disk
    expected = (d - R_WIDE) / cfg.speed + cfg.reception_time
    assert msg.departure_time - msg.arrival_time == pytest.approx(
        expected, rel=1e-12)
    assert msg.wait_travel == pytest.approx((d - R_WIDE) / cfg.speed,
                                            rel=1e-12)
    assert msg.wait_service == pytest.approx(0.0, abs=1e-12)


class _LoggingFcfsReturn(FcfsReturn):
    def __init__(self):
        super().__init__()
        self.log = []

    def next_action(self, sim, collector_id):
        action = super().next_action(sim, collector_id)
        self.log.append(action)
        return action


def test_fcfs_return_goes_back_to_center_after_each_reception():
    cfg = wide_region_config(0.5, seed=3, reception_time=1.0, speed=2.0)
    pol = _LoggingFcfsReturn()
    run(cfg, pol, StopRule(max_messages=150))
    center = Point(cfg.side / 2.0, cfg.side / 2.0)
    receives = [i for i, a in enumerate(pol.log) if isinstance(a, Receive)]
    assert len(receives) >= 150
    for i in receives:
        if i + 1 < len(pol.log):
            nxt = pol.log[i + 1]
            assert isinstance(nxt, TravelTo)
            assert nxt.target == center


def test_fcfs_return_pays_for_the_detour():
    cfg = wide_region_config(0.5, seed=4, reception_time=1.0, speed=2.0)
    plain = run(cfg, make_policy("fcfs", cfg), StopRule(max_messages=400))
    detour = run(cfg, make_policy("fcfs_return", cfg),
                 StopRule(max_messages=400))
    # same arrival stream and service order, but every reception is followed
    # by a hop back to the center: substantially more travel, larger delays
    assert detour.total_travel_distance > plain.total_travel_distance
    mean = lambda t: sum(m.departure_time - m.arrival_time
                         for m in t.completed) / len(t.completed)
    assert mean(detour) > mean(plain)


def test_fcfs_faster_collector_departs_no_later():
    slow_cfg = wide_region_config(0.5, seed=5, reception_time=1.0, speed=2.0)
    fast_cfg = wide_region_config(0.5, seed=5, reception_time=1.0,
                                  speed=math.inf)
    slow = run(slow_cfg, make_policy("fcfs", slow_cfg),
               StopRule(max_messages=400))
    fast = run(fast_cfg, make_policy("fcfs", fast_cfg),
               StopRule(max_messages=400))
    for a, b in zip(fast.completed, slow.completed):
        assert a.id == b.id
        assert a.departure_time <= b.departure_time + 1e-9


# -- epoch tour service ---------------------------------------------------------------


def test_tspn_epochs_freeze_the_pending_set():
    cfg = wide_region_config(0.5, seed=7, reception_time=1.0, speed=1.0)
    pol = make_policy("tspn_cyclic", cfg)
    sim = Simulation(cfg, pol, StopRule(max_messages=1500,
                                        divergence_threshold=5000.0))
    trace = sim.run()
    assert not trace.diverged
    epochs = pol.epochs
    assert len(epochs) >= 2
    seen: set[int] = set()
    prev_start = -math.inf
    for start, ids, method, length in epochs:
        assert start > prev_start
        assert method in {"grid_cover", "tspn"}
        assert length >= 0.0
        assert ids  # an epoch is only planned for a nonempty backlog
        assert not seen.intersection(ids)  # each message in exactly one epoch
        for i in ids:
            # frozen at epoch start: already arrived, not served before
            assert sim.messages[i].arrival_time <= start + 1e-12
        seen.update(ids)
        prev_start = start
    # arrivals during a tour wait for a later epoch
    for (start, ids, _, _), (nxt_start, nxt_ids, _, _) in zip(epochs,
                                                              epochs[1:]):
        for i in nxt_ids:
            assert sim.messages[i].arrival_time > start - 1e-12
    # everything served was frozen in some epoch
    assert {m.id for m in trace.completed} <= seen


def test_tspn_isolated_message_delay():
    cfg = wide_region_config(0.5, seed=0, reception_time=1.0, speed=1.0)
    trace = run(cfg, make_policy("tspn_cyclic", cfg),
                StopRule(max_messages=1))
    msg = trace.completed[0]
    d = distance(cfg.center, msg.location)
    assert d > R_WIDE
    assert msg.departure_time - msg.arrival_time == pytest.approx(
        (d - R_WIDE) / cfg.speed + cfg.reception_time, rel=1e-9)


def test_tspn_tour_lengths_respect_the_cap():
    from collectsim.tspn import tour_cap

    cfg = wide_region_config(0.8, seed=8, reception_time=0.4, speed=1.0)
    pol = make_policy("tspn_cyclic", cfg)
    run(cfg, pol, StopRule(max_messages=2000, divergence_threshold=5000.0))
    cap = tour_cap(pol.grid)
    assert all(length <= cap + 1e-9 for _, _, _, length in pol.epochs)


# -- cell sweep -------------------------------------------------------------------------


def _two_by_two_config(arrival_rate: float, seed: int,
                       speed: float = 1.0) -> ScenarioConfig:
    # radius exactly 5 on a 200-area region: a 2 x 2 grid, cell side 7.0711
    return ScenarioConfig(area=200.0, arrival_rate=arrival_rate,
                          reception_time=1.0, speed=speed,
                          snr_ref=2.0 * 5.0 ** 4, snr_threshold=2.0,
                          path_loss=4.0, collectors=1, seed=seed)


def test_grid_sweep_hops_are_always_one_cell_side():
    cfg = _two_by_two_config(0.5, seed=1)
    pol = make_policy("grid_partitioning", cfg)
    trace = run(cfg, pol, StopRule(max_messages=500))
    cell_side = pol.grid.cell_side
    assert cell_side == pytest.approx(math.sqrt(200.0) / 2.0)
    # every hop in a 2x2 sweep is center-to-center: total distance is an
    # exact multiple of the cell side
    hops = trace.total_travel_distance / cell_side
    assert hops == pytest.approx(round(hops), abs=1e-9)
    assert hops > 0


def test_grid_sweep_keeps_cycling_while_idle():
    cfg = _two_by_two_config(0.01, seed=12)
    pol = make_policy("grid_partitioning", cfg)
    sim = Simulation(cfg, pol, StopRule(horizon=400.0))
    trace = sim.run()
    assert len(trace.messages) >= 1
    first = sim.messages[0].arrival_time
    # from the first dispatch onward the collector never stands still: all
    # time after the first arrival is spent traveling or receiving
    busy = trace.total_travel_distance / cfg.speed + trace.receiving_time
    idle_before = first
    slack = pol.grid.cell_side / cfg.speed + cfg.reception_time
    assert busy >= (400.0 - idle_before) - slack


def test_grid_sweep_parks_when_one_cell_covers_everything():
    cfg = reception_queue_config(0.5, seed=3)
    trace = run(cfg, make_policy("grid_partitioning", cfg),
                StopRule(max_messages=500))
    assert trace.total_travel_distance == 0.0


def test_grid_sweep_parks_at_infinite_speed_when_empty():
    cfg = _two_by_two_config(0.5, seed=2, speed=math.inf)
    trace = run(cfg, make_policy("grid_partitioning", cfg),
                StopRule(max_messages=500))
    # terminates (the zero-time hop guard) and still serves everything
    assert len(trace.completed) == 500
    for m in trace.completed:
        assert abs(m.wait_travel) <= 1e-9


def test_grid_sweep_is_busy_from_first_arrival_to_horizon():
    # the leg in flight at the horizon is billed up to the horizon
    cfg = _two_by_two_config(0.01, seed=12)
    sim = Simulation(cfg, make_policy("grid_partitioning", cfg),
                     StopRule(horizon=400.0))
    trace = sim.run()
    busy = trace.total_travel_distance / cfg.speed + trace.receiving_time
    assert busy == pytest.approx(400.0 - sim.messages[0].arrival_time,
                                 abs=1e-9)


class _HopByHopGrid(GridPartitioning):
    """The sweep one hop per leg, as it was before empty cells were jumped:
    the reference the jumping sweep must match. ``driven`` logs each hop's
    length."""

    def attach(self, sim):
        super().attach(sim)
        self.driven = []

    def next_action(self, sim, collector_id):
        queue = self.stops[self.cursor][1]
        if queue:
            return Receive(queue.popleft())
        if len(self.stops) == 1:
            return WAIT
        if math.isinf(sim.config.speed) and not any(self.queues):
            return WAIT  # zero-time hops forever would not advance the clock
        self.driven.append(self.hops[self.cursor])
        self.cursor = (self.cursor + 1) % len(self.stops)
        return TravelTo(self.stops[self.cursor][0])


def _serpentine_config(arrival_rate: float, seed: int) -> ScenarioConfig:
    # radius exactly 5 on a 700-area region: a 4 x 4 serpentine
    return replace(_two_by_two_config(arrival_rate, seed), area=700.0)


def _assert_same_service(new, ref, end_time):
    assert [m.id for m in new] == [m.id for m in ref]
    for a, b in zip(new, ref):
        assert a.arrival_time == b.arrival_time
        for t in ("reception_start", "departure_time"):
            assert getattr(a, t) == pytest.approx(getattr(b, t),
                                                  abs=1e-10 * end_time)


@pytest.mark.parametrize("make_config", [
    lambda seed: case2_config(0.3, seed), lambda seed: case2_config(0.8, seed),
    lambda seed: _two_by_two_config(0.1, seed),
    lambda seed: _serpentine_config(0.05, seed),
], ids=["case2@0.3", "case2@0.8", "2x2", "4x4"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_jump_matches_hop_by_hop(make_config, seed):
    cfg = make_config(seed)
    stop = StopRule(max_messages=5000)
    new = run(cfg, make_policy("grid_partitioning", cfg), stop)
    ref_policy = _HopByHopGrid()
    ref = run(cfg, ref_policy, stop)
    assert new.end_time == pytest.approx(ref.end_time, rel=1e-10)
    _assert_same_service(new.completed, ref.completed, ref.end_time)
    # the exact length of the reference path: the reference's own running
    # total, summed one hop at a time, drifts from it by up to 1.2e-12
    assert new.total_travel_distance == pytest.approx(
        math.fsum(ref_policy.driven), rel=1e-12)


@pytest.mark.parametrize("load", [0.3, 0.7])
@pytest.mark.parametrize("seed", [1, 2])
def test_fleet_grid_jump_matches_hop_by_hop(monkeypatch, load, seed):
    cfg = fleet_config(load, seed)
    stop = StopRule(max_messages=5000)
    new = run(cfg, make_policy("multi_partitioning", cfg), stop)
    monkeypatch.setattr(policies, "GridPartitioning", _HopByHopGrid)
    ref_policy = make_policy("multi_partitioning", cfg)
    ref = run(cfg, ref_policy, stop)
    assert all(type(p) is _HopByHopGrid for p in ref_policy.inners)
    # a round-off tie can reorder two collectors' completions
    by_id = lambda trace: sorted(trace.completed, key=lambda m: m.id)
    assert new.end_time == pytest.approx(ref.end_time, rel=1e-10)
    _assert_same_service(by_id(new), by_id(ref), ref.end_time)
    assert new.total_travel_distance == pytest.approx(
        ref.total_travel_distance, rel=1e-12)


# -- partitioned fleets --------------------------------------------------------------------


def test_multi_partitioning_subregion_layout():
    cfg = fleet_config(0.5, seed=0, collectors=4)
    pol = make_policy("multi_partitioning", cfg)
    sim = Simulation(cfg, pol, StopRule(max_messages=10))
    pol.attach(sim)
    j = pol.fleet.cells_per_side
    assert j == 2
    sub = pol.fleet.cell_side
    assert sub == pytest.approx(cfg.side / 2.0)
    # row-major quadrants
    eps = 0.01
    assert pol.fleet.cell_of(Point(eps, eps)) == 0
    assert pol.fleet.cell_of(Point(sub + eps, eps)) == 1
    assert pol.fleet.cell_of(Point(eps, sub + eps)) == 2
    assert pol.fleet.cell_of(Point(sub + eps, sub + eps)) == 3
    # clamping for boundary/outside points
    assert pol.fleet.cell_of(Point(-1.0, -1.0)) == 0
    assert pol.fleet.cell_of(Point(cfg.side + 1.0, cfg.side + 1.0)) == 3
    # collectors start inside their own subregion
    for i, c in enumerate(sim.collectors):
        assert pol.fleet.cell_of(c.position) == i


def test_multi_partitioning_balances_messages_across_quadrants():
    cfg = fleet_config(0.5, seed=6, collectors=4)
    pol = make_policy("multi_partitioning", cfg)
    sim = Simulation(cfg, pol, StopRule(max_messages=2000))
    trace = sim.run()
    counts = [0, 0, 0, 0]
    for m in trace.completed:
        counts[pol.fleet.cell_of(m.location)] += 1
    assert sum(counts) == 2000
    for c in counts:
        assert 400 <= c <= 600  # ~5 sigma around the binomial mean of 500


def test_multi_partitioning_keeps_collectors_in_their_quadrant():
    cfg = fleet_config(0.7, seed=9, collectors=4)
    pol = make_policy("multi_partitioning", cfg)
    sim = Simulation(cfg, pol, StopRule(max_messages=1000))
    sim.run()
    for i, c in enumerate(sim.collectors):
        assert pol.fleet.cell_of(c.position) == i


def test_multi_partitioning_rejects_nonsquare_fleet_on_attach():
    cfg = fleet_config(0.5, seed=0, collectors=4)
    pol = MultiPartitioning()
    bad_cfg = fleet_config(0.5, seed=0, collectors=2)
    sim = Simulation(bad_cfg, pol, StopRule(max_messages=10))
    with pytest.raises(ConfigurationError):
        pol.attach(sim)
    assert cfg.collectors == 4  # square case attaches fine
    ok = Simulation(cfg, MultiPartitioning(), StopRule(max_messages=10))
    ok.policy.attach(ok)
