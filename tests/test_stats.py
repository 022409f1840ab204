"""Steady-state estimation: batch means, verdicts, pooling, scaling fits."""
from __future__ import annotations

import math
import pickle
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import stdtr, stdtrit
from scipy.stats import linregress

from collectsim.bounds import partitioning_delay, pk_mg1_wait
from collectsim.core import Message
from collectsim.engine import EventTrace, StopRule, run
from collectsim.policies import make_policy
from collectsim.stats import (MIN_KEPT_MESSAGES, _Z975, _t975, ScalingFit,
                              SimResult, TraceStats, detect_divergence,
                              occupancy_steps, pool_stats, scaling_fit,
                              trace_stats, wait_split)

from matrixlib import (case1_config, case2_config, fleet_config,
                       reception_queue_config, wide_region_config)


def _synthetic_trace(messages, end_time, diverged=False, completed=None):
    """A trace of ``messages`` in id order, whose arrival and departure
    times imply its occupancy; ``completed`` defaults to the finished ones
    in departure order."""
    if completed is None:
        completed = sorted((m for m in messages
                            if m.departure_time is not None),
                           key=lambda m: m.departure_time)
    cfg = reception_queue_config(0.5, seed=0)
    return EventTrace(config=cfg, messages=messages, completed=completed,
                      total_travel_distance=0.0, end_time=end_time,
                      diverged=diverged)


def _message(i, arrival, departure, service=1.0):
    """Message ``i``; a finished one was received by collector 0."""
    if departure is None:
        return Message(id=i, arrival_time=arrival, location=complex(1.0, 1.0))
    return Message(id=i, arrival_time=arrival, location=complex(1.0, 1.0),
                   reception_start=departure - service,
                   departure_time=departure, collector=0)


def _constant_delay_messages(n, delay, gap=1.0, service=1.0):
    return [_message(i, i * gap, i * gap + delay, service) for i in range(n)]


@pytest.fixture(scope="module")
def md1_runs():
    traces = []
    for seed in (101, 102):
        cfg = reception_queue_config(0.5, seed=seed)
        pol = make_policy("grid_partitioning", cfg)
        traces.append(run(cfg, pol, StopRule(max_messages=20_000)))
    return traces


# -- divergence detector -----------------------------------------------------------


def test_detector_empty_and_degenerate():
    assert detect_divergence([]) == "stable"
    assert detect_divergence([(0.0, 1)]) == "inconclusive"  # zero span


def test_detector_constant_occupancy_is_stable():
    samples = [(float(i), 5) for i in range(1, 1000)]
    assert detect_divergence(samples) == "stable"


def test_detector_alternating_queue_is_stable():
    samples = []
    for i in range(2000):
        samples.append((2.0 * i, 1))
        samples.append((2.0 * i + 1.0, 0))
    assert detect_divergence(samples) == "stable"


def test_detector_spike_alone_is_not_diverged():
    # a spike alone does not settle the verdict: the cutoff is the engine's
    samples = [(float(i), 3) for i in range(1, 500)]
    samples.append((500.0, 1001))
    assert detect_divergence(samples) != "diverged"


def test_detector_growth_diverges_without_threshold():
    # late surge: constant 10 for two thirds, then constant 100
    samples = [(float(i), 10) for i in range(1, 667)]
    samples += [(float(i), 100) for i in range(667, 1000)]
    assert detect_divergence(samples) == "diverged"


def test_detector_quadratic_growth_diverges():
    samples = [(float(i), i * i) for i in range(1, 1000)]
    assert detect_divergence(samples) == "diverged"


def test_detector_mild_drift_is_inconclusive():
    # last third sits at 1.6x the middle third: too much growth to call
    # stable, not enough separation to call diverged
    samples = [(float(i), 10) for i in range(1, 667)]
    samples += [(float(i), 16) for i in range(667, 1000)]
    assert detect_divergence(samples) == "inconclusive"


def test_detector_takes_pairs_or_an_array():
    flat = [(float(i), 5) for i in range(1, 1000)]
    growth = [(float(i), i * i) for i in range(1, 1000)]
    drift = [(float(i), 10 if i < 667 else 16) for i in range(1, 1000)]
    for samples in [[], flat, growth, drift]:
        verdict = detect_divergence(samples)
        assert detect_divergence(
            np.array(samples, dtype=float).reshape(-1, 2)) == verdict


# -- Student-t quantile -------------------------------------------------------------

T975_DFS = range(1, 2001)


def test_t975_matches_scipy_stdtrit():
    worst = max(abs(_t975(df) / stdtrit(df, 0.975) - 1.0) for df in T975_DFS)
    assert worst <= 1e-12


def test_t975_newton_start_is_the_normal_quantile():
    assert _Z975.hex() == NormalDist().inv_cdf(0.975).hex()


def test_t975_exact_at_one_and_two_degrees():
    # cot(pi / 40) and 0.95 / sqrt(0.04875), to 18 digits
    assert _t975(1) == pytest.approx(12.7062047361747046, rel=1e-15)
    assert _t975(2) == pytest.approx(4.30265272974946385, rel=1e-15)


def test_t975_strictly_decreasing_in_df():
    values = [_t975(df) for df in T975_DFS]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_t975_cdf_hits_the_level():
    worst = max(abs(stdtr(df, _t975(df)) - 0.975) for df in T975_DFS)
    assert worst <= 1e-14


# -- occupancy from the message records ------------------------------------------------


def _replay_occupancy(messages):
    """(time, count) after each event, replayed one event at a time from
    the arrivals in id order and the sorted departures: at equal times the
    departure is handled first, as in the engine."""
    arrivals = [m.arrival_time for m in messages]
    departures = sorted(m.departure_time for m in messages
                        if m.departure_time is not None)
    samples, count, i, j = [], 0, 0, 0
    while i < len(arrivals) or j < len(departures):
        if j < len(departures) and (i == len(arrivals)
                                    or departures[j] <= arrivals[i]):
            count -= 1
            samples.append((departures[j], count))
            j += 1
        else:
            count += 1
            samples.append((arrivals[i], count))
            i += 1
        assert count >= 0
    return samples


def _rebuilt_occupancy(messages):
    occ = occupancy_steps(
        [m.arrival_time for m in messages],
        [m.departure_time for m in messages if m.departure_time is not None])
    return [tuple(row) for row in occ.tolist()]


def _fleet_trace_with_ties():
    cfg = fleet_config(0.9, seed=1)
    trace = run(cfg, make_policy("multi_partitioning", cfg),
                StopRule(max_messages=4000))
    departures = sorted(m.departure_time for m in trace.completed)
    assert any(a == b for a, b in zip(departures, departures[1:]))
    return trace


def _diverged_trace():
    cfg = wide_region_config(0.95, seed=6, reception_time=1.0, speed=2.0)
    trace = run(cfg, make_policy("fcfs", cfg),
                StopRule(max_messages=100_000, divergence_threshold=300.0))
    assert trace.diverged
    return trace


def _horizon_trace():
    # the message target leaves five arrived messages unfinished at the end
    cfg = case2_config(0.8, seed=3)
    trace = run(cfg, make_policy("grid_partitioning", cfg),
                StopRule(max_messages=800))
    assert any(m.departure_time is None for m in trace.messages)
    return trace


@pytest.mark.parametrize("make_trace", [
    _fleet_trace_with_ties, _diverged_trace, _horizon_trace])
def test_occupancy_matches_event_replay(make_trace):
    messages = make_trace().messages
    assert _rebuilt_occupancy(messages) == _replay_occupancy(messages)


def test_occupancy_puts_a_departure_before_a_simultaneous_arrival():
    messages = [_message(0, 0.0, 5.0), _message(1, 5.0, 7.0),
                _message(2, 6.0, None)]
    expected = [(0.0, 1), (5.0, 0), (5.0, 1), (6.0, 2), (7.0, 1)]
    assert _replay_occupancy(messages) == expected
    assert _rebuilt_occupancy(messages) == expected


# -- wait split ------------------------------------------------------------------------


def _oracle_split(trace):
    """Brute force, per message in Python floats: the service wait is the
    overlap of each other reception by the same collector with [arrival,
    reception start], the travel wait the rest of that interval; the
    receiving total adds every reception's span up to the end time."""
    spans = {}  # collector -> [(message id, start, end)]
    for m in trace.messages:
        if m.reception_start is not None:
            end = (trace.end_time if m.departure_time is None
                   else m.departure_time)
            spans.setdefault(m.collector, []).append(
                (m.id, m.reception_start, end))
    split = {}
    for m in trace.messages:
        if m.reception_start is None:
            continue
        service = sum(max(0.0, min(end, m.reception_start)
                          - max(start, m.arrival_time))
                      for i, start, end in spans[m.collector] if i != m.id)
        split[m.id] = (m.reception_start - m.arrival_time - service, service)
    total = sum(end - start for runs in spans.values()
                for _, start, end in runs)
    return split, total


def _split_cases():
    fleet9 = fleet_config(0.7, seed=6, collectors=9)
    done = StopRule(max_messages=800)
    return {
        "grid": (case2_config(0.8, seed=1), "grid_partitioning", done),
        "fcfs": (case2_config(0.7, seed=2), "fcfs", done),
        "tspn_cyclic": (case2_config(0.8, seed=3), "tspn_cyclic", done),
        "fleet4": (fleet_config(0.7, seed=4), "multi_partitioning", done),
        "fleet9": (fleet9, "multi_partitioning", done),
        "fleet4_inf_speed": (replace(fleet_config(0.5, seed=5),
                                     speed=math.inf),
                             "multi_partitioning", done),
        "fleet9_inf_speed": (replace(fleet9, speed=math.inf),
                             "multi_partitioning", done),
        # stopped at an arrival, after 972 messages, mid-reception
        "horizon": (case2_config(0.7, seed=7), "fcfs",
                    StopRule(max_messages=5000, divergence_threshold=10)),
        "divergence": (case2_config(0.95, seed=8), "grid_partitioning",
                       StopRule(max_messages=5000, divergence_threshold=20)),
    }


@pytest.mark.parametrize("case", list(_split_cases()))
def test_wait_split_matches_brute_force_overlaps(case):
    cfg, kind, stop = _split_cases()[case]
    trace = run(cfg, make_policy(kind, cfg), stop)
    if case == "horizon":
        assert any(m.reception_start is not None and m.departure_time is None
                   for m in trace.messages)
    if case == "divergence":
        assert trace.diverged
    travel, service, total = wait_split(trace)
    split, expected_total = _oracle_split(trace)
    assert len(split) >= 300
    for m in trace.messages:
        if m.id in split:
            assert travel[m.id] == pytest.approx(split[m.id][0], abs=1e-9)
            assert service[m.id] == pytest.approx(split[m.id][1], abs=1e-9)
        else:
            assert math.isnan(travel[m.id]) and math.isnan(service[m.id])
    assert total == pytest.approx(expected_total, abs=1e-9)


# -- per-trace summaries ---------------------------------------------------------------


def test_trace_stats_constant_delay():
    msgs = _constant_delay_messages(2000, delay=3.0)
    trace = _synthetic_trace(msgs, end_time=msgs[-1].departure_time)
    ts = trace_stats(trace)
    assert ts.kept == 1600  # 20% warmup dropped
    assert ts.verdict == "stable"
    assert all(b == pytest.approx(3.0) for b in ts.delay_batches)
    result = pool_stats([ts])
    assert result.mean_delay == pytest.approx(3.0)
    assert result.delay_ci == pytest.approx(0.0, abs=1e-12)
    assert result.stability == "stable"
    assert result.messages_counted == 1600


def test_trace_stats_ignores_the_order_of_tied_completions():
    # messages 1 and 2 finish at the same instant with different delays and
    # fall in different batches (64 messages, 32 batches of two), so a batch
    # mean would follow whichever of the two the trace lists first
    msgs = _constant_delay_messages(64, delay=3.0)
    msgs[1] = _message(1, msgs[1].arrival_time, msgs[2].departure_time)
    swapped = msgs[:1] + [msgs[2], msgs[1]] + msgs[3:]
    a, b = (trace_stats(_synthetic_trace(msgs,
                                         end_time=msgs[-1].departure_time,
                                         completed=completed),
                        warmup_fraction=0.0)
            for completed in (msgs, swapped))
    assert a == b
    assert a.delay_batches[:2] == (3.5, 3.0)  # ties batched in id order


def test_trace_stats_occupancy_integration_hand_case():
    msgs = [_message(0, 0.0, 10.0), _message(1, 5.0, 20.0)]
    trace = _synthetic_trace(msgs, end_time=20.0)
    ts = trace_stats(trace, warmup_fraction=0.0)
    # step function: 1 on [0,5), 2 on [5,10), 1 on [10,20) -> mean 25/20
    assert np.mean(ts.occupancy_slices) == pytest.approx(1.25, rel=1e-12)
    assert ts.window == 20.0


def test_trace_stats_short_run_is_inconclusive():
    msgs = _constant_delay_messages(MIN_KEPT_MESSAGES - 1, delay=2.0)
    trace = _synthetic_trace(msgs, end_time=msgs[-1].departure_time)
    ts = trace_stats(trace, warmup_fraction=0.0)
    assert ts.kept == MIN_KEPT_MESSAGES - 1
    assert ts.verdict == "inconclusive"


def test_short_run_ratio_rule_reads_inconclusive():
    # one message in system for the last third and none for the middle
    # third trips the ratio rule, which a run this short cannot support
    cfg = case2_config(0.5, seed=1)
    trace = run(cfg, make_policy("fcfs", cfg), StopRule(max_messages=1))
    assert detect_divergence(_rebuilt_occupancy(trace.messages)) == "diverged"
    assert not trace.diverged
    assert trace_stats(trace).verdict == "inconclusive"


def test_trace_stats_diverged_flag_wins():
    msgs = _constant_delay_messages(2000, delay=3.0)
    trace = _synthetic_trace(msgs, end_time=msgs[-1].departure_time,
                             diverged=True)
    assert trace_stats(trace).verdict == "diverged"
    assert pool_stats([trace_stats(trace)]).stability == "diverged"


def test_trace_stats_warmup_validation():
    msgs = _constant_delay_messages(10, delay=2.0)
    trace = _synthetic_trace(msgs, end_time=12.0)
    with pytest.raises(ValueError):
        trace_stats(trace, warmup_fraction=1.0)
    with pytest.raises(ValueError):
        trace_stats(trace, warmup_fraction=-0.1)


def test_trace_stats_fewer_messages_than_batches():
    msgs = _constant_delay_messages(10, delay=2.0)
    trace = _synthetic_trace(msgs, end_time=12.0)
    ts = trace_stats(trace, warmup_fraction=0.0)
    assert len(ts.delay_batches) == 10


def test_trace_stats_empty_trace():
    trace = _synthetic_trace([], end_time=0.0)
    ts = trace_stats(trace)
    assert ts.kept == 0
    assert ts.verdict == "inconclusive"
    result = pool_stats([ts])
    assert math.isnan(result.mean_delay)
    assert result.stability == "inconclusive"


def test_trace_stats_is_picklable():
    msgs = _constant_delay_messages(50, delay=2.0)
    trace = _synthetic_trace(msgs, end_time=60.0)
    ts = trace_stats(trace, warmup_fraction=0.0)
    assert pickle.loads(pickle.dumps(ts)) == ts


# -- estimation on a known queue -----------------------------------------------------


def test_md1_estimates_match_theory(md1_runs):
    result = pool_stats([trace_stats(t) for t in md1_runs])
    pk = pk_mg1_wait(0.5, 1.0)  # 0.5
    assert result.stability == "stable"
    assert result.mean_travel_wait == pytest.approx(0.0, abs=1e-9)
    assert abs(result.mean_service_wait - pk) <= max(
        result.service_wait_ci, 0.03)
    assert abs(result.mean_delay - (pk + 1.0)) <= max(result.delay_ci, 0.03)
    assert result.rho_measured == pytest.approx(0.5, rel=0.03)
    assert result.messages_counted == 2 * 16_000
    assert result.seeds == (101, 102)


def test_littles_law_audit(md1_runs):
    result = pool_stats([trace_stats(t) for t in md1_runs])
    lam = result.arrival_rate
    assert abs(result.mean_occupancy - lam * result.mean_delay) <= (
        result.occupancy_ci + lam * result.delay_ci + 0.02)


def test_pooling_matches_singles(md1_runs):
    singles = [pool_stats([trace_stats(t)]) for t in md1_runs]
    pooled = pool_stats([trace_stats(t) for t in md1_runs])
    lo = min(s.mean_delay for s in singles)
    hi = max(s.mean_delay for s in singles)
    assert lo - 1e-12 <= pooled.mean_delay <= hi + 1e-12
    # twice the batches: the pooled interval is no wider than the loosest
    assert pooled.delay_ci <= max(s.delay_ci for s in singles)


def test_pooling_validates_scenarios():
    with pytest.raises(ValueError):
        pool_stats([])
    a = reception_queue_config(0.5, seed=1)
    b = reception_queue_config(0.8, seed=1)
    ta = run(a, make_policy("grid_partitioning", a),
             StopRule(max_messages=1500))
    tb = run(b, make_policy("grid_partitioning", b),
             StopRule(max_messages=1500))
    with pytest.raises(ValueError, match="share a scenario"):
        pool_stats([trace_stats(ta), trace_stats(tb)])


# -- scaling fit -----------------------------------------------------------------------


def test_scaling_fit_recovers_exact_power_law():
    s = 2.0
    points = [(rho, s + 0.7 / (1.0 - rho) ** 2)
              for rho in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)]
    fit = scaling_fit(points, s)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-12)
    assert fit.slope_ci == pytest.approx(0.0, abs=1e-9)
    assert fit.points_used == 7
    assert fit.points_excluded == 0


def test_scaling_fit_on_sweep_formula_values():
    loads = (0.6, 0.7, 0.8, 0.9, 0.95)
    case2 = [(rho, partitioning_delay(case2_config(rho, 0))) for rho in loads]
    fit2 = scaling_fit(case2, 2.0)
    assert fit2.slope == pytest.approx(1.07706, abs=1e-4)
    case1 = [(rho, partitioning_delay(case1_config(rho, 0))) for rho in loads]
    fit1 = scaling_fit(case1, 2.0)
    assert fit1.slope == pytest.approx(0.99926, abs=1e-4)
    for fit in (fit2, fit1):
        assert 0.9 <= fit.slope <= 1.1
        assert fit.points_used == 5


def test_scaling_fit_excludes_waitless_points_with_warning():
    s = 1.0
    points = [(0.1, s)]  # no wait signal at all
    points += [(rho, s + 1.0 / (1.0 - rho)) for rho in
               (0.3, 0.5, 0.6, 0.7, 0.8, 0.9)]
    with pytest.warns(UserWarning, match="excluded 1 point"):
        fit = scaling_fit(points, s)
    assert fit.points_excluded == 1
    assert fit.points_used == 6
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_validation():
    with pytest.raises(ValueError, match="load"):
        scaling_fit([(1.2, 5.0)] + [(0.5, 5.0)] * 5, 1.0)
    with pytest.raises(ValueError, match="at least 5"):
        scaling_fit([(0.3, 5.0), (0.5, 6.0), (0.7, 8.0), (0.8, 11.0)], 1.0)
    with pytest.raises(ValueError):  # one load: the slope is undefined
        scaling_fit([(0.5, 5.0)] * 5, 1.0)


def test_scaling_fit_reports_uncertainty_on_noisy_points():
    rng = np.random.default_rng(8)
    points = [(rho, 1.0 + (1.0 / (1.0 - rho)) * float(rng.uniform(0.9, 1.1)))
              for rho in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    fit = scaling_fit(points, 1.0)
    assert fit.slope_ci > 0.0
    assert fit.stderr > 0.0


def _oracle_point_sets():
    """The point sets of the fits above, then a seeded batch of noisy
    power laws with random exponents, sizes and loads."""
    sets = [
        ([(rho, 2.0 + 0.7 / (1.0 - rho) ** 2)
          for rho in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)], 2.0),
        ([(0.1, 1.0)] + [(rho, 1.0 + 1.0 / (1.0 - rho))
                         for rho in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9)], 1.0),
    ]
    loads = (0.6, 0.7, 0.8, 0.9, 0.95)
    for make in (case2_config, case1_config):
        sets.append(([(rho, partitioning_delay(make(rho, 0)))
                      for rho in loads], 2.0))
    rng = np.random.default_rng(8)
    sets.append(([(rho,
                   1.0 + (1.0 / (1.0 - rho)) * float(rng.uniform(0.9, 1.1)))
                  for rho in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)], 1.0))
    rng = np.random.default_rng(2024)
    for _ in range(300):
        rhos = np.sort(rng.uniform(0.05, 0.99, int(rng.integers(5, 10))))
        exponent, scale = rng.uniform(0.5, 2.5), rng.uniform(0.1, 10.0)
        sets.append(([(float(rho), 1.0 + scale / (1.0 - rho) ** exponent
                       * float(rng.uniform(0.8, 1.2))) for rho in rhos], 1.0))
    return sets


@pytest.mark.filterwarnings("ignore:scaling_fit. excluded")
def test_scaling_fit_matches_linregress():
    for points, s in _oracle_point_sets():
        usable = [(rho, d) for rho, d in points if d > s]
        ref = linregress(np.log([1.0 / (1.0 - rho) for rho, _ in usable]),
                         np.log([d - s for _, d in usable]))
        fit = scaling_fit(points, s)
        assert (fit.slope, fit.intercept, fit.stderr) == pytest.approx(
            (ref.slope, ref.intercept, ref.stderr), rel=1e-12)
