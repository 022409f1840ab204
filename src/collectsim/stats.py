"""Steady-state estimation over event traces.

Warmup trimming, batch-means confidence intervals for the delay components,
time-weighted occupancy averages, a three-valued stability verdict and the
log-log delay-scaling fit. Replications merge by pooling batch means, so
parallel workers only need to ship the compact per-trace summary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .engine import EventTrace

# below this many post-warmup messages (20 batches of 50) estimates are not
# trusted and the verdict degrades to inconclusive
MIN_KEPT_MESSAGES = 20 * 50
# batch means (and occupancy slices) per trace
BATCHES = 32


@dataclass(frozen=True, slots=True)
class SimResult:
    """Steady-state estimates with 95% confidence half-widths."""

    mean_delay: float
    delay_ci: float
    mean_travel_wait: float
    travel_wait_ci: float
    mean_service_wait: float
    service_wait_ci: float
    mean_occupancy: float
    occupancy_ci: float
    rho_measured: float
    stability: str  # stable | diverged | inconclusive
    messages_counted: int
    seeds: tuple[int, ...]
    arrival_rate: float
    collectors: int


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Compact per-trace summary sufficient for pooled estimation."""

    seed: int
    kept: int
    delay_batches: tuple[float, ...]
    travel_batches: tuple[float, ...]
    service_batches: tuple[float, ...]
    occupancy_slices: tuple[float, ...]
    mean_occupancy: float
    window: float
    receiving_time: float
    end_time: float
    verdict: str
    arrival_rate: float
    reception_time: float
    collectors: int


@dataclass(frozen=True, slots=True)
class ScalingFit:
    """Least-squares slope of log(delay - reception_time) against
    log(1 / (1 - load))."""

    slope: float
    slope_ci: float
    intercept: float
    points_used: int
    points_excluded: int
    stderr: float


# --------------------------------------------------------------------------
# occupancy step function


def occupancy_steps(arrivals, departures) -> np.ndarray:
    """(time, messages in system) after each arrival and each departure, in
    event order: at equal times departures come first, as in the engine."""
    times = np.concatenate((departures, arrivals))
    steps = np.repeat((-1.0, 1.0), (len(departures), len(arrivals)))
    order = np.lexsort((steps, times))
    return np.column_stack((times[order], np.cumsum(steps[order])))


def _step_integral(times: np.ndarray, values: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """Integral of the right-continuous step function (0 before the first
    sample) from time 0 to each point."""
    if len(times) == 0:
        return np.zeros(len(points))
    cum = np.concatenate(
        ([0.0], np.cumsum(values[:-1] * np.diff(times))))
    idx = np.searchsorted(times, points, side="right") - 1
    out = np.zeros(len(points))
    inside = idx >= 0
    out[inside] = cum[idx[inside]] + values[idx[inside]] * (
        points[inside] - times[idx[inside]])
    return out


def _occupancy_slice_means(occ: np.ndarray, t0: float, t1: float,
                           slices: int) -> np.ndarray:
    """Time-weighted occupancy mean over each of `slices` equal sub-windows
    of [t0, t1], from an (N, 2) array of (time, count) samples."""
    if t1 <= t0:
        return np.zeros(slices)
    edges = np.linspace(t0, t1, slices + 1)
    integrals = _step_integral(occ[:, 0], occ[:, 1], edges)
    return np.diff(integrals) / np.diff(edges)


# --------------------------------------------------------------------------
# divergence verdict


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its 95% Student-t half-width (at least two values)."""
    tq = stdtrit(len(values) - 1, 0.975)
    return (float(values.mean()),
            tq * float(values.std(ddof=1)) / math.sqrt(len(values)))


def detect_divergence(samples, threshold: float | None = None) -> str:
    """Classify an occupancy trajectory, any sequence of (time, count)
    samples, as stable, diverged or inconclusive.

    Diverged: any sample beyond the threshold, or the last third's
    time-weighted mean exceeding twice the middle third's with disjoint
    confidence intervals. Stable: both windows' intervals are tight (half
    width at most half the mean) and the last third has not grown past 1.5x
    the middle third. Anything else is inconclusive.
    """
    occ = np.asarray(samples, dtype=float).reshape(-1, 2)
    if not len(occ):
        return "stable"
    if threshold is not None and occ[:, 1].max() > threshold:
        return "diverged"
    span = occ[-1, 0]
    if span <= 0:
        return "inconclusive"
    mid = _occupancy_slice_means(occ, span / 3.0, 2.0 * span / 3.0, 8)
    last = _occupancy_slice_means(occ, 2.0 * span / 3.0, span, 8)
    mid_mean, mid_ci = _mean_ci(mid)
    last_mean, last_ci = _mean_ci(last)
    if last_mean > 2.0 * mid_mean and last_mean - last_ci > mid_mean + mid_ci:
        return "diverged"
    tight = (mid_ci <= 0.5 * max(mid_mean, 1e-12)
             and last_ci <= 0.5 * max(last_mean, 1e-12))
    if tight and last_mean <= 1.5 * max(mid_mean, 1e-12):
        return "stable"
    return "inconclusive"


# --------------------------------------------------------------------------
# per-trace summary and pooling


def _batch_means(values: np.ndarray) -> tuple[float, ...]:
    n = len(values)
    if n == 0:
        return (math.nan,)
    k = min(BATCHES, n)
    return tuple(float(chunk.mean()) for chunk in np.array_split(values, k))


def trace_stats(trace: EventTrace, warmup_fraction: float = 0.2) -> TraceStats:
    """Reduce one trace's finished messages, in (departure time, id) order,
    and the occupancy they imply to batch means and slice means after
    discarding its warmup fraction of finished messages."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got "
                         f"{warmup_fraction}")
    messages = trace.messages
    arrivals = np.array([m.arrival_time for m in messages], dtype=float)
    departures = np.array([m.departure_time for m in messages], dtype=float)
    done = np.flatnonzero(~np.isnan(departures))  # unfinished: None -> nan
    # exact ties (lockstep fleet collectors) are ordered by id
    done = done[np.lexsort((done, departures[done]))]
    n_warm = int(len(done) * warmup_fraction)
    kept = done[n_warm:]
    occ = occupancy_steps(arrivals, departures[done])
    if trace.diverged:
        verdict = "diverged"
    else:
        verdict = detect_divergence(occ, trace.divergence_threshold)
        if verdict != "diverged" and len(kept) < MIN_KEPT_MESSAGES:
            verdict = "inconclusive"

    delays = departures[kept] - arrivals[kept]
    travel = np.array([m.wait_travel for m in messages], dtype=float)[kept]
    service = np.array([m.wait_service for m in messages], dtype=float)[kept]
    t0 = float(departures[done[n_warm - 1]]) if n_warm > 0 else 0.0
    t1 = max(trace.end_time, t0)
    slices = _occupancy_slice_means(occ, t0, t1, BATCHES)
    window = t1 - t0
    mean_occ = float(slices.mean()) if window > 0 else 0.0
    cfg = trace.config
    return TraceStats(
        seed=cfg.seed,
        kept=len(kept),
        delay_batches=_batch_means(delays),
        travel_batches=_batch_means(travel),
        service_batches=_batch_means(service),
        occupancy_slices=tuple(float(v) for v in slices),
        mean_occupancy=mean_occ,
        window=window,
        receiving_time=trace.receiving_time,
        end_time=trace.end_time,
        verdict=verdict,
        arrival_rate=cfg.arrival_rate,
        reception_time=cfg.reception_time,
        collectors=cfg.collectors,
    )


def _pooled_ci(all_batches: list[float]) -> tuple[float, float]:
    arr = np.array([b for b in all_batches if not math.isnan(b)], dtype=float)
    if len(arr) == 0:
        return math.nan, math.nan
    if len(arr) == 1:
        return float(arr[0]), math.inf
    return _mean_ci(arr)


def pool_stats(parts: list[TraceStats]) -> SimResult:
    """Merge per-trace summaries from replications of one scenario cell.

    Batch means are pooled with equal weight (replications are expected to
    share a message target); occupancy is weighted by window length.
    """
    if not parts:
        raise ValueError("nothing to pool")
    first = parts[0]
    for p in parts[1:]:
        if (p.arrival_rate, p.reception_time, p.collectors) != (
                first.arrival_rate, first.reception_time, first.collectors):
            raise ValueError("pooled replications must share a scenario")
    mean_delay, delay_ci = _pooled_ci(
        [b for p in parts for b in p.delay_batches])
    mean_travel, travel_ci = _pooled_ci(
        [b for p in parts for b in p.travel_batches])
    mean_service, service_ci = _pooled_ci(
        [b for p in parts for b in p.service_batches])
    total_window = sum(p.window for p in parts)
    if total_window > 0:
        mean_occ = sum(p.mean_occupancy * p.window
                       for p in parts) / total_window
        _, occ_ci = _pooled_ci([b for p in parts for b in p.occupancy_slices])
    else:
        mean_occ, occ_ci = 0.0, math.nan
    total_time = sum(p.end_time for p in parts)
    rho_measured = (sum(p.receiving_time for p in parts)
                    / (first.collectors * total_time) if total_time > 0
                    else 0.0)
    verdicts = {p.verdict for p in parts}
    if "diverged" in verdicts:
        stability = "diverged"
    elif "inconclusive" in verdicts:
        stability = "inconclusive"
    else:
        stability = "stable"
    return SimResult(
        mean_delay=mean_delay,
        delay_ci=delay_ci,
        mean_travel_wait=mean_travel,
        travel_wait_ci=travel_ci,
        mean_service_wait=mean_service,
        service_wait_ci=service_ci,
        mean_occupancy=mean_occ,
        occupancy_ci=occ_ci,
        rho_measured=rho_measured,
        stability=stability,
        messages_counted=sum(p.kept for p in parts),
        seeds=tuple(p.seed for p in parts),
        arrival_rate=first.arrival_rate,
        collectors=first.collectors,
    )


# --------------------------------------------------------------------------
# delay scaling fit


def scaling_fit(points, reception_time: float) -> ScalingFit:
    """Fit log(delay - reception_time) = intercept + slope *
    log(1 / (1 - load)) over (load, mean delay) points.

    Points with delay at or below one reception time carry no wait signal
    and are excluded with a warning; at least five usable points are
    required.
    """
    usable = []
    excluded = 0
    for load, delay in points:
        if not 0.0 < load < 1.0:
            raise ValueError(f"load must lie in (0, 1), got {load}")
        if delay <= reception_time:
            excluded += 1
            continue
        usable.append((load, delay))
    if excluded:
        warnings.warn(f"scaling_fit: excluded {excluded} point(s) with delay "
                      f"<= reception_time", stacklevel=2)
    if len(usable) < 5:
        raise ValueError(
            f"scaling_fit needs at least 5 usable load points, got "
            f"{len(usable)}")
    x = np.log([1.0 / (1.0 - load) for load, _ in usable])
    y = np.log([delay - reception_time for _, delay in usable])
    if x.min() == x.max():
        raise ValueError("scaling_fit needs at least two distinct loads")
    # mean centred sums, and the slope's standard error in its correlation
    # form: r clipped to [-1, 1] against round-off, zero for a flat response
    sxx, sxy, _, syy = (float(v) for v in np.cov(x, y, bias=True).flat)
    slope = sxy / sxx
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy))) if syy > 0 else 0.0
    stderr = math.sqrt((1.0 - r * r) * syy / sxx / (len(usable) - 2))
    return ScalingFit(
        slope=slope,
        slope_ci=float(stdtrit(len(usable) - 2, 0.975)) * stderr,
        intercept=float(y.mean()) - slope * float(x.mean()),
        points_used=len(usable),
        points_excluded=excluded,
        stderr=stderr,
    )
