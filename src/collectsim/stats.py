"""Steady-state estimation over event traces.

Warmup trimming, the wait split and receiving time replayed from the
message records, batch-means confidence intervals for the delay components,
time-weighted occupancy averages, a three-valued stability verdict and the
log-log delay-scaling fit. Replications merge by pooling batch means, so
parallel workers only need to ship the compact per-trace summary.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

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
    import numpy as np
    times = np.concatenate((departures, arrivals))
    steps = np.repeat((-1.0, 1.0), (len(departures), len(arrivals)))
    order = np.lexsort((steps, times))
    return np.column_stack((times[order], np.cumsum(steps[order])))


def _step_integral(times: np.ndarray, values: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """Integral of the right-continuous step function (0 before the first
    sample) from time 0 to each point."""
    import numpy as np
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
    import numpy as np
    if t1 <= t0:
        return np.zeros(slices)
    edges = np.linspace(t0, t1, slices + 1)
    integrals = _step_integral(occ[:, 0], occ[:, 1], edges)
    return np.diff(integrals) / np.diff(edges)


# --------------------------------------------------------------------------
# divergence verdict

_Z975 = 1.9599639845400536  # the normal quantile, NormalDist().inv_cdf(0.975)


@functools.cache
def _t975(df: int) -> float:
    """0.975 quantile of Student's t, integer df >= 1: Newton in x = t/sqrt(df)
    from the normal quantile on the exact CDF, a finite series in 1/(1 + x^2)
    (Abramowitz & Stegun 26.7.3-26.7.4), concave, so the iterates rise."""
    import numpy as np
    if df <= 2:  # tan(pi (p - 1/2)) and (2p - 1) / sqrt(2p (1 - p))
        return (math.tan(0.475 * math.pi) if df == 1
                else 0.95 / math.sqrt(2 * 0.975 * 0.025))
    odd, x = df % 2, _Z975 / math.sqrt(df)
    k = np.arange(df // 2)
    coefs = np.cumprod(np.r_[1.0, (2 * k[1:] - 1 + odd) / (2 * k[1:] + odd)])
    log_norm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                - 0.5 * math.log(math.pi))
    for _ in range(20):
        log_c = -math.log1p(x * x)  # c**k from a rounded c is k ulps off
        series = float(coefs @ np.exp(k * log_c))
        inside = (2 / math.pi * (math.atan(x) + x * math.exp(log_c) * series)
                  if odd else x * math.exp(log_c / 2) * series)
        step = (inside - 0.95) / 2 / math.exp(log_norm + (df + 1) / 2 * log_c)
        x -= step
        if abs(step) <= 1e-15 * x:
            break
    return x * math.sqrt(df)


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its 95% Student-t half-width (at least two values)."""
    return (float(values.mean()), _t975(len(values) - 1)
            * float(values.std(ddof=1)) / math.sqrt(len(values)))


def detect_divergence(samples) -> str:
    """Classify an occupancy trajectory, any sequence of (time, count)
    samples, as stable, diverged or inconclusive.

    Diverged: the last third's time-weighted mean exceeds twice the middle
    third's with disjoint confidence intervals. Stable: both windows'
    intervals are tight (half width at most half the mean) and the last
    third has not grown past 1.5x the middle third. Anything else is
    inconclusive. The occupancy cutoff is the engine's: a run it stopped
    carries ``EventTrace.diverged``.
    """
    import numpy as np
    occ = np.asarray(samples, dtype=float).reshape(-1, 2)
    if not len(occ):
        return "stable"
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
    import numpy as np
    n = len(values)
    if n == 0:
        return (math.nan,)
    k = min(BATCHES, n)
    return tuple(float(chunk.mean()) for chunk in np.array_split(values, k))


def _columns(trace: EventTrace) -> np.ndarray:
    """Arrival, reception start, departure and receiver rows, nan if unset."""
    import numpy as np
    return np.array([[m.arrival_time for m in trace.messages],
                     [m.reception_start for m in trace.messages],
                     [m.departure_time for m in trace.messages],
                     [m.collector for m in trace.messages]], dtype=float)


def wait_split(trace: EventTrace) -> tuple[np.ndarray, np.ndarray, float]:
    """Each message's travel and service wait (nan before its reception
    starts) and the receiving time of all collectors up to ``end_time``.

    The service wait is the time the receiver spent receiving other messages
    between the message's arrival and its reception start; the travel wait
    is the rest of that interval. A collector's receiving time at an instant
    is its finished receptions added up in start order plus the elapsed part
    of a running one; a reception ending at an arrival's instant ends first.
    """
    return _wait_split(trace, *_columns(trace))


def _wait_split(trace: EventTrace, arrivals, starts, departures, receivers):
    import numpy as np
    service = np.full(len(arrivals), np.nan)
    receiving = 0.0
    for c in range(trace.config.collectors):
        ids = np.flatnonzero(receivers == c)
        ids = ids[np.argsort(starts[ids], kind="stable")]
        start, arrival = starts[ids], arrivals[ids]
        finished = np.count_nonzero(~np.isnan(departures[ids]))
        busy = np.concatenate(([0.0], np.cumsum(
            np.full(finished, trace.config.reception_time))))
        done = np.searchsorted(departures[ids[:finished]], arrival,
                               side="right")
        began = np.append(start, np.inf)[done]
        at_arrival = np.where(began <= arrival,
                              busy[done] + (arrival - began), busy[done])
        service[ids] = busy[:len(ids)] - at_arrival
        receiving += (busy[-1] + (trace.end_time - start[-1])
                      if finished < len(ids) else busy[-1])
    return (starts - arrivals) - service, service, float(receiving)


def trace_stats(trace: EventTrace, warmup_fraction: float = 0.2) -> TraceStats:
    """Reduce one trace's finished messages, in (departure time, id) order,
    and the occupancy they imply to batch means and slice means after
    discarding its warmup fraction of finished messages."""
    import numpy as np
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got "
                         f"{warmup_fraction}")
    arrivals, _, departures, _ = columns = _columns(trace)
    done = np.flatnonzero(~np.isnan(departures))  # unfinished: None -> nan
    # exact ties (lockstep fleet collectors) are ordered by id
    done = done[np.lexsort((done, departures[done]))]
    n_warm = int(len(done) * warmup_fraction)
    kept = done[n_warm:]
    occ = occupancy_steps(arrivals, departures[done])
    # the engine stopped a run over its occupancy cutoff; a run too short
    # for the trend rule settles nothing
    if trace.diverged:
        verdict = "diverged"
    elif len(kept) >= MIN_KEPT_MESSAGES:
        verdict = detect_divergence(occ)
    else:
        verdict = "inconclusive"

    delays = departures[kept] - arrivals[kept]
    travel, service, receiving = _wait_split(trace, *columns)
    t0 = float(departures[done[n_warm - 1]]) if n_warm > 0 else 0.0
    t1 = max(trace.end_time, t0)
    slices = _occupancy_slice_means(occ, t0, t1, BATCHES)
    cfg = trace.config
    return TraceStats(
        seed=cfg.seed,
        kept=len(kept),
        delay_batches=_batch_means(delays),
        travel_batches=_batch_means(travel[kept]),
        service_batches=_batch_means(service[kept]),
        occupancy_slices=tuple(float(v) for v in slices),
        window=t1 - t0,
        receiving_time=receiving,
        end_time=trace.end_time,
        verdict=verdict,
        arrival_rate=cfg.arrival_rate,
        reception_time=cfg.reception_time,
        collectors=cfg.collectors,
    )


def _pooled_ci(batches) -> tuple[float, float]:
    import numpy as np
    arr = np.array([b for bs in batches for b in bs if not math.isnan(b)],
                   dtype=float)
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
    import numpy as np
    if not parts:
        raise ValueError("nothing to pool")
    first = parts[0]
    for p in parts[1:]:
        if (p.arrival_rate, p.reception_time, p.collectors) != (
                first.arrival_rate, first.reception_time, first.collectors):
            raise ValueError("pooled replications must share a scenario")
    mean_delay, delay_ci = _pooled_ci(p.delay_batches for p in parts)
    mean_travel, travel_ci = _pooled_ci(p.travel_batches for p in parts)
    mean_service, service_ci = _pooled_ci(p.service_batches for p in parts)
    total_window = sum(p.window for p in parts)
    if total_window > 0:
        mean_occ = sum(float(np.mean(p.occupancy_slices)) * p.window
                       for p in parts) / total_window
        _, occ_ci = _pooled_ci(p.occupancy_slices for p in parts)
    else:
        mean_occ, occ_ci = 0.0, math.nan
    total_time = sum(p.end_time for p in parts)
    rho_measured = (sum(p.receiving_time for p in parts)
                    / (first.collectors * total_time) if total_time > 0
                    else 0.0)
    verdicts = {p.verdict for p in parts}
    stability = next((v for v in ("diverged", "inconclusive")
                      if v in verdicts), "stable")
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
    import numpy as np
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
        slope_ci=_t975(len(usable) - 2) * stderr,
        intercept=float(y.mean()) - slope * float(x.mean()),
        points_used=len(usable),
        points_excluded=excluded,
        stderr=stderr,
    )
