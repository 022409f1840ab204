"""Closed-form delay bounds and policy delay formulas.

Every function returns a mean delay (or mean wait) in time units for a given
scenario, evaluating to ``inf`` whenever the offered load makes the system
unstable. The travel components rest on the mean excess distance from the
region center to a uniform point beyond the reception radius, evaluated here
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .commmodel import reception_radius
from .core import ConfigurationError, ScenarioConfig, build_grid, fleet_side

def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


def pk_mg1_wait(arrival_rate: float, reception_time: float) -> float:
    """Mean queueing wait of an M/D/1 queue (Pollaczek-Khinchine), the
    travel-free floor of every delay bound here. Infinite at load >= 1."""
    _require_positive("arrival_rate", arrival_rate)
    _require_positive("reception_time", reception_time)
    rho = arrival_rate * reception_time
    if rho >= 1.0:
        return math.inf
    return arrival_rate * reception_time ** 2 / (2.0 * (1.0 - rho))


def _sec_cubed_antiderivative(theta: float) -> float:
    sec, tan = 1.0 / math.cos(theta), math.tan(theta)
    return (sec * tan + math.log(sec + tan)) / 2.0


def expected_excess_distance(area: float, radius: float) -> float:
    """E[max(0, ||U - center|| - radius)] for U uniform on a square of the
    given area, in closed form."""
    _require_positive("area", area)
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    half = math.sqrt(area) / 2.0
    if radius >= half * math.sqrt(2.0):
        return 0.0  # reception disk covers the whole square
    # One quadrant is twice the polar integral below its diagonal: at angle
    # theta the square's edge lies at R = half*sec(theta), the excess over
    # the ray is R^3/3 - radius*R^2/2 + radius^3/6, and no mass lies beyond
    # the disk before theta0 = arccos(half/radius) when radius > half.
    theta0 = math.acos(half / radius) if radius > half else 0.0
    quadrant = 2.0 * (
        half ** 3 / 3.0 * (_sec_cubed_antiderivative(math.pi / 4.0)
                           - _sec_cubed_antiderivative(theta0))
        - radius * half ** 2 / 2.0 * (1.0 - math.tan(theta0))
        + radius ** 3 / 6.0 * (math.pi / 4.0 - theta0))
    # near the covering radius the terms cancel to a round-off residue that
    # can fall just below zero
    return max(0.0, 4.0 * quadrant / area)


def _radius(config: ScenarioConfig) -> float:
    return reception_radius(config.snr_ref, config.snr_threshold,
                            config.path_loss)


def single_collector_lb(config: ScenarioConfig) -> float:
    """Lower bound on mean delay achievable by any single-collector policy:
    residual travel to the reception disk, plus the M/D/1 wait, plus the
    reception time."""
    rho = config.arrival_rate * config.reception_time
    if rho >= 1.0:
        return math.inf
    excess = expected_excess_distance(config.area, _radius(config))
    return (excess / (config.speed * (1.0 - rho))
            + pk_mg1_wait(config.arrival_rate, config.reception_time)
            + config.reception_time)


def partitioning_delay(config: ScenarioConfig) -> float:
    """Mean delay of the single-collector cell-sweep policy, modeled as a
    multiuser M/D/1 queue with one reservation (cell-to-cell travel) per
    cell per cycle. It bills N hops of one cell side, none when one cell
    covers the region and the collector never moves. Not exact: for odd k the
    real lap closes with a longer diagonal (``RegionGrid.closing_edge``)."""
    rho = config.arrival_rate * config.reception_time
    if rho >= 1.0:
        return math.inf
    grid = build_grid(config.area, _radius(config))
    hop = grid.cell_side if grid.cells_per_side > 1 else 0.0
    travel = (grid.num_cells - rho) * hop / (2.0 * config.speed * (1.0 - rho))
    return (pk_mg1_wait(config.arrival_rate, config.reception_time)
            + travel + config.reception_time)


def multi_lb_mdm_raw(config: ScenarioConfig) -> float:
    """Unfloored m-collector queueing bound: the M/D/m wait bounded through
    a G/G/m argument, minus its correction term, plus the reception time.
    Can dip below one reception time at light load; see multi_lb_mdm."""
    rho = config.load
    if rho >= 1.0:
        return math.inf
    m = config.collectors
    s = config.reception_time
    wait = config.arrival_rate * s ** 2 / (2.0 * m * m * (1.0 - rho))
    return wait - (m - 1) / m * (s / 2.0) + s


def multi_lb_mdm(config: ScenarioConfig) -> float:
    """Queueing-only lower bound on m-collector mean delay, floored at one
    reception time (no message can depart faster than it is received)."""
    return max(config.reception_time, multi_lb_mdm_raw(config))


def multi_lb_partition_class(config: ScenarioConfig) -> float:
    """Lower bound on mean delay over all policies that pin each collector
    to its own subregion: the best-case (equitable) travel floor scaled by
    the load factor, plus the reception time."""
    rho = config.load
    if rho >= 1.0:
        return math.inf
    floor = max(0.0, (2.0 / 3.0) * math.sqrt(
        config.area / (config.collectors * math.pi)) - _radius(config))
    return floor / (config.speed * (1.0 - rho)) + config.reception_time


def multi_lb_avg(config: ScenarioConfig) -> float:
    """Average of the queueing bound (unfloored) and the partition-class
    bound; a valid lower bound that stays informative across the whole load
    range."""
    return (multi_lb_mdm_raw(config) + multi_lb_partition_class(config)) / 2.0


def multi_partitioning_delay(config: ScenarioConfig) -> float:
    """Mean delay of the m-collector partitioned cell-sweep policy: each of
    the m equal square subregions runs the single-collector sweep on its own
    arrival stream of rate lambda/m. Requires m to be a perfect square."""
    m = config.collectors
    fleet_side(m)
    return partitioning_delay(replace(config, area=config.area / m,
                                      arrival_rate=config.arrival_rate / m,
                                      collectors=1))


def excess_cost(x: float, c1: float, c2: float) -> float:
    """x * max(0, c1*sqrt(x) - c2): the convex increasing cost kernel behind
    the partition-class travel bound. Exposed for property tests."""
    if x < 0:
        raise ConfigurationError(f"x must be non-negative, got {x}")
    return x * max(0.0, c1 * math.sqrt(x) - c2)


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Every bound and formula evaluated for one scenario. Entries are inf
    when the load makes them undefined; the m-collector sweep formula is
    None when the collector count is not a perfect square."""

    load: float
    reception_radius: float
    pk_wait: float
    single_lb: float
    partitioning_delay: float
    multi_lb_mdm: float
    multi_lb_partition: float
    multi_lb_avg: float
    multi_partitioning_delay: float | None


def bound_report(config: ScenarioConfig) -> BoundReport:
    """Evaluate all closed forms for one scenario."""
    try:
        multi_part = multi_partitioning_delay(config)
    except ConfigurationError:  # not a square fleet
        multi_part = None
    return BoundReport(
        load=config.load,
        reception_radius=_radius(config),
        pk_wait=pk_mg1_wait(config.arrival_rate, config.reception_time),
        single_lb=single_collector_lb(config),
        partitioning_delay=partitioning_delay(config),
        multi_lb_mdm=multi_lb_mdm(config),
        multi_lb_partition=multi_lb_partition_class(config),
        multi_lb_avg=multi_lb_avg(config),
        multi_partitioning_delay=multi_part,
    )
