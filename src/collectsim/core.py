"""Value types shared by the simulator, the policies and the bound formulas.

Everything here is plain data: scenario parameters, message records, planar
points and the square service grid a collector sweeps. No simulation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ConfigurationError(ValueError):
    """A scenario or policy parameter is outside its admissible range."""


class ContractViolation(RuntimeError):
    """A policy asked the engine for something physically impossible."""


# --------------------------------------------------------------------------
# geometry primitives


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def uniform_point(rng, side: float, origin: Point = Point(0.0, 0.0)) -> Point:
    """Draw a uniform random point on an axis-aligned square.

    Draw order is fixed (x first, then y) so traces are reproducible for a
    given generator state.
    """
    x = origin.x + side * rng.random()
    y = origin.y + side * rng.random()
    return Point(x, y)


# --------------------------------------------------------------------------
# scenario parameters


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Immutable description of one simulated scenario.

    ``snr_ref`` is the linear SNR measured at unit distance from a message
    source and ``snr_threshold`` the linear decoding threshold; together with
    the path-loss exponent they set the reception radius. Rates are per time
    unit, ``area`` in squared distance units.
    """

    area: float
    arrival_rate: float
    reception_time: float
    speed: float
    snr_ref: float
    snr_threshold: float
    path_loss: float
    collectors: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.area > 0:
            raise ConfigurationError(f"area must be positive, got {self.area}")
        if not self.arrival_rate > 0:
            raise ConfigurationError(
                f"arrival_rate must be positive, got {self.arrival_rate}")
        if not self.reception_time > 0:
            raise ConfigurationError(
                f"reception_time must be positive, got {self.reception_time}")
        if not self.speed > 0:  # math.inf is allowed
            raise ConfigurationError(f"speed must be positive, got {self.speed}")
        if not self.snr_ref > 0 or not self.snr_threshold > 0:
            raise ConfigurationError("SNR parameters must be positive")
        if not 2.0 <= self.path_loss <= 6.0:
            raise ConfigurationError(
                f"path_loss must lie in [2, 6], got {self.path_loss}")
        if not (isinstance(self.collectors, int) and self.collectors >= 1):
            raise ConfigurationError(
                f"collectors must be a positive integer, got {self.collectors}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigurationError(f"seed must be a non-negative integer")

    @property
    def side(self) -> float:
        """Edge length of the square region."""
        return math.sqrt(self.area)

    @property
    def center(self) -> Point:
        return Point(self.side / 2.0, self.side / 2.0)

    @property
    def load(self) -> float:
        """Offered reception load per collector."""
        return self.arrival_rate * self.reception_time / self.collectors


def fleet_side(collectors: int) -> int:
    """Subregions per side when a fleet splits the square region into one
    equal square subregion per collector; only square fleets can."""
    side = math.isqrt(collectors)
    if side * side != collectors:
        raise ConfigurationError(
            f"partitioned operation needs a square number of collectors, "
            f"got {collectors}")
    return side


# --------------------------------------------------------------------------
# message record


@dataclass(slots=True)
class Message:
    """One message, from arrival to completed reception.

    Timing fields are filled in by the engine as the message progresses;
    ``reception_start`` and ``departure_time`` stay None until then.
    ``wait_travel`` is the part of the wait the eventual receiver spent
    traveling or idle, ``wait_service`` the part it spent receiving others.
    """

    id: int
    arrival_time: float
    location: Point
    reception_start: float | None = None
    departure_time: float | None = None
    wait_travel: float | None = None
    wait_service: float | None = None

    @property
    def delay(self) -> float | None:
        if self.departure_time is None:
            return None
        return self.departure_time - self.arrival_time


# --------------------------------------------------------------------------
# service grid


def _even_cycle(k: int) -> list[tuple[int, int]]:
    # Hamiltonian cycle on the k x k grid graph (k even): sweep the bottom
    # row, serpentine the columns 1..k-1 above it, come back down column 0.
    order = [(col, 0) for col in range(k)]
    for row in range(1, k):
        cols = range(k - 1, 0, -1) if row % 2 == 1 else range(1, k)
        order.extend((col, row) for col in cols)
    order.extend((0, row) for row in range(k - 1, 0, -1))
    return order


def _odd_cycle(k: int) -> list[tuple[int, int]]:
    # No Hamiltonian cycle exists for odd k (odd cell count on a bipartite
    # graph), so walk concentric rings inward; every hop is unit except the
    # final diagonal from the center cell back to the corner.
    order: list[tuple[int, int]] = []
    for ring in range((k + 1) // 2):
        lo, hi = ring, k - 1 - ring
        if lo == hi:
            order.append((lo, lo))
            break
        order.extend((lo, y) for y in range(lo, hi + 1))
        order.extend((x, hi) for x in range(lo + 1, hi + 1))
        order.extend((hi, y) for y in range(hi - 1, lo - 1, -1))
        order.extend((x, lo) for x in range(hi - 1, lo, -1))
    return order


@dataclass(slots=True)
class RegionGrid:
    """Square region split into k x k equal cells with a cyclic visit order.

    ``cell_centers`` lists the centers in visit order; consecutive entries
    are exactly ``cell_side`` apart. The wrap-around hop from the last center
    back to the first (``closing_edge``) is ``cell_side`` for even k, a
    diagonal from the central cell for odd k, and zero for k = 1.
    ``effective_radius`` is the largest distance from a cell center to any
    point of its cell, cell_side / sqrt(2).
    """

    origin: Point
    side: float
    cells_per_side: int
    cell_side: float
    cell_centers: tuple[Point, ...]
    _position: dict[tuple[int, int], int] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self._position:
            k = self.cells_per_side
            cycle = [(0, 0)] if k == 1 else (
                _even_cycle(k) if k % 2 == 0 else _odd_cycle(k))
            self._position = {cell: i for i, cell in enumerate(cycle)}
            half = self.cell_side / 2.0
            self.cell_centers = tuple(
                Point(self.origin.x + col * self.cell_side + half,
                      self.origin.y + row * self.cell_side + half)
                for col, row in cycle)

    @property
    def num_cells(self) -> int:
        return self.cells_per_side ** 2

    @property
    def effective_radius(self) -> float:
        return self.cell_side / math.sqrt(2.0)

    @property
    def center(self) -> Point:
        return Point(self.origin.x + self.side / 2.0,
                     self.origin.y + self.side / 2.0)

    @property
    def closing_edge(self) -> float:
        if self.num_cells == 1:
            return 0.0
        return distance(self.cell_centers[-1], self.cell_centers[0])

    @property
    def cycle_length(self) -> float:
        """Total length of the closed sweep through every cell center."""
        hops = sum(distance(self.cell_centers[i], self.cell_centers[i + 1])
                   for i in range(len(self.cell_centers) - 1))
        return hops + self.closing_edge

    def cell_index(self, p: Point) -> int:
        """Visit-order index of the cell containing ``p``.

        Points on a shared cell edge go to the higher-indexed row/column;
        points outside the region clamp to the nearest boundary cell.
        """
        k = self.cells_per_side
        col = min(k - 1, max(0, int((p.x - self.origin.x) / self.cell_side)))
        row = min(k - 1, max(0, int((p.y - self.origin.y) / self.cell_side)))
        return self._position[(col, row)]


def build_grid(area: float, radius: float,
               origin: Point = Point(0.0, 0.0)) -> RegionGrid:
    """Partition a square of the given area into the coarsest k x k grid
    whose cells are fully covered from their centers by ``radius``.

    Requires cell_side / sqrt(2) <= radius, i.e. k = ceil(side / (sqrt(2) r)),
    with k = 1 when the whole region is already covered. A radius of zero (or
    a negative one) is rejected.
    """
    if not area > 0:
        raise ConfigurationError(f"area must be positive, got {area}")
    if not radius > 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    side = math.sqrt(area)
    ratio = side / (math.sqrt(2.0) * radius)
    # back off one ulp-ish so exact integer ratios do not round up
    k = max(1, math.ceil(ratio * (1.0 - 1e-12)))
    return RegionGrid(origin=origin, side=side, cells_per_side=k,
                      cell_side=side / k, cell_centers=())
