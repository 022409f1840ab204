"""Value types shared by the simulator, the policies and the bound formulas.

Everything here is plain data: scenario parameters, message records, planar
points and the square service grid a collector sweeps. No simulation state.

A point of the plane is a Python ``complex``, x + yj: its coordinates are
``.real`` and ``.imag``, and the distance between two points is ``abs`` of
their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigurationError(ValueError):
    """A scenario or policy parameter is outside its admissible range."""


class ContractViolation(RuntimeError):
    """A policy asked the engine for something physically impossible."""


# --------------------------------------------------------------------------
# geometry primitives


def distance(a: complex, b: complex) -> float:
    """Euclidean distance, ``abs(a - b)``: the C library's hypot, which the
    array planners call as ``np.hypot`` (``math.hypot`` differs in the last
    bit on 0.6% of inputs)."""
    return abs(a - b)


def uniform_point(rng, side: float) -> complex:
    """Draw a uniform random point on the square [0, side]^2: x first, then
    y. The engine's arrival draws take their points from here."""
    return complex(side * rng.random(), side * rng.random())


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
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def side(self) -> float:
        """Edge length of the square region."""
        return math.sqrt(self.area)

    @property
    def center(self) -> complex:
        return complex(self.side / 2.0, self.side / 2.0)

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

    The engine fills in the rest as the message progresses:
    ``reception_start`` and ``collector`` (the receiver) when its reception
    starts, ``departure_time`` when it ends; each stays None until then.
    """

    id: int
    arrival_time: float
    location: complex
    reception_start: float | None = None
    departure_time: float | None = None
    collector: int | None = None


# --------------------------------------------------------------------------
# service grid


@dataclass(frozen=True, slots=True)
class RegionGrid:
    """Square region split into k x k equal cells with a cyclic visit order.

    Cells are numbered row-major, ``col + k * row``. The visit order
    (``cycle``, ``visit_rank``) makes every hop between consecutive cells
    exactly ``cell_side`` long. For even k it sweeps the bottom row,
    serpentines columns 1..k-1 upward and comes back down column 0, a
    Hamiltonian cycle. For odd k no such cycle exists (odd cell count on a
    bipartite graph), so it walks concentric rings inward and closes with the
    diagonal from the central cell back to the corner. Every point of a cell
    lies within the half-diagonal, ``cell_side / sqrt(2)``, of its center.
    """

    origin: complex
    side: float
    cells_per_side: int

    @property
    def cell_side(self) -> float:
        return self.side / self.cells_per_side

    @property
    def num_cells(self) -> int:
        return self.cells_per_side ** 2

    @property
    def center(self) -> complex:
        return complex(self.origin.real + self.side / 2.0,
                       self.origin.imag + self.side / 2.0)

    @property
    def closing_edge(self) -> float:
        """Hop from the last cell of the cycle back to the first."""
        k = self.cells_per_side
        if k == 1:
            return 0.0
        if k % 2 == 0:
            return self.cell_side
        return (k // 2) * math.sqrt(2.0) * self.cell_side

    def cell_of(self, p: complex) -> int:
        """Row-major number of the cell containing ``p``.

        Points on a shared cell edge go to the higher-numbered row/column;
        points outside the region clamp to the nearest boundary cell.
        """
        k = self.cells_per_side
        cell_side = self.side / k
        col = int((p.real - self.origin.real) / cell_side)
        row = int((p.imag - self.origin.imag) / cell_side)
        # clamped by comparisons, cheaper than min/max once per arrival
        col = 0 if col < 0 else k - 1 if col >= k else col
        row = 0 if row < 0 else k - 1 if row >= k else row
        return col + k * row

    def cell_center(self, cell: int) -> complex:
        """Center of a cell, within the half-diagonal, ``cell_side /
        sqrt(2)``, of all of it."""
        k = self.cells_per_side
        row, col = divmod(cell, k)
        cell_side = self.side / k
        half = cell_side / 2.0
        return complex(self.origin.real + col * cell_side + half,
                       self.origin.imag + row * cell_side + half)

    def visit_rank(self, cell: int) -> int:
        """Position of a cell in the visit order."""
        k = self.cells_per_side
        row, col = divmod(cell, k)
        if k % 2 == 0:
            # bottom row rightward, rows 1..k-1 serpentine over columns
            # 1..k-1 (odd rows leftward), then column 0 downward
            if row == 0:
                return col
            if col == 0:
                return k * k - row
            step = k - 1 - col if row % 2 else col - 1
            return k + (row - 1) * (k - 1) + step
        # rings inward, each up its left column, right along its top, down
        # its right column and left along its bottom
        ring = min(col, row, k - 1 - col, k - 1 - row)
        lo, hi = ring, k - 1 - ring
        n = hi - lo
        before = 4 * ring * (k - ring)  # cells on the outer rings
        if col == lo:
            return before + row - lo
        if row == hi:
            return before + n + col - lo
        if col == hi:
            return before + 2 * n + hi - row
        return before + 3 * n + hi - col

    def cycle(self) -> list[int]:
        """Every cell, in visit order."""
        order = [0] * self.num_cells
        for cell in range(self.num_cells):
            order[self.visit_rank(cell)] = cell
        return order


def build_grid(area: float, radius: float, origin: complex = 0j) -> RegionGrid:
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
    return RegionGrid(origin=origin, side=side, cells_per_side=k)
