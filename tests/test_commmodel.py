"""Reception-disk geometry derived from the SNR threshold model."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collectsim.commmodel import in_range, reception_point, reception_radius
from collectsim.core import ConfigurationError, ScenarioConfig, distance
from collectsim.engine import Simulation, StopRule
from collectsim.policies import make_policy


def test_reception_radius_reference_values():
    # linear reference SNR at unit distance, threshold 2.0, path loss 4
    assert reception_radius(10.0 ** 1.7, 2.0, 4.0) == pytest.approx(
        2.2373941648, abs=1e-9)
    assert reception_radius(10.0 ** 2.0, 2.0, 4.0) == pytest.approx(
        2.6591479485, abs=1e-9)
    assert reception_radius(10.0 ** 3.0, 2.0, 4.0) == pytest.approx(
        4.7287080450, abs=1e-9)


def test_reception_radius_unit_and_subunit():
    assert reception_radius(2.0, 2.0, 4.0) == pytest.approx(1.0)
    # below-unit radius when the threshold exceeds the reference SNR
    assert reception_radius(1.0, 16.0, 4.0) == pytest.approx(0.5)


def test_reception_radius_path_loss_dependence():
    # same link budget spreads further at lower path-loss exponents
    assert reception_radius(100.0, 2.0, 2.0) > reception_radius(
        100.0, 2.0, 4.0)
    assert reception_radius(100.0, 2.0, 2.0) == pytest.approx(
        math.sqrt(50.0))


@pytest.mark.parametrize("ref,thr,alpha", [
    (0.0, 2.0, 4.0), (-1.0, 2.0, 4.0),
    (10.0, 0.0, 4.0), (10.0, -2.0, 4.0),
    (10.0, 2.0, 0.0), (10.0, 2.0, -4.0),
])
def test_reception_radius_rejects_nonpositive(ref, thr, alpha):
    with pytest.raises(ConfigurationError):
        reception_radius(ref, thr, alpha)


def test_in_range_boundary_has_slack():
    r = 2.2373941648
    origin = complex(0.0, 0.0)
    assert in_range(origin, complex(r, 0.0), r)
    # a point produced by reception_point may overshoot by round-off; the
    # membership test must still accept it
    assert in_range(origin, complex(r * (1 + 1e-13), 0.0), r)
    assert not in_range(origin, complex(r * (1 + 1e-9), 0.0), r)
    assert in_range(origin, origin, r)


def test_reception_point_inside_disk_is_identity():
    msg = complex(3.0, 4.0)
    collector = complex(3.5, 4.5)
    assert reception_point(collector, msg, 2.0) == collector
    # exactly on the boundary counts as inside
    assert reception_point(complex(5.0, 4.0), msg, 2.0) == complex(5.0, 4.0)
    # so does the slack band that in_range accepts: the collector is not moved
    r = 2.2373941648
    origin, band = complex(0.0, 0.0), complex(r * (1 + 1e-13), 0.0)
    assert in_range(origin, band, r)
    assert reception_point(origin, band, r) is origin
    assert reception_point(origin, complex(1 + 1e-13, 0.0), 1.0) is origin


def test_reception_point_moves_to_boundary_along_the_segment():
    msg = complex(10.0, 0.0)
    collector = complex(0.0, 0.0)
    p = reception_point(collector, msg, 3.0)
    assert p == complex(7.0, 0.0)
    assert distance(p, msg) == pytest.approx(3.0)


_POINTS = st.builds(complex, st.floats(-50, 50), st.floats(-50, 50))


@settings(deadline=None, max_examples=100)
@given(collector=_POINTS, msg=_POINTS,
       radius=st.floats(min_value=0.01, max_value=10.0))
# small disks far from the origin, where the plain boundary formula lands
# about 1e-14 outside the disk, more than the radius-relative slack allows
@example(collector=49j, msg=complex(50, 0.25), radius=0.01)
@example(collector=49j, msg=complex(1, -23), radius=0.01)
# inside in_range's slack band, outside the bare radius
@example(collector=0j, msg=complex(1 + 1e-13, 0), radius=1.0)
def test_reception_point_geometry(collector, msg, radius):
    p = reception_point(collector, msg, radius)
    d = distance(collector, msg)
    if in_range(collector, msg, radius):
        # one in-disk rule: a collector in range stays where it is
        assert p is collector
    else:
        assert p is not collector
        # lands on the disk boundary...
        assert distance(p, msg) == pytest.approx(radius, rel=1e-9)
        # ...on the straight segment between collector and message
        assert distance(collector, p) + distance(p, msg) == pytest.approx(
            d, rel=1e-9)
        assert in_range(p, msg, radius)


def test_reception_point_never_travels_more_than_direct():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = complex(*rng.uniform(0, 20, 2))
        m = complex(*rng.uniform(0, 20, 2))
        p = reception_point(c, m, 1.5)
        assert distance(c, p) <= distance(c, m) + 1e-12


def test_simulation_radius_for_scenario():
    cfg = ScenarioConfig(area=60.0, arrival_rate=0.25, reception_time=2.0,
                         speed=10.0, snr_ref=10.0 ** 1.7, snr_threshold=2.0,
                         path_loss=4.0, collectors=1, seed=0)
    sim = Simulation(cfg, make_policy("fcfs", cfg), StopRule(max_messages=1))
    assert sim.radius == pytest.approx(2.2373941648, abs=1e-9)
