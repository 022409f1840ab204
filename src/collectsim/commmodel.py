"""Wireless reception geometry.

A message transmits at fixed power; a collector can decode it once the
received SNR clears the threshold, which under power-law path loss turns
into a disk of fixed radius around the message location.
"""

from __future__ import annotations

import math

from .core import ConfigurationError

# Relative slack of the one in-disk rule, d <= r * (1 + _RANGE_SLACK):
# in_range tests it, and reception_point leaves a collector that passes it in
# place. Far below any physical scale, it lets a computed boundary point pass
# despite round-off, but cannot guarantee it: it scales with the radius, the
# point's round-off with its coordinates, so a small disk far from the origin
# can still miss (r = 0.01 at coordinates near 50 misses by about 1e-14).
# reception_point closes that gap itself.
_RANGE_SLACK = 1e-12


def reception_radius(snr_ref: float, snr_threshold: float,
                     path_loss: float) -> float:
    """Distance at which the received SNR equals the decoding threshold.

    ``snr_ref`` is the linear SNR at unit distance; SNR falls off as
    d**(-path_loss). Radii above and below one distance unit both come out
    of the same expression.
    """
    if not snr_ref > 0 or not snr_threshold > 0:
        raise ConfigurationError("SNR values must be positive")
    if not path_loss > 0:
        raise ConfigurationError("path_loss must be positive")
    return (snr_ref / snr_threshold) ** (1.0 / path_loss)


def in_range(collector: complex, message: complex, radius: float) -> bool:
    """True when the collector can receive a message at this distance."""
    # abs(a - b) is core.distance, measured here without the call
    return abs(collector - message) <= radius * (1.0 + _RANGE_SLACK)


def reception_point(collector: complex, message: complex,
                    radius: float) -> complex:
    """Nearest point to the collector from which the message is receivable.

    The ``collector`` argument itself exactly when ``in_range`` holds, else
    the point on the reception disk boundary along the line to the message.
    The returned point always passes ``in_range``: where round-off puts the
    boundary point just outside the disk, it is pulled toward the message
    along the same segment, by the least inset (doubling from
    ``radius * _RANGE_SLACK``) that lets it pass, or onto the message itself.
    """
    d = abs(collector - message)  # core.distance
    if d <= radius * (1.0 + _RANGE_SLACK):
        return collector
    inset = 0.0
    while inset < radius:
        f = (d - radius + inset) / d
        p = collector + f * (message - collector)
        if in_range(p, message, radius):
            return p
        # ulp keeps the inset growing where radius * _RANGE_SLACK underflows
        inset = max(2.0 * inset, radius * _RANGE_SLACK, math.ulp(radius))
    return message

