"""Event-driven simulator and analytic delay bounds for mobile collectors
receiving randomly arriving messages over a wireless channel.

Messages appear as a Poisson process at uniform locations on a square
region; collectors travel at constant speed and can receive a message from
anywhere inside its reception disk. The package simulates routing policies
for this system, estimates steady-state delays, and evaluates the matching
closed-form bounds and policy delay formulas.
"""

__version__ = "0.1.0"
