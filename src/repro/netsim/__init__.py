"""Discrete-event simulation engine.

This package provides the substrate everything else runs on: a virtual
clock, an event queue with stable FIFO ordering among simultaneous events,
timers, a seeded random source, and an event tracer.

Typical use::

    from repro.netsim import Simulator

    sim = Simulator(seed=7)
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    sim.run(until=10.0)
"""

from repro.netsim.clock import SimClock
from repro.netsim.events import Event, EventQueue
from repro.netsim.simulator import Simulator, Timer
from repro.netsim.trace import TraceEntry, Tracer

__all__ = [
    "Event",
    "EventQueue",
    "SimClock",
    "Simulator",
    "Timer",
    "TraceEntry",
    "Tracer",
]
