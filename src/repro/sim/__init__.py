"""Discrete-event simulation kernel (the substrate under repro.dsps)."""

from repro.sim.kernel import Environment, EventHandle

__all__ = ["Environment", "EventHandle"]
