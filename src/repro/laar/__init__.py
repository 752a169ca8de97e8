"""The LAAR runtime middleware: RateMonitor, HAController, extended apps."""

from repro.laar.hacontroller import HAController
from repro.laar.middleware import ExtendedApplication, MiddlewareConfig
from repro.laar.rate_monitor import RateMonitor

__all__ = [
    "RateMonitor",
    "HAController",
    "ExtendedApplication",
    "MiddlewareConfig",
]
