"""Exception hierarchy for the LAAR reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """An application model, descriptor, or deployment is malformed."""


class GraphError(ModelError):
    """The application graph violates a structural constraint.

    Typical causes: cycles, dangling edges, sources with predecessors,
    sinks with successors, or unreachable components.
    """


class DescriptorError(ModelError):
    """An application descriptor is inconsistent with its graph.

    Typical causes: a missing selectivity or per-tuple cost for an edge,
    rate sets that are empty, or configuration probabilities that do not
    sum to one.
    """


class DeploymentError(ModelError):
    """A replicated deployment is invalid.

    Typical causes: two replicas of the same PE on the same host, an
    unassigned replica, or a replication factor below one.
    """


class StrategyError(ModelError):
    """A replica activation strategy is malformed.

    Typical causes: a strategy that deactivates every replica of a PE in
    some configuration (violating Eq. 12 of the paper), or one whose
    shape does not match the deployment it is applied to.
    """


class OptimizationError(ReproError):
    """FT-Search or one of the baseline strategy builders failed."""


class InfeasibleError(OptimizationError):
    """The optimization problem admits no feasible activation strategy."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class RTreeError(ReproError):
    """A configuration lookup received invalid input (missing, negative or
    non-finite measured rates, a negative tolerance)."""


class WorkloadError(ReproError):
    """The synthetic workload generator could not satisfy its constraints."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class ChaosError(ReproError):
    """A chaos campaign was configured inconsistently.

    Typical causes: an unknown injection kind, a schedule that targets
    hosts or replicas absent from the deployment, or a violation artifact
    that does not describe a runnable campaign.
    """
