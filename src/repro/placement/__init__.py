"""Replicated PE placement algorithms (the `theta` producers).

The paper assumes "a PE placement algorithm among the many described in the
literature" computes the replicated assignment (Sec. 4.2, citing COLA [21]
and [32]); LAAR then optimizes activations *given* that placement. This
package provides deterministic placements with the two properties the
paper's deployment relies on: anti-affinity (replicas of a PE on distinct
hosts) and one replica per logical core.
"""

from repro.placement.algorithms import balanced_placement
from repro.placement.communication import (
    communication_aware_placement,
    deployment_traffic,
    expected_traffic,
)
from repro.placement.packing import HostPool

__all__ = [
    "balanced_placement",
    "communication_aware_placement",
    "deployment_traffic",
    "expected_traffic",
    "HostPool",
]
