"""repro — a reproduction of LAAR (Load-Adaptive Active Replication).

Paper: Bellavista, Corradi, Reale, Kotoulas — "Adaptive Fault-Tolerance
for Dynamic Resource Provisioning in Distributed Stream Processing
Systems", EDBT 2014.

The library is organised as:

* :mod:`repro.core` — the paper's formal model and the FT-Search optimizer.
* :mod:`repro.placement` — replicated PE placement (the ``theta`` producers).
* :mod:`repro.rtree` — the HAController's configuration lookup index.
* :mod:`repro.sim` — a from-scratch discrete-event simulation kernel.
* :mod:`repro.dsps` — a distributed stream processing platform simulator
  (the stand-in for IBM InfoSphere Streams).
* :mod:`repro.laar` — the LAAR runtime middleware (RateMonitor,
  HAController, HAProxy, application preprocessor).
* :mod:`repro.workloads` — the synthetic application generator of Sec. 5.2.
* :mod:`repro.experiments` — variant construction, failure modes, and the
  drivers that regenerate every figure of the evaluation.
"""

from repro.errors import (
    DeploymentError,
    DescriptorError,
    ExperimentError,
    GraphError,
    InfeasibleError,
    ModelError,
    OptimizationError,
    ReproError,
    RTreeError,
    SimulationError,
    StrategyError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ModelError",
    "GraphError",
    "DescriptorError",
    "DeploymentError",
    "StrategyError",
    "OptimizationError",
    "InfeasibleError",
    "SimulationError",
    "RTreeError",
    "WorkloadError",
    "ExperimentError",
]
