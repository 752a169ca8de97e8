"""Chaos campaigns: adversarial fault injection with invariant checking.

LAAR's central claim is an *a-priori* lower bound on internal
completeness under the pessimistic failure model (Sec. 4.4). This package
is the one fault vocabulary: the paper's failure modes are schedules of
it (:func:`~repro.chaos.campaign.paper_schedule`), and it stress-tests
the bound against correlated rack crashes, crash/recover flapping,
slow-host stragglers, transient replica hangs and recovery storms, then
*re-proves* the SLA by replaying each run's event log through a machine
checker of the model's invariants (:mod:`repro.chaos.invariants`).

Everything is deterministic and seeded: a campaign seed expands into a
reproducible injection schedule (:mod:`repro.chaos.campaign`), campaigns
fan out over the process-parallel experiment fabric with the byte-identity
contract of :mod:`repro.experiments.parallel`, and any violation is
distilled into a minimized repro artifact (:mod:`repro.chaos.artifact`).
"""

from repro.chaos.artifact import (
    load_artifact,
    minimize_campaign,
    replay_artifact,
    sabotage_self_test,
    violation_artifact,
    write_artifact,
)
from repro.chaos.campaign import (
    PAPER_MODES,
    CampaignSpec,
    generate_schedule,
    paper_campaigns,
    paper_schedule,
    sabotage_strategy,
)
from repro.chaos.injectors import (
    INJECTION_KINDS,
    Injection,
    apply_injection,
    pessimistic_victims,
    racks,
)
from repro.chaos.invariants import (
    CheckResult,
    Violation,
    check_campaign,
    check_conservation,
)
from repro.chaos.runner import run_campaign, run_campaigns

__all__ = [
    "Injection",
    "INJECTION_KINDS",
    "apply_injection",
    "pessimistic_victims",
    "racks",
    "PAPER_MODES",
    "CampaignSpec",
    "generate_schedule",
    "paper_campaigns",
    "paper_schedule",
    "sabotage_strategy",
    "Violation",
    "CheckResult",
    "check_campaign",
    "check_conservation",
    "run_campaign",
    "run_campaigns",
    "violation_artifact",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
    "minimize_campaign",
    "sabotage_self_test",
]
