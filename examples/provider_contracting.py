"""Provider contracting: quoting SLA tiers with the Sec. 3 service model.

A platform provider owns a small host pool and receives a customer
application with a choice of SLA tiers (bronze/silver/gold IC guarantees,
plus a latency clause). The provider quotes a fare per tier — LAAR makes
the fare track the guarantee (Fig. 12's headline) — refuses the tier its
cluster cannot honour, then deploys the accepted tier and produces an SLA
compliance report from a simulated billing period.

Run:  python examples/provider_contracting.py
"""

from repro.core import Host
from repro.dsps import two_level_trace
from repro.errors import InfeasibleError
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.service import SLA, Contract, PricingPlan, Provisioner
from repro.workloads import generate_application

GIGA = 1.0e9

TIERS = {
    "bronze": SLA(ic_target=0.3, max_latency=2.0),
    "silver": SLA(ic_target=0.5, max_latency=2.0),
    "gold": SLA(ic_target=0.95, max_latency=2.0),  # beyond this cluster
}


def main() -> None:
    # The customer's application, with its descriptor (Sec. 3 item ii).
    app = generate_application(seed=77)
    # A node budget: the search never closes this 24-PE instance, so
    # each offer is the best strategy found in 6 M nodes (~3 s here).
    provider = Provisioner(list(app.deployment.hosts), node_limit=6_000_000)
    pricing = PricingPlan(
        base_fee=50.0, cpu_rate=0.0004, billing_period=3600.0
    )

    print(f"application: {app.name}"
          f" ({len(app.descriptor.graph.pes)} PEs,"
          f" Low {app.low_rate:.1f} / High {app.high_rate:.1f} t/s)")
    print(f"pricing: {pricing.base_fee:.0f} base +"
          f" {pricing.cpu_rate} per CPU-second, hourly billing\n")

    provisioned = {}
    for tier, sla in TIERS.items():
        contract = Contract(
            descriptor=app.descriptor,
            sla=sla,
            pricing=pricing,
            name=f"{app.name}/{tier}",
        )
        try:
            offer = provider.provision(contract)
        except InfeasibleError:
            print(f"{tier:>7s}: REFUSED — cannot guarantee"
                  f" IC >= {sla.ic_target} on this cluster")
            continue
        provisioned[tier] = offer
        print(f"{tier:>7s}: IC >= {offer.guaranteed_ic:.3f}"
              f" for {offer.fare:8.2f} per hour")

    # The customer picks silver; run one scaled-down 'billing period'.
    chosen = provisioned["silver"]
    print("\ncustomer accepts the silver tier; running a billing period...")
    trace = two_level_trace(
        app.low_rate, app.high_rate, duration=120.0, high_fraction=1 / 3
    )
    extended = ExtendedApplication(
        chosen.deployment,
        chosen.strategy,
        {"src": trace},
        middleware_config=MiddlewareConfig(
            monitor_interval=2.0, rate_tolerance=0.25, down_confirmation=2
        ),
    )
    metrics = extended.run()
    report = chosen.sla_report(metrics)

    print(f"  tuples processed: {metrics.tuples_processed}")
    print(f"  p99 latency: {report.observed_latency:.3f} s"
          f" (clause: <= {chosen.contract.sla.max_latency} s)")
    print(f"  IC clause met: {report.ic_clause_met}"
          f" | latency clause met: {report.latency_clause_met}")
    print(f"  SLA compliant: {report.compliant}")


if __name__ == "__main__":
    main()
