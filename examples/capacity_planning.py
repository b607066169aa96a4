#!/usr/bin/env python3
"""Scenario: capacity planning for a bare-metal fleet.

Takes the Section 1 demand statistic ("more than 95% of the VMs in our
cloud use less than 32 CPU cores"), generates that tenant population,
and compares serving it as single-tenant bare metal vs BM-Hive boards —
then states the price side from the Section 3.5 cost model.

Run:
    python examples/capacity_planning.py
"""

from repro import Simulator
from repro.cloud import compare_density
from repro.fleet import run_placement_study


def main():
    sim = Simulator(seed=12)
    study = run_placement_study(sim, n_tenants=10_000)

    print(f"Tenant population: {study.n_tenants} bare-metal requests, "
          f"{study.tenants_under_32ht / study.n_tenants * 100:.1f}% under 32 HT "
          f"(paper: >95%)\n")

    print("Boards sold by size:")
    for size, count in sorted(study.boards_by_size.items()):
        if count:
            print(f"  {size:3d} HT boards: {count}")

    print("\nServers needed:")
    print(f"  single-tenant bare metal:   {study.single_tenant_servers}")
    print(f"  BM-Hive (16 boards/server): {study.bmhive_servers}")
    print(f"\nCapacity utilization: single-tenant "
          f"{study.single_tenant_utilization * 100:.0f}% vs BM-Hive "
          f"{study.bmhive_utilization * 100:.0f}% "
          f"({study.server_reduction:.1f}x fewer servers)")

    density = compare_density()
    print(f"\nBare metal sells {density.bm_price_discount * 100:.0f}% cheaper "
          f"than a VM of the same shape (Section 3.5: 10% lower)")


if __name__ == "__main__":
    main()
