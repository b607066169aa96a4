#!/usr/bin/env python3
"""Scenario: the cloud operator's view of a mixed vm/bm fleet.

Walks through the control-plane features the paper calls
"interoperability": one API for both service kinds, and capacity
planning with the density/cost model.

Run:
    python examples/cloud_operator.py
"""

from repro import Simulator
from repro.cloud import CloudController, compare_density, compare_power, table3_rows
from repro.guest import VmImage


def main():
    sim = Simulator(seed=7)
    cloud = CloudController(sim)
    cloud.add_bmhive_server("hive-0", board_slots=8)
    cloud.add_kvm_server("kvm-0", sellable_hyperthreads=88)

    print("== Instance catalog (Table 3) ==")
    for row in table3_rows():
        print(f"  {row['instance']:18s} {row['cpu']:22s} "
              f"{row['hyperthreads']:3d} HT  {row['memory_gib']:4d} GiB  "
              f"{row['boards_per_server']:2d} boards/server")

    # One API, either kind — the same image boots both.
    image = VmImage("tenant-app-v3")
    vm_record = cloud.create_instance("ecs.e5.32ht", image=image)
    bm_record = cloud.create_instance("ebm.e5.32ht", image=image)
    print(f"\ncreated {vm_record.instance_id} (vm on {vm_record.server}) and "
          f"{bm_record.instance_id} (bm on {bm_record.server}) from one image")

    # Capacity economics (Section 3.5).
    density = compare_density()
    power = compare_power()
    print("\n== Rack economics ==")
    print(f"  sellable HT:    vm-server {density.vm_sellable_ht}  vs  "
          f"BM-Hive {density.bm_sellable_ht}  ({density.density_gain:.1f}x)")
    print(f"  cost per HT:    bm/vm ratio {density.cost_per_ht_ratio:.2f} "
          f"(bm sells {density.bm_price_discount * 100:.0f}% cheaper)")
    print(f"  power per vCPU: vm {power.vm_watts_per_vcpu:.2f} W  vs  "
          f"bm {power.bm_watts_per_vcpu:.2f} W "
          f"(+{power.overhead_watts_per_vcpu:.2f} W for FPGA + base CPU)")


if __name__ == "__main__":
    main()
