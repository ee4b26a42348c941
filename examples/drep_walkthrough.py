"""DRep walkthrough: Figure 2 and the cost argument of Section III-D.

Shows a single provider sector's content evolving under Dynamic
Replication, on a real provider with a disk and simulated PoRep sealing:

* (a) a freshly registered sector is full of Capacity Replicas;
* (b) storing files evicts CRs but keeps the unsealed space below one CR;
* (c) removing files regenerates CRs without new SNARKs;

and prints the modelled cost of sealing a file (PoRep setup + SNARK)
against recovering a replica (setup only), the saving DRep exploits.

Run with ``python examples/drep_walkthrough.py``.
"""

from __future__ import annotations

from repro.crypto.merkle import MerkleTree
from repro.crypto.porep import PoRepParams
from repro.storage.provider import ProviderSector, StorageProvider

KIB = 1024


def show(sector: ProviderSector, title: str) -> None:
    print(f"\n{title}")
    print(f"  capacity replicas: {sector.capacity_replica_count} "
          f"x {sector.capacity_replica_size // KIB} KiB")
    print(f"  file bytes: {sector.used_by_files // KIB} KiB, "
          f"unsealed space: {sector.unsealed_space() // KIB} KiB "
          f"(invariant holds: {sector.unsealed_space() < sector.capacity_replica_size})")


def main() -> None:
    porep = PoRepParams(chunk_size=1024, seal_seconds_per_gib=3600.0, snark_seconds=600.0)
    provider = StorageProvider("prov-demo", disk_capacity=256 * KIB, porep_params=porep)
    sector = provider.create_sector("demo#0", 96 * KIB, capacity_replica_size=16 * KIB)
    show(sector, "(a) freshly registered sector: six Capacity Replicas")

    files = {}
    for fill, (name, size) in enumerate((("file-1", 30 * KIB), ("file-2", 34 * KIB))):
        data = bytes([fill + 1]) * size
        root = MerkleTree.from_data(data, 1024).root
        sector.store_file(root, data)
        files[name] = (root, data)
    show(sector, "(b) after storing two files: two CRs remain")

    root, data = files["file-1"]
    sector.remove_file(root)
    show(sector, "(c) after discarding file-1: CRs are regenerated (no new SNARK)")

    print("\nmodelled cost of file-1's replica:")
    print(f"  sealing (setup + SNARK): {porep.seal_time(len(data)):.2f} s")
    print(f"  recovery (setup only, DRep): {porep.recovery_time(len(data)):.2f} s")


if __name__ == "__main__":
    main()
