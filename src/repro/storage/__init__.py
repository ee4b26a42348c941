"""IPFS-like storage substrate.

FileInsurer runs on top of IPFS (Section II-A, VI-F): files are content
addressed, chunked into Merkle DAGs, located through a DHT and exchanged
through BitSwap.  Providers hold file replicas on physical disks that can
be corrupted.  This package implements each of those pieces:

* :mod:`repro.storage.content_store` -- content-addressed block store.
* :mod:`repro.storage.dag` -- chunking and Merkle-DAG building / assembly.
* :mod:`repro.storage.dht` -- an iterative Kademlia-style DHT for provider
  records.
* :mod:`repro.storage.bitswap` -- want-list based block exchange between
  peers, with accounting of transferred bytes (traffic fees).
* :mod:`repro.storage.disk` -- the physical disk model with corruption
  injection, the unit the adversary attacks.
* :mod:`repro.storage.provider` -- a storage provider actor: sectors on
  disks, Capacity Replicas (DRep), swapping replicas.
* :mod:`repro.storage.client` -- a client actor: uploads, discards,
  retrieval with integrity checking.
"""

from repro.storage.bitswap import BitSwapNode, BitSwapNetwork
from repro.storage.client import StorageClient
from repro.storage.content_store import BlockNotFoundError, ContentStore
from repro.storage.dag import DagNode, MerkleDag
from repro.storage.dht import DHTNetwork, DHTNode
from repro.storage.disk import Disk, DiskCorruptedError
from repro.storage.provider import ProviderSector, StorageProvider

__all__ = [
    "BitSwapNetwork",
    "BitSwapNode",
    "BlockNotFoundError",
    "ContentStore",
    "DHTNetwork",
    "DHTNode",
    "DagNode",
    "Disk",
    "DiskCorruptedError",
    "MerkleDag",
    "ProviderSector",
    "StorageClient",
    "StorageProvider",
]
