"""Reproduction of *FileInsurer: A Scalable and Reliable Protocol for
Decentralized File Storage in Blockchain* (ICDCS 2022).

The package is organised as:

* :mod:`repro.core` -- the FileInsurer protocol (the paper's contribution).
* :mod:`repro.crypto` -- Merkle roots, the PoRep cost model, PRNG,
  Reed-Solomon erasure coding.
* :mod:`repro.chain` -- the on-chain accounting: token ledger and gas.
* :mod:`repro.storage` -- the IPFS-like substrate (content store, DHT,
  BitSwap, disks, provider and client actors).
* :mod:`repro.sim` -- discrete-event simulation, workloads, adversaries and
  the end-to-end scenario harness.
* :mod:`repro.baselines` -- Filecoin/Storj/Sia/Arweave baseline models for
  the Table IV comparison.
* :mod:`repro.scenarios` -- the ten registered scenarios: every table and
  theorem of the paper's evaluation plus the dynamic workloads (provider
  churn, retrieval-market load, large-file segmentation, lifecycle churn).
* :mod:`repro.runner` -- scenario registry, parallel trial executor, run
  manifests, resume/diff, and the ``python -m repro`` CLI.

Quick start::

    from repro.sim.scenario import DSNScenario, ScenarioConfig

    scenario = DSNScenario(ScenarioConfig(provider_count=4, client_count=1))
    file_id = scenario.store_file("client-0", "hello.txt", b"hello world", value=1)
    scenario.settle_uploads()
    print(scenario.protocol.file_locations(file_id))
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
