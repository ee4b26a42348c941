"""Readable references the program's fast paths are tested against.

* ``protocol`` -- the Figure 1 spec of the protocol state machine, one
  object per record, which every engine differential compares against;
* ``kernel_oracle`` -- the per-item loops of the simulation kernels;
* ``pending_oracle`` -- the heap the columnar pending list replaced;
* ``proof_sweep_oracle`` -- the proof-sweep mask's general reductions;
* ``lifecycle_oracles`` -- the O(providers) refresh-target scans;
* ``byte_path_oracles`` -- the per-byte / per-block crypto loops.
"""
