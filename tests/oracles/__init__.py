"""Readable references the program's fast paths are tested against.

* ``protocol`` -- the Figure 1 spec of the protocol state machine, one
  object per record, which every engine differential compares against;
* ``harness`` -- the one engine-differential harness: ``deploy`` builds a
  funded deployment on either engine, ``apply`` runs one op (``batch``,
  ``add``, ``advance``, ``step``, ``crash``, ``sick`` / ``heal`` /
  ``crash_silent``, ``crash_target``, ``discard``, ``disable``,
  ``confirm_refreshes``) and returns its refusal, ``replay`` runs an op
  list no op of which may be refused, and ``identity`` (fingerprint,
  refresh notices, sampler tallies, PRNG state) is what engines must agree
  on.  The differential is ``tests/test_engine_machine.py``'s state
  machine, one rule per op; a new one is a rule or a start there;
* ``kernel_oracle`` -- the per-item loops of the simulation kernels;
* ``pending_oracle`` -- the heap the columnar pending list replaced;
* ``proof_sweep_oracle`` -- the proof-sweep mask's general reductions;
* ``lifecycle_oracles`` -- the O(providers) refresh-target scans;
* ``byte_path_oracles`` -- the per-byte / per-block crypto loops.
"""
