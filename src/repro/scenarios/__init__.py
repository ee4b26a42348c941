"""The ten registered scenarios: one module each, one package.

Every module defines its ``ParamSpec`` table, a trial builder, the
registered trial function and an aggregator.  Importing this package
registers all ten with :mod:`repro.runner`
(:func:`repro.runner.load_builtin_scenarios` does exactly that), so
``python -m repro list|run|bench|diff`` is the one front door;
``docs/scenarios.md`` is the index mapping each to its paper artefact.

The paper's evaluation -- these six also keep what no scenario computes,
the closed-form ``run_bound_sweep`` tables at the paper's own parameters
and the ``PAPER_*`` constants:

* :mod:`~repro.scenarios.table3` -- Table III capacity usage.
* :mod:`~repro.scenarios.table4` -- Table IV protocol comparison.
* :mod:`~repro.scenarios.collision` -- Theorem 2 collision probability.
* :mod:`~repro.scenarios.robustness` -- Theorem 3 loss ratio ("0.1%").
* :mod:`~repro.scenarios.deposit` -- Theorem 4 deposit ratio ("0.0046").
* :mod:`~repro.scenarios.scalability` -- Theorem 1 storable size.

Dynamic workloads the paper's evaluation only touches implicitly:

* :mod:`~repro.scenarios.churn` -- provider join / leave / crash over
  proof cycles on :class:`repro.sim.scenario.DSNScenario`.
* :mod:`~repro.scenarios.retrieval` -- ``retrieval_load``: a Retrieval
  Market request stream over BitSwap / the DHT against ``DelayPerSize``.
* :mod:`~repro.scenarios.segmentation` -- large files through
  :class:`repro.core.large_files.LargeFileCodec`.
* :mod:`~repro.scenarios.lifecycle_churn` -- the event-driven deployment
  (:class:`repro.sim.lifecycle.LifecycleSimulation`).
"""

from repro.scenarios import (
    churn,
    collision,
    deposit,
    lifecycle_churn,
    retrieval,
    robustness,
    scalability,
    segmentation,
    table3,
    table4,
)

__all__ = [
    "churn",
    "collision",
    "deposit",
    "lifecycle_churn",
    "retrieval",
    "robustness",
    "scalability",
    "segmentation",
    "table3",
    "table4",
]
