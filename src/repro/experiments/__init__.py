"""Experiment drivers regenerating the paper's tables and figures.

Every table / figure / concrete example of the paper's evaluation has a
driver module here (``docs/scenarios.md`` maps every registered scenario
back to its paper artefact):

* :mod:`repro.experiments.table3` -- Table III capacity-usage experiments
  (both the reallocate and refresh settings, all five distributions).
* :mod:`repro.experiments.table4` -- Table IV protocol comparison.
* :mod:`repro.experiments.collision` -- Theorem 2 collision-probability
  bound versus simulation.
* :mod:`repro.experiments.robustness` -- Theorem 3 loss-ratio bound versus
  Monte-Carlo adversarial corruption (the "0.1% at lambda=0.5" example).
* :mod:`repro.experiments.deposit` -- Theorem 4 deposit-ratio bound and the
  end-to-end compensation check (the "0.0046" example).
* :mod:`repro.experiments.scalability` -- Theorem 1 storable-size bound.

Each module exposes ``run_*`` functions returning plain row dictionaries
and registers a *scenario* with :mod:`repro.runner`, so the preferred
front door is the unified CLI (which also carries the dynamic workload
pack in :mod:`repro.scenarios` -- ``churn``, ``retrieval_load``,
``segmentation`` -- plus ``--resume`` for interrupted runs and ``repro
diff`` for comparing saved manifests)::

    python -m repro list
    python -m repro run robustness --workers 4 --seed 7 --out results.json
    python -m repro run robustness --resume results.json --out results.json
    python -m repro diff results.json other.json

The modules have no entry points of their own: ``repro run <name>`` is
the one way to execute a scenario (``--workers N``, ``--seed S``, ``--set
key=value``), and the analytic ``run_bound_sweep`` helpers stay
importable for the closed-form tables.
"""

from repro.experiments import collision, deposit, robustness, scalability, table3, table4

__all__ = ["collision", "deposit", "robustness", "scalability", "table3", "table4"]

