"""Parallel, config-driven experiment orchestration.

The runner executes the trial functions :mod:`repro.scenarios` registers
as parallelizable, resumable *scenarios*:

* :mod:`repro.runner.registry` -- :class:`ScenarioSpec` plus a global
  decorator-based registry mapping scenario names to trial functions,
  parameter schemas and aggregators.
* :mod:`repro.runner.executor` -- fans independent trials out over
  ``multiprocessing`` (with a serial fallback) and derives per-trial child
  seeds from one root seed, so parallel and serial runs produce
  byte-identical per-trial rows.
* :mod:`repro.runner.aggregate` -- streaming mean/stddev/confidence-interval
  aggregation and the table formatting shared with :mod:`repro.sim.metrics`.
* :mod:`repro.runner.results` -- JSON run-manifest persistence so runs are
  cacheable and diffable.
* :mod:`repro.runner.diff` -- manifest comparison (provenance + per-metric
  deltas with CI overlap), the engine behind ``repro diff``.
* :mod:`repro.runner.cli` -- the ``python -m repro list|run|bench|diff``
  front door (also installed as the ``repro`` console script).

Finished trials are skipped: pass ``resume=`` (a manifest of the same
run, or its path) to :func:`run_scenario` -- or ``--resume`` on the CLI --
and only the trials missing from the manifest execute.  The manifest is
written once, after the last trial, so a killed run leaves none.

Whole *grids* of runs -- many parameter cells per scenario, many
scenarios per figure -- are orchestrated one level up by
:mod:`repro.campaign` (``repro campaign run|status|report``), which
shares one worker pool across every cell via ``run_scenario``'s
``pool=`` and caches completed cells in a content-addressed store.

Quick start::

    from repro.runner import run_scenario

    manifest = run_scenario("robustness", workers=4, seed=7)
    print(manifest.summary)
"""

from repro.runner.aggregate import StreamingAggregator, format_table, summarize
from repro.runner.diff import diff_manifests, format_diff, summary_rows
from repro.runner.executor import (
    ResumeError,
    create_worker_pool,
    derive_trial_seed,
    match_resume_rows,
    run_scenario,
)
from repro.runner.registry import (
    DuplicateScenarioError,
    ParamSpec,
    ScenarioError,
    ScenarioSpec,
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
    load_builtin_scenarios,
    register,
    scenario,
)
from repro.runner.results import RunManifest

__all__ = [
    "DuplicateScenarioError",
    "ParamSpec",
    "ResumeError",
    "RunManifest",
    "ScenarioError",
    "ScenarioSpec",
    "StreamingAggregator",
    "UnknownScenarioError",
    "create_worker_pool",
    "derive_trial_seed",
    "diff_manifests",
    "format_diff",
    "format_table",
    "get_scenario",
    "list_scenarios",
    "load_builtin_scenarios",
    "match_resume_rows",
    "register",
    "run_scenario",
    "scenario",
    "summarize",
    "summary_rows",
]
