"""Every artifact reader refuses a malformed artifact cleanly.

One derandomized hypothesis property per artifact kind -- a run manifest
(with its ``telemetry`` and ``metrics`` summaries), a campaign document,
the perf ledger and the ``BENCHMARK.json`` beside it, and a Chrome
trace.  Each
takes a valid artifact, mutates one place in it (drops it, retypes it,
NaNs it, nests it, or swaps a container for a scalar) and runs every
reader of that kind through ``repro.runner.cli.main`` in-process.  The
allowed outcomes are the verb's normal exit codes, exit 2 with
``error: ...`` on stderr, and a quarantined result-store entry; an
uncaught exception fails the property.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.store import ResultStore
from repro.runner.aggregate import summarize
from repro.runner.cli import main
from repro.runner.results import RunManifest
from repro.telemetry import metrics

SEED = 3

#: What a retyped place becomes: every JSON type, NaN and infinity.
REPLACEMENTS = (None, True, -1, 0, 2.5, math.nan, math.inf, "x", [], {}, [1], {"a": 1})

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module", autouse=True)
def camp_alpha():
    """The instant 'camp-alpha' scenario of ``campaign_testlib``, registered
    for the module (hypothesis refuses function-scoped fixtures)."""
    from campaign_testlib import campaign_test_specs

    from repro.runner.registry import _REGISTRY, register

    specs = campaign_test_specs()
    for spec in specs:
        register(spec, replace=True)
    yield
    for spec in specs:
        _REGISTRY.pop(spec.name, None)


def _places(value, prefix=()):
    """The path of every value inside ``value``, ``()`` for itself."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _places(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _places(item, prefix + (index,))


@st.composite
def mutants(draw, artifact):
    """``artifact`` with one place dropped, retyped, NaN'd or nested."""
    mutant = copy.deepcopy(artifact)
    path = draw(st.sampled_from(list(_places(mutant))))
    operation = draw(st.sampled_from(("drop", "retype", "nan", "nest")))
    if not path:
        if operation == "nest":
            return [mutant]
        return draw(st.sampled_from(REPLACEMENTS))
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if operation == "drop":
        del parent[key]
    elif operation == "retype":
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    elif operation == "nan":
        parent[key] = math.nan
    else:
        parent[key] = draw(st.sampled_from(([parent[key]], {"x": parent[key]})))
    return mutant


def run_cli(*argv, allowed=(0,)) -> int:
    """``repro *argv`` in-process: a normal exit code, or 2 with ``error:``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    else:
        assert code in allowed, (argv, code, err.getvalue())
    return code


def write(path: Path, artifact) -> Path:
    path.write_text(json.dumps(artifact), encoding="utf-8")
    return path


# -- valid artifacts ----------------------------------------------------------


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """A camp-alpha run's manifest (telemetry, a metrics summary with a
    histogram and a gauge series, a summary grouped by a key column) and
    its Chrome trace."""
    folder = tmp_path_factory.mktemp("traced")
    trace, out = folder / "trace.json", folder / "run.json"
    assert main(
        ["run", "camp-alpha", "--quiet", "--seed", str(SEED), "--set", "scale=1",
         "--trace", str(trace), "--out", str(out)]
    ) == 0
    manifest = json.loads(out.read_text())
    manifest["metrics"] = metrics.summarize_metrics(
        [
            {"kind": "hist", "name": "h", "cat": "t", "value": 0.5, "pid": 1},
            {"kind": "gauge", "name": "g", "cat": "t", "t": 1.0, "value": 2.0, "pid": 1},
        ]
    )
    manifest["summary"] = summarize(manifest["rows"], group_by=("x",), values=("value",))
    RunManifest.from_dict(manifest)
    return manifest, json.loads(trace.read_text())


CAMPAIGN = {
    "campaign": {"name": "property", "description": "d", "seed": SEED},
    "scenarios": [
        {"scenario": "camp-alpha", "params": {"trials": 2}, "sweep": {"scale": [1, 2]},
         "seeds": [SEED]},
    ],
}

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: One measured pair over every workload and end-to-end metric.
LEDGER = [
    {
        "pr": 1,
        "side": side,
        "ledger": {
            "host": {"nproc": 2},
            "workloads": {
                workload["name"]: {
                    "end_to_end": {
                        metric["name"]: {"median": median} for metric in BENCHMARK["end_to_end"]
                    }
                }
                for workload in BENCHMARK["workloads"]
            },
        },
    }
    for side, median in (("parent", 100.0), ("change", 90.0))
]


# -- the properties -----------------------------------------------------------


@PROPERTY
@given(data=st.data())
def test_manifest_readers(traced_run, data):
    valid, _ = traced_run
    mutant = data.draw(mutants(valid))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        good, bad = write(root / "good.json", valid), write(root / "bad.json", mutant)
        run_cli("trace", bad, allowed=(0, 1))
        run_cli("trace", "--json", bad, allowed=(0, 1))
        run_cli("diff", good, bad, allowed=(0, 1))
        run_cli("perf", "report", bad)
        run_cli("run", "camp-alpha", "--quiet", "--seed", SEED, "--set", "scale=1",
                "--resume", bad)
        # A store holding the mutant in the cell's slot: a hit, or a
        # quarantined entry and a re-run.
        store = ResultStore(root / "store")
        slot = store.put(RunManifest.from_dict(valid))
        write(slot, mutant)
        run_cli("campaign", "run", "--matrix", "camp-alpha:scale=1", "--seed", SEED,
                "--store", store.root, "--workers", 1)
        assert store.stats()["stored"] == 1
        assert store.get("camp-alpha", RunManifest.from_dict(valid).params, SEED)


@PROPERTY
@given(data=st.data())
def test_campaign_readers(data):
    mutant = data.draw(mutants(CAMPAIGN))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        spec = write(root / "spec.json", mutant)
        run_cli("campaign", "run", spec, "--store", root / "store", "--workers", 1)
        run_cli("campaign", "status", spec, "--store", root / "store")


@pytest.mark.parametrize("mutated", ["ledger", "benchmark"])
@PROPERTY
@given(data=st.data())
def test_ledger_readers(mutated, data):
    """``repro perf report`` / ``check`` on a ledger, or the
    ``BENCHMARK.json`` beside it, mutated in one place."""
    documents = {"ledger": LEDGER, "benchmark": BENCHMARK}
    documents[mutated] = data.draw(mutants(documents[mutated]))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write(root / "BENCHMARK.json", documents["benchmark"])
        path = write(root / "BENCH_e2e.json", documents["ledger"])
        run_cli("perf", "report", path)
        run_cli("perf", "check", path, allowed=(0, 1))


@PROPERTY
@given(data=st.data())
def test_chrome_trace_readers(traced_run, data):
    from repro.telemetry import load_chrome_trace

    _, valid = traced_run
    mutant = data.draw(mutants(valid))
    with tempfile.TemporaryDirectory() as scratch:
        path = write(Path(scratch) / "trace.json", mutant)
        try:
            load_chrome_trace(path)
        except ValueError:
            pass
        run_cli("trace", path)
        run_cli("perf", "report", path)
