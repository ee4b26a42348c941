"""Declarative campaign specifications: many scenarios, one document.

A *campaign* names a set of scenarios, parameter sweeps and seeds that
together reproduce one figure or table of the paper (or any custom grid).
Specs are plain TOML (or JSON with the same shape) so they live next to
the code, diff cleanly, and can be validated against the scenario
registry before anything runs::

    [campaign]
    name = "table3-grid"
    description = "Table III placement grid as one cache-aware campaign"
    seed = 0
    store = "runs/campaign-store"

    [[scenarios]]
    scenario = "table3"
    seeds = [0]

      [scenarios.params]
      rounds = 20

      [scenarios.sweep]
      modes = [["reallocate"], ["refresh"]]

``params`` fixes scenario parameters for every cell; ``sweep`` maps
parameter names to lists of values and expands to the cartesian product
(one *cell* per combination per seed -- see :mod:`repro.campaign.plan`).
Trial counts are ordinary scenario parameters (most scenarios expose a
``trials`` param), so they ride through ``params`` or ``sweep`` like any
other knob.  TOML arrays become tuples, matching the registry's
tuple-valued parameter defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple, Union

__all__ = [
    "CampaignError",
    "ScenarioEntry",
    "CampaignSpec",
    "matrix_campaign",
    "parse_campaign",
    "load_campaign",
]


class CampaignError(Exception):
    """A campaign spec is malformed or inconsistent with the registry."""


def _tupled(value: object) -> object:
    """Recursively convert lists (TOML/JSON arrays) into tuples.

    Registered parameter defaults use tuples for sequence-valued params;
    converting here keeps spec-provided values comparable (and hashable)
    with CLI ``--set`` and Python-API overrides.
    """
    if isinstance(value, list):
        return tuple(_tupled(item) for item in value)
    return value


@dataclass(frozen=True)
class ScenarioEntry:
    """One scenario's slice of a campaign: fixed params, sweep axes, seeds."""

    scenario: str
    params: Mapping[str, object] = field(default_factory=dict)
    sweep: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (0,)


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed campaign document."""

    name: str
    entries: Tuple[ScenarioEntry, ...]
    description: str = ""
    seed: int = 0
    store: str = ""


def _require_mapping(value: object, where: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise CampaignError(f"{where} must be a table/object, got {type(value).__name__}")
    return value


def _parse_entry(
    raw: Mapping[str, object], index: int, default_seed: int
) -> ScenarioEntry:
    where = f"scenarios[{index}]"
    unknown = set(raw) - {"scenario", "params", "sweep", "seed", "seeds"}
    if unknown:
        raise CampaignError(f"{where} has unknown keys: {sorted(unknown)}")
    name = raw.get("scenario")
    if not isinstance(name, str) or not name:
        raise CampaignError(f"{where} needs a non-empty 'scenario' name")

    params = {
        key: _tupled(value)
        for key, value in _require_mapping(
            raw.get("params", {}), f"{where}.params"
        ).items()
    }

    sweep: Dict[str, Tuple[object, ...]] = {}
    for key, values in _require_mapping(raw.get("sweep", {}), f"{where}.sweep").items():
        if not isinstance(values, (list, tuple)) or not values:
            raise CampaignError(
                f"{where}.sweep.{key} must be a non-empty list of values"
            )
        sweep[key] = tuple(_tupled(value) for value in values)
        if key in params:
            raise CampaignError(
                f"{where} sets parameter {key!r} in both 'params' and 'sweep'"
            )

    if "seed" in raw and "seeds" in raw:
        raise CampaignError(f"{where} sets both 'seed' and 'seeds'")
    if "seeds" in raw:
        seeds_raw = raw["seeds"]
        if not isinstance(seeds_raw, (list, tuple)) or not seeds_raw:
            raise CampaignError(f"{where}.seeds must be a non-empty list of integers")
        seeds = tuple(seeds_raw)
    elif "seed" in raw:
        seeds = (raw["seed"],)
    else:
        seeds = (default_seed,)
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise CampaignError(f"{where} seed {seed!r} must be a non-negative integer")

    return ScenarioEntry(scenario=name, params=params, sweep=sweep, seeds=seeds)


def parse_campaign(data: Mapping[str, object], source: str = "<memory>") -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a decoded TOML/JSON document."""
    data = _require_mapping(data, f"{source}: the campaign document")
    header = _require_mapping(data.get("campaign", {}), f"{source}: [campaign]")
    unknown = set(header) - {"name", "description", "seed", "store"}
    if unknown:
        raise CampaignError(f"{source}: [campaign] has unknown keys: {sorted(unknown)}")
    name = header.get("name")
    if not isinstance(name, str) or not name:
        raise CampaignError(f"{source}: [campaign] needs a non-empty 'name'")
    default_seed = header.get("seed", 0)
    if not isinstance(default_seed, int) or isinstance(default_seed, bool) or default_seed < 0:
        raise CampaignError(f"{source}: [campaign] seed must be a non-negative integer")

    raw_entries = data.get("scenarios", [])
    if not isinstance(raw_entries, Sequence) or isinstance(raw_entries, (str, bytes)):
        raise CampaignError(f"{source}: 'scenarios' must be an array of tables")
    if not raw_entries:
        raise CampaignError(f"{source}: campaign declares no [[scenarios]] entries")
    entries = tuple(
        _parse_entry(_require_mapping(raw, f"{source}: scenarios[{index}]"), index, default_seed)
        for index, raw in enumerate(raw_entries)
    )

    return CampaignSpec(
        name=name,
        entries=entries,
        description=str(header.get("description", "")),
        seed=default_seed,
        store=str(header.get("store", "")),
    )


def matrix_campaign(matrix: str, seed: int = 0) -> CampaignSpec:
    """Build a one-axis sweep campaign from ``scenario:param=v1,v2,...``.

    The CLI shorthand ``repro campaign run --matrix table3:rounds=20,50``
    expands to the same :class:`CampaignSpec` a spec file with one
    ``[[scenarios]]`` entry and one ``sweep`` axis would produce, so it
    rides the existing planner validation (unknown scenarios, unknown
    parameters and uncoercible values fail before anything runs) and the
    same content-addressed result store.  Values are passed as strings
    and coerced by the registry exactly like ``repro run --set``.
    """
    scenario_part, separator, axis_part = matrix.partition(":")
    scenario = scenario_part.strip()
    parameter, value_separator, values_text = axis_part.partition("=")
    parameter = parameter.strip()
    values = tuple(value.strip() for value in values_text.split(",") if value.strip())
    if not separator or not scenario or not value_separator or not parameter or not values:
        raise CampaignError(
            "--matrix expects SCENARIO:PARAM=VALUE[,VALUE...], got " f"{matrix!r}"
        )
    if seed < 0:
        raise CampaignError("--matrix seed must be a non-negative integer")
    entry = ScenarioEntry(
        scenario=scenario, sweep={parameter: values}, seeds=(seed,)
    )
    return CampaignSpec(
        name=f"matrix-{scenario}-{parameter}",
        entries=(entry,),
        description=f"one-axis sweep expanded from --matrix {matrix!r}",
        seed=seed,
    )


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as error:
        raise CampaignError(f"cannot read campaign spec {target}: {error}") from None
    if target.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise CampaignError(f"{target} is not valid JSON: {error}") from None
    else:
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
            raise CampaignError(
                f"TOML campaign specs need Python >= 3.11 (tomllib); "
                f"rewrite {target} as JSON with the same shape"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise CampaignError(f"{target} is not valid TOML: {error}") from None
    return parse_campaign(data, source=str(target))
