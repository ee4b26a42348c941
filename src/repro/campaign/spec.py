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
tuple-valued parameter defaults.  The document's shape is declared once,
as the field table :data:`CAMPAIGN`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Tuple, Union

from repro.schema import ANY, INT, NON_EMPTY, STR, Field, list_of, load, map_of, table

__all__ = [
    "CampaignError",
    "CAMPAIGN",
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


_SEED, _NAME = INT.within("[0, inf)"), STR.within(NON_EMPTY)

#: A campaign document; TOML calls its objects tables.
CAMPAIGN = table(
    Field("campaign", table(
        Field("name", _NAME, required=True),
        *(Field(key, STR) for key in ("description", "store")),
        Field("seed", _SEED),
        closed=True, name="table",
    ), required=True),
    Field("scenarios", list_of(table(
        Field("scenario", _NAME, required=True),
        Field("params", table(name="table")),
        Field("sweep", map_of(list_of(ANY).within(NON_EMPTY))),
        Field("seed", _SEED),
        Field("seeds", list_of(_SEED).within(NON_EMPTY)),
        closed=True, name="table",
    ))),
    name="table",
)


def _entry(raw: Mapping[str, object], where: str, default_seed: int) -> ScenarioEntry:
    """One checked ``[[scenarios]]`` table as a :class:`ScenarioEntry`."""
    if "seed" in raw and "seeds" in raw:
        raise CampaignError(f"{where} sets both 'seed' and 'seeds'")
    params = {key: _tupled(value) for key, value in raw.get("params", {}).items()}
    sweep = {
        key: tuple(_tupled(value) for value in values)
        for key, values in raw.get("sweep", {}).items()
    }
    both = sorted(params.keys() & sweep.keys())
    if both:
        raise CampaignError(f"{where} sets parameter {both[0]!r} in both 'params' and 'sweep'")
    seeds = tuple(raw["seeds"]) if "seeds" in raw else (raw.get("seed", default_seed),)
    return ScenarioEntry(scenario=raw["scenario"], params=params, sweep=sweep, seeds=seeds)


def parse_campaign(data: Mapping[str, object], source: str = "<memory>") -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a decoded TOML/JSON document.

    Raises :class:`CampaignError` naming the field for anything
    :data:`CAMPAIGN` refuses, and for the rules spanning fields: at least
    one ``[[scenarios]]`` entry, ``seed`` xor ``seeds``, and no parameter
    both fixed and swept.
    """
    document = load(CAMPAIGN, data, f"{source}: the campaign document", CampaignError)
    header = document["campaign"]
    if not document.get("scenarios"):
        raise CampaignError(f"{source}: campaign declares no [[scenarios]] entries")
    default_seed = header.get("seed", 0)
    return CampaignSpec(
        name=header["name"],
        entries=tuple(
            _entry(raw, f"{source}: scenarios[{index}]", default_seed)
            for index, raw in enumerate(document["scenarios"])
        ),
        description=header.get("description", ""),
        seed=default_seed,
        store=header.get("store", ""),
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
    syntax = "JSON" if target.suffix.lower() == ".json" else "TOML"
    try:
        text = target.read_text(encoding="utf-8")
        if syntax == "JSON":
            data = json.loads(text)
        else:
            import tomllib

            data = tomllib.loads(text)
    except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
        raise CampaignError(f"TOML specs need Python >= 3.11; rewrite {target} as JSON") from None
    except OSError as error:
        raise CampaignError(f"cannot read campaign spec {target}: {error}") from None
    except ValueError as error:  # tomllib.TOMLDecodeError is a ValueError
        raise CampaignError(f"{target} is not valid {syntax}: {error}") from None
    return parse_campaign(data, source=str(target))
