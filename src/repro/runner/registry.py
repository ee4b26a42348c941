"""Scenario registry: named, parameterised, parallelizable experiments.

A *scenario* packages one paper experiment (or any future workload) as

* a **parameter schema** -- named defaults with help text, from which the
  CLI derives ``--set key=value`` coercion;
* a **trial builder** -- expands resolved parameters into a list of
  independent trial descriptions (dictionaries);
* a **trial function** -- runs one trial given its description (the
  executor injects ``seed`` and ``trial`` keys) and returns a plain row
  dictionary;
* an optional **aggregator** -- reduces the per-trial rows into summary
  rows for the printed report and the run manifest.

Trial functions must be importable module-level callables so they can be
pickled by the multiprocessing executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "ParamSpec",
    "ScenarioSpec",
    "ScenarioError",
    "UnknownScenarioError",
    "DuplicateScenarioError",
    "register",
    "scenario",
    "get_scenario",
    "list_scenarios",
    "load_builtin_scenarios",
    "resolve_params",
    "repeated_trials",
]

TrialFn = Callable[[Mapping[str, object]], Mapping[str, object]]
BuildTrialsFn = Callable[[Mapping[str, object]], Sequence[Mapping[str, object]]]
AggregateFn = Callable[
    [Sequence[Mapping[str, object]], Mapping[str, object]],
    Sequence[Mapping[str, object]],
]


class ScenarioError(Exception):
    """Base class for registry errors."""


class UnknownScenarioError(ScenarioError, LookupError):
    """Raised when looking up a scenario name that was never registered."""


class DuplicateScenarioError(ScenarioError):
    """Raised when registering a name that already exists (and replace=False)."""


@dataclass(frozen=True)
class Interval:
    """An interval domain, parsed once from its notation (``"[1, inf)"``)."""

    text: str
    low: float
    high: float
    closed_low: bool
    closed_high: bool

    @classmethod
    def parse(cls, text: str) -> "Interval":
        low, comma, high = text[1:-1].partition(",")
        try:
            if not (comma and text[0] in "[(" and text[-1] in "])"):
                raise ValueError(text)
            interval = cls(text, float(low), float(high), text[0] == "[", text[-1] == "]")
        except ValueError:
            raise ValueError(f"domain {text!r} is not an interval such as '[1, inf)'") from None
        # Written as "not <=" so a NaN bound, which admits nothing, is empty too.
        if not interval.low <= interval.high or (
            interval.low == interval.high
            and not (interval.closed_low and interval.closed_high)
        ):
            raise ValueError(f"domain {text!r} is empty")
        return interval

    def __contains__(self, item: object) -> bool:
        above_low = self.low < item or self.closed_low and item == self.low  # type: ignore[operator]
        return above_low and (item < self.high or self.closed_high and item == self.high)  # type: ignore[operator]

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ParamSpec:
    """One scenario parameter: a default value, help text and its domain.

    The parameter's type is the type of its default; the CLI coerces
    ``--set`` overrides to that type (comma-separated lists for tuple
    defaults).  ``domain`` says what the type does not: an interval such
    as ``"[1, inf)"``, ``"(0, inf)"`` or ``"[0, 1]"`` (parsed into an
    :class:`Interval` here, so a malformed one fails where it is
    declared), or a tuple of the allowed choices; for a tuple parameter it
    applies to every element.  ``None`` leaves the type as the whole domain.
    The default itself must lie in the domain.
    """

    default: object
    help: str = ""
    domain: Union[str, Interval, Tuple[object, ...], None] = None

    def __post_init__(self) -> None:
        if isinstance(self.domain, str):
            object.__setattr__(self, "domain", Interval.parse(self.domain))
        kind = _element_type(self.default)
        items = self.default if isinstance(self.default, tuple) else (self.default,)
        if not items or not all(
            _fits(item, kind, self.domain) for item in _widened(items, kind)
        ):
            raise ValueError(
                f"default {self.default!r} is outside the parameter's own domain"
                f" {self.domain}"
            )

    @property
    def type(self) -> type:
        return type(self.default)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered experiment scenario."""

    name: str
    description: str
    trial_fn: TrialFn
    build_trials: BuildTrialsFn
    params: Mapping[str, ParamSpec] = field(default_factory=dict)
    aggregate: Optional[AggregateFn] = None
    tags: Tuple[str, ...] = ()

    def default_params(self) -> Dict[str, object]:
        """The schema's defaults as a plain dict."""
        return {name: spec.default for name, spec in self.params.items()}


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the global registry.

    ``replace=True`` makes registration idempotent (used by modules that
    register at import time and may be re-imported).
    """
    if not spec.name:
        raise ScenarioError("scenario name must be non-empty")
    if spec.name in _REGISTRY and not replace:
        raise DuplicateScenarioError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario(
    name: str,
    description: str,
    build_trials: BuildTrialsFn,
    params: Optional[Mapping[str, ParamSpec]] = None,
    aggregate: Optional[AggregateFn] = None,
    tags: Sequence[str] = (),
    replace: bool = True,
) -> Callable[[TrialFn], TrialFn]:
    """Decorator registering the decorated function as a scenario's trial."""

    def decorator(trial_fn: TrialFn) -> TrialFn:
        register(
            ScenarioSpec(
                name=name,
                description=description,
                trial_fn=trial_fn,
                build_trials=build_trials,
                params=dict(params or {}),
                aggregate=aggregate,
                tags=tuple(tags),
            ),
            replace=replace,
        )
        return trial_fn

    return decorator


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none registered)"
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def unregister(name: str) -> None:
    """Remove a scenario (primarily for tests)."""
    _REGISTRY.pop(name, None)


def load_builtin_scenarios() -> List[ScenarioSpec]:
    """Import :mod:`repro.scenarios` so the ten built-in scenarios self-register."""
    import repro.scenarios  # noqa: F401  (import populates the registry)

    return list_scenarios()


def repeated_trials(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """``params["trials"]`` independent copies of every other parameter.

    The trial builder of scenarios whose repetitions differ only in the
    seed the executor derives for them.
    """
    template = {key: value for key, value in params.items() if key != "trials"}
    return [dict(template) for _ in range(int(params["trials"]))]  # type: ignore[call-overload]


# ----------------------------------------------------------------------
# Parameter resolution
# ----------------------------------------------------------------------
def _coerce_scalar(text: str, target: type) -> object:
    if target is bool:
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse {text!r} as a boolean")
    if target is int:
        return int(text, 0)
    if target is float:
        return float(text)
    return text


def _element_type(default: object) -> type:
    """A scalar parameter's type, or the element type of a tuple one."""
    if isinstance(default, tuple):
        return type(default[0]) if default else float
    return type(default)


def coerce_value(text: str, spec: ParamSpec) -> object:
    """Coerce a ``--set`` string to the parameter's type."""
    if isinstance(spec.default, tuple):
        parts = [part for part in text.split(",") if part.strip()]
        return tuple(_coerce_scalar(part, _element_type(spec.default)) for part in parts)
    return _coerce_scalar(text, type(spec.default))


def _widened(items: Tuple[object, ...], kind: type) -> Tuple[object, ...]:
    """Config formats write 1, not 1.0: an int stands in for a float."""
    if kind is float:
        return tuple(float(item) if type(item) is int else item for item in items)
    return items


def _fits(item: object, kind: type, domain: Union[Interval, Tuple[object, ...], None]) -> bool:
    """``item`` is a ``kind`` in ``domain``, under the two rules every
    parameter gets: a float is finite, an int fits in int64."""
    if isinstance(item, bool) != (kind is bool) or not isinstance(item, kind):
        return False  # bool subclasses int: neither stands in for the other
    if kind is float and not math.isfinite(item):  # type: ignore[arg-type]
        return False
    if kind is int and not -(2**63) <= item < 2**63:  # type: ignore[operator]
        return False
    return domain is None or item in domain


_KIND_NAMES = {bool: "a bool", int: "an int64", float: "a finite float", str: "a str"}


def _conform(scenario: str, key: str, param: ParamSpec, value: object) -> object:
    """Coerce one override and check it against its parameter, or raise.

    The one check every entry point reaches (``--set`` strings, Python
    callers, campaign plans) before any trial is built: the default's
    type, widening int -> float and list -> tuple; :func:`_fits`' two
    rules; a non-empty tuple; the ``domain``, per element of a tuple.
    """
    kind = _element_type(param.default)
    sequence = isinstance(param.default, tuple)
    checked = value
    if isinstance(value, str) and not isinstance(param.default, str):
        try:
            checked = coerce_value(value, param)
        except ValueError:
            checked = None  # refused below like any other mistyped value
    if sequence:
        items = tuple(checked) if isinstance(checked, (list, tuple)) else ()
    else:
        items = (checked,)
    items = _widened(items, kind)
    if items and all(_fits(item, kind, param.domain) for item in items):
        return items if sequence else items[0]
    domain = param.domain
    if isinstance(domain, tuple):
        expected = "one of " + ", ".join(map(repr, domain))
    else:
        expected = _KIND_NAMES.get(kind, kind.__name__) + (f" in {domain}" if domain else "")
    if sequence:
        expected = f"a non-empty tuple, each element {expected}"
    raise ScenarioError(
        f"scenario {scenario!r} parameter {key!r} must be {expected}, got {value!r}"
    )


def resolve_params(
    spec: ScenarioSpec, overrides: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Merge overrides into the scenario's defaults, validating names.

    Every override goes through :func:`_conform` -- string values are
    coerced to the schema type first, already-typed ones (Python callers,
    campaign specs) are taken as they are -- so every entry point fails
    on a mistyped or out-of-domain value, with the parameter named,
    before any trial is built.
    """
    resolved = spec.default_params()
    for key, value in dict(overrides or {}).items():
        if key not in spec.params:
            known = ", ".join(sorted(spec.params)) or "(no parameters)"
            raise ScenarioError(
                f"scenario {spec.name!r} has no parameter {key!r}; known: {known}"
            )
        resolved[key] = _conform(spec.name, key, spec.params[key], value)
    return resolved
