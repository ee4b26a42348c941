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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
    "BACKEND_PARAM",
    "repeated_trials",
    "require_positive",
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
class ParamSpec:
    """One scenario parameter: a default value plus help text.

    The parameter's type is the type of its default; the CLI coerces
    ``--set`` overrides to that type (comma-separated lists for tuple
    defaults).
    """

    default: object
    help: str = ""

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


def require_positive(scenario: str, params: Mapping[str, object], *names: str) -> None:
    """Refuse a count parameter -- or any element of a tuple of counts --
    below one, naming it; trial builders call this before any trial runs."""
    for name in names:
        value = params[name]
        if any(count < 1 for count in (value if isinstance(value, tuple) else (value,))):
            raise ScenarioError(
                f"scenario {scenario!r} parameter {name!r} must be positive, got {value!r}"
            )


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


def coerce_value(text: str, spec: ParamSpec) -> object:
    """Coerce a ``--set`` string to the parameter's type."""
    default = spec.default
    if isinstance(default, tuple):
        element = type(default[0]) if default else float
        parts = [part for part in text.split(",") if part.strip()]
        return tuple(_coerce_scalar(part, element) for part in parts)
    return _coerce_scalar(text, type(default))


def _conform_typed(scenario: str, key: str, default: object, value: object) -> object:
    """Check an already-typed override against its parameter's default type.

    Friendly widenings are applied instead of rejected: int -> float for
    float-valued parameters (config formats write ``1``, not ``1.0``) and
    list -> tuple for sequence-valued ones.  Anything else mistyped fails
    here -- at resolution time, with the parameter named -- rather than
    deep inside a trial builder after work has started.
    """
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(default, float):
        if isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        ok = isinstance(value, float)
    elif isinstance(default, tuple):
        if isinstance(value, list):
            value = tuple(value)
        ok = isinstance(value, tuple)
    elif isinstance(default, str):
        ok = isinstance(value, str)
    else:
        ok = True
    if not ok:
        raise ScenarioError(
            f"scenario {scenario!r} parameter {key!r} expects "
            f"{type(default).__name__} (default {default!r}), got "
            f"{type(value).__name__} value {value!r}"
        )
    return value


#: The reserved ``backend`` parameter, as every scenario that dispatches
#: into :mod:`repro.kernels` declares it (see :func:`resolve_params`).
BACKEND_PARAM = ParamSpec(
    "auto", "simulation-kernel backend (auto, reference or vectorized)"
)


def resolve_params(
    spec: ScenarioSpec, overrides: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Merge overrides into the scenario's defaults, validating names.

    String override values are coerced to the schema type; already-typed
    values (from Python callers, campaign specs, ...) are type-checked
    against the default (with int->float and list->tuple widening), so
    every entry point fails fast on a mistyped value.

    ``backend`` is a *reserved* parameter name: scenarios that dispatch
    into :mod:`repro.kernels` declare it as :data:`BACKEND_PARAM`, and the
    resolved dictionary always carries the **concrete** backend name
    (``"auto"`` defers to ``$REPRO_KERNEL_BACKEND``, else the built-in
    default).  Run manifests and campaign cache keys therefore record
    which kernels actually ran, and ``repro diff`` flags backend drift
    like any other parameter change.
    """
    resolved = spec.default_params()
    for key, value in dict(overrides or {}).items():
        if key not in spec.params:
            known = ", ".join(sorted(spec.params)) or "(no parameters)"
            raise ScenarioError(
                f"scenario {spec.name!r} has no parameter {key!r}; known: {known}"
            )
        if isinstance(value, str) and not isinstance(spec.params[key].default, str):
            try:
                value = coerce_value(value, spec.params[key])
            except ValueError as error:
                raise ScenarioError(
                    f"invalid value {value!r} for parameter {key!r} of scenario "
                    f"{spec.name!r}: {error}"
                ) from None
        resolved[key] = _conform_typed(
            spec.name, key, spec.params[key].default, value
        )
    if isinstance(resolved.get("backend"), str):
        from repro.kernels import KernelError, resolve_backend_name

        try:
            resolved["backend"] = resolve_backend_name(resolved["backend"])
        except KernelError as error:
            raise ScenarioError(
                f"scenario {spec.name!r} parameter 'backend': {error}"
            ) from None
    return resolved
