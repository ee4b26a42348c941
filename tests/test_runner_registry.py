"""Registry tests: registration, lookup errors, parameter resolution."""

from __future__ import annotations

import pytest

from repro.runner.registry import (
    DuplicateScenarioError,
    Interval,
    ParamSpec,
    ScenarioError,
    ScenarioSpec,
    UnknownScenarioError,
    coerce_value,
    get_scenario,
    list_scenarios,
    load_builtin_scenarios,
    register,
    resolve_params,
    scenario,
    unregister,
)


def _noop_trial(task):
    return {"ok": True}


def _single_trial(params):
    return [{}]


def _make_spec(name: str, **kwargs) -> ScenarioSpec:
    defaults = dict(
        name=name,
        description="test scenario",
        trial_fn=_noop_trial,
        build_trials=_single_trial,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


@pytest.fixture
def temp_scenario():
    """Register a throwaway scenario and clean it up afterwards."""
    spec = register(_make_spec("temp-scenario"), replace=True)
    yield spec
    unregister("temp-scenario")


class TestRegistration:
    def test_register_and_lookup(self, temp_scenario):
        assert get_scenario("temp-scenario") is temp_scenario

    def test_duplicate_registration_raises(self, temp_scenario):
        with pytest.raises(DuplicateScenarioError):
            register(_make_spec("temp-scenario"))

    def test_replace_is_idempotent(self, temp_scenario):
        replacement = register(_make_spec("temp-scenario"), replace=True)
        assert get_scenario("temp-scenario") is replacement

    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioError):
            register(_make_spec(""))

    def test_unknown_lookup_raises_with_known_names(self, temp_scenario):
        with pytest.raises(UnknownScenarioError, match="temp-scenario"):
            get_scenario("definitely-not-registered")

    def test_decorator_registers_and_returns_function(self):
        @scenario(
            "temp-decorated",
            "decorated scenario",
            build_trials=_single_trial,
            params={"n": ParamSpec(3, "count")},
        )
        def trial(task):
            return {"ok": True}

        try:
            spec = get_scenario("temp-decorated")
            assert spec.trial_fn is trial
            assert spec.params["n"].default == 3
            assert trial({"seed": 0}) == {"ok": True}
        finally:
            unregister("temp-decorated")

    def test_list_scenarios_sorted(self, temp_scenario):
        names = [spec.name for spec in list_scenarios()]
        assert names == sorted(names)
        assert "temp-scenario" in names


class TestBuiltinScenarios:
    def test_all_six_paper_experiments_registered(self):
        names = {spec.name for spec in load_builtin_scenarios()}
        assert {
            "collision",
            "deposit",
            "robustness",
            "scalability",
            "table3",
            "table4",
        } <= names


class TestParamResolution:
    def _spec(self):
        return _make_spec(
            "temp-params",
            params={
                "count": ParamSpec(5, "an int"),
                "rate": ParamSpec(0.5, "a float"),
                "fast": ParamSpec(True, "a bool"),
                "label": ParamSpec("abc", "a string"),
                "grid": ParamSpec((1, 2, 3), "an int tuple"),
            },
        )

    def test_defaults_without_overrides(self):
        resolved = resolve_params(self._spec())
        assert resolved == {
            "count": 5,
            "rate": 0.5,
            "fast": True,
            "label": "abc",
            "grid": (1, 2, 3),
        }

    def test_string_overrides_coerced_to_schema_types(self):
        resolved = resolve_params(
            self._spec(),
            {"count": "7", "rate": "0.25", "fast": "false", "grid": "4,5"},
        )
        assert resolved["count"] == 7
        assert resolved["rate"] == 0.25
        assert resolved["fast"] is False
        assert resolved["grid"] == (4, 5)

    def test_typed_overrides_pass_through(self):
        resolved = resolve_params(self._spec(), {"count": 9, "grid": (8,)})
        assert resolved["count"] == 9
        assert resolved["grid"] == (8,)

    def test_mistyped_override_rejected_at_resolution(self):
        """Already-typed values are checked too, so every entry point
        (Python API, campaign specs) fails fast instead of mid-trial."""
        with pytest.raises(ScenarioError, match="'count' must be an int64, got 2.5"):
            resolve_params(self._spec(), {"count": 2.5})
        with pytest.raises(ScenarioError, match="'rate' must be a finite float"):
            resolve_params(self._spec(), {"rate": (1, 2)})
        with pytest.raises(ScenarioError, match="'fast' must be a bool"):
            resolve_params(self._spec(), {"fast": 1})
        # Tuple elements are checked too: these used to crash inside a trial.
        load_builtin_scenarios()
        with pytest.raises(ScenarioError, match="'rates' must be a non-empty tuple"):
            resolve_params(get_scenario("retrieval_load"), {"rates": ["fast"]})
        with pytest.raises(ScenarioError, match="'providers' must be a non-empty tuple"):
            resolve_params(get_scenario("scalability"), {"providers": [1.5, "x"]})

    def test_friendly_widenings(self):
        resolved = resolve_params(self._spec(), {"rate": 1, "grid": [4, 5]})
        assert resolved["rate"] == 1.0
        assert isinstance(resolved["rate"], float)
        assert resolved["grid"] == (4, 5)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioError, match="no parameter"):
            resolve_params(self._spec(), {"bogus": "1"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            coerce_value("maybe", ParamSpec(True))

    def test_interval_domain_parsed_where_declared(self):
        domain = ParamSpec(1, "a count", "[1, inf)").domain
        assert (domain.low, domain.high, domain.closed_low, domain.closed_high) == (
            1.0,
            float("inf"),
            True,
            False,
        )
        assert str(domain) == "[1, inf)" and 1 in domain and 0 not in domain
        for typo in ("[1 inf)", "1, inf", "[1, x)", ""):
            with pytest.raises(ValueError, match="is not an interval such as"):
                ParamSpec(1, "a count", typo)

    def test_a_default_outside_its_own_domain_is_refused_where_declared(self):
        """``ParamSpec(0, "", "[1, inf)")`` used to resolve to 0 by default
        while ``--set n=0`` was refused."""
        for default, domain in (
            (0, "[1, inf)"),
            (1.0, "(0, 1)"),
            ((2, 0), "[1, inf)"),
            ("c", ("a", "b")),
            (float("inf"), None),
            ((), None),
        ):
            with pytest.raises(ValueError, match="outside the parameter's own domain"):
                ParamSpec(default, "a parameter", domain)

    def test_empty_intervals_are_refused(self):
        for text in ("[5, 1]", "(1, 1]", "[1, 1)", "(1, 1)", "[nan, 1]"):
            with pytest.raises(ValueError, match="is empty"):
                Interval.parse(text)
        assert 1 in Interval.parse("[1, 1]")

    def test_every_declared_default_resolves_to_itself(self):
        for spec in load_builtin_scenarios():
            defaults = spec.default_params()
            assert resolve_params(spec, defaults) == defaults, spec.name
