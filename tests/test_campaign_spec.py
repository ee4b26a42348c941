"""Campaign spec parsing and planning tests."""

from __future__ import annotations

import pytest

from repro.campaign.plan import plan_campaign
from repro.campaign.spec import CampaignError, load_campaign, parse_campaign


def _minimal(**campaign_extra):
    return {
        "campaign": {"name": "demo", **campaign_extra},
        "scenarios": [{"scenario": "camp-alpha"}],
    }


class TestParseCampaign:
    def test_minimal_spec(self):
        spec = parse_campaign(_minimal())
        assert spec.name == "demo"
        assert spec.seed == 0
        assert len(spec.entries) == 1
        assert spec.entries[0].scenario == "camp-alpha"
        assert spec.entries[0].seeds == (0,)

    def test_campaign_seed_is_entry_default(self):
        spec = parse_campaign(_minimal(seed=7))
        assert spec.entries[0].seeds == (7,)

    def test_entry_seeds_override_campaign_seed(self):
        data = _minimal(seed=7)
        data["scenarios"][0]["seeds"] = [1, 2]
        assert parse_campaign(data).entries[0].seeds == (1, 2)

    def test_lists_become_tuples(self):
        data = _minimal()
        data["scenarios"][0]["params"] = {"weights": [1, 2, [3, 4]]}
        data["scenarios"][0]["sweep"] = {"modes": [["a"], ["b"]]}
        entry = parse_campaign(data).entries[0]
        assert entry.params["weights"] == (1, 2, (3, 4))
        assert entry.sweep["modes"] == (("a",), ("b",))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["campaign"].pop("name"), "non-empty 'name'"),
            (lambda d: d.pop("scenarios"), "no \\[\\[scenarios\\]\\] entries"),
            (lambda d: d["scenarios"][0].pop("scenario"), "non-empty 'scenario'"),
            (lambda d: d["campaign"].update(seed=-1), "non-negative"),
            (lambda d: d["campaign"].update(bogus=1), "unknown keys"),
            (lambda d: d["scenarios"][0].update(bogus=1), "unknown keys"),
            (lambda d: d["scenarios"][0].update(sweep={"x": []}), "non-empty list"),
            (lambda d: d["scenarios"][0].update(seed=1, seeds=[2]), "both 'seed' and 'seeds'"),
            (lambda d: d["campaign"].update(store=["a"]), "'campaign.store' is not a string"),
            (
                lambda d: d["campaign"].update(description={"d": 1}),
                "'campaign.description' is not a string",
            ),
            (
                lambda d: d["scenarios"][0].update(
                    params={"x": 1}, sweep={"x": [1, 2]}
                ),
                "both 'params' and 'sweep'",
            ),
        ],
    )
    def test_malformed_specs_rejected(self, mutate, message):
        data = _minimal()
        mutate(data)
        with pytest.raises(CampaignError, match=message):
            parse_campaign(data)


class TestLoadCampaign:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            '[campaign]\nname = "t"\nseed = 3\n\n'
            '[[scenarios]]\nscenario = "camp-alpha"\n'
            "[scenarios.sweep]\nscale = [1, 2]\n"
        )
        spec = load_campaign(path)
        assert spec.name == "t"
        assert spec.entries[0].sweep == {"scale": (1, 2)}

    def test_json_round_trip(self, tmp_path):
        import json

        path = tmp_path / "c.json"
        path.write_text(json.dumps(_minimal()))
        assert load_campaign(path).name == "demo"

    def test_missing_file_is_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            load_campaign(tmp_path / "nope.toml")

    def test_bad_toml_is_campaign_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[campaign\nname=")
        with pytest.raises(CampaignError, match="not valid TOML"):
            load_campaign(path)

    def test_bad_json_is_campaign_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(CampaignError, match="not valid JSON"):
            load_campaign(path)

    @pytest.mark.parametrize("document", ["[1, 2]", "3", "null"])
    def test_non_object_document_is_refused_by_name(self, tmp_path, capsys, document):
        from repro.runner.cli import main

        path = tmp_path / "spec.json"
        path.write_text(document)
        with pytest.raises(CampaignError, match="the campaign document must be a table"):
            load_campaign(path)
        store = tmp_path / "store"
        assert main(["campaign", "run", str(path), "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_shipped_example_parses_and_plans(self):
        spec = load_campaign("examples/table3_campaign.toml")
        cells = plan_campaign(spec)
        assert {cell.scenario for cell in cells} == {"table3", "collision"}
        assert len(cells) == 4


class TestPlanCampaign:
    def test_expands_product_of_axes_and_seeds(self, campaign_scenarios):
        data = _minimal()
        data["scenarios"][0]["sweep"] = {"scale": [1, 2]}
        data["scenarios"][0]["seeds"] = [0, 5]
        cells = plan_campaign(parse_campaign(data))
        assert [(c.params["scale"], c.seed) for c in cells] == [
            (1, 0), (1, 5), (2, 0), (2, 5),
        ]
        # Cells carry fully-resolved params: registry defaults included.
        assert all(c.params["trials"] == 3 for c in cells)
        assert all(c.sweep_point == {"scale": c.params["scale"]} for c in cells)

    def test_unknown_scenario_fails_planning(self):
        data = _minimal()
        data["scenarios"][0]["scenario"] = "no-such-scenario"
        with pytest.raises(CampaignError, match="unknown scenario"):
            plan_campaign(parse_campaign(data))

    def test_unknown_parameter_fails_planning(self, campaign_scenarios):
        data = _minimal()
        data["scenarios"][0]["params"] = {"bogus": 1}
        with pytest.raises(CampaignError, match="no parameter"):
            plan_campaign(parse_campaign(data))

    def test_wrong_typed_value_fails_planning_not_mid_campaign(
        self, campaign_scenarios
    ):
        """resolve_params only coerces strings; a TOML float for an int
        parameter must still fail at plan time, before any cell runs."""
        data = _minimal()
        data["scenarios"][0]["params"] = {"trials": 2.5}
        with pytest.raises(CampaignError, match="'trials' must be an int64"):
            plan_campaign(parse_campaign(data))

    @pytest.mark.parametrize(
        "scenario, sweep, message",
        [
            ("camp-alpha", {"scale": [1, "not-a-number", 3]}, "scale"),
            # A point outside the declared domain: crash_rate is a probability.
            ("churn", {"crash_rate": [0.5, 1.5]}, r"'crash_rate' must be .* in \[0, 1\], got 1.5"),
        ],
        ids=["wrong-type", "outside-domain"],
    )
    def test_wrong_typed_sweep_value_fails_planning(
        self, campaign_scenarios, scenario, sweep, message
    ):
        data = _minimal()
        data["scenarios"][0].update(scenario=scenario, sweep=sweep)
        with pytest.raises(CampaignError, match=message):
            plan_campaign(parse_campaign(data))

    def test_int_widens_to_float_for_float_params(self):
        """TOML writes 1, not 1.0; planning normalises so the cache key
        is canonical too."""
        data = {
            "campaign": {"name": "demo"},
            "scenarios": [
                {"scenario": "churn", "params": {"crash_rate": 1, "trials": 1}}
            ],
        }
        (cell,) = plan_campaign(parse_campaign(data))
        assert cell.params["crash_rate"] == 1.0
        assert isinstance(cell.params["crash_rate"], float)

    def test_duplicate_cells_rejected(self, campaign_scenarios):
        data = _minimal()
        data["scenarios"].append(dict(data["scenarios"][0]))
        with pytest.raises(CampaignError, match="duplicate cell"):
            plan_campaign(parse_campaign(data))

    def test_cell_labels_are_readable(self, campaign_scenarios):
        data = _minimal()
        data["scenarios"][0]["sweep"] = {"scale": [2]}
        (cell,) = plan_campaign(parse_campaign(data))
        assert cell.label == "camp-alpha[scale=2][seed=0]"


class TestMatrixCampaign:
    def test_matrix_builds_one_axis_sweep(self):
        from repro.campaign.spec import matrix_campaign

        spec = matrix_campaign("table3:rounds=20,50", seed=3)
        assert spec.name == "matrix-table3-rounds"
        assert len(plan_campaign(spec)) == 2
        (entry,) = spec.entries
        assert entry.scenario == "table3"
        assert entry.sweep == {"rounds": ("20", "50")}
        assert entry.seeds == (3,)

    def test_matrix_cells_resolve_through_planner(self, campaign_scenarios):
        from repro.campaign.spec import matrix_campaign

        cells = plan_campaign(matrix_campaign("camp-alpha:scale=5,6"))
        assert [cell.params["scale"] for cell in cells] == [5, 6]
        assert [cell.sweep_point for cell in cells] == [{"scale": 5}, {"scale": 6}]

    def test_matrix_whitespace_and_empty_values_trimmed(self):
        from repro.campaign.spec import matrix_campaign

        spec = matrix_campaign(" camp-alpha : scale = 1 , ,2 ")
        (entry,) = spec.entries
        assert entry.scenario == "camp-alpha"
        assert entry.sweep == {"scale": ("1", "2")}

    def test_matrix_rejects_malformed_input(self):
        from repro.campaign.spec import matrix_campaign

        for bad in ("", "x", "x:", "x:y", "x:y=", ":y=1", "x:=1"):
            with pytest.raises(CampaignError, match="--matrix expects"):
                matrix_campaign(bad)
        with pytest.raises(CampaignError, match="non-negative"):
            matrix_campaign("x:y=1", seed=-1)
