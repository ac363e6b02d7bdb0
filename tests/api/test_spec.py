"""Tests for the declarative spec layer (:class:`repro.api.ReleaseSpec`)."""

import json
import warnings

import pytest

from repro.api import ReleaseSpec, SpecValidationError
from repro.api.spec import SPEC_VERSION
from repro.core.agm_dp import BudgetSplit


class TestValidation:
    def test_requires_an_input(self):
        with pytest.raises(SpecValidationError, match="^dataset:"):
            ReleaseSpec()

    def test_rejects_both_inputs(self):
        with pytest.raises(SpecValidationError, match="not both"):
            ReleaseSpec(dataset="lastfm", edges="edges.txt")

    def test_unknown_dataset_names_the_field(self):
        with pytest.raises(SpecValidationError, match="^dataset: unknown dataset"):
            ReleaseSpec(dataset="facebook")

    def test_negative_epsilon_names_the_field(self):
        with pytest.raises(SpecValidationError, match="^epsilon: must be a positive"):
            ReleaseSpec(dataset="lastfm", epsilon=-1.0)
        with pytest.raises(SpecValidationError, match="^epsilon:"):
            ReleaseSpec(dataset="lastfm", epsilon=0.0)

    def test_unknown_backend_names_the_field(self):
        with pytest.raises(SpecValidationError, match="^backend: unknown backend"):
            ReleaseSpec(dataset="lastfm", backend="ergm")

    def test_bad_split_sum_names_the_field(self):
        with pytest.raises(SpecValidationError, match="^budget_split: .*sum to 1"):
            ReleaseSpec(dataset="lastfm", budget_split={
                "attributes": 0.5, "correlations": 0.5, "structural": 0.5,
            })

    def test_unknown_split_key_names_the_field(self):
        with pytest.raises(SpecValidationError, match="^budget_split:"):
            ReleaseSpec(dataset="lastfm", budget_split={
                "attributes": 0.25, "correlations": 0.25, "structural": 0.5,
                "triangles": 0.1,
            })

    def test_scale_rejected_for_edge_inputs(self):
        with pytest.raises(SpecValidationError, match="^scale:"):
            ReleaseSpec(edges="edges.txt", scale=0.5)

    def test_attributes_require_edges(self):
        with pytest.raises(SpecValidationError, match="^attributes:"):
            ReleaseSpec(dataset="lastfm", attributes="attrs.txt")

    def test_integer_fields_are_checked(self):
        with pytest.raises(SpecValidationError, match="^trials: must be >= 1"):
            ReleaseSpec(dataset="lastfm", trials=0)
        with pytest.raises(SpecValidationError, match="^workers:"):
            ReleaseSpec(dataset="lastfm", workers=0)
        with pytest.raises(SpecValidationError, match="^num_iterations:"):
            ReleaseSpec(dataset="lastfm", num_iterations=0)
        with pytest.raises(SpecValidationError, match="^seed: expected an integer"):
            ReleaseSpec(dataset="lastfm", seed=1.5)
        with pytest.raises(SpecValidationError, match="^seed: must be >= 0"):
            ReleaseSpec(dataset="lastfm", seed=-1)

    def test_split_mapping_is_converted(self):
        spec = ReleaseSpec(dataset="lastfm", budget_split={
            "attributes": 0.2, "correlations": 0.3, "structural": 0.5,
        })
        assert isinstance(spec.budget_split, BudgetSplit)
        assert spec.budget_split.correlations == pytest.approx(0.3)


class TestTenant:
    def test_valid_tenant_names_are_accepted(self):
        for name in ("acme", "team-7", "a.b_c", "x" * 64):
            spec = ReleaseSpec(dataset="lastfm", tenant=name)
            assert spec.tenant == name

    def test_invalid_tenant_names_name_the_field(self):
        for bad in ("", ".hidden", "a/b", "über", "x" * 65, 42):
            with pytest.raises(SpecValidationError, match="^tenant:"):
                ReleaseSpec(dataset="lastfm", tenant=bad)

    def test_tenant_never_changes_the_fit_fingerprint(self):
        """Billing identity must not shard the artifact cache."""
        spec = ReleaseSpec(dataset="lastfm", epsilon=1.0)
        billed = spec.with_overrides(tenant="acme")
        assert billed.spec_hash == spec.spec_hash
        assert billed.fit_fingerprint() == spec.fit_fingerprint()
        assert "tenant" not in billed.fit_fingerprint()

    def test_tenant_round_trips_through_json(self):
        spec = ReleaseSpec(dataset="lastfm", tenant="acme")
        assert spec.to_dict()["tenant"] == "acme"
        again = ReleaseSpec.from_json(spec.to_json())
        assert again.tenant == "acme"
        # Unset stays unset (and absent from the document).
        bare = ReleaseSpec(dataset="lastfm")
        assert bare.tenant is None
        assert "tenant" not in json.loads(bare.to_json())


class TestMemoryBudget:
    def test_valid_budgets_are_accepted(self):
        spec = ReleaseSpec(dataset="lastfm", memory_budget_mb=2048)
        assert spec.memory_budget_mb == 2048

    def test_invalid_budgets_name_the_field(self):
        for bad in (0, -5, 1.5, "large"):
            with pytest.raises(SpecValidationError, match="^memory_budget_mb:"):
                ReleaseSpec(dataset="lastfm", memory_budget_mb=bad)

    def test_budget_never_changes_the_fit_fingerprint(self):
        """Run-control knob: budgeted and unbudgeted fits share the cache."""
        spec = ReleaseSpec(dataset="lastfm", epsilon=1.0)
        budgeted = spec.with_overrides(memory_budget_mb=1024)
        assert budgeted.spec_hash == spec.spec_hash
        assert budgeted.fit_fingerprint() == spec.fit_fingerprint()
        assert "memory_budget_mb" not in budgeted.fit_fingerprint()

    def test_budget_round_trips_through_json(self):
        spec = ReleaseSpec(dataset="lastfm", memory_budget_mb=512)
        assert spec.to_dict()["memory_budget_mb"] == 512
        again = ReleaseSpec.from_json(spec.to_json())
        assert again.memory_budget_mb == 512
        bare = ReleaseSpec(dataset="lastfm")
        assert bare.memory_budget_mb is None
        assert "memory_budget_mb" not in json.loads(bare.to_json())


class TestSerialization:
    def test_json_round_trip(self):
        spec = ReleaseSpec(dataset="petster", scale=0.1, epsilon=0.5,
                           backend="fcl", trials=5, workers=2, seed=9,
                           budget_split={"attributes": 0.2,
                                         "correlations": 0.3,
                                         "structural": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # canonical form must not warn
            round_tripped = ReleaseSpec.from_json(spec.to_json())
        assert round_tripped == spec
        assert json.loads(spec.to_json())["spec_version"] == SPEC_VERSION

    def test_unknown_key_names_the_key(self):
        with pytest.raises(SpecValidationError, match="^eps: unknown field"):
            ReleaseSpec.from_dict({"spec_version": 1, "dataset": "lastfm",
                                   "eps": 1.0})

    def test_future_version_is_rejected(self):
        with pytest.raises(SpecValidationError, match="^spec_version:"):
            ReleaseSpec.from_dict({"spec_version": 99, "dataset": "lastfm"})

    def test_invalid_json_is_a_spec_error(self):
        with pytest.raises(SpecValidationError, match="invalid JSON"):
            ReleaseSpec.from_json("{not json")

    def test_legacy_dict_warns_and_converts(self):
        legacy = {"dataset": "petster", "scale": 0.05, "epsilon": 1.0,
                  "trials": 4, "workers": 2}
        with pytest.warns(DeprecationWarning, match="un-versioned"):
            spec = ReleaseSpec.from_dict(legacy)
        assert spec.dataset == "petster"
        assert spec.trials == 4

    def test_legacy_dict_gets_old_default_input(self):
        with pytest.warns(DeprecationWarning):
            spec = ReleaseSpec.from_dict({"epsilon": 1.0})
        assert spec.dataset == "lastfm"

    def test_legacy_dict_tolerates_unknown_keys(self):
        # The old config reader used config.get(...) and ignored extras; a
        # config that ran before the API must keep running (one warning).
        with pytest.warns(DeprecationWarning):
            spec = ReleaseSpec.from_dict({"dataset": "petster", "epsilon": 1.0,
                                          "note": "owner annotation"})
        assert spec.dataset == "petster"

    def test_legacy_dict_edges_beat_dataset(self):
        # Old precedence: an 'edges' input won over dataset/scale.
        with pytest.warns(DeprecationWarning):
            spec = ReleaseSpec.from_dict({"dataset": "petster", "scale": 0.1,
                                          "edges": "e.txt"})
        assert spec.edges == "e.txt"
        assert spec.dataset is None and spec.scale is None

    def test_canonical_dict_stays_strict(self):
        with pytest.raises(SpecValidationError, match="^note: unknown field"):
            ReleaseSpec.from_dict({"spec_version": 1, "dataset": "petster",
                                   "note": "owner annotation"})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = ReleaseSpec(dataset="lastfm", epsilon=1.0)
        path.write_text(spec.to_json())
        assert ReleaseSpec.from_json_file(path) == spec


class TestOverridesAndHash:
    def test_overrides_beat_stored_values(self):
        spec = ReleaseSpec(dataset="lastfm", trials=8, workers=4,
                           output="a.json")
        merged = spec.with_overrides(trials=1, workers=None, output="b.json")
        assert merged.trials == 1          # flag beats config
        assert merged.workers == 4         # absent flag keeps config value
        assert merged.output == "b.json"

    def test_overrides_are_validated(self):
        spec = ReleaseSpec(dataset="lastfm")
        with pytest.raises(SpecValidationError, match="^trials:"):
            spec.with_overrides(trials=0)
        with pytest.raises(SpecValidationError, match="^nope: unknown field"):
            spec.with_overrides(nope=1)

    def test_hash_ignores_run_control_fields(self):
        spec = ReleaseSpec(dataset="lastfm", epsilon=1.0, trials=3)
        assert spec.with_overrides(trials=99, workers=8,
                                   output="x.json").spec_hash == spec.spec_hash

    def test_hash_tracks_fit_fields(self):
        spec = ReleaseSpec(dataset="lastfm", epsilon=1.0)
        assert spec.with_overrides(epsilon=2.0).spec_hash != spec.spec_hash
        assert spec.with_overrides(seed=5).spec_hash != spec.spec_hash
        assert spec.with_overrides(backend="fcl").spec_hash != spec.spec_hash

    def test_describe_input(self):
        assert ReleaseSpec(dataset="lastfm", scale=0.2).describe_input() == {
            "dataset": "lastfm", "scale": 0.2,
        }
        assert ReleaseSpec(edges="e.txt").describe_input() == {
            "edges": "e.txt", "attributes": None,
        }

    def test_load_graph_from_dataset(self):
        graph = ReleaseSpec(dataset="petster", scale=0.05, seed=0).load_graph()
        assert graph.num_nodes > 20


#: Each retired field with the one value this build runs, and values an
#: older build could have written that it refuses.
RETIRED = [("rewire_equivalence", "exact", ["distributional"]),
           ("handle_orphans", True, [False, 0, 1, "false", "true"])]


class TestRetiredFields:
    """Specs written while rewiring had a distributional engine, or while
    TriCycLe's orphan extension could be switched off."""

    @pytest.mark.parametrize("name, value",
                             [(name, value) for name, value, _ in RETIRED])
    def test_retired_value_loads_and_is_dropped(self, name, value):
        canonical = {"spec_version": 1, "dataset": "lastfm", name: value}
        assert ReleaseSpec.from_dict(canonical) == ReleaseSpec(dataset="lastfm")
        with pytest.warns(DeprecationWarning):
            legacy = ReleaseSpec.from_dict({"dataset": "lastfm", name: value})
        assert legacy == ReleaseSpec(dataset="lastfm")
        assert name not in legacy.to_dict()

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("name, value", [
        (name, value) for name, _, refused in RETIRED for value in refused
    ])
    def test_other_values_fail_naming_the_field(self, name, value,
                                                 canonical):
        # The legacy reader drops unknown keys: the field is read first.
        document = {"dataset": "lastfm", name: value}
        if canonical:
            document["spec_version"] = 1
        with pytest.raises(SpecValidationError,
                           match=f"^{name}: .*removed") as excinfo:
            ReleaseSpec.from_dict(document)
        assert excinfo.value.field == name

    @pytest.mark.parametrize("spec, spec_hash", [
        (ReleaseSpec(dataset="lastfm"), "2e96fb3ddd03d067"),
        (ReleaseSpec(dataset="pokec", scale=0.01, seed=0, epsilon=1.0,
                     num_iterations=2, backend="tricycle"),
         "7b7ad32ab25049a1"),
        (ReleaseSpec(dataset="pokec", scale=0.01, seed=0, epsilon=1.0,
                     num_iterations=2, backend="fcl"),
         "42cb15dfdd445767"),
    ])
    def test_spec_hashes_are_unchanged(self, spec, spec_hash):
        # Artifact ids and stored releases are keyed by the hash; a new
        # hash would refit every stored release and spend its ε again.
        assert spec.spec_hash == spec_hash
