"""Tests for the versioned on-disk model format (:class:`ModelArtifact`)."""

import json

import pytest

from repro.api import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactFormatError,
    ModelArtifact,
    ReleaseSession,
    ReleaseSpec,
)
from repro.api.artifact import READABLE_FORMAT_VERSIONS
from repro.api.spec import RETIRED_FIELDS


@pytest.fixture(scope="module", params=["tricycle", "fcl"])
def fitted(request):
    spec = ReleaseSpec(dataset="petster", scale=0.03, epsilon=1.0,
                       backend=request.param, seed=3, num_iterations=1)
    session = ReleaseSession()
    return spec, session.fit(spec)


class TestRoundTrip:
    def test_save_load_sample_bit_identical(self, fitted, tmp_path):
        _spec, artifact = fitted
        path = artifact.save(tmp_path / "model.json")
        loaded = ModelArtifact.load(path)

        assert loaded.spec_hash == artifact.spec_hash
        assert loaded.artifact_id == artifact.artifact_id
        assert loaded.backend == artifact.backend
        assert loaded.accountant == artifact.accountant
        assert loaded.num_iterations == artifact.num_iterations

        direct = artifact.sample(count=2, seed=17)
        reloaded = loaded.sample(count=2, seed=17)
        for left, right in zip(direct, reloaded):
            assert left == right  # bit-identical graphs at the same seed

    def test_sample_streams_are_per_index(self, fitted):
        _spec, artifact = fitted
        # Sample i is a pure function of (artifact, seed, i): asking for more
        # samples must not perturb the ones already drawn.
        one = artifact.sample(count=1, seed=5)
        two = artifact.sample(count=2, seed=5)
        assert one[0] == two[0]
        assert two[0] != two[1]  # independent streams

    def test_iter_samples_checkpoints_before_each_graph(self, fitted):
        _spec, artifact = fitted
        events = []
        graphs = []
        for graph in artifact.iter_samples(
                3, seed=5, checkpoint=lambda: events.append("checkpoint")):
            events.append("graph")
            graphs.append(graph)
        assert events == ["checkpoint", "graph"] * 3
        assert graphs == artifact.sample(count=3, seed=5)

    def test_manifest_round_trip(self, fitted, tmp_path):
        spec, artifact = fitted
        loaded = ModelArtifact.load(artifact.save(tmp_path / "m.json"))
        manifest = loaded.run_manifest()
        assert manifest is not None
        assert manifest.stages == ["estimate", "fit"]
        assert manifest.spends == pytest.approx(artifact.spends())
        # Input provenance survives the round-trip (rides in `extra`).
        assert manifest.extra["input"] == spec.describe_input()

    def test_ledger_sums_to_epsilon(self, fitted):
        _spec, artifact = fitted
        assert artifact.is_private
        assert artifact.epsilon == pytest.approx(1.0)
        assert sum(artifact.spends().values()) == pytest.approx(1.0)


class TestFormatChecks:
    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"num_nodes": 3, "edges": []}))
        with pytest.raises(ArtifactFormatError, match="not a model artifact"):
            ModelArtifact.load(path)

    def test_rejects_future_format_version(self, fitted, tmp_path):
        _spec, artifact = fitted
        payload = artifact.to_dict()
        payload["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactFormatError, match="format_version"):
            ModelArtifact.load(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_load_and_sample_under_the_current_contract(
            self, fitted, tmp_path, version):
        _spec, artifact = fitted
        assert READABLE_FORMAT_VERSIONS == (1, 2, ARTIFACT_FORMAT_VERSION)
        payload = artifact.to_dict()
        payload["format_version"] = version
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(payload))
        loaded = ModelArtifact.load(path)
        assert loaded.sample(count=1, seed=9) == artifact.sample(count=1,
                                                                  seed=9)

    @pytest.mark.parametrize("name, value", RETIRED_FIELDS.items())
    def test_retired_field_loads_and_samples_the_same(
            self, fitted, tmp_path, name, value):
        _spec, artifact = fitted
        payload = artifact.to_dict()
        assert payload["format_version"] == 3
        assert name not in payload
        assert name not in artifact.describe()
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(payload))
        tagged = tmp_path / "tagged.json"
        tagged.write_text(json.dumps({**payload, name: value}))
        assert ModelArtifact.load(tagged).sample(count=2, seed=9) \
            == ModelArtifact.load(plain).sample(count=2, seed=9)

    @pytest.mark.parametrize("name, value", [
        ("rewire_equivalence", "distributional"),
        ("handle_orphans", False), ("handle_orphans", 0),
        ("handle_orphans", "false"), ("handle_orphans", "true"),
    ])
    def test_other_retired_values_are_rejected(self, fitted, tmp_path,
                                               name, value):
        _spec, artifact = fitted
        path = tmp_path / "retired.json"
        path.write_text(json.dumps({**artifact.to_dict(), name: value}))
        with pytest.raises(ArtifactFormatError,
                           match=f"{name} {value!r}"):
            ModelArtifact.load(path)

    def test_unknown_backend_is_a_format_error(self, fitted, tmp_path):
        _spec, artifact = fitted
        payload = artifact.to_dict()
        payload["parameters"]["backend"] = "ergm"
        with pytest.raises(ArtifactFormatError,
                           match="unknown backend 'ergm'"):
            ModelArtifact.from_dict(payload)
        path = tmp_path / "ergm.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactFormatError,
                           match="unknown backend 'ergm'"):
            ModelArtifact.load(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{truncated")
        with pytest.raises(ArtifactFormatError, match="not valid JSON"):
            ModelArtifact.load(path)

    def test_rejects_missing_parameters(self, fitted, tmp_path):
        _spec, artifact = fitted
        payload = artifact.to_dict()
        del payload["parameters"]
        path = tmp_path / "noparams.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactFormatError, match="parameters"):
            ModelArtifact.load(path)

    def test_describe_has_no_parameter_arrays(self, fitted):
        _spec, artifact = fitted
        description = artifact.describe()
        assert description["artifact_id"] == artifact.artifact_id
        assert description["private"] is True
        assert "parameters" not in description
        assert description["num_nodes"] == artifact.parameters.num_nodes

    def test_count_must_be_positive(self, fitted):
        _spec, artifact = fitted
        with pytest.raises(ValueError, match="count"):
            artifact.sample(count=0)
