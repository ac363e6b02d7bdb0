"""Unit tests for the dataset registry."""

import math

import pytest

from repro.datasets.registry import (
    DATASETS,
    dataset_names,
    get_dataset_spec,
    load_dataset,
)


class TestRegistryContents:
    def test_all_four_paper_datasets_registered(self):
        assert dataset_names() == ["lastfm", "petster", "epinions", "pokec"]

    def test_paper_statistics_match_table6(self):
        lastfm = get_dataset_spec("lastfm").paper
        assert lastfm.num_nodes == 1843
        assert lastfm.num_edges == 12668
        assert lastfm.num_triangles == 19651
        pokec = get_dataset_spec("pokec").paper
        assert pokec.num_nodes == 592627
        assert pokec.average_clustering == pytest.approx(0.104)

    def test_table_epsilons_match_paper(self):
        assert get_dataset_spec("lastfm").table_epsilons == (
            math.log(3), math.log(2), 0.3, 0.2
        )
        assert get_dataset_spec("pokec").table_epsilons == (0.2, 0.1, 0.05, 0.01)

    def test_lookup_is_case_insensitive(self):
        assert get_dataset_spec("LastFM").name == "lastfm"

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            get_dataset_spec("facebook")


class TestLoading:
    def test_load_dataset_small_scale(self):
        graph = load_dataset("petster", scale=0.05, seed=0)
        assert graph.num_nodes > 20
        assert graph.num_attributes == 2

    def test_explicit_scale_overrides_default(self):
        spec = get_dataset_spec("lastfm")
        assert spec.effective_scale(0.5) == 0.5

    def test_default_scale_when_none_given(self):
        spec = get_dataset_spec("epinions")
        assert spec.effective_scale() == spec.default_scale

    def test_environment_does_not_rescale(self, monkeypatch):
        # A release's spec_hash names its scale, so no environment variable
        # may change the graph behind it.
        monkeypatch.setenv("REPRO_DATASET_SCALE", "0.5")
        spec = get_dataset_spec("lastfm")
        assert spec.effective_scale() == spec.default_scale

    @pytest.mark.parametrize("scale", [0, -1, math.nan, math.inf])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            get_dataset_spec("lastfm").effective_scale(scale)
        with pytest.raises(ValueError, match="scale"):
            load_dataset("lastfm", scale=scale, seed=0)

    def test_every_spec_has_positive_default_scale(self):
        assert all(spec.default_scale > 0 for spec in DATASETS.values())
