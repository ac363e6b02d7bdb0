"""Tests for the closed table of structural backends."""

import numpy as np
import pytest

from repro.core import backends
from repro.core.agm import AgmParameters
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.tricycle import TriCycLeModel
from repro.params.attribute_distribution import learn_attributes
from repro.params.correlations import learn_correlations
from repro.params.structural import FclParameters, TriCycLeParameters


class TestBackendTable:
    def test_the_two_paper_backends(self):
        assert backends.BACKENDS == ("tricycle", "fcl")

    def test_labels_match_paper(self):
        assert backends.label("tricycle") == "TriCL"
        assert backends.label("fcl") == "FCL"

    def test_parameter_types(self):
        assert backends.parameter_type("tricycle") is TriCycLeParameters
        assert backends.parameter_type("fcl") is FclParameters

    @pytest.mark.parametrize("call", [
        backends.check,
        backends.label,
        backends.parameter_type,
        lambda name: backends.fit(name, None),
        lambda name: backends.fit_dp(name, None, 1.0),
        lambda name: backends.build_model(name, None),
    ], ids=["check", "label", "parameter_type", "fit", "fit_dp",
            "build_model"])
    def test_unknown_backend_raises(self, call):
        with pytest.raises(ValueError, match="backend must be one of"):
            call("ergm")

    def test_fit_round_trip(self, small_social_graph):
        params = backends.fit("tricycle", small_social_graph)
        assert isinstance(params, TriCycLeParameters)
        model = backends.build_model("tricycle", params)
        graph = model.generate(rng=0)
        assert graph.num_nodes == small_social_graph.num_nodes

    def test_the_models_they_build(self, small_social_graph):
        params = backends.fit("tricycle", small_social_graph)
        assert np.count_nonzero(params.degrees == 1)
        tricycle = backends.build_model("tricycle", params)
        assert isinstance(tricycle, TriCycLeModel)
        # The orphan extension: degree-one nodes get no π mass.
        assert np.array_equal(
            tricycle.pi_distribution(),
            build_pi_distribution(params.degrees, exclude_degree_one=True))
        params = backends.fit("fcl", small_social_graph)
        fcl = backends.build_model("fcl", params)
        assert isinstance(fcl, ChungLuModel)
        assert np.array_equal(fcl.pi_distribution(),
                              build_pi_distribution(params.degrees))

    def test_parameter_type_mismatch(self, small_social_graph):
        fcl_params = backends.fit("fcl", small_social_graph)
        assert isinstance(fcl_params, FclParameters)
        with pytest.raises(TypeError, match="requires TriCycLeParameters"):
            AgmParameters(
                attribute_distribution=learn_attributes(small_social_graph),
                correlations=learn_correlations(small_social_graph),
                structural=fcl_params,
                backend="tricycle",
            )
