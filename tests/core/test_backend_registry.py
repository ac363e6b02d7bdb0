"""Tests for the pluggable structural-backend registry."""

import numpy as np
import pytest

from repro.core.registry import (
    StructuralBackend,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.models.erdos_renyi import UniformEdgeModel
from repro.params.structural import FclParameters, TriCycLeParameters


class TestBuiltinBackends:
    def test_builtins_are_registered(self):
        assert set(backend_names()) >= {"tricycle", "fcl"}

    def test_labels_match_paper(self):
        assert get_backend("tricycle").label == "TriCL"
        assert get_backend("fcl").label == "FCL"

    def test_budget_stages_declared(self):
        assert get_backend("tricycle").budget_stages == ("degrees", "triangles")
        assert get_backend("fcl").budget_stages == ("degrees",)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            get_backend("ergm")

    def test_fit_round_trip(self, small_social_graph):
        params = get_backend("tricycle").fit(small_social_graph)
        assert isinstance(params, TriCycLeParameters)
        model = get_backend("tricycle").build_model(params)
        graph = model.generate(rng=0)
        assert graph.num_nodes == small_social_graph.num_nodes

    def test_parameter_validation(self, small_social_graph):
        fcl_params = get_backend("fcl").fit(small_social_graph)
        assert isinstance(fcl_params, FclParameters)
        with pytest.raises(TypeError):
            get_backend("tricycle").validate_parameters(fcl_params)


class TestPluginRegistration:
    def test_register_and_use_a_plugin_backend(self, small_social_graph):
        @register_backend
        class ErdosRenyiBackend(StructuralBackend):
            name = "er-test"
            label = "ER"
            parameter_type = FclParameters
            budget_stages = ("degrees",)
            default_split = {
                "attributes": 0.25, "correlations": 0.25, "structural": 0.5,
            }

            def fit(self, graph):
                return FclParameters(degrees=graph.degrees())

            def fit_dp(self, graph, epsilon, rng=None, **options):
                return FclParameters(degrees=graph.degrees())

            def build_model(self, parameters, handle_orphans=True,
                            memory_budget_mb=None):
                return UniformEdgeModel(parameters.num_edges)

        try:
            assert "er-test" in backend_names()
            # The whole workflow picks the plugin up without core changes.
            from repro.core.agm import AgmSynthesizer, learn_agm
            from repro.core.agm_dp import BudgetSplit

            params = learn_agm(small_social_graph, backend="er-test")
            assert params.backend == "er-test"
            split = BudgetSplit.default_for("er-test")
            assert split.structural == pytest.approx(0.5)
            sample = AgmSynthesizer(params, memory_budget_mb=64).sample(rng=0)
            assert sample.num_nodes == small_social_graph.num_nodes
            assert sample.num_edges == params.structural.num_edges
        finally:
            unregister_backend("er-test")
        with pytest.raises(ValueError):
            get_backend("er-test")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            @register_backend
            class Duplicate(StructuralBackend):
                name = "tricycle"
                label = "dup"

                def fit(self, graph):  # pragma: no cover
                    raise NotImplementedError

                def fit_dp(self, graph, epsilon, rng=None, **options
                           ):  # pragma: no cover
                    raise NotImplementedError

                def build_model(self, parameters, handle_orphans=True
                                ):  # pragma: no cover
                    raise NotImplementedError

    def test_nameless_backend_rejected(self):
        with pytest.raises(ValueError):
            @register_backend
            class Nameless(StructuralBackend):
                def fit(self, graph):  # pragma: no cover
                    raise NotImplementedError

                def fit_dp(self, graph, epsilon, rng=None, **options
                           ):  # pragma: no cover
                    raise NotImplementedError

                def build_model(self, parameters, handle_orphans=True
                                ):  # pragma: no cover
                    raise NotImplementedError

    def test_non_backend_class_rejected(self):
        with pytest.raises(TypeError):
            register_backend(int)
