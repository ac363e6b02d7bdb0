"""The closed-form first Θ'_F, the models' π, and a sample's generations.

:func:`~repro.core.acceptance.expected_correlations` is pinned to a
brute-force sum of ``π_u · π_v`` over the ordered pairs ``u ≠ v``, folded
into edge configurations, on degree sequences with zeros and ones under
both ``exclude_degree_one`` settings.  Spies on the structural ``generate``
and on ``observed_correlations`` count what one sample runs:
``num_iterations`` generations and one observation fewer, and one
generation more under the reference contract.  Constructed without
``num_iterations``, the synthesizer and the pipeline run as many
generations as a default release spec's artifact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReleaseSession, ReleaseSpec
from repro.attributes.encoding import AttributeEncoder, EdgeConfigurationEncoder
from repro.core import agm, backends
from repro.core.acceptance import expected_correlations
from repro.core.agm import AgmSynthesizer, learn_agm
from repro.core.pipeline import SynthesisPipeline
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.erdos_renyi import ErdosRenyiModel, UniformEdgeModel
from repro.models.tcl import TclModel
from repro.models.tricycle import TriCycLeModel
from repro.testing.reference import LoopCalibratedSynthesizer
from repro.utils.rng import ensure_rng

#: float64 sums of at most 90 products, in a different order: agreement to
#: a few ulps of the unit total.
ATOL = 1e-12


def _brute_force(pi, codes, num_attributes):
    encoder = EdgeConfigurationEncoder(num_attributes)
    masses = np.zeros(encoder.num_configurations)
    for u in range(len(pi)):
        for v in range(len(pi)):
            if u != v:
                masses[encoder.encode_codes(int(codes[u]), int(codes[v]))] \
                    += pi[u] * pi[v]
    total = masses.sum()
    if total == 0:
        return np.full(masses.shape, 1.0 / masses.size)
    return masses / total


@st.composite
def cases(draw):
    n = draw(st.integers(1, 10))
    w = draw(st.sampled_from([0, 1, 2]))
    degrees = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 9]),
                            min_size=n, max_size=n))
    codes = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=n,
                          max_size=n))
    return np.array(degrees), np.array(codes, dtype=np.int64), w, \
        draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(cases())
def test_expectation_matches_the_brute_force_sum(case):
    degrees, codes, w, exclude_degree_one = case
    pi = ChungLuModel(degrees,
                      exclude_degree_one=exclude_degree_one).pi_distribution()
    expected = expected_correlations(pi, codes, w)
    assert expected.sum() == pytest.approx(1.0, abs=ATOL)
    np.testing.assert_allclose(expected, _brute_force(pi, codes, w),
                               rtol=0, atol=ATOL)


@pytest.mark.parametrize("degrees, exclude_degree_one", [
    ([0, 4, 0], False),
    ([1, 3, 1], True),
])
def test_all_mass_on_one_node_gives_the_uniform_vector(degrees,
                                                       exclude_degree_one):
    pi = build_pi_distribution(np.array(degrees),
                               exclude_degree_one=exclude_degree_one)
    assert np.count_nonzero(pi) == 1
    expected = expected_correlations(pi, np.array([0, 1, 1]), 1)
    assert np.array_equal(expected, np.full(3, 1.0 / 3))


class TestPiDistribution:
    DEGREES = np.array([1, 2, 1, 3, 0, 5])

    @pytest.mark.parametrize("handle_orphans", [True, False])
    def test_rewiring_models_return_their_seeds_pi(self, handle_orphans):
        seed_pi = ChungLuModel(
            self.DEGREES, exclude_degree_one=handle_orphans
        ).pi_distribution()
        for model in (
            TriCycLeModel(self.DEGREES, 2, handle_orphans=handle_orphans),
            TclModel(self.DEGREES, 0.5, handle_orphans=handle_orphans),
        ):
            assert np.array_equal(model.pi_distribution(), seed_pi)
            assert np.array_equal(model.pi_distribution(6), seed_pi)

    @pytest.mark.parametrize("model", [
        ChungLuModel(DEGREES),
        TriCycLeModel(DEGREES, 2),
        TclModel(DEGREES, 0.5),
    ])
    def test_degree_models_reject_another_node_count(self, model):
        with pytest.raises(ValueError, match="num_nodes"):
            model.pi_distribution(7)

    @pytest.mark.parametrize("model", [UniformEdgeModel(5),
                                       ErdosRenyiModel(0.3)])
    def test_uniform_models_return_the_uniform_pi(self, model):
        assert np.array_equal(model.pi_distribution(4), np.full(4, 0.25))
        with pytest.raises(TypeError, match="num_nodes"):
            model.pi_distribution()


def _spy(monkeypatch, backend, params):
    """Count structural generations and Θ'_F observations."""
    counts = {"generations": 0, "observations": 0}
    model_type = type(backends.build_model(backend, params.structural))
    generate = model_type.generate
    observe = agm.observed_correlations

    def counted_generate(*args, **kwargs):
        counts["generations"] += 1
        return generate(*args, **kwargs)

    def counted_observe(graph):
        counts["observations"] += 1
        return observe(graph)

    monkeypatch.setattr(model_type, "generate", counted_generate)
    monkeypatch.setattr(agm, "observed_correlations", counted_observe)
    return counts


@pytest.mark.parametrize("backend", ["fcl", "tricycle"])
@pytest.mark.parametrize("num_iterations", [1, 2])
class TestGenerationCount:
    def test_a_sample_runs_one_generation_per_round(
            self, monkeypatch, small_social_graph, backend, num_iterations):
        params = learn_agm(small_social_graph, backend=backend)
        counts = _spy(monkeypatch, backend, params)
        AgmSynthesizer(params, num_iterations=num_iterations).sample(rng=0)
        assert counts == {"generations": num_iterations,
                          "observations": num_iterations - 1}

    def test_the_loop_reference_runs_one_generation_more(
            self, monkeypatch, small_social_graph, backend, num_iterations):
        params = learn_agm(small_social_graph, backend=backend)
        counts = _spy(monkeypatch, backend, params)
        LoopCalibratedSynthesizer(params,
                                  num_iterations=num_iterations).sample(rng=0)
        assert counts["generations"] == num_iterations + 1


@pytest.mark.parametrize("backend", ["fcl", "tricycle"])
def test_every_layer_defaults_to_the_release_specs_rounds(
        monkeypatch, small_social_graph, backend):
    spec = ReleaseSpec(dataset="lastfm", backend=backend)
    artifact = ReleaseSession().fit(spec, graph=small_social_graph)
    counts = _spy(monkeypatch, backend, artifact.parameters)
    artifact.sample(count=1, seed=0)
    release = counts["generations"]
    assert release == spec.num_iterations
    counts["generations"] = 0
    AgmSynthesizer(artifact.parameters).sample(rng=0)
    assert counts["generations"] == release
    counts["generations"] = 0
    SynthesisPipeline(backend=backend).run(
        small_social_graph, rng=0
    )
    assert counts["generations"] == release


@pytest.mark.parametrize("backend, excludes_degree_one",
                         [("fcl", False), ("tricycle", True)])
def test_first_round_corrects_the_expectation_of_the_backends_pi(
        monkeypatch, small_social_graph, backend, excludes_degree_one):
    params = learn_agm(small_social_graph, backend=backend)
    observed = []
    acceptance = agm.compute_acceptance_probabilities

    def recording(target, current, previous=None):
        observed.append(current)
        return acceptance(target, current, previous=previous)

    monkeypatch.setattr(agm, "compute_acceptance_probabilities", recording)
    AgmSynthesizer(params, num_iterations=1).sample(rng=5)

    attributes = params.attribute_distribution.sample_attribute_matrix(
        params.num_nodes, rng=ensure_rng(5)
    )
    pi = build_pi_distribution(params.structural.degrees,
                               exclude_degree_one=excludes_degree_one)
    codes = AttributeEncoder(params.num_attributes).encode_matrix(attributes)
    assert len(observed) == 1
    assert np.array_equal(
        observed[0], expected_correlations(pi, codes, params.num_attributes)
    )
