"""Memory-budgeted generation: sharded sampling, admission, and plumbing.

The contract under test (see :mod:`repro.utils.memory`):

* when the budget's shard cap does **not** bind, the budgeted Chung-Lu
  sampler consumes the RNG exactly as the unbudgeted path and produces a
  bit-identical graph for the same seed;
* when the cap binds, rounds are split but the output is still a valid
  simple graph hitting the exact corrected target;
* work that cannot fit at all raises the structured
  :class:`~repro.utils.memory.MemoryBudgetError` (``over_memory``) before
  any large allocation;
* the chunked fitting passes in ``params/`` are bit-identical to the
  one-shot passes at every block size;
* the knob rides the whole chain: spec -> pipeline -> backend -> model,
  and the service maps the error to the ``over_memory`` wire code.
"""

import numpy as np
import pytest

from repro.graphs.attributed import AttributedGraph
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import ChungLuModel
from repro.models.tricycle import TriCycLeModel
from repro.utils.memory import BUDGET_ENV_VAR, MemoryBudget, MemoryBudgetError


def _degree_sequence(n, average, seed=0):
    rng = np.random.default_rng(seed)
    degrees = rng.integers(1, 2 * average, size=n)
    if degrees.sum() % 2:
        degrees[0] += 1
    return degrees


def _acceptance(n, seed=0):
    rng = np.random.default_rng(seed)
    return EdgeAcceptance(rng.uniform(0.1, 1.0, 10),
                          rng.integers(0, 4, n), num_attributes=2)


class _RecordedDraws(ChungLuModel):
    """Records the rows of every draw a generation makes."""

    def _pair_source(self, acceptance):
        source = super()._pair_source(acceptance)
        self.draws = []
        draw = source.draw

        def recorded(rows, generator):
            self.draws.append(rows)
            return draw(rows, generator)

        source.draw = recorded
        return source


class TestChungLuBudget:
    def test_unbinding_budget_is_bit_identical_to_unbudgeted(self):
        degrees = _degree_sequence(500, 6)
        plain = ChungLuModel(degrees).generate(rng=13)
        budgeted = ChungLuModel(degrees, memory_budget_mb=256).generate(rng=13)
        assert budgeted == plain

    def test_unbinding_budget_plain_fcl_is_bit_identical(self):
        degrees = _degree_sequence(500, 6)
        plain = ChungLuModel(degrees, bias_correction=False).generate(rng=13)
        budgeted = ChungLuModel(
            degrees, bias_correction=False, memory_budget_mb=256
        ).generate(rng=13)
        assert budgeted == plain

    def test_binding_cap_still_hits_the_corrected_target(self):
        # ~32k target edges; a 2 MiB budget admits the output (~1.5 MiB)
        # but caps each sampling round below the one-shot oversampled
        # batch, forcing the shard loop.
        degrees = _degree_sequence(8000, 8, seed=3)
        model = ChungLuModel(degrees, memory_budget_mb=2)
        assert model._memory_budget.shard_rows(96, minimum=2048) \
            < model.effective_target_edges()
        graph = model.generate(rng=7)
        assert graph.num_edges == model.effective_target_edges()
        us, vs = graph.edge_arrays()
        assert np.all(us < vs)  # simple, canonical

    @pytest.mark.parametrize("bias_correction", [True, False])
    def test_unbinding_budget_with_acceptance_is_bit_identical(
            self, bias_correction):
        degrees = _degree_sequence(500, 6)
        acceptance = _acceptance(degrees.size)
        plain = ChungLuModel(degrees, bias_correction=bias_correction)\
            .generate(rng=13, acceptance=acceptance)
        budgeted = ChungLuModel(
            degrees, bias_correction=bias_correction, memory_budget_mb=256
        ).generate(rng=13, acceptance=acceptance)
        assert budgeted == plain

    def test_binding_cap_with_acceptance_bounds_accepted_rows(self):
        # As above, with an acceptance vector: the cap bounds the accepted
        # rows of every draw (a round whose Binomial count overshoots the
        # cap is split into shards), and the target is still hit.
        degrees = _degree_sequence(8000, 8, seed=3)
        model = _RecordedDraws(degrees, memory_budget_mb=2)
        cap = model._memory_budget.shard_rows(96, minimum=2048)
        assert cap < model.effective_target_edges()
        graph = model.generate(rng=7, acceptance=_acceptance(degrees.size))
        assert graph.num_edges == model.effective_target_edges()
        assert max(model.draws) <= cap
        assert model.draws[0] == cap  # this seed's first round overshoots
        us, vs = graph.edge_arrays()
        assert np.all(us < vs)

    def test_binding_cap_plain_fcl_matches_unbudgeted_edge_budgets(self):
        degrees = _degree_sequence(5000, 8, seed=3)
        target = ChungLuModel(degrees,
                              bias_correction=False).effective_target_edges()
        graph = ChungLuModel(
            degrees, bias_correction=False, memory_budget_mb=2
        ).generate(rng=7)
        # Plain FCL draws exactly ``target`` pairs and discards collisions;
        # sharding cannot change the number of draws.
        assert 0 < graph.num_edges <= target

    def test_impossible_budget_raises_over_memory_before_sampling(self):
        degrees = _degree_sequence(20000, 25, seed=1)  # ~250k target edges
        model = ChungLuModel(degrees, memory_budget_mb=1)
        with pytest.raises(MemoryBudgetError) as info:
            model.generate(rng=0)
        assert info.value.code == "over_memory"
        assert info.value.stage == "chung_lu.generate"

    def test_environment_budget_is_honoured(self, monkeypatch):
        degrees = _degree_sequence(20000, 25, seed=1)
        monkeypatch.setenv(BUDGET_ENV_VAR, "1")
        with pytest.raises(MemoryBudgetError):
            ChungLuModel(degrees).generate(rng=0)


class TestTriCycLeBudget:
    def test_impossible_budget_raises_over_memory(self):
        degrees = _degree_sequence(20000, 25, seed=1)
        model = TriCycLeModel(degrees, num_triangles=1000, memory_budget_mb=1)
        with pytest.raises(MemoryBudgetError):
            model.generate(rng=0)

    def test_generous_budget_is_bit_identical_to_unbudgeted(self):
        degrees = _degree_sequence(300, 6, seed=2)
        plain = TriCycLeModel(degrees, num_triangles=50).generate(rng=4)
        budgeted = TriCycLeModel(
            degrees, num_triangles=50, memory_budget_mb=512
        ).generate(rng=4)
        assert budgeted == plain

    def test_rewiring_admits_a_pinned_figure(self, monkeypatch):
        """The rewiring figure decides every budgeted run's ``over_memory``
        verdict, so it only changes on purpose: the queue, set mirrors,
        adopted CSR and adoption keys of this input's seed graph."""
        admitted = []
        admit = MemoryBudget.admit

        def recording_admit(self, stage, nbytes):
            if stage == "tricycle.rewire":
                admitted.append(int(nbytes))
            return admit(self, stage, nbytes)

        monkeypatch.setattr(MemoryBudget, "admit", recording_admit)
        degrees = _degree_sequence(300, 6, seed=2)
        for budget in (None, 512):
            TriCycLeModel(degrees, num_triangles=50,
                          memory_budget_mb=budget).generate(rng=4)
        assert admitted == [441_696, 441_696]


class TestChunkedFitting:
    @pytest.fixture()
    def attributed(self):
        rng = np.random.default_rng(9)
        n = 3000
        us = rng.integers(0, n, size=30000)
        vs = rng.integers(0, n, size=30000)
        keep = us != vs
        pairs = sorted({(min(u, v), max(u, v))
                        for u, v in zip(us[keep].tolist(),
                                        vs[keep].tolist())})
        graph = AttributedGraph.from_edge_arrays(
            n,
            np.array([u for u, _ in pairs]),
            np.array([v for _, v in pairs]),
            num_attributes=2,
        )
        graph.set_all_attributes(
            rng.integers(0, 2, size=(n, 2)).astype(np.uint8)
        )
        return graph

    def test_connection_counts_bit_identical_under_budget(self, attributed,
                                                          monkeypatch):
        from repro.params.correlations import connection_counts

        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        one_shot = connection_counts(attributed)
        monkeypatch.setenv(BUDGET_ENV_VAR, "1")  # block = 4096-row minimum
        chunked = connection_counts(attributed)
        assert np.array_equal(chunked, one_shot)

    def test_attribute_counts_bit_identical_under_budget(self, attributed,
                                                         monkeypatch):
        from repro.params.attribute_distribution import (
            attribute_configuration_counts,
        )

        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        one_shot = attribute_configuration_counts(attributed)
        monkeypatch.setenv(BUDGET_ENV_VAR, "1")
        chunked = attribute_configuration_counts(attributed)
        assert np.array_equal(chunked, one_shot)


class TestKnobPlumbing:
    def test_backends_forward_the_budget_to_models(self):
        from repro.core import backends
        from repro.params.structural import FclParameters, TriCycLeParameters

        degrees = _degree_sequence(50, 4)
        built = [
            backends.build_model(
                "fcl", FclParameters(degrees), memory_budget_mb=3
            ),
            backends.build_model(
                "tricycle", TriCycLeParameters(degrees, num_triangles=5),
                memory_budget_mb=3,
            ),
        ]
        for model in built:
            assert model._memory_budget.budget_bytes == 3 * (1 << 20)

    def test_session_sample_honours_spec_budget(self):
        from repro.api import ReleaseSession, ReleaseSpec

        # TriCycLe's rewiring working set (Python adjacency sets + edge-age
        # queue) is charged pessimistically; at this tier it cannot fit a
        # 1 MiB budget even though the seed sampler can.
        spec = ReleaseSpec(dataset="lastfm", scale=0.35, epsilon=1.0,
                           backend="tricycle", num_iterations=1, seed=5,
                           memory_budget_mb=1)
        session = ReleaseSession()
        with pytest.raises(MemoryBudgetError):
            session.sample(spec, count=1, seed=0)

    def test_session_evaluate_honours_spec_budget(self):
        from repro.api import ReleaseSession, ReleaseSpec

        # The same spec as the sample test: evaluate's trials generate
        # under the spec's budget too.
        spec = ReleaseSpec(dataset="lastfm", scale=0.35, epsilon=1.0,
                           backend="tricycle", num_iterations=1, seed=5,
                           memory_budget_mb=1, trials=1, workers=1)
        with pytest.raises(MemoryBudgetError):
            ReleaseSession().evaluate(spec)

    def test_sample_budget_does_not_change_results_when_it_fits(self):
        from repro.api import ReleaseSession, ReleaseSpec

        base = dict(dataset="lastfm", scale=0.1, epsilon=1.0,
                    backend="fcl", num_iterations=1, seed=5)
        session = ReleaseSession()
        plain = session.sample(ReleaseSpec(**base), count=1, seed=0)
        budgeted = session.sample(
            ReleaseSpec(**base, memory_budget_mb=512), count=1, seed=0
        )
        assert budgeted == plain

    def test_service_maps_budget_error_to_over_memory(self):
        from repro.service import errors
        from repro.service.server import _as_service_error

        error = _as_service_error(
            MemoryBudgetError("chung_lu.generate", 100, 10, 50)
        )
        assert error.code == "over_memory"
        assert error.http_status == 507
        assert error.retryable is False

    def test_pipeline_validates_the_budget(self):
        from repro.core.pipeline import SynthesisPipeline

        with pytest.raises(ValueError, match="memory_budget_mb"):
            SynthesisPipeline(epsilon=1.0, memory_budget_mb=0)
