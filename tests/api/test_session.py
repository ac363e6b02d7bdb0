"""Tests for the workflow facade (:class:`repro.api.ReleaseSession`)."""

import threading

import pytest

from repro.api import ReleaseSession, ReleaseSpec


@pytest.fixture()
def spec():
    return ReleaseSpec(dataset="petster", scale=0.03, epsilon=1.0,
                       backend="tricycle", seed=3, num_iterations=1)


class TestFit:
    def test_fit_spends_the_whole_budget(self, spec):
        artifact = ReleaseSession().fit(spec)
        assert artifact.is_private
        assert sum(artifact.spends().values()) == pytest.approx(1.0)
        assert artifact.spec_hash == spec.spec_hash

    def test_fit_is_deterministic_in_the_spec_seed(self, spec):
        first = ReleaseSession().fit(spec)
        second = ReleaseSession().fit(spec)
        assert first.sample(1, seed=4)[0] == second.sample(1, seed=4)[0]

    def test_fit_once_cache(self, spec):
        session = ReleaseSession()
        first, hit_first = session.fit_cached(spec)
        second, hit_second = session.fit_cached(spec)
        assert (hit_first, hit_second) == (False, True)
        assert second is first
        stats = session.stats()
        assert stats["fits"] == 1
        assert stats["cache_hits"] == 1
        assert stats["artifacts"] == 1
        assert stats["evictions"] == 0

    def test_run_control_fields_share_the_artifact(self, spec):
        session = ReleaseSession()
        session.fit(spec)
        _again, hit = session.fit_cached(spec.with_overrides(trials=50,
                                                             workers=8))
        assert hit is True

    def test_concurrent_fits_single_flight(self, spec):
        session = ReleaseSession()
        results = []

        def fit():
            results.append(session.fit_cached(spec))

        threads = [threading.Thread(target=fit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert session.stats()["fits"] == 1
        artifacts = {id(artifact) for artifact, _hit in results}
        assert len(artifacts) == 1  # everyone got the same object

    def test_non_private_fit_has_no_ledger(self):
        spec = ReleaseSpec(dataset="petster", scale=0.05, epsilon=None, seed=0)
        artifact = ReleaseSession().fit(spec)
        assert not artifact.is_private
        assert artifact.epsilon is None
        assert artifact.spends() == {}


def _specs(count):
    return [
        ReleaseSpec(dataset="petster", scale=0.03, epsilon=None, seed=seed,
                    num_iterations=1)
        for seed in range(count)
    ]


class TestBoundedCache:
    def test_lru_eviction_beyond_bound(self):
        session = ReleaseSession(max_artifacts=2)
        first, second, third = _specs(3)
        session.fit(first)
        session.fit(second)
        session.fit(third)            # evicts `first`
        stats = session.stats()
        assert stats["artifacts"] == 2
        assert stats["evictions"] == 1
        with pytest.raises(KeyError):
            session.get_artifact(f"art-{first.spec_hash}")
        session.get_artifact(f"art-{third.spec_hash}")

    def test_hit_refreshes_recency(self):
        session = ReleaseSession(max_artifacts=2)
        first, second, third = _specs(3)
        session.fit(first)
        session.fit(second)
        session.fit(first)            # refresh `first`: now `second` is LRU
        session.fit(third)            # evicts `second`
        session.get_artifact(f"art-{first.spec_hash}")
        with pytest.raises(KeyError):
            session.get_artifact(f"art-{second.spec_hash}")

    def test_evicted_artifact_refits_transparently(self):
        session = ReleaseSession(max_artifacts=1)
        first, second = _specs(2)
        original = session.fit(first)
        session.fit(second)           # evicts `first`
        refit, hit = session.fit_cached(first)
        assert hit is False
        assert session.stats()["fits"] == 3
        # The refit artifact serves identical samples (same spec, same seed).
        assert refit.sample(1, seed=5)[0] == original.sample(1, seed=5)[0]

    def test_environment_sets_the_default_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE_SIZE", "3")
        assert ReleaseSession().max_artifacts == 3
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE_SIZE", "not-a-number")
        with pytest.raises(ValueError,
                           match="REPRO_ARTIFACT_CACHE_SIZE='not-a-number'"):
            ReleaseSession()
        monkeypatch.delenv("REPRO_ARTIFACT_CACHE_SIZE")
        assert ReleaseSession().max_artifacts == 64
        assert ReleaseSession(max_artifacts=5).max_artifacts == 5


class TestSample:
    def test_sampling_does_not_touch_the_ledger(self, spec):
        session = ReleaseSession()
        artifact = session.fit(spec)
        ledger_before = dict(artifact.accountant["spends"])
        session.sample(artifact, count=2, seed=1)
        session.sample(artifact, count=1, seed=2)
        assert artifact.accountant["spends"] == ledger_before
        assert session.stats()["fits"] == 1

    def test_sample_accepts_spec_and_artifact_id(self, spec):
        session = ReleaseSession()
        by_spec = session.sample(spec, count=1, seed=9)
        artifact = session.get_artifact(f"art-{spec.spec_hash}")
        by_id = session.sample(artifact.artifact_id, count=1, seed=9)
        by_artifact = session.sample(artifact, count=1, seed=9)
        assert by_spec[0] == by_id[0] == by_artifact[0]
        assert session.stats()["fits"] == 1

    def test_unknown_artifact_id_raises(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            ReleaseSession().get_artifact("art-deadbeef")


class TestEvaluate:
    def test_evaluate_returns_the_run_result(self, spec):
        result = ReleaseSession().evaluate(spec.with_overrides(trials=2))
        assert result["model"] == "AGMDP-TriCL"
        assert result["trials"] == 2
        assert result["spec"]["dataset"] == "petster"
        assert sum(result["spends"].values()) == pytest.approx(1.0)
        assert result["manifest"]["stages"] == [
            "estimate", "fit", "generate", "postprocess", "evaluate",
        ]
        assert "ThetaF" in result["report"]

    def test_evaluate_accepts_preloaded_graph(self, spec):
        graph = spec.load_graph()
        result = ReleaseSession().evaluate(spec.with_overrides(trials=1),
                                           graph=graph)
        assert result["manifest"]["graph"]["num_nodes"] == graph.num_nodes
