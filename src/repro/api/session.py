"""The workflow facade of the public API: :class:`ReleaseSession`.

A session turns the library's layered machinery (pipeline, accountant,
Monte-Carlo runner) into the three verbs a data owner actually needs:

* :meth:`ReleaseSession.fit` — learn the DP parameters for a
  :class:`~repro.api.spec.ReleaseSpec` once, spending its ε, and get back a
  persistent :class:`~repro.api.artifact.ModelArtifact`;
* :meth:`ReleaseSession.sample` — draw any number of synthetic graphs from
  an artifact at zero additional privacy cost (post-processing, Theorem 2);
* :meth:`ReleaseSession.evaluate` — run the paper's Monte-Carlo utility
  estimate for a spec (Tables 2-5 metrics averaged over trials).

Fitted artifacts are cached in memory keyed by the spec's
:attr:`~repro.api.spec.ReleaseSpec.spec_hash`; a second ``fit`` of an
equivalent spec is a cache hit that performs no learning and spends no ε.
The cache is thread-safe with per-key single-flight locking, so the HTTP
service (:mod:`repro.service`) can serve concurrent requests from one shared
session and concurrent fits of the same spec learn exactly once.

The cache is **bounded**: it holds at most ``max_artifacts`` entries
(default from ``REPRO_ARTIFACT_CACHE_SIZE``, 64) with least-recently-used
eviction, so a long-lived ``repro serve`` daemon cannot grow without limit.
An evicted artifact is refit transparently on its next ``fit`` — note that
a refit spends the spec's ε again, exactly like any other cache miss.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.api.artifact import ModelArtifact
from repro.api.spec import ReleaseSpec
from repro.experiments.runner import default_trials, run_trials_detailed
from repro.graphs.attributed import AttributedGraph
from repro.testing.faults import fire
from repro.utils.rng import SeedLike
from repro.utils.validation import positive_from_env

#: Environment variable bounding the artifact cache of new sessions.
CACHE_SIZE_ENV_VAR = "REPRO_ARTIFACT_CACHE_SIZE"
#: Default artifact-cache bound when the environment does not override it.
DEFAULT_CACHE_SIZE = 64


class ReleaseSession:
    """Fit once, sample many: the facade over the staged synthesis engine.

    Parameters
    ----------
    max_artifacts:
        Upper bound on cached artifacts (LRU eviction).  Defaults to the
        ``REPRO_ARTIFACT_CACHE_SIZE`` environment variable, or 64; a value
        there that is not a positive integer raises :class:`ValueError`,
        and so does an explicit bound below 1.
    ledger_store:
        Optional :class:`~repro.privacy.ledger.LedgerStore`.  When set,
        every *private* fit runs as a durable two-phase spend against the
        requesting tenant's persistent ledger: the spec's ε is reserved
        before learning starts (raising
        :class:`~repro.privacy.budget.BudgetExceededError` when the
        tenant's budget cannot cover it), committed with the accountant's
        per-stage breakdown when the fit lands, and aborted — or, after a
        crash, rolled back on ledger recovery — when it does not.
    artifact_store:
        Optional :class:`~repro.api.store.ArtifactStore` (or a directory
        path).  When set, fitted artifacts are persisted to disk and cache
        misses probe the store before refitting — a disk hit loads the
        stored model and spends no ε, which is what lets N worker processes
        (and daemon restarts) share one fit.  Fits of a cold spec hold the
        store's cross-process fit lock, so concurrent workers racing the
        same spec learn exactly once.
    """

    def __init__(self, max_artifacts: Optional[int] = None,
                 ledger_store: Optional[object] = None,
                 artifact_store: Optional[object] = None) -> None:
        self._lock = threading.Lock()
        self._fit_locks: Dict[str, threading.Lock] = {}
        self._artifacts: "OrderedDict[str, ModelArtifact]" = OrderedDict()
        if max_artifacts is None:
            max_artifacts = positive_from_env(CACHE_SIZE_ENV_VAR,
                                              DEFAULT_CACHE_SIZE)
        elif max_artifacts < 1:
            raise ValueError(f"max_artifacts must be >= 1, got {max_artifacts}")
        self._max_artifacts = int(max_artifacts)
        self._ledger_store = ledger_store
        if isinstance(artifact_store, (str, os.PathLike)):
            from repro.api.store import ArtifactStore

            artifact_store = ArtifactStore(artifact_store)
        self._artifact_store = artifact_store
        self._fits = 0
        self._cache_hits = 0
        self._disk_hits = 0
        self._evictions = 0

    @property
    def ledger_store(self):
        """The attached :class:`~repro.privacy.ledger.LedgerStore` (or ``None``)."""
        return self._ledger_store

    @property
    def artifact_store(self):
        """The attached :class:`~repro.api.store.ArtifactStore` (or ``None``)."""
        return self._artifact_store

    def attach_ledger_store(self, ledger_store) -> None:
        """Attach a persistent ledger store to an existing session.

        Refuses to silently replace one that is already attached — two
        stores double-accounting the same fits is never intended.
        """
        if self._ledger_store is not None and self._ledger_store is not ledger_store:
            raise ValueError("a different ledger store is already attached")
        self._ledger_store = ledger_store

    @property
    def max_artifacts(self) -> int:
        """The artifact-cache bound (LRU eviction beyond it)."""
        return self._max_artifacts

    def _cache_get(self, key: str) -> Optional[ModelArtifact]:
        """Look up ``key``, refreshing its recency.  Caller holds the lock."""
        artifact = self._artifacts.get(key)
        if artifact is not None:
            self._artifacts.move_to_end(key)
        return artifact

    def _cache_put(self, key: str, artifact: ModelArtifact) -> None:
        """Insert ``key``, evicting the least recent.  Caller holds the lock.

        Evictions never touch ``_fit_locks``: a fit lock exists only while
        its fit is in flight (it is registered on miss and dropped when the
        artifact lands), so popping one here could orphan a waiter and let
        two fits of the same spec run concurrently.
        """
        self._artifacts[key] = artifact
        self._artifacts.move_to_end(key)
        while len(self._artifacts) > self._max_artifacts:
            self._artifacts.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, spec: ReleaseSpec, graph: Optional[AttributedGraph] = None,
            checkpoint: Optional[Callable[[], None]] = None) -> ModelArtifact:
        """Learn the model for ``spec`` (or return the cached artifact).

        ``graph`` optionally supplies an already-loaded input graph; the
        caller is responsible for it matching the spec's input description.
        """
        artifact, _cache_hit = self.fit_cached(spec, graph=graph,
                                               checkpoint=checkpoint)
        return artifact

    def fit_cached(self, spec: ReleaseSpec,
                   graph: Optional[AttributedGraph] = None,
                   checkpoint: Optional[Callable[[], None]] = None
                   ) -> Tuple[ModelArtifact, bool]:
        """Like :meth:`fit`, also reporting whether the cache served the fit.

        Concurrent calls for the same spec hash are single-flighted: one
        caller learns, the rest block on the per-key lock and receive the
        cached artifact.

        ``checkpoint`` is a cooperative-cancellation hook forwarded to the
        pipeline's stage boundaries (see
        :meth:`~repro.core.pipeline.SynthesisPipeline.fit`); a fit cancelled
        through it aborts its ledger reservation like any other failure.
        """
        key = spec.spec_hash
        while True:
            with self._lock:
                artifact = self._cache_get(key)
                if artifact is not None:
                    self._cache_hits += 1
                    return artifact, True
                key_lock = self._fit_locks.setdefault(key, threading.Lock())
            with key_lock:
                with self._lock:
                    if self._fit_locks.get(key) is not key_lock:
                        # The fit we queued behind completed (and dropped
                        # its lock) while we waited; retry through the
                        # cache so a fresh fit single-flights correctly.
                        continue
                    artifact = self._cache_get(key)
                    if artifact is not None:
                        self._cache_hits += 1
                        return artifact, True
                if self._artifact_store is not None:
                    artifact, from_disk = self._fit_through_store(
                        key, spec, graph, checkpoint
                    )
                else:
                    artifact, from_disk = self._fit(spec, graph, checkpoint), \
                        False
                with self._lock:
                    self._cache_put(key, artifact)
                    if from_disk:
                        self._cache_hits += 1
                        self._disk_hits += 1
                    else:
                        self._fits += 1
                    # The lock's lifetime is the fit's: drop it so the dict
                    # only ever holds in-flight keys.
                    self._fit_locks.pop(key, None)
            return artifact, from_disk

    def _fit_through_store(self, key: str, spec: ReleaseSpec,
                           graph: Optional[AttributedGraph],
                           checkpoint: Optional[Callable[[], None]]
                           ) -> Tuple[ModelArtifact, bool]:
        """Disk-backed miss path: *check, lock, check again, fit, publish*.

        A stored artifact — found either before or after taking the
        cross-process fit lock (another worker may have fitted while we
        waited) — is returned as a hit: loading it spends no ε.
        """
        stored = self._artifact_store.get(key)
        if stored is not None:
            return stored, True
        with self._artifact_store.fit_lock(key):
            stored = self._artifact_store.get(key)
            if stored is not None:
                return stored, True
            artifact = self._fit(spec, graph, checkpoint)
            self._artifact_store.put(artifact)
        return artifact, False

    def _fit(self, spec: ReleaseSpec, graph: Optional[AttributedGraph],
             checkpoint: Optional[Callable[[], None]] = None) -> ModelArtifact:
        fire("session.fit.start")
        ledger = None
        if self._ledger_store is not None and spec.epsilon is not None:
            from repro.privacy.ledger import DEFAULT_TENANT

            ledger = self._ledger_store.ledger(spec.tenant or DEFAULT_TENANT)
        if ledger is None:
            return self._fit_pipeline(spec, graph, checkpoint)
        # Two-phase spend: reserve before learning (the authoritative budget
        # check), commit the accountant's actual breakdown when the fit
        # lands.  Leaving the block uncommitted aborts the reservation —
        # except for a simulated crash (the transaction's __exit__ honours
        # the simulated-process-death contract), which ledger recovery rolls
        # back on the next open instead.
        with ledger.reserve(spec.epsilon) as txn:
            artifact = self._fit_pipeline(spec, graph, checkpoint,
                                          collect=txn)
        fire("session.fit.committed")
        return artifact

    def _fit_pipeline(self, spec: ReleaseSpec,
                      graph: Optional[AttributedGraph],
                      checkpoint: Optional[Callable[[], None]],
                      collect: Optional[object] = None) -> ModelArtifact:
        input_graph = graph if graph is not None else spec.load_graph()
        # Every spec with this spec_hash shares the artifact, and the hash
        # leaves `samples` out, so the fit manifest records one sample.
        pipeline = dataclasses.replace(spec.pipeline(), samples=1)
        result = pipeline.fit(input_graph, rng=spec.seed,
                              checkpoint=checkpoint)
        # The input description rides in the manifest's `extra` block, which
        # RunManifest.from_dict preserves, so artifact.run_manifest() keeps
        # the provenance through a save/load round-trip.
        result.manifest.extra["input"] = spec.describe_input()
        manifest = result.manifest.to_dict()
        artifact = ModelArtifact.create(
            result.parameters, spec,
            accountant=result.accountant, manifest=manifest,
        )
        if collect is not None:
            # Commit only after the artifact exists: the committed spend and
            # the servable model become durable together or not at all.
            fire("session.fit.before_commit")
            collect.commit(accountant=result.accountant)
        return artifact

    # ------------------------------------------------------------------
    # Sampling (free: post-processing of the artifact)
    # ------------------------------------------------------------------
    def sample(self, artifact: Union[ModelArtifact, ReleaseSpec, str],
               count: int = 1, seed: SeedLike = None,
               memory_budget_mb: Optional[int] = None
               ) -> List[AttributedGraph]:
        """Sample ``count`` synthetic graphs from an artifact.

        Accepts a :class:`ModelArtifact`, a :class:`ReleaseSpec` (fitted
        through the cache first — so repeated calls fit once) or a cached
        artifact id.  Sampling spends no privacy budget and sample ``i`` is a
        pure function of ``(artifact, seed, i)``.  ``memory_budget_mb``
        bounds generation's working set; when a :class:`ReleaseSpec` is
        given, its own ``memory_budget_mb`` is the default.
        """
        if isinstance(artifact, ReleaseSpec):
            if memory_budget_mb is None:
                memory_budget_mb = artifact.memory_budget_mb
            artifact = self.fit(artifact)
        elif isinstance(artifact, str):
            artifact = self.get_artifact(artifact)
        return artifact.sample(count=count, seed=seed,
                               memory_budget_mb=memory_budget_mb)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, spec: ReleaseSpec,
                 graph: Optional[AttributedGraph] = None) -> Dict[str, Any]:
        """Monte-Carlo utility estimate for ``spec`` (the CLI ``run`` body).

        Executes ``spec.trials`` synthesis pipelines (refitting the DP
        parameters per trial, as the paper's averages do) over
        ``spec.workers`` processes, each resolved like the runner's
        defaults when unset (``REPRO_TRIALS``, ``REPRO_WORKERS``), and
        returns a JSON-serialisable result:
        the averaged Tables 2-5 metric row, the averaged per-stage ε spends
        and the first trial's manifest.
        """
        input_graph = graph if graph is not None else spec.load_graph()
        pipeline = spec.pipeline()
        outcome = run_trials_detailed(input_graph, pipeline,
                                      default_trials(spec.trials),
                                      rng=spec.seed, workers=spec.workers)
        manifest = outcome.manifest
        return {
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash,
            "model": pipeline.label,
            "trials": outcome.trials,
            "workers": outcome.workers,
            "report": outcome.report.as_paper_row(),
            "spends": outcome.spend_summary(),
            "manifest": manifest.to_dict() if manifest is not None else None,
        }

    # ------------------------------------------------------------------
    # Cache views
    # ------------------------------------------------------------------
    def get_artifact(self, artifact_id: str) -> ModelArtifact:
        """Look up a cached artifact by id (or bare spec hash).

        Raises :class:`KeyError` when the artifact is not in the cache.
        """
        key = artifact_id[4:] if artifact_id.startswith("art-") else artifact_id
        with self._lock:
            artifact = self._cache_get(key)
            if artifact is None:
                raise KeyError(f"unknown artifact {artifact_id!r}")
            return artifact

    def artifacts(self) -> List[Dict[str, Any]]:
        """Metadata for every cached artifact."""
        with self._lock:
            cached = list(self._artifacts.values())
        return [artifact.describe() for artifact in cached]

    def stats(self) -> Dict[str, int]:
        """Cache counters: fits, hits, evictions, artifacts held, the bound."""
        with self._lock:
            return {
                "fits": self._fits,
                "cache_hits": self._cache_hits,
                "disk_hits": self._disk_hits,
                "evictions": self._evictions,
                "artifacts": len(self._artifacts),
                "max_artifacts": self._max_artifacts,
            }
