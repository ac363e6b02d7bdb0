"""Versioned on-disk artifacts for fitted AGM(-DP) models: :class:`ModelArtifact`.

The paper's central serving property is post-processing invariance: once the
DP parameters are learned, any number of synthetic graphs can be sampled at
zero additional privacy cost (Theorem 2).  An artifact is the persisted form
of that one-time learning step — the fitted :class:`~repro.core.agm.AgmParameters`,
the privacy accountant's ledger, and the fit manifest — so a model can be
fitted once, written to disk (or held in the service's cache) and sampled
forever after without ever touching the sensitive input again.

The on-disk format is a JSON manifest tagged with ``format`` and
``format_version``; :meth:`ModelArtifact.load` refuses documents from other
formats or future versions, or naming a backend this build does not have,
with an :class:`ArtifactFormatError` rather than mis-reading them.  Format
version 2 stores the large parameter arrays (probability vectors, degree
sequence) in an ``.npz`` sidecar next to the manifest: the manifest stays a
small human-readable document, the arrays are raw binary (no float parsing
on load, exact by construction), and :func:`numpy.load` reads sidecar
members lazily — each array is pulled from the zip only when first
accessed, which keeps manifest scans (the artifact store's index,
``GET /artifacts``) from touching array data at all.
Version-1 documents (arrays inline in the JSON) still load.  Both layouts
round-trip bit-exactly, so a loaded artifact samples graphs that are
bit-identical to the in-memory model at the same seed.

Format version 3 keeps version 2's layout and changes what a sample is: the
first acceptance vector corrects the expected Θ'_F of the structural
model's proposals instead of the Θ'_F of one unfiltered generation (see
:mod:`repro.core.agm`), so ``num_iterations`` counts generations and
samples at a given seed differ from version 2's.  The fitted parameters and
their ε are unchanged.  Version-1 and version-2 documents still load, and
they sample under the version-3 contract: this build has one sampler.

Documents written while rewiring had a second, distributional engine may
carry ``"rewire_equivalence"``.  One that says ``"exact"`` (or nothing)
loads and samples as before, since exact samples did not change; any other
value raises an :class:`ArtifactFormatError` naming the field.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Union,
)

import numpy as np

from repro.core.agm import (
    DEFAULT_NUM_ITERATIONS,
    AgmParameters,
    AgmSynthesizer,
)
from repro.core import backends
from repro.graphs.attributed import AttributedGraph
from repro.params.attribute_distribution import AttributeDistribution
from repro.params.correlations import CorrelationDistribution
from repro.testing.faults import fire
from repro.utils.rng import SeedLike, spawn_streams

#: Identifying tag of the artifact JSON document.
ARTIFACT_FORMAT = "repro.model-artifact"

#: Current version of the artifact format this build writes: version 2's
#: layout, sampled with the closed-form first Θ'_F (see the module doc).
ARTIFACT_FORMAT_VERSION = 3

#: Artifact format versions this build can read (all sample as version 3).
READABLE_FORMAT_VERSIONS = (1, 2, 3)

#: Sidecar member names for the three large parameter arrays.
SIDECAR_ATTRIBUTE_KEY = "attribute_probabilities"
SIDECAR_CORRELATION_KEY = "correlation_probabilities"
SIDECAR_DEGREES_KEY = "degrees"


class ArtifactError(ValueError):
    """Base class for artifact problems."""


class ArtifactFormatError(ArtifactError):
    """The document is not a model artifact this build can read."""


# ----------------------------------------------------------------------
# Parameter (de)serialisation
# ----------------------------------------------------------------------
def _structural_to_dict(structural: Any) -> Dict[str, Any]:
    data: Dict[str, Any] = {"degrees": [int(d) for d in structural.degrees]}
    num_triangles = getattr(structural, "num_triangles", None)
    if num_triangles is not None:
        data["num_triangles"] = int(num_triangles)
    return data


def _structural_from_dict(backend: str, data: Mapping[str, Any]) -> Any:
    if backend not in backends.BACKENDS:
        raise ArtifactFormatError(
            f"artifact names unknown backend {backend!r}; this build reads "
            f"{', '.join(backends.BACKENDS)}"
        )
    parameter_type = backends.parameter_type(backend)
    kwargs: Dict[str, Any] = {
        "degrees": np.asarray(data["degrees"], dtype=np.int64)
    }
    if "num_triangles" in data:
        kwargs["num_triangles"] = int(data["num_triangles"])
    try:
        return parameter_type(**kwargs)
    except TypeError as exc:
        raise ArtifactFormatError(
            f"structural parameters do not match backend {backend!r}: {exc}"
        ) from None


def parameters_to_dict(parameters: AgmParameters) -> Dict[str, Any]:
    """Serialise :class:`AgmParameters` to a JSON-safe dictionary."""
    return {
        "backend": parameters.backend,
        "attribute_distribution": {
            "num_attributes": parameters.attribute_distribution.num_attributes,
            "probabilities": [
                float(p) for p in parameters.attribute_distribution.probabilities
            ],
        },
        "correlations": {
            "num_attributes": parameters.correlations.num_attributes,
            "probabilities": [
                float(p) for p in parameters.correlations.probabilities
            ],
        },
        "structural": _structural_to_dict(parameters.structural),
    }


def _resolve_array(section: Mapping[str, Any], key: str, sidecar_key: str,
                   arrays: Optional[Mapping[str, Any]], dtype) -> np.ndarray:
    """An array stored either inline (``section[key]``) or in the sidecar."""
    if key in section:
        return np.asarray(section[key], dtype=dtype)
    if arrays is not None and sidecar_key in arrays:
        return np.asarray(arrays[sidecar_key], dtype=dtype)
    raise ArtifactFormatError(
        f"artifact parameters are missing {key!r} (neither inline nor in the "
        f"sidecar as {sidecar_key!r})"
    )


def parameters_from_dict(data: Mapping[str, Any],
                         arrays: Optional[Mapping[str, Any]] = None
                         ) -> AgmParameters:
    """Rebuild :class:`AgmParameters` from :func:`parameters_to_dict` output.

    ``arrays`` supplies the large arrays when the document stores them in an
    ``.npz`` sidecar (format version 2 and later) instead of inline; it may
    be a lazy :class:`numpy.lib.npyio.NpzFile`.
    """
    try:
        backend = data["backend"]
        attribute_distribution = AttributeDistribution(
            int(data["attribute_distribution"]["num_attributes"]),
            _resolve_array(data["attribute_distribution"], "probabilities",
                           SIDECAR_ATTRIBUTE_KEY, arrays, float),
        )
        correlations = CorrelationDistribution(
            int(data["correlations"]["num_attributes"]),
            _resolve_array(data["correlations"], "probabilities",
                           SIDECAR_CORRELATION_KEY, arrays, float),
        )
        structural_data = dict(data["structural"])
        if "degrees" not in structural_data:
            structural_data["degrees"] = _resolve_array(
                structural_data, "degrees", SIDECAR_DEGREES_KEY, arrays,
                np.int64,
            )
        structural = _structural_from_dict(backend, structural_data)
    except KeyError as exc:
        raise ArtifactFormatError(
            f"artifact parameters are missing required key {exc}"
        ) from None
    return AgmParameters(
        attribute_distribution=attribute_distribution,
        correlations=correlations,
        structural=structural,
        backend=backend,
    )


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelArtifact:
    """A fitted AGM(-DP) model, ready to sample from — the unit of serving.

    Attributes
    ----------
    parameters:
        The fitted AGM parameter sets (Θ_X, Θ_F, Θ_M + backend).
    spec_hash:
        Hash of the originating :class:`~repro.api.spec.ReleaseSpec`'s
        fit-relevant fields; the service's cache key.
    num_iterations / handle_orphans:
        Generation knobs recorded at fit time so sampling needs nothing but
        the artifact, a count and a seed.  ``num_iterations`` is the
        number of refinement rounds, one generation each.
    accountant:
        Serialisable snapshot of the fit's privacy ledger
        (:meth:`~repro.privacy.accountant.PrivacyAccountant.as_dict`), or
        ``None`` for a non-private fit.  Sampling never changes it — that is
        post-processing invariance made auditable.
    manifest:
        The fit pipeline's :class:`~repro.core.pipeline.RunManifest` as a
        plain dictionary (splits, spends, seed, timings, input description).
    """

    parameters: AgmParameters
    spec_hash: str
    num_iterations: int = DEFAULT_NUM_ITERATIONS
    handle_orphans: bool = True
    accountant: Optional[Dict[str, Any]] = None
    manifest: Dict[str, Any] = field(default_factory=dict)
    created_at: str = ""
    library_version: str = ""

    # ------------------------------------------------------------------
    # Identity and metadata
    # ------------------------------------------------------------------
    @property
    def artifact_id(self) -> str:
        """Stable identifier served by ``GET /artifacts/<id>``."""
        return f"art-{self.spec_hash}"

    @property
    def backend(self) -> str:
        """The structural backend the parameters were fitted for."""
        return self.parameters.backend

    @property
    def epsilon(self) -> Optional[float]:
        """The global ε of the fit (``None`` for a non-private artifact)."""
        if self.accountant is None:
            return None
        return self.accountant.get("total_epsilon")

    @property
    def is_private(self) -> bool:
        """Whether the artifact holds differentially private parameters."""
        return self.accountant is not None

    def spends(self) -> Dict[str, float]:
        """Per-stage ε ledger of the fit (empty for non-private artifacts)."""
        if self.accountant is None:
            return {}
        return dict(self.accountant.get("spends", {}))

    def describe(self) -> Dict[str, Any]:
        """Metadata summary (no parameter arrays) — the ``GET /artifacts`` view."""
        return {
            "artifact_id": self.artifact_id,
            "spec_hash": self.spec_hash,
            "format_version": ARTIFACT_FORMAT_VERSION,
            "backend": self.backend,
            "private": self.is_private,
            "epsilon": self.epsilon,
            "num_nodes": self.parameters.num_nodes,
            "num_attributes": self.parameters.num_attributes,
            "num_iterations": self.num_iterations,
            "handle_orphans": self.handle_orphans,
            "accountant": self.accountant,
            "created_at": self.created_at,
            "library_version": self.library_version,
        }

    def run_manifest(self):
        """The fit manifest re-materialised as a :class:`RunManifest` (or ``None``)."""
        if not self.manifest:
            return None
        from repro.core.pipeline import RunManifest

        return RunManifest.from_dict(self.manifest)

    # ------------------------------------------------------------------
    # Sampling (post-processing: spends no ε)
    # ------------------------------------------------------------------
    def synthesizer(self, memory_budget_mb: Optional[int] = None
                    ) -> AgmSynthesizer:
        """A synthesizer configured with the artifact's generation knobs.

        ``memory_budget_mb`` is a sample-time run-control knob (like the
        seed), deliberately *not* persisted in the artifact: the budget
        shapes how generation shards its work, never which distribution is
        sampled.
        """
        return AgmSynthesizer(
            self.parameters,
            num_iterations=self.num_iterations,
            handle_orphans=self.handle_orphans,
            memory_budget_mb=memory_budget_mb,
        )

    def sample(self, count: int = 1, seed: SeedLike = None,
               memory_budget_mb: Optional[int] = None
               ) -> List[AttributedGraph]:
        """Sample ``count`` synthetic graphs; sample ``i`` is a pure function
        of ``(artifact, seed, i)``.

        Each sample draws from its own stream spawned from ``seed``
        (:func:`repro.utils.rng.spawn_streams`), so a served sample and a
        direct library call at the same seed are bit-identical, and asking
        for more samples never perturbs the ones already drawn.
        ``memory_budget_mb`` bounds each sample's generation working set;
        over-budget generation raises
        :class:`~repro.utils.memory.MemoryBudgetError`.
        """
        return list(self.iter_samples(count, seed,
                                      memory_budget_mb=memory_budget_mb))

    def iter_samples(self, count: int, seed: SeedLike = None,
                     memory_budget_mb: Optional[int] = None,
                     checkpoint: Optional[Callable[[], None]] = None
                     ) -> Iterator[AttributedGraph]:
        """Yield the graphs of :meth:`sample` one at a time.

        ``checkpoint`` is called before each graph, so a caller enforcing a
        deadline stops between graphs; the graphs are bit-identical to
        :meth:`sample` at the same seed.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        synthesizer = self.synthesizer(memory_budget_mb=memory_budget_mb)
        for stream in spawn_streams(seed, count):
            if checkpoint is not None:
                checkpoint()
            yield synthesizer.sample(rng=stream)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The versioned JSON document form (arrays inline, self-contained)."""
        return {
            "format": ARTIFACT_FORMAT,
            "format_version": ARTIFACT_FORMAT_VERSION,
            "artifact_id": self.artifact_id,
            "spec_hash": self.spec_hash,
            "created_at": self.created_at,
            "library_version": self.library_version,
            "num_iterations": self.num_iterations,
            "handle_orphans": self.handle_orphans,
            "accountant": self.accountant,
            "manifest": self.manifest,
            "parameters": parameters_to_dict(self.parameters),
        }

    def sidecar_arrays(self) -> Dict[str, np.ndarray]:
        """The large parameter arrays, keyed by their sidecar member names."""
        return {
            SIDECAR_ATTRIBUTE_KEY: np.asarray(
                self.parameters.attribute_distribution.probabilities,
                dtype=float,
            ),
            SIDECAR_CORRELATION_KEY: np.asarray(
                self.parameters.correlations.probabilities, dtype=float
            ),
            SIDECAR_DEGREES_KEY: np.asarray(
                self.parameters.structural.degrees, dtype=np.int64
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  arrays: Optional[Mapping[str, Any]] = None
                  ) -> "ModelArtifact":
        """Rebuild an artifact, checking the format tag and version first.

        ``arrays`` supplies the sidecar members for a document whose
        manifest references an ``.npz`` sidecar (:meth:`load` passes the
        lazily opened file); a sidecar-referencing document without
        ``arrays`` is rejected because the arrays are unreachable from the
        document alone.
        """
        if not isinstance(payload, Mapping):
            raise ArtifactFormatError(
                f"artifact document must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        document_format = payload.get("format")
        if document_format != ARTIFACT_FORMAT:
            raise ArtifactFormatError(
                f"not a model artifact: format {document_format!r}, expected "
                f"{ARTIFACT_FORMAT!r}"
            )
        version = payload.get("format_version")
        if version not in READABLE_FORMAT_VERSIONS:
            raise ArtifactFormatError(
                f"unsupported artifact format_version {version!r}; this build "
                f"reads versions {READABLE_FORMAT_VERSIONS}"
            )
        rewiring = payload.get("rewire_equivalence", "exact")
        if rewiring != "exact":
            raise ArtifactFormatError(
                f"artifact has rewire_equivalence {rewiring!r}; the "
                f"distributional rewiring engine was removed, and this build "
                f"samples only 'exact' artifacts"
            )
        if payload.get("sidecar") and arrays is None:
            raise ArtifactFormatError(
                f"artifact references sidecar {payload['sidecar']!r}; load it "
                f"from disk with ModelArtifact.load so the sidecar can be "
                f"resolved"
            )
        try:
            parameters = parameters_from_dict(payload["parameters"],
                                              arrays=arrays)
        except KeyError:
            raise ArtifactFormatError(
                "artifact is missing the 'parameters' section"
            ) from None
        accountant = payload.get("accountant")
        return cls(
            parameters=parameters,
            spec_hash=str(payload.get("spec_hash", "")),
            num_iterations=int(payload.get("num_iterations",
                                           DEFAULT_NUM_ITERATIONS)),
            handle_orphans=bool(payload.get("handle_orphans", True)),
            accountant=dict(accountant) if accountant is not None else None,
            manifest=dict(payload.get("manifest") or {}),
            created_at=str(payload.get("created_at", "")),
            library_version=str(payload.get("library_version", "")),
        )

    def save(self, path: Union[str, Path], sidecar: bool = True) -> Path:
        """Write the artifact to ``path``, atomically.

        With ``sidecar=True`` (the default) the large parameter arrays go
        to ``<path-stem>.npz`` next to the manifest and the manifest
        references it by file name; with ``sidecar=False`` the arrays are
        inlined into the JSON document (still a current-version document,
        readable without the sidecar).

        Every file lands in a temporary name in the same directory, is
        fsync'd, then renamed over its target (``os.replace``) — and the
        sidecar is committed *before* the manifest, so a crash mid-save can
        never leave a manifest referencing a missing or torn sidecar:
        readers observe either the previous complete artifact or the new
        one.
        """
        path = Path(path)
        document = self.to_dict()
        if sidecar:
            sidecar_path = path.with_suffix(".npz")
            if sidecar_path == path:
                raise ArtifactError(
                    f"manifest path {path} collides with its .npz sidecar; "
                    f"use a different extension for the manifest"
                )
            document["sidecar"] = sidecar_path.name
            parameters = document["parameters"]
            del parameters["attribute_distribution"]["probabilities"]
            del parameters["correlations"]["probabilities"]
            del parameters["structural"]["degrees"]
            self._write_sidecar(sidecar_path)
        temp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            fire("artifact.save.before_replace")
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        return path

    def _write_sidecar(self, sidecar_path: Path) -> None:
        """Atomically write the ``.npz`` array sidecar."""
        temp = sidecar_path.with_name(
            f".{sidecar_path.name}.tmp-{os.getpid()}"
        )
        try:
            with open(temp, "wb") as handle:
                np.savez(handle, **self.sidecar_arrays())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, sidecar_path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelArtifact":
        """Load an artifact written by :meth:`save` (format-checked).

        A manifest referencing an ``.npz`` sidecar opens the
        sidecar with :func:`numpy.load` (``allow_pickle=False``); members
        are read from the zip lazily, on first access.
        """
        path = Path(path)
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ArtifactFormatError(
                    f"{path} is not valid JSON: {exc}"
                ) from None
        arrays = None
        sidecar_name = payload.get("sidecar") if isinstance(payload, dict) \
            else None
        if sidecar_name:
            if os.path.basename(str(sidecar_name)) != sidecar_name:
                raise ArtifactFormatError(
                    f"sidecar reference {sidecar_name!r} must be a bare file "
                    f"name next to the manifest"
                )
            sidecar_path = path.parent / sidecar_name
            try:
                arrays = np.load(sidecar_path, allow_pickle=False)
            except FileNotFoundError:
                raise ArtifactFormatError(
                    f"artifact {path} references missing sidecar "
                    f"{sidecar_path}"
                ) from None
        try:
            return cls.from_dict(payload, arrays=arrays)
        finally:
            if arrays is not None:
                arrays.close()

    @classmethod
    def create(cls, parameters: AgmParameters, spec,
               accountant=None, manifest: Optional[Mapping[str, Any]] = None
               ) -> "ModelArtifact":
        """Build an artifact for freshly fitted ``parameters``.

        ``spec`` is the originating :class:`~repro.api.spec.ReleaseSpec`;
        ``accountant`` the fit's :class:`PrivacyAccountant` (or ``None``).
        """
        import repro

        snapshot = accountant.as_dict() if accountant is not None else None
        return cls(
            parameters=parameters,
            spec_hash=spec.spec_hash,
            num_iterations=spec.num_iterations,
            handle_orphans=spec.handle_orphans,
            accountant=snapshot,
            manifest=dict(manifest or {}),
            created_at=datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            library_version=repro.__version__,
        )
