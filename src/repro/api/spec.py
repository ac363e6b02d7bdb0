"""The declarative layer of the public API: :class:`ReleaseSpec`.

A release spec says *what* to release — which input graph, at which privacy
budget, through which structural backend, with which budget split and
generation knobs — without saying anything about *how* the release is
executed (serially, across worker processes, or behind the HTTP service).
Everything that drives the synthesis workflow (the CLI ``run`` and
``synthesize`` commands, the Monte-Carlo runner, the service's ``/fit`` and
``/sample`` endpoints, the examples) consumes the same frozen, validated
object, so there is exactly one place where a run configuration is parsed,
defaulted and checked.

Validation errors are :class:`SpecValidationError`\\ s whose message always
starts with the offending field name, so a bad JSON config fails with
``"epsilon: must be a positive, finite privacy budget, got -1.0"`` rather
than a stack trace from deep inside a mechanism.

The canonical JSON form carries ``"spec_version": 1``.  Un-versioned flat
dicts — the pre-API ``repro run`` config format — are still accepted by
:meth:`ReleaseSpec.from_dict` and are converted with a single
:class:`DeprecationWarning` pointing at the new format.

Specs written while rewiring had a second, distributional engine may carry
``"rewire_equivalence"``.  In either form, ``"exact"`` (the one engine this
build runs) loads and the key is dropped; any other value fails with a
:class:`SpecValidationError` naming the field, instead of being sampled
under a contract it did not ask for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.agm import DEFAULT_NUM_ITERATIONS
from repro.core.agm_dp import BudgetSplit
from repro.core.backends import BACKENDS
from repro.core.pipeline import SynthesisPipeline
from repro.datasets.registry import dataset_names, load_dataset
from repro.graphs.attributed import AttributedGraph
from repro.graphs.io import load_attributed_graph

#: Version of the canonical JSON spec format written by :meth:`ReleaseSpec.to_json`.
SPEC_VERSION = 1

#: Dataset the pre-API CLI defaulted to when a config named no input.
_LEGACY_DEFAULT_DATASET = "lastfm"


class SpecValidationError(ValueError):
    """A release spec failed validation.

    The message always starts with the name of the offending field, which is
    also available programmatically as :attr:`field`.
    """

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")


def _coerce_int(field: str, value: Any, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SpecValidationError(
            field, f"expected an integer, got {type(value).__name__}"
        )
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        raise SpecValidationError(field, f"expected an integer, got {value!r}") from None
    if float(coerced) != float(value):
        raise SpecValidationError(field, f"expected an integer, got {value!r}")
    if minimum is not None and coerced < minimum:
        raise SpecValidationError(field, f"must be >= {minimum}, got {coerced}")
    return coerced


def _coerce_float(field: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SpecValidationError(
            field, f"expected a number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecValidationError(field, f"expected a number, got {value!r}") from None


@dataclass(frozen=True)
class ReleaseSpec:
    """A frozen, validated description of one private synthesis release.

    Attributes
    ----------
    dataset / scale:
        A registered synthetic dataset name and its generation scale, or —
    edges / attributes:
        paths to an edge-list file and an optional node-attribute table.
        Exactly one of ``dataset`` and ``edges`` must be given.
    seed:
        Root random seed for the fit.
    epsilon:
        Global privacy budget ε, or ``None`` for the non-private baseline.
    backend:
        A structural backend, one of
        :data:`repro.core.backends.BACKENDS` (``"tricycle"`` or ``"fcl"``).
    budget_split:
        Optional :class:`~repro.core.agm_dp.BudgetSplit` (a mapping of its
        keyword arguments is accepted and converted).
    truncation_k:
        Truncation parameter for Θ_F (``None``: the ``n^(1/3)`` heuristic).
    num_iterations:
        Acceptance-refinement rounds used when sampling, one generation
        each.
    handle_orphans:
        Forwarded to the structural backend's model builder.
    samples:
        Synthetic graphs produced per pipeline run.
    trials / workers:
        Monte-Carlo evaluation controls (:meth:`ReleaseSession.evaluate`).
    output:
        Where the CLI writes the run result (``None``: stdout).
    tenant:
        Accounting identity the release is billed to.  The service charges
        the fit's ε against this tenant's persistent ledger and applies its
        rate limits.  Like the other run-control fields it is **excluded**
        from the fit fingerprint: two tenants requesting the same release
        share one fitted artifact (fit-once-sample-many), and only the
        tenant whose request actually triggered the fit spends ε.
    memory_budget_mb:
        Optional generation memory budget in MiB (>= 1).  Forwarded to the
        structural backends, which shard their sampling passes to fit and
        raise the structured ``over_memory`` error when a stage's
        pessimistic byte estimate cannot fit.  A run-control knob like
        ``tenant``: **excluded** from the fit fingerprint — the budget
        changes how a graph is generated (shard sizes), never which graph
        distribution is generated, so specs differing only in budget share
        one fitted artifact.
    """

    dataset: Optional[str] = None
    scale: Optional[float] = None
    edges: Optional[str] = None
    attributes: Optional[str] = None
    seed: int = 0
    epsilon: Optional[float] = None
    backend: str = "tricycle"
    budget_split: Optional[BudgetSplit] = None
    truncation_k: Optional[int] = None
    num_iterations: int = DEFAULT_NUM_ITERATIONS
    handle_orphans: bool = True
    samples: int = 1
    trials: int = 3
    workers: Optional[int] = None
    output: Optional[str] = None
    tenant: Optional[str] = None
    memory_budget_mb: Optional[int] = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        def put(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        if self.dataset is not None and self.edges is not None:
            raise SpecValidationError(
                "dataset", "give either 'dataset' or 'edges', not both"
            )
        if self.dataset is None and self.edges is None:
            raise SpecValidationError(
                "dataset",
                "an input is required: name a registered 'dataset' or an "
                "'edges' file",
            )
        if self.dataset is not None:
            if not isinstance(self.dataset, str):
                raise SpecValidationError(
                    "dataset",
                    f"expected a dataset name, got {type(self.dataset).__name__}",
                )
            name = self.dataset.lower()
            if name not in dataset_names():
                raise SpecValidationError(
                    "dataset",
                    f"unknown dataset {self.dataset!r}; registered: "
                    f"{', '.join(dataset_names())}",
                )
            put("dataset", name)
        if self.edges is not None:
            if not isinstance(self.edges, (str, Path)):
                raise SpecValidationError(
                    "edges",
                    f"expected an edge-list path, got {type(self.edges).__name__}",
                )
            put("edges", str(self.edges))
        if self.attributes is not None:
            if self.edges is None:
                raise SpecValidationError(
                    "attributes", "'attributes' requires an 'edges' input file"
                )
            put("attributes", str(self.attributes))
        if self.scale is not None:
            if self.edges is not None:
                raise SpecValidationError(
                    "scale",
                    "'scale' applies to registered datasets, not 'edges' inputs",
                )
            scale = _coerce_float("scale", self.scale)
            if not math.isfinite(scale) or scale <= 0:
                raise SpecValidationError("scale", f"must be positive, got {scale}")
            put("scale", scale)

        # numpy's SeedSequence rejects negative entropy, so catch it here
        # with a field-named message instead of a fit-time traceback.
        put("seed", _coerce_int("seed", self.seed, minimum=0))

        if self.epsilon is not None:
            epsilon = _coerce_float("epsilon", self.epsilon)
            if not math.isfinite(epsilon) or epsilon <= 0:
                raise SpecValidationError(
                    "epsilon",
                    f"must be a positive, finite privacy budget, got {epsilon}",
                )
            put("epsilon", epsilon)

        if not isinstance(self.backend, str):
            raise SpecValidationError(
                "backend",
                f"expected a backend name, got {type(self.backend).__name__}",
            )
        if self.backend not in BACKENDS:
            raise SpecValidationError(
                "backend",
                f"unknown backend {self.backend!r}; registered: "
                f"{', '.join(BACKENDS)}",
            )

        if self.budget_split is not None:
            split = self.budget_split
            if isinstance(split, Mapping):
                try:
                    split = BudgetSplit(**split)
                except TypeError as exc:
                    raise SpecValidationError("budget_split", str(exc)) from None
                except ValueError as exc:
                    raise SpecValidationError("budget_split", str(exc)) from None
            elif isinstance(split, BudgetSplit):
                pass
            else:
                raise SpecValidationError(
                    "budget_split",
                    "expected a mapping of budget fractions (attributes, "
                    f"correlations, structural, ...), got {type(split).__name__}",
                )
            put("budget_split", split)

        if self.truncation_k is not None:
            put("truncation_k", _coerce_int("truncation_k", self.truncation_k,
                                            minimum=1))
        put("num_iterations", _coerce_int("num_iterations", self.num_iterations,
                                          minimum=1))
        put("handle_orphans", bool(self.handle_orphans))
        put("samples", _coerce_int("samples", self.samples, minimum=1))
        put("trials", _coerce_int("trials", self.trials, minimum=1))
        if self.memory_budget_mb is not None:
            put("memory_budget_mb",
                _coerce_int("memory_budget_mb", self.memory_budget_mb,
                            minimum=1))
        if self.workers is not None:
            put("workers", _coerce_int("workers", self.workers, minimum=1))
        if self.output is not None:
            put("output", str(self.output))
        if self.tenant is not None:
            if not isinstance(self.tenant, str):
                raise SpecValidationError(
                    "tenant",
                    f"expected a tenant name, got {type(self.tenant).__name__}",
                )
            # Tenant ids name ledger files on the service host: keep them to
            # a filesystem-safe charset and refuse dotfile-style names.
            if (not self.tenant or len(self.tenant) > 64
                    or self.tenant.startswith(".")
                    or not all((ch.isascii() and ch.isalnum()) or ch in "._-"
                               for ch in self.tenant)):
                raise SpecValidationError(
                    "tenant",
                    f"must be 1-64 characters of [A-Za-z0-9._-] not starting "
                    f"with '.', got {self.tenant!r}",
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any], *,
                  source: str = "release spec") -> "ReleaseSpec":
        """Build a spec from a (possibly legacy) plain dictionary.

        Canonical dicts carry ``"spec_version": 1``; in them, unknown keys
        raise a :class:`SpecValidationError` naming the key.  Un-versioned
        flat dicts — the pre-API ``repro run`` config format — are accepted
        with a :class:`DeprecationWarning` and keep the old reader's
        permissiveness: extra keys are ignored, an ``edges`` input wins over
        ``dataset``/``scale``, and a config naming no input gets the old CLI
        default (``dataset="lastfm"``).  In both forms a
        ``"rewire_equivalence"`` key is read before anything else: ``"exact"``
        is dropped, any other value raises (see the module doc).
        """
        if not isinstance(mapping, Mapping):
            raise SpecValidationError(
                "spec", f"{source} must be a JSON object, got "
                        f"{type(mapping).__name__}"
            )
        data = dict(mapping)
        version = data.pop("spec_version", None)
        if version is not None and version != SPEC_VERSION:
            raise SpecValidationError(
                "spec_version",
                f"unsupported spec_version {version!r}; this build reads "
                f"version {SPEC_VERSION}",
            )
        # Checked before the legacy reader drops unknown keys, so an old
        # distributional spec cannot silently sample under exact rewiring.
        rewiring = data.pop("rewire_equivalence", "exact")
        if rewiring != "exact":
            raise SpecValidationError(
                "rewire_equivalence",
                "the distributional rewiring engine was removed; only "
                f"'exact' is accepted, got {rewiring!r}",
            )
        known = {spec_field.name for spec_field in fields(cls)}
        if version is None:
            warnings.warn(
                "un-versioned dict-style run configs are deprecated; add "
                f'"spec_version": {SPEC_VERSION} and validate through '
                "repro.api.ReleaseSpec (ReleaseSpec.to_json() writes the "
                "canonical format)",
                DeprecationWarning, stacklevel=2,
            )
            # Replicate what the old config reader tolerated: an 'edges'
            # input wins over dataset/scale, extra keys are ignored, and a
            # config naming no input falls back to the old CLI default.
            if data.get("edges"):
                data.pop("dataset", None)
                data.pop("scale", None)
            else:
                data.pop("edges", None)  # tolerate an explicit null/empty
                data.pop("attributes", None)
                data.setdefault("dataset", _LEGACY_DEFAULT_DATASET)
            data = {key: value for key, value in data.items() if key in known}
        for key in data:
            if key not in known:
                raise SpecValidationError(
                    key,
                    f"unknown field in {source} (expected one of: "
                    f"{', '.join(sorted(known))})",
                )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str, *, source: str = "release spec"
                  ) -> "ReleaseSpec":
        """Parse a spec from a JSON document string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError("spec", f"invalid JSON in {source}: {exc}"
                                      ) from None
        return cls.from_dict(payload, source=source)

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "ReleaseSpec":
        """Load a spec from a JSON file on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read(), source=str(path))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON-serialisable form (``None`` fields omitted)."""
        data: Dict[str, Any] = {"spec_version": SPEC_VERSION}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value is None:
                continue
            if isinstance(value, BudgetSplit):
                value = dataclasses.asdict(value)
            data[spec_field.name] = value
        return data

    def to_json(self, indent: int = 2) -> str:
        """Render the canonical JSON form."""
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "ReleaseSpec":
        """A copy with the non-``None`` overrides applied (and re-validated).

        This is the single merge point for everything that layers settings on
        top of a config file — the CLI's ``--trials/--workers/--output``
        flags and the service both resolve precedence here, so an explicit
        override always beats the spec's stored value.
        """
        known = {spec_field.name for spec_field in fields(self)}
        changes = {}
        for key, value in overrides.items():
            if key not in known:
                raise SpecValidationError(
                    key, f"unknown field (cannot override; expected one of: "
                         f"{', '.join(sorted(known))})"
                )
            if value is not None:
                changes[key] = value
        if not changes:
            return self
        return dataclasses.replace(self, **changes)

    def fit_fingerprint(self) -> Dict[str, Any]:
        """The fields that determine a fitted model.

        Run-control knobs (``trials``, ``workers``, ``output``, ``samples``,
        ``tenant``, ``memory_budget_mb``) are excluded: two specs that
        differ only in how many evaluation trials to run, where to write
        results, which tenant is billed, or under what memory budget
        generation runs share one fitted artifact.

        File-based inputs are fingerprinted by *path*, not content: mutating
        an ``edges``/``attributes`` file under a running service would make
        its cache serve artifacts fitted on the old contents.  Write new
        data to a new path (or restart the service) instead.
        """
        split = (dataclasses.asdict(self.budget_split)
                 if self.budget_split is not None else None)
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "edges": self.edges,
            "attributes": self.attributes,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "backend": self.backend,
            "budget_split": split,
            "truncation_k": self.truncation_k,
            "num_iterations": self.num_iterations,
            "handle_orphans": self.handle_orphans,
            # Rewiring has one engine, so this entry is a constant.  It
            # stays because dropping it would change every spec_hash:
            # artifact ids and stored releases are keyed by the hash, and a
            # new one would refit each release and spend its ε again.
            "rewire_equivalence": "exact",
        }

    @property
    def spec_hash(self) -> str:
        """Stable hash of the fit-relevant fields (the artifact cache key)."""
        payload = json.dumps(self.fit_fingerprint(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def describe_input(self) -> Dict[str, Any]:
        """A manifest-friendly description of the input source."""
        if self.edges is not None:
            return {"edges": self.edges, "attributes": self.attributes}
        return {"dataset": self.dataset, "scale": self.scale}

    def load_graph(self) -> AttributedGraph:
        """Materialise the input graph the spec describes."""
        if self.edges is not None:
            graph, _mapping = load_attributed_graph(self.edges, self.attributes)
            return graph
        return load_dataset(self.dataset, scale=self.scale, seed=self.seed)

    @property
    def is_private(self) -> bool:
        """Whether the spec describes a differentially private release."""
        return self.epsilon is not None

    def pipeline(self) -> SynthesisPipeline:
        """The synthesis pipeline this spec describes.

        :meth:`ReleaseSession.fit` runs its fit half;
        :meth:`ReleaseSession.evaluate` hands it to the Monte-Carlo runner.
        """
        return SynthesisPipeline(
            epsilon=self.epsilon,
            backend=self.backend,
            truncation_k=self.truncation_k,
            budget_split=self.budget_split,
            num_iterations=self.num_iterations,
            handle_orphans=self.handle_orphans,
            memory_budget_mb=self.memory_budget_mb,
            samples=self.samples,
        )
