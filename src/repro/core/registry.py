"""Registry of pluggable structural backends.

The paper evaluates two structural models — TriCycLe (AGMDP-TriCL) and the
fast Chung-Lu model (AGMDP-FCL) — and earlier revisions of this code base
dispatched between them with hardcoded ``"tricycle"`` / ``"fcl"`` string
comparisons spread across the synthesis workflow.  This module replaces
those branches with a declarative registry: a structural backend announces

* its registry ``name`` and the paper-style ``label`` suffix used in result
  tables (``TriCL``, ``FCL``);
* the type of its fitted parameter object;
* the named privacy-budget stages its DP fitter consumes
  (``("degrees", "triangles")`` for TriCycLe, ``("degrees",)`` for FCL);
* the paper's default global budget split for the backend (the keyword
  arguments of :class:`repro.core.agm_dp.BudgetSplit`);
* how to fit its parameters exactly and under ε-DP, and how to build a
  generative :class:`~repro.models.base.StructuralModel` from them.

New backends register themselves with the :func:`register_backend`
decorator and are immediately usable everywhere a backend name is accepted
— ``learn_agm``, ``learn_agm_dp``, :class:`~repro.core.pipeline.SynthesisPipeline`,
the experiment runner and the CLI — without touching core code:

>>> @register_backend
... class ErdosRenyiBackend(StructuralBackend):
...     name = "er"
...     label = "ER"
...     ...

The built-in backends live in :mod:`repro.core.backends`, which is imported
lazily on first registry access so plain ``import repro.core.registry``
stays cycle-free.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Tuple, Type, TypeVar

from repro.graphs.attributed import AttributedGraph
from repro.models.base import StructuralModel
from repro.privacy.accountant import EpsilonLike
from repro.utils.rng import RngLike


class StructuralBackend(abc.ABC):
    """One pluggable structural model: fitting, DP fitting, generation.

    Subclasses define the class attributes below and implement the three
    abstract methods; registering the class makes the backend available
    throughout the synthesis workflow under :attr:`name`.
    """

    #: Registry key (``"tricycle"``, ``"fcl"``, ...).
    name: str = ""
    #: Paper-style model suffix used in table labels (``"TriCL"``, ``"FCL"``).
    label: str = ""
    #: Type of the fitted parameter object (used for validation).
    parameter_type: type = object
    #: Named sub-stages the DP fitter divides its budget among, in spend order.
    budget_stages: Tuple[str, ...] = ()
    #: Keyword arguments of the paper's default ``BudgetSplit`` for this backend.
    default_split: Mapping[str, float] = {}

    @abc.abstractmethod
    def fit(self, graph: AttributedGraph):
        """Measure the backend's structural parameters Θ_M exactly."""

    @abc.abstractmethod
    def fit_dp(self, graph: AttributedGraph, epsilon: EpsilonLike,
               rng: RngLike = None, **options):
        """ε-DP estimate of Θ_M.

        ``epsilon`` is either a plain float (the caller handles composition)
        or a :class:`~repro.privacy.accountant.SubBudget`, in which case the
        fitter splits it across :attr:`budget_stages` and every spend lands
        in the owning accountant's ledger.  Backend-specific knobs (e.g.
        TriCycLe's ``degree_fraction``) arrive as keyword options; fitters
        must ignore options they do not understand.
        """

    @abc.abstractmethod
    def build_model(self, parameters, handle_orphans: bool = True,
                    **options) -> StructuralModel:
        """Instantiate a generative model from fitted parameters.

        Generation options arrive as keyword options — the synthesizer
        passes ``rewire_equivalence`` and ``memory_budget_mb`` — and
        builders must ignore options they do not understand.
        """

    def validate_parameters(self, parameters) -> None:
        """Raise ``TypeError`` when ``parameters`` do not fit this backend."""
        if not isinstance(parameters, self.parameter_type):
            raise TypeError(
                f"the {self.name!r} backend requires "
                f"{self.parameter_type.__name__} "
                f"(got {type(parameters).__name__})"
            )


_BACKENDS: Dict[str, StructuralBackend] = {}

_B = TypeVar("_B", bound=Type[StructuralBackend])


def register_backend(cls: _B) -> _B:
    """Class decorator: instantiate and register a :class:`StructuralBackend`.

    The class must define a non-empty :attr:`StructuralBackend.name`;
    registering a second backend under an existing name raises — plugins
    must pick fresh names rather than silently shadowing built-ins.
    """
    if not issubclass(cls, StructuralBackend):
        raise TypeError(
            f"@register_backend expects a StructuralBackend subclass, got {cls!r}"
        )
    backend = cls()
    if not backend.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    if backend.name in _BACKENDS:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend
    return cls


def _ensure_builtin_backends() -> None:
    """Import the built-in backend registrations exactly once."""
    if "tricycle" not in _BACKENDS:
        from repro.core import backends  # noqa: F401  (import-time registration)


def get_backend(name: str) -> StructuralBackend:
    """Look up a registered backend; raises ``ValueError`` for unknown names."""
    _ensure_builtin_backends()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"backend must be one of {backend_names()}, got {name!r}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    _ensure_builtin_backends()
    return tuple(_BACKENDS)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (intended for tests of the plugin API)."""
    _ensure_builtin_backends()
    if name not in _BACKENDS:
        raise ValueError(f"backend {name!r} is not registered")
    del _BACKENDS[name]
