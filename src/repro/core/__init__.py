"""The paper's primary contribution: AGM and its differentially private adaptation.

* :mod:`repro.core.acceptance` — the accept/reject machinery that couples a
  structural model with the target attribute–edge correlations.
* :mod:`repro.core.agm` — the (non-private) Attributed Graph Model synthesis
  loop of Pfeiffer et al., restructured as in Section 4 so the acceptance
  probabilities are applied inside the structural model's sampler.
* :mod:`repro.core.agm_dp` — AGM-DP (Algorithm 3): the end-to-end
  differentially private workflow, with explicit privacy accounting.
* :mod:`repro.core.registry` — the pluggable structural-backend registry
  (``"tricycle"`` / ``"fcl"`` plus any plugin registered at runtime).
* :mod:`repro.core.pipeline` — the staged synthesis engine
  (estimate → fit → generate → postprocess → evaluate) with per-stage
  timing, per-stage random streams and a serializable run manifest.
"""

from repro.core.acceptance import compute_acceptance_probabilities
from repro.core.agm import AgmParameters, AgmSynthesizer, learn_agm
from repro.core.agm_dp import BudgetSplit, learn_agm_dp
from repro.core.pipeline import (
    PipelineResult,
    PipelineStage,
    RunManifest,
    SynthesisPipeline,
    register_stage,
)
from repro.core.registry import (
    StructuralBackend,
    backend_names,
    get_backend,
    register_backend,
)

__all__ = [
    "compute_acceptance_probabilities",
    "AgmParameters",
    "AgmSynthesizer",
    "learn_agm",
    "BudgetSplit",
    "learn_agm_dp",
    "SynthesisPipeline",
    "PipelineResult",
    "PipelineStage",
    "RunManifest",
    "register_stage",
    "StructuralBackend",
    "register_backend",
    "get_backend",
    "backend_names",
]
