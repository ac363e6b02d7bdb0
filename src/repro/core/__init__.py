"""The paper's primary contribution: AGM and its differentially private adaptation.

* :mod:`repro.core.acceptance` — the accept/reject machinery that couples a
  structural model with the target attribute–edge correlations.
* :mod:`repro.core.agm` — the (non-private) Attributed Graph Model synthesis
  loop of Pfeiffer et al., restructured as in Section 4 so the acceptance
  probabilities are applied inside the structural model's sampler.
* :mod:`repro.core.agm_dp` — AGM-DP (Algorithm 3): the end-to-end
  differentially private workflow, with explicit privacy accounting.
* :mod:`repro.core.backends` — the two structural backends, ``"tricycle"``
  (AGMDP-TriCL) and ``"fcl"`` (AGMDP-FCL): their labels, parameter types,
  fitters and models.
* :mod:`repro.core.pipeline` — the synthesis engine, one fixed order
  (estimate → fit → generate → evaluate) with per-stage timing, per-stage
  random streams and a serializable run manifest.
"""

from repro.core.acceptance import compute_acceptance_probabilities
from repro.core.agm import AgmParameters, AgmSynthesizer, learn_agm
from repro.core.agm_dp import DEFAULT_BUDGET_SPLIT, BudgetSplit, learn_agm_dp
from repro.core.backends import BACKENDS
from repro.core.pipeline import (
    PipelineResult,
    RunManifest,
    SynthesisPipeline,
)

__all__ = [
    "compute_acceptance_probabilities",
    "AgmParameters",
    "AgmSynthesizer",
    "learn_agm",
    "BudgetSplit",
    "DEFAULT_BUDGET_SPLIT",
    "learn_agm_dp",
    "BACKENDS",
    "SynthesisPipeline",
    "PipelineResult",
    "RunManifest",
]
