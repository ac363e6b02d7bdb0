"""Generative structural models.

AGM needs an underlying structural model ``M`` that proposes edges; this
package provides the paper's structural models:

* :mod:`repro.models.chung_lu` — the Chung-Lu model and its fast (FCL)
  implementation with collision-aware bias correction (cFCL);
* :mod:`repro.models.tcl` — the Transitive Chung-Lu baseline, including EM
  estimation of the transitive-closure probability ρ;
* :mod:`repro.models.tricycle` — the paper's new TriCycLe model
  (Algorithm 1), which rewires a Chung-Lu seed graph until it contains a
  target number of triangles;
* :mod:`repro.models.postprocess` — the orphan-repair post-processing step
  (Algorithm 2).
"""

from repro.models.base import EdgeAcceptance, StructuralModel
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.models.tcl import TclModel, estimate_transitive_closure_probability
from repro.models.tricycle import TriCycLeModel

__all__ = [
    "StructuralModel",
    "EdgeAcceptance",
    "ChungLuModel",
    "build_pi_distribution",
    "TclModel",
    "estimate_transitive_closure_probability",
    "TriCycLeModel",
    "post_process_graph",
]
