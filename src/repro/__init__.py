"""repro — differentially private synthesis of attributed social graphs.

A from-scratch reproduction of *"Publishing Attributed Social Graphs with
Formal Privacy Guarantees"* (Jorgensen, Yu & Cormode, SIGMOD 2016).  The
library provides:

* the public API (:mod:`repro.api`): :class:`~repro.api.ReleaseSpec` (a
  frozen, validated description of a release), :class:`~repro.api.ModelArtifact`
  (a versioned, persistable fitted model) and
  :class:`~repro.api.ReleaseSession` (the facade — fit once, sample many at
  zero additional privacy cost, per Theorem 2);
* an HTTP synthesis service (:mod:`repro.service`, ``python -m repro serve``)
  with an artifact cache keyed by spec hash;
* the TriCycLe structural model and the Chung-Lu / TCL baselines;
* all DP building blocks (edge truncation, smooth sensitivity,
  sample-and-aggregate, constrained inference, the Ladder framework);
* synthetic stand-ins for the paper's four evaluation datasets and the
  experiment drivers that regenerate every table and figure.

Quickstart
----------
>>> from repro import ReleaseSpec, ReleaseSession
>>> spec = ReleaseSpec(dataset="lastfm", scale=0.1, epsilon=1.0, seed=7)
>>> session = ReleaseSession()
>>> artifact = session.fit(spec)
>>> synthetic = session.sample(artifact, count=1, seed=7)[0]
>>> synthetic.num_nodes == spec.load_graph().num_nodes
True
"""

from repro.core.agm import AgmParameters, AgmSynthesizer, learn_agm
from repro.core.agm_dp import BudgetSplit, learn_agm_dp
from repro.datasets.registry import dataset_names, get_dataset_spec, load_dataset
from repro.datasets.synthetic import (
    attributed_social_graph,
    epinions_like,
    lastfm_like,
    petster_like,
    pokec_like,
)
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import summary
from repro.metrics.evaluation import EvaluationReport, evaluate_synthetic_graph
from repro.models.chung_lu import ChungLuModel
from repro.models.tcl import TclModel
from repro.models.tricycle import TriCycLeModel

__version__ = "1.1.0"

# The api package imports core modules, so it must come after them; keeping
# it last also keeps the lazy `import repro` inside the api layer cycle-free.
from repro.api import (  # noqa: E402
    ModelArtifact,
    ReleaseSession,
    ReleaseSpec,
    SpecValidationError,
)

__all__ = [
    "AgmParameters",
    "AgmSynthesizer",
    "AttributedGraph",
    "BudgetSplit",
    "ChungLuModel",
    "EvaluationReport",
    "ModelArtifact",
    "ReleaseSession",
    "ReleaseSpec",
    "SpecValidationError",
    "TclModel",
    "TriCycLeModel",
    "attributed_social_graph",
    "dataset_names",
    "epinions_like",
    "evaluate_synthetic_graph",
    "get_dataset_spec",
    "lastfm_like",
    "learn_agm",
    "learn_agm_dp",
    "load_dataset",
    "petster_like",
    "pokec_like",
    "summary",
    "__version__",
]
