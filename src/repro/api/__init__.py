"""The public API of the synthesis workflow: spec in, artifact out, samples free.

Three typed objects replace the ad-hoc entry points the library grew up with
(JSON run-config dicts, facade keyword soup, raw pipeline construction):

* :class:`ReleaseSpec` — a frozen, schema-validated description of *what* to
  release (input, ε, backend, budget split, generation knobs), with
  ``from_json``/``to_json`` and error messages that name the offending field;
* :class:`ModelArtifact` — a versioned, persistable fitted model: AGM-DP
  parameters + privacy-accountant ledger + fit manifest, with a
  ``save``/``load`` round-trip that samples bit-identically to the in-memory
  model;
* :class:`ReleaseSession` — the facade: ``fit(spec) -> artifact``,
  ``sample(artifact, n, seed)``, ``evaluate(spec)``.  Fit once, sample many
  — sampling is post-processing and spends no additional ε.

The CLI, the Monte-Carlo runner, the examples and the HTTP service
(:mod:`repro.service`) are all thin clients of this package.

>>> from repro.api import ReleaseSpec, ReleaseSession
>>> spec = ReleaseSpec(dataset="lastfm", scale=0.1, epsilon=1.0, seed=7)
>>> session = ReleaseSession()
>>> artifact = session.fit(spec)               # spends epsilon, once
>>> graphs = session.sample(artifact, count=5, seed=11)   # free
"""

from repro.api.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    ArtifactFormatError,
    ModelArtifact,
)
from repro.api.session import ReleaseSession
from repro.api.spec import SPEC_VERSION, ReleaseSpec, SpecValidationError
from repro.api.store import ArtifactStore

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactStore",
    "ModelArtifact",
    "ReleaseSession",
    "ReleaseSpec",
    "SPEC_VERSION",
    "SpecValidationError",
]
