"""Nightly tier of the calibration non-inferiority gate: pokec-0.1.

The same paired test as ``tests/core/test_calibration_noninferiority.py``
(design fixed in :mod:`repro.testing.fidelity`), at the scale where
TriCycLe's rewiring visibly shifts the edge mix away from the closed-form
expectation, so only refinement rounds can bring it back.  About 10
minutes for TriCycLe and 1 for FCL on 2 cores.  Prints every verdict::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_calibration_noninferiority.py
"""

import pytest

from repro.core.agm import AgmSynthesizer
from repro.testing import fidelity
from repro.testing.reference import LoopCalibratedSynthesizer

SCALE = 0.1


@pytest.mark.parametrize("backend", ["fcl", "tricycle"])
def test_closed_form_is_noninferior_at_pokec_0_1(backend):
    original, artifact = fidelity.release_inputs(SCALE, backend)
    reference = fidelity.ensemble_metrics(
        fidelity.contract(LoopCalibratedSynthesizer, artifact), original
    )
    candidate = fidelity.ensemble_metrics(
        fidelity.contract(AgmSynthesizer, artifact), original
    )
    verdicts = fidelity.noninferiority(reference, candidate)
    print(f"\n=== calibration non-inferiority, pokec-{SCALE}, {backend} ===")
    print(fidelity.report(verdicts))
    assert not fidelity.failures(verdicts), fidelity.report(verdicts)
