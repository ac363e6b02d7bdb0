"""The closed-form first Θ'_F is non-inferior to the loop it replaced.

Paired ensembles at pokec-0.004 under the fixed design of
:mod:`repro.testing.fidelity`: the production sampler against
:class:`~repro.testing.reference.LoopCalibratedSynthesizer`, for both
backends.  Two controls on FCL show that the gate can pass and can fail:
the reference passes against itself on fresh seeds, and a sampler that
skips calibration fails on the private-Θ_F metric.  The nightly tier runs
the same gate at pokec-0.1 (``benchmarks/bench_calibration_noninferiority.py``).
"""

import numpy as np
import pytest

from repro.core.agm import AgmSynthesizer
from repro.testing import fidelity
from repro.testing.reference import LoopCalibratedSynthesizer
from repro.utils.rng import ensure_rng

SCALE = 0.004


class _Uncalibrated(AgmSynthesizer):
    """A ≡ 1: the structural sample with the sample's attributes attached."""

    def sample(self, rng=None):
        generator = ensure_rng(rng)
        params = self.parameters
        attributes = params.attribute_distribution.sample_attribute_matrix(
            params.num_nodes, rng=generator
        )
        graph = self._build_model().generate(num_nodes=params.num_nodes,
                                             rng=generator)
        return self._with_attributes(graph, attributes)


@pytest.fixture(scope="module")
def release(request):
    return fidelity.release_inputs(SCALE, request.param)


@pytest.fixture(scope="module")
def reference_ensemble(release):
    original, artifact = release
    return fidelity.ensemble_metrics(
        fidelity.contract(LoopCalibratedSynthesizer, artifact), original
    )


def _verdicts(release, reference_ensemble, candidate_type, seeds=fidelity.SEEDS):
    original, artifact = release
    candidate = fidelity.ensemble_metrics(
        fidelity.contract(candidate_type, artifact), original, seeds
    )
    return fidelity.noninferiority(reference_ensemble, candidate)


@pytest.mark.parametrize("release", ["fcl", "tricycle"], indirect=True)
def test_closed_form_is_noninferior(release, reference_ensemble):
    verdicts = _verdicts(release, reference_ensemble, AgmSynthesizer)
    assert not fidelity.failures(verdicts), fidelity.report(verdicts)


@pytest.mark.parametrize("release", ["fcl"], indirect=True)
def test_control_reference_passes_against_itself_on_fresh_seeds(
        release, reference_ensemble):
    fresh = range(fidelity.ENSEMBLE_SIZE, 2 * fidelity.ENSEMBLE_SIZE)
    verdicts = _verdicts(release, reference_ensemble,
                         LoopCalibratedSynthesizer, fresh)
    assert not fidelity.failures(verdicts), fidelity.report(verdicts)


@pytest.mark.parametrize("release", ["fcl"], indirect=True)
def test_control_uncalibrated_sampler_fails_on_private_theta_f(
        release, reference_ensemble):
    verdicts = _verdicts(release, reference_ensemble, _Uncalibrated)
    assert "private_theta_f_hellinger" in fidelity.failures(verdicts), \
        fidelity.report(verdicts)


def test_verdicts_follow_the_fixed_rule():
    rng = np.random.default_rng(0)
    reference = rng.normal(size=(fidelity.ENSEMBLE_SIZE, len(fidelity.METRICS)))
    constant = fidelity.METRICS.index("edge_count_mre")
    reference[:, constant] = 0.1
    assert not fidelity.failures(fidelity.noninferiority(reference, reference))

    candidate = reference.copy()
    margins = reference.std(axis=0, ddof=1)
    # Column 0 is worse by a little more than its margin; column 1 better by
    # far; column 2 is no worse on average, but its differences are so
    # noisy that the upper bound exceeds the margin; column 3 is worse by
    # less than half its margin.  Any change to a constant column fails.
    candidate[:, 0] += 1.01 * margins[0]
    candidate[:, 1] -= 5.0
    candidate[:, 2] += np.resize([5.0, -5.0], fidelity.ENSEMBLE_SIZE) \
        * margins[2]
    candidate[:, 3] += 0.4 * margins[3]
    candidate[7, constant] = np.nextafter(0.1, 1.0)
    verdicts = fidelity.noninferiority(reference, candidate)
    assert fidelity.failures(verdicts) == [
        fidelity.METRICS[0], fidelity.METRICS[2], "edge_count_mre"
    ]
    assert verdicts[2].mean_difference == pytest.approx(0.0, abs=1e-12)
    assert verdicts[2].bound == pytest.approx(
        1.685 * 5.0 * margins[2] * np.sqrt(40 / 39) / np.sqrt(40)
    )
    assert "FAIL edge_count_mre" in fidelity.report(verdicts)

    with pytest.raises(ValueError, match="shape"):
        fidelity.noninferiority(reference[1:], candidate[1:])
