"""The accepted-pair Chung-Lu sampler against the rejection oracle.

With an acceptance vector ``A``, :class:`~repro.models.chung_lu.ChungLuModel`
draws the π×π proposals ``A`` accepts straight from their law
``P(u, v) ∝ π_u · A(c_u, c_v) · π_v``; the per-proposal coin it replaced
lives on as :class:`~repro.testing.reference.RejectionChungLuModel`.  The
contract: the edge-set distribution is the oracle's, only the RNG stream
moved, and generation without ``A`` is bit-identical.

* the helper's law is checked exactly against brute force at ``n <= 5``;
* ensembles are compared per node pair (inclusion frequency), per edge
  configuration (mean edge count) and on the spread of the edge count at
  ``w`` in {1, 2, 3}, with and without ``exclude_degree_one``, and the
  same comparison must reject a candidate that ignores ``A``;
* the edge cases: ``ρ = 0``, ``ρ`` rounding above one, codes with no nodes
  or no π mass, and accepted mass only on self-loops.
"""

from statistics import NormalDist
from typing import List

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.models.chung_lu as chung_lu
from repro.attributes.encoding import EdgeConfigurationEncoder
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import (
    ChungLuModel,
    _AcceptedPairs,
    _pi_weights,
    build_pi_distribution,
)
from repro.testing.reference import RejectionChungLuModel

# ----------------------------------------------------------------------
# Ensemble design, fixed before any comparison was run: 60 nodes, 1 500
# generations per side on disjoint seed ranges, and a family-wise
# false-alarm rate of 1e-3 per comparison, split by Bonferroni over every
# pair and configuration statistic it computes.
# ----------------------------------------------------------------------
ENSEMBLE = 1500
CANDIDATE_SEEDS = range(0, ENSEMBLE)
ORACLE_SEEDS = range(10_000, 10_000 + ENSEMBLE)
FALSE_ALARM = 1e-3

#: 60 nodes: 20 of degree one (excluded under ``exclude_degree_one``), a
#: skewed tail up to 21, 99 edges.
DEGREES = np.array(
    [1] * 20 + [2] * 12 + [3] * 10 + [4] * 8 + [6] * 5 + [9] * 3 + [14, 21],
    dtype=np.int64,
)


def _acceptance(w: int) -> EdgeAcceptance:
    """A seeded acceptance vector over ``DEGREES``' nodes.

    At ``w = 3`` the last code has no nodes and the one before it holds
    only degree-one nodes, so under ``exclude_degree_one`` it has no π
    mass.
    """
    rng = np.random.default_rng(100 + w)
    q = 1 << w
    size = EdgeConfigurationEncoder(w).num_configurations
    probabilities = rng.uniform(0.05, 1.0, size)
    probabilities[rng.integers(size)] = 1.0
    if w == 3:
        codes = rng.integers(0, q - 2, DEGREES.size)
        codes[:5] = q - 2
    else:
        codes = rng.integers(0, q, DEGREES.size)
    return EdgeAcceptance(probabilities, codes, w)


def _ensemble(model: ChungLuModel, acceptance: EdgeAcceptance,
              seeds: range, apply_acceptance: bool = True):
    """Per-pair inclusion counts and per-generation configuration counts."""
    n = DEGREES.size
    encoder = EdgeConfigurationEncoder(acceptance.num_attributes)
    codes = acceptance.node_codes
    pairs = np.zeros(n * n, dtype=np.int64)
    configurations = np.zeros((len(seeds), encoder.num_configurations))
    for row, seed in enumerate(seeds):
        graph = model.generate(
            rng=seed, acceptance=acceptance if apply_acceptance else None
        )
        us, vs = graph.edge_arrays()
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        pairs += np.bincount(us * n + vs, minlength=n * n)
        configurations[row] = np.bincount(
            encoder.encode_codes_array(codes[us], codes[vs]),
            minlength=encoder.num_configurations,
        )
    return pairs, configurations


def _discrepancies(candidate, oracle) -> List[str]:
    """The statistics whose two-sided z exceeds the Bonferroni threshold.

    Pairs: two-proportion z with pooled variance, over every pair either
    side ever produced (a pair both sides always or never produce carries
    no information).  Configurations: Welch z on the mean edge count.
    Edge count: the log ratio of the per-generation variances (normal
    theory), which the means above cannot see; zero for cFCL, whose count
    is the target.
    """
    size = len(CANDIDATE_SEEDS)
    pair_c, config_c = candidate
    pair_o, config_o = oracle
    pooled = (pair_c + pair_o) / (2 * size)
    informative = (pooled > 0) & (pooled < 1)
    pair_z = (pair_c - pair_o)[informative] / size / np.sqrt(
        pooled[informative] * (1 - pooled[informative]) * 2 / size
    )
    spread = np.sqrt(
        config_c.var(axis=0, ddof=1) / size
        + config_o.var(axis=0, ddof=1) / size
    )
    shift = config_c.mean(axis=0) - config_o.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        config_z = np.where(spread > 0, shift / spread,
                            np.where(shift == 0, 0.0, np.inf))
    var_c = config_c.sum(axis=1).var(ddof=1)
    var_o = config_o.sum(axis=1).var(ddof=1)
    if var_c > 0 and var_o > 0:
        spread_z = np.log(var_c / var_o) / np.sqrt(4 / (size - 1))
    else:
        spread_z = 0.0 if var_c == var_o else np.inf
    tests = pair_z.size + config_z.size + 1
    threshold = NormalDist().inv_cdf(1 - FALSE_ALARM / (2 * tests))
    pairs = np.flatnonzero(informative)
    found = [f"pair {divmod(int(key), DEGREES.size)}: z = {z:.2f}"
             for key, z in zip(pairs, pair_z) if abs(z) > threshold]
    found += [f"configuration {index}: z = {z:.2f}"
              for index, z in enumerate(config_z) if abs(z) > threshold]
    if abs(spread_z) > threshold:
        found.append(f"edge-count variance: z = {spread_z:.2f}")
    return found


_ORACLE_ENSEMBLES = {}


def _oracle_ensemble(w: int, exclude: bool):
    key = (w, exclude)
    if key not in _ORACLE_ENSEMBLES:
        oracle = RejectionChungLuModel(DEGREES, exclude_degree_one=exclude)
        _ORACLE_ENSEMBLES[key] = _ensemble(oracle, _acceptance(w),
                                           ORACLE_SEEDS)
    return _ORACLE_ENSEMBLES[key]


class TestDistributionAgainstOracle:
    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_corrected_matches_rejection(self, w, exclude):
        model = ChungLuModel(DEGREES, exclude_degree_one=exclude)
        candidate = _ensemble(model, _acceptance(w), CANDIDATE_SEEDS)
        assert _discrepancies(candidate, _oracle_ensemble(w, exclude)) == []

    def test_positive_control_ignoring_acceptance_fails(self):
        """The comparison has power: a sampler that ignores ``A`` fails."""
        model = ChungLuModel(DEGREES)
        candidate = _ensemble(model, _acceptance(2), CANDIDATE_SEEDS,
                              apply_acceptance=False)
        assert _discrepancies(candidate, _oracle_ensemble(2, False))


# ----------------------------------------------------------------------
# The helper's law, exactly
# ----------------------------------------------------------------------
@st.composite
def tiny_cases(draw):
    """``n <= 5`` nodes, ``w`` in 0..3, acceptance entries including 0 and 1."""
    n = draw(st.integers(1, 5))
    w = draw(st.integers(0, 3))
    degrees = np.array(draw(st.lists(st.integers(0, 6), min_size=n,
                                     max_size=n)), dtype=np.int64)
    codes = np.array(draw(st.lists(st.integers(0, (1 << w) - 1),
                                   min_size=n, max_size=n)), dtype=np.int64)
    size = EdgeConfigurationEncoder(w).num_configurations
    probabilities = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-6, 1.0)),
        min_size=size, max_size=size,
    )))
    exclude = draw(st.booleans())
    return degrees, EdgeAcceptance(probabilities, codes, w), exclude


class TestExactLaw:
    @settings(max_examples=150, deadline=None)
    @given(tiny_cases())
    def test_code_pair_and_endpoint_law_equal_brute_force(self, case):
        degrees, acceptance, exclude = case
        weights = _pi_weights(degrees, exclude)
        assume(weights.sum() > 0)
        pi = build_pi_distribution(degrees, exclude_degree_one=exclude)
        codes = acceptance.node_codes
        q = acceptance.matrix.shape[0]

        # Brute force over all ordered (u, v), self-loops included.
        brute = pi[:, None] * pi[None, :] \
            * acceptance.matrix[codes[:, None], codes[None, :]]
        rho = brute.sum()
        brute_cells = np.zeros((q, q))
        np.add.at(brute_cells, (codes[:, None], codes[None, :]), brute)

        pairs = _AcceptedPairs(weights, acceptance)
        assert pairs.rate == pytest.approx(min(rho, 1.0), rel=1e-12, abs=0)
        if rho == 0:
            return
        cells = pairs._cells.reshape(q, q)
        np.testing.assert_allclose(cells, brute_cells / rho, rtol=1e-12,
                                   atol=1e-15)
        # The endpoint law: a uniform stub of the code, i.e. π restricted
        # to it.  Together with the cells this is the whole pair law.
        stub_counts = np.bincount(pairs._stubs, minlength=degrees.size)
        code_stubs = np.bincount(codes, weights=stub_counts, minlength=q)
        with np.errstate(divide="ignore", invalid="ignore"):
            within = np.where(code_stubs[codes] > 0,
                              stub_counts / code_stubs[codes], 0.0)
        law = cells[codes[:, None], codes[None, :]] \
            * within[:, None] * within[None, :]
        np.testing.assert_allclose(law, brute / rho, rtol=1e-12, atol=1e-15)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class _CountingModel(ChungLuModel):
    """Records the proposals and rows of every round."""

    def _pair_source(self, acceptance):
        source = super()._pair_source(acceptance)
        self.proposals = []
        self.draws = []
        rows, draw = source.rows, source.draw

        def counted_rows(proposals, generator):
            self.proposals.append(proposals)
            return rows(proposals, generator)

        def counted_draw(count, generator):
            self.draws.append(count)
            return draw(count, generator)

        source.rows, source.draw = counted_rows, counted_draw
        return source


class TestEdgeCases:
    degrees = np.array([3, 3, 2, 2, 2, 4, 1, 1], dtype=np.int64)

    def _acceptance(self, probabilities, codes, w=1):
        return EdgeAcceptance(np.asarray(probabilities, dtype=float),
                              np.asarray(codes, dtype=np.int64), w)

    def test_zero_acceptance_spends_every_attempt_and_adds_nothing(
            self, monkeypatch):
        monkeypatch.setattr(chung_lu, "_MAX_ATTEMPT_FACTOR", 7)
        acceptance = self._acceptance([0.0, 0.0, 0.0], [0, 1] * 4)
        model = _CountingModel(self.degrees)
        graph = model.generate(rng=3, acceptance=acceptance)
        oracle = RejectionChungLuModel(self.degrees).generate(
            rng=3, acceptance=acceptance)
        assert graph.num_edges == oracle.num_edges == 0
        assert sum(model.proposals) == 7 * model.effective_target_edges()
        assert model.draws == []

    def test_vanishing_rate_spends_every_attempt(self, monkeypatch):
        # ρ ~ 2e-307: the proposals a round would need overflow a float.
        monkeypatch.setattr(chung_lu, "_MAX_ATTEMPT_FACTOR", 7)
        acceptance = self._acceptance([1e-306, 0.0, 0.0], [0, 1] * 4)
        model = _CountingModel(self.degrees)
        graph = model.generate(rng=3, acceptance=acceptance)
        assert graph.num_edges == 0
        assert model.proposals == [7 * model.effective_target_edges()]

    def test_rate_rounding_above_one_is_clamped(self):
        # Σ M for A = 1 sums to 1 + 2^-52 in floating point here.
        degrees = np.array([5, 3, 7, 5, 6, 3, 4, 8], dtype=np.int64)
        codes = np.array([1, 0, 0, 1, 1, 1, 0, 1], dtype=np.int64)
        mass = np.bincount(codes, weights=degrees, minlength=2) \
            / degrees.sum()
        assert (mass[:, None] * np.ones((2, 2)) * mass[None, :]).sum() > 1.0
        acceptance = self._acceptance([1.0, 1.0, 1.0], codes)
        assert _AcceptedPairs(degrees.astype(float), acceptance).rate == 1.0
        graph = ChungLuModel(degrees).generate(rng=0, acceptance=acceptance)
        assert 0 < graph.num_edges <= degrees.sum() // 2

    def test_empty_and_massless_codes_never_supply_endpoints(self):
        # w = 2: code 3 has no nodes; code 2 holds the degree-one nodes
        # only, so it has no π mass under exclude_degree_one.
        codes = [0, 1, 0, 1, 0, 1, 2, 2]
        acceptance = self._acceptance(np.linspace(0.2, 1.0, 10), codes, w=2)
        model = ChungLuModel(self.degrees, exclude_degree_one=True)
        for seed in range(50):
            graph = model.generate(rng=seed, acceptance=acceptance)
            us, vs = graph.edge_arrays()
            assert graph.num_edges == model.effective_target_edges()
            assert not np.isin(np.concatenate((us, vs)), [6, 7]).any()

    def test_mass_only_on_self_loops_stops_at_max_attempts(self,
                                                          monkeypatch):
        # Only configuration {0, 0} is accepted and node 0 alone has code 0:
        # every accepted pair is the self-loop (0, 0).
        monkeypatch.setattr(chung_lu, "_MAX_ATTEMPT_FACTOR", 200)
        acceptance = self._acceptance([1.0, 0.0, 0.0], [0] + [1] * 7)
        model = _CountingModel(self.degrees)
        graph = model.generate(rng=5, acceptance=acceptance)
        assert graph.num_edges == 0
        assert sum(model.proposals) == 200 * model.effective_target_edges()
        assert sum(model.draws) > 0


class TestAcceptanceValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected_by_configuration(self, bad):
        with pytest.raises(ValueError,
                           match=r"configuration 0 \(node codes \(0, 0\)\)"):
            EdgeAcceptance(np.array([bad, 1.0, 1.0]), np.array([0, 1]), 1)

    def test_matrix_is_symmetric_and_indexes_the_same_floats(self):
        rng = np.random.default_rng(4)
        probabilities = rng.random(10)
        codes = rng.integers(0, 4, 30)
        acceptance = EdgeAcceptance(probabilities, codes, 2)
        encoder = EdgeConfigurationEncoder(2)
        matrix = acceptance.matrix
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.flags.writeable
        us, vs = rng.integers(0, 30, 200), rng.integers(0, 30, 200)
        expected = probabilities[
            encoder.encode_codes_array(codes[us], codes[vs])
        ]
        assert np.array_equal(acceptance.pair_probabilities(us, vs), expected)
        assert acceptance.probability(3, 7) == probabilities[
            encoder.encode_codes(int(codes[3]), int(codes[7]))
        ]
