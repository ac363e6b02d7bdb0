"""Common interface for structural models.

AGM treats the structural model as a black box that can generate an edge set
over a fresh node set, optionally filtering proposed edges through
attribute-dependent acceptance probabilities (Section 4).  Every model in
this package implements :class:`StructuralModel`; the acceptance hook is
encapsulated by :class:`EdgeAcceptance` so the models never need to know how
the probabilities were derived.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attributes.encoding import EdgeConfigurationEncoder
from repro.graphs.attributed import AttributedGraph
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class EdgeAcceptance:
    """Attribute-dependent edge acceptance probabilities.

    Wraps the acceptance vector ``A`` computed by AGM (Algorithm 3,
    lines 9-18) together with the node-configuration codes of the synthetic
    node set, so a structural model can answer "with what probability should
    a proposed edge ``{u, v}`` be accepted?" in constant time.

    Attributes
    ----------
    probabilities:
        Array indexed by edge-configuration code, finite values in
        ``[0, 1]``.
    node_codes:
        Array of length ``n`` giving the attribute-configuration code of each
        synthetic node.
    num_attributes:
        The attribute dimension ``w`` (used to build the pair encoder).
    """

    probabilities: np.ndarray
    node_codes: np.ndarray
    num_attributes: int

    def __post_init__(self) -> None:
        encoder = EdgeConfigurationEncoder(self.num_attributes)
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (encoder.num_configurations,):
            raise ValueError(
                f"probabilities must have length {encoder.num_configurations}, "
                f"got shape {probs.shape}"
            )
        non_finite = np.flatnonzero(~np.isfinite(probs))
        if non_finite.size:
            config = int(non_finite[0])
            raise ValueError(
                f"acceptance probability of edge configuration {config} "
                f"(node codes {encoder.decode(config)}) is {probs[config]}; "
                "entries must be finite"
            )
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValueError("acceptance probabilities must lie in [0, 1]")
        codes = np.asarray(self.node_codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError("node_codes must be one-dimensional")
        if codes.size and (codes.min() < 0 or codes.max() >= (1 << self.num_attributes)):
            raise ValueError("node_codes contain values outside the configuration range")
        # The symmetric q x q view over node codes: (a, b) and (b, a) both
        # read the unordered configuration {a, b}.
        q = 1 << self.num_attributes
        # int64: the encoder's a * q - a * (a - 1) // 2 wraps at narrow widths.
        rows, cols = np.divmod(np.arange(q * q, dtype=np.int64), q)
        matrix = probs[encoder.encode_codes_array(rows, cols)].reshape(q, q)
        matrix.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "node_codes", codes)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``2^w x 2^w`` acceptance matrix indexed by node codes.

        ``matrix[a, b] == matrix[b, a]`` is the probability of the unordered
        configuration ``{a, b}``: the same floats as ``probabilities``.
        """
        return object.__getattribute__(self, "_matrix")

    def probability(self, u: int, v: int) -> float:
        """Acceptance probability for the proposed edge ``{u, v}``."""
        return float(self.matrix[self.node_codes[u], self.node_codes[v]])

    def accepts(self, u: int, v: int, rng: np.random.Generator) -> bool:
        """Randomly decide whether to accept the proposed edge ``{u, v}``."""
        return rng.random() <= self.probability(u, v)

    def pair_probabilities(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized acceptance probabilities for parallel endpoint arrays."""
        codes = self.node_codes
        return self.matrix[codes[us], codes[vs]]


class StructuralModel(abc.ABC):
    """Abstract base class for generative structural models.

    A structural model owns its fitted parameters (degree sequence, triangle
    count, edge count, ...) and exposes :meth:`generate`, which produces a
    fresh synthetic graph over ``num_nodes`` nodes.  When an
    :class:`EdgeAcceptance` is supplied, proposed edges are additionally
    filtered through the attribute-dependent acceptance probabilities, which
    is how AGM couples structure with attributes.
    """

    @abc.abstractmethod
    def generate(self, num_nodes: int, rng: RngLike = None,
                 acceptance: Optional[EdgeAcceptance] = None) -> AttributedGraph:
        """Generate a synthetic graph with ``num_nodes`` nodes.

        Implementations must return a graph whose attributes are all zero;
        AGM assigns attribute vectors separately.
        """

    @abc.abstractmethod
    def pi_distribution(self) -> np.ndarray:
        """The π distribution each endpoint of an unfiltered proposal follows.

        AGM computes the first round's Θ'_F from it in closed form, so it
        must be the law by which :meth:`generate`, without an acceptance
        vector, proposes pairs (for a model that rewires a Chung-Lu seed,
        the seed's law): ordered ``π × π`` pairs, self-loops dropped.  It is
        built from the model's degree sequence, one entry per node.
        """

    @property
    @abc.abstractmethod
    def target_num_edges(self) -> int:
        """The number of edges the model aims to generate."""
