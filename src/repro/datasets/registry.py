"""Registry of the paper's evaluation datasets.

Associates each dataset name with its generator, the paper's published
summary statistics (Table 6), the privacy budgets used in its results table
and the default generation scale used by the benchmark harness.  Experiments
iterate over this registry so adding a dataset (or pointing a name at a real
edge list loaded through :mod:`repro.graphs.io`) automatically extends every
table and figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.graphs.attributed import AttributedGraph
from repro.datasets.synthetic import (
    epinions_like,
    lastfm_like,
    petster_like,
    pokec_like,
)
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class PaperStatistics:
    """Summary statistics of the real dataset as published in Table 6."""

    num_nodes: int
    num_edges: int
    max_degree: int
    average_degree: float
    num_triangles: int
    average_clustering: float


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: generator plus paper metadata.

    Attributes
    ----------
    name:
        Registry key (``"lastfm"``, ``"petster"``, ``"epinions"``, ``"pokec"``).
    generator:
        Callable ``(scale, seed) -> AttributedGraph``.
    paper:
        The published Table 6 statistics for the real dataset.
    default_scale:
        The generation scale the benchmark harness uses by default.
    table_epsilons:
        The privacy budgets ε used for this dataset's results table
        (Tables 2-5).
    figure_epsilons:
        The ε grid used in Figures 1 and 5.
    paper_table:
        Which table in the paper reports this dataset's AGM-DP results.
    generation_tiers:
        Expected generation footprint per scale tier:
        ``{scale: (approx_nodes, approx_edges, approx_peak_rss_mb)}``.
        Documentation for capacity planning (and the source of the
        benchmark harness's tier table); the authoritative RSS numbers are
        the measured ``generation`` entries in ``BENCH_perf.json``.
    """

    name: str
    generator: Callable[..., AttributedGraph]
    paper: PaperStatistics
    default_scale: float
    table_epsilons: Tuple[float, ...]
    figure_epsilons: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.5, 1.0)
    paper_table: str = ""
    generation_tiers: Dict[float, Tuple[int, int, int]] = field(
        default_factory=dict
    )

    def load(self, scale: Optional[float] = None, seed: RngLike = None
             ) -> AttributedGraph:
        """Generate the dataset at ``scale`` (default: the registry scale)."""
        effective = self.effective_scale(scale)
        return self.generator(scale=effective, seed=seed)

    def effective_scale(self, scale: Optional[float] = None) -> float:
        """Resolve the scale: the explicit argument, else the registry default.

        A scale that is not finite and positive raises ``ValueError``.
        """
        if scale is None:
            return self.default_scale
        value = float(scale)
        if not 0 < value < math.inf:
            raise ValueError(
                f"scale must be a finite positive number, got {scale!r}")
        return value


DATASETS: Dict[str, DatasetSpec] = {
    "lastfm": DatasetSpec(
        name="lastfm",
        generator=lastfm_like,
        paper=PaperStatistics(
            num_nodes=1843, num_edges=12668, max_degree=119,
            average_degree=6.9, num_triangles=19651, average_clustering=0.183,
        ),
        default_scale=1.0,
        table_epsilons=(math.log(3), math.log(2), 0.3, 0.2),
        paper_table="Table 2",
    ),
    "petster": DatasetSpec(
        name="petster",
        generator=petster_like,
        paper=PaperStatistics(
            num_nodes=1788, num_edges=12476, max_degree=272,
            average_degree=7.0, num_triangles=16741, average_clustering=0.143,
        ),
        default_scale=1.0,
        table_epsilons=(math.log(3), math.log(2), 0.3, 0.2),
        paper_table="Table 3",
    ),
    "epinions": DatasetSpec(
        name="epinions",
        generator=epinions_like,
        paper=PaperStatistics(
            num_nodes=26427, num_edges=104075, max_degree=625,
            average_degree=3.9, num_triangles=231645, average_clustering=0.138,
        ),
        default_scale=0.2,
        table_epsilons=(math.log(3), math.log(2), 0.3, 0.2),
        paper_table="Table 4",
    ),
    "pokec": DatasetSpec(
        name="pokec",
        generator=pokec_like,
        paper=PaperStatistics(
            num_nodes=592627, num_edges=3725424, max_degree=1274,
            average_degree=6.3, num_triangles=2492216, average_clustering=0.104,
        ),
        default_scale=0.03,
        table_epsilons=(0.2, 0.1, 0.05, 0.01),
        paper_table="Table 5",
        generation_tiers={
            0.05: (29_600, 186_000, 200),
            0.1: (59_300, 372_000, 384),
            0.2: (118_500, 745_000, 650),
            0.5: (296_300, 1_860_000, 1_600),
            1.0: (592_627, 3_725_000, 2_048),
        },
    ),
}


def dataset_names() -> List[str]:
    """Names of all registered datasets, in the paper's order."""
    return list(DATASETS)


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name (case-insensitive)."""
    key = name.lower()
    if key not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        )
    return DATASETS[key]


def load_dataset(name: str, scale: Optional[float] = None,
                 seed: RngLike = None) -> AttributedGraph:
    """Generate the named dataset (convenience wrapper around the registry)."""
    return get_dataset_spec(name).load(scale=scale, seed=seed)
