"""Drivers for the paper's result tables.

* :func:`results_table` regenerates Tables 2-5: for one dataset, the full
  metric row for the non-private AGM-FCL / AGM-TriCL baselines and for
  AGMDP-FCL / AGMDP-TriCL at every privacy budget the paper tests.
* :func:`dataset_properties_table` regenerates Table 6 (dataset summary
  statistics), reporting the paper's published values next to the statistics
  of the generated stand-in graphs.
* :func:`format_table` renders any list of row dictionaries as a plain-text
  table for benchmark output and the CLI.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.agm import DEFAULT_NUM_ITERATIONS
from repro.datasets.registry import get_dataset_spec
from repro.experiments.runner import ExperimentConfig, default_trials, run_trials
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import summary
from repro.utils.rng import RngLike, ensure_rng

Row = Dict[str, object]


def results_table(dataset: str, epsilons: Optional[Sequence[float]] = None,
                  trials: Optional[int] = None, scale: Optional[float] = None,
                  seed: RngLike = 0,
                  include_non_private: bool = True,
                  backends: Sequence[str] = ("fcl", "tricycle"),
                  num_iterations: int = DEFAULT_NUM_ITERATIONS,
                  graph: Optional[AttributedGraph] = None) -> List[Row]:
    """Regenerate one of Tables 2-5 for ``dataset``.

    Parameters
    ----------
    dataset:
        Registry name (``"lastfm"``, ``"petster"``, ``"epinions"``, ``"pokec"``).
    epsilons:
        Privacy budgets to evaluate; defaults to the budgets the paper uses
        for this dataset.
    trials:
        Monte-Carlo trials per cell (default: :func:`default_trials`).
    scale:
        Dataset generation scale (default: the registry's bench scale).
    seed:
        Seed for dataset generation and all trials.
    include_non_private:
        Include the AGM-FCL / AGM-TriCL reference rows.
    backends:
        Structural backends to evaluate.
    graph:
        Optional pre-generated input graph (used by tests to keep runtimes
        small); when given, ``dataset``/``scale`` only affect labelling.

    Returns
    -------
    list of dict
        One row per (model, ε) cell with keys ``model``, ``epsilon`` and the
        paper's metric columns.
    """
    spec = get_dataset_spec(dataset)
    rng = ensure_rng(seed)
    if graph is None:
        graph = spec.load(scale=scale, seed=rng)
    if epsilons is None:
        epsilons = spec.table_epsilons
    trial_count = default_trials(trials)

    rows: List[Row] = []
    if include_non_private:
        for backend in backends:
            config = ExperimentConfig(
                backend=backend, epsilon=None, trials=trial_count,
                num_iterations=num_iterations,
            )
            report = run_trials(graph, config, rng=rng)
            rows.append({"model": config.label, "epsilon": None,
                         **report.as_paper_row()})
    for epsilon in epsilons:
        for backend in backends:
            config = ExperimentConfig(
                backend=backend, epsilon=float(epsilon), trials=trial_count,
                num_iterations=num_iterations,
            )
            report = run_trials(graph, config, rng=rng)
            rows.append({"model": config.label, "epsilon": float(epsilon),
                         **report.as_paper_row()})
    return rows


def dataset_properties_table(datasets: Optional[Sequence[str]] = None,
                             scale: Optional[float] = None,
                             seed: RngLike = 0) -> List[Row]:
    """Regenerate Table 6: summary statistics of every dataset.

    Each row reports the paper's published statistics for the real dataset
    and the measured statistics of the generated stand-in at the requested
    scale, so the fidelity of the substitution is visible at a glance.
    """
    from repro.datasets.registry import dataset_names

    names = list(datasets) if datasets else dataset_names()
    rng = ensure_rng(seed)
    rows: List[Row] = []
    for name in names:
        spec = get_dataset_spec(name)
        graph = spec.load(scale=scale, seed=rng)
        stats = summary(graph)
        rows.append({
            "dataset": name,
            "n (paper)": spec.paper.num_nodes,
            "n (generated)": stats.num_nodes,
            "m (paper)": spec.paper.num_edges,
            "m (generated)": stats.num_edges,
            "d_max (paper)": spec.paper.max_degree,
            "d_max (generated)": stats.max_degree,
            "d_avg (paper)": spec.paper.average_degree,
            "d_avg (generated)": round(stats.average_degree, 2),
            "n_tri (paper)": spec.paper.num_triangles,
            "n_tri (generated)": stats.num_triangles,
            "C_avg (paper)": spec.paper.average_clustering,
            "C_avg (generated)": round(stats.average_clustering, 3),
        })
    return rows


def format_table(rows: Sequence[Row], float_format: str = "{:.4f}") -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def render(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])
