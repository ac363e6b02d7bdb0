"""Byte-budgeted admission control for generation and fitting stages.

The scalability claim of the paper is reproduced under a *declared* memory
budget: before a stage materialises a large working set it computes a cheap
pessimistic upper bound on the bytes it will need and **admits** the work
against a :class:`MemoryBudget` ledger.  Stages that cannot fit raise the
structured :class:`MemoryBudgetError` (surfaced by the service as the
``over_memory`` error code) instead of thrashing the container, and stages
that *can* shard — the block-wise Chung-Lu sampler, the chunked
attribute/correlation fitting passes — size their shards off
:meth:`MemoryBudget.shard_rows`.

This is bound-first discipline, not an allocator: estimates intentionally
over-count (Python-object overheads for adjacency sets and edge-age queues
are charged at measured per-entry costs), and the ledger never inspects the
process RSS.  The budget arrives either programmatically
(``ReleaseSpec.memory_budget_mb``) or through the ``REPRO_MEMORY_BUDGET_MB``
environment variable (used by the dataset generators and the benchmark
workers, which have no spec).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "BUDGET_ENV_VAR",
    "MemoryBudget",
    "MemoryBudgetError",
    "adjacency_set_bytes",
    "csr_bytes",
    "edge_age_bytes",
]

#: Environment variable consulted when no explicit budget is supplied.
BUDGET_ENV_VAR = "REPRO_MEMORY_BUDGET_MB"

_MB = 1 << 20

#: Measured CPython overhead (64-bit, small-int keys) per adjacency-set
#: entry and per edge-age deque entry; intentionally generous.
_SET_ENTRY_BYTES = 96
_DICT_ROW_BYTES = 320
_DEQUE_ENTRY_BYTES = 120


class MemoryBudgetError(RuntimeError):
    """A stage's pessimistic byte estimate exceeds the declared budget.

    Carries the structured fields the service layer needs to render the
    ``over_memory`` error: the stage name, the bytes the stage asked for,
    and the bytes that were still available.
    """

    code = "over_memory"

    def __init__(self, stage: str, required_bytes: int,
                 available_bytes: int, budget_bytes: int) -> None:
        self.stage = stage
        self.required_bytes = int(required_bytes)
        self.available_bytes = int(available_bytes)
        self.budget_bytes = int(budget_bytes)
        super().__init__(
            f"stage {stage!r} needs an estimated "
            f"{self.required_bytes / _MB:.1f} MiB but only "
            f"{self.available_bytes / _MB:.1f} MiB of the "
            f"{self.budget_bytes / _MB:.1f} MiB memory budget remain"
        )


class MemoryBudget:
    """A ledger of pessimistic byte reservations against a fixed budget.

    ``megabytes=None`` builds an *unlimited* ledger: every admission
    succeeds and :meth:`shard_rows` returns the caller's cap.  All charges
    are keyed by stage name so a stage can release its working set when it
    completes.
    """

    def __init__(self, megabytes: Optional[int] = None) -> None:
        if megabytes is not None:
            megabytes = int(megabytes)
            if megabytes < 1:
                raise ValueError(
                    f"memory budget must be >= 1 MiB, got {megabytes}"
                )
        self._budget_bytes = None if megabytes is None else megabytes * _MB
        self._charges: Dict[str, int] = {}

    @classmethod
    def resolve(cls, megabytes: Optional[int] = None) -> "MemoryBudget":
        """Build a ledger from an explicit budget or the environment.

        Explicit ``megabytes`` wins; otherwise ``REPRO_MEMORY_BUDGET_MB``
        is consulted (a value that is not an integer raises
        :class:`ValueError`); otherwise the ledger is unlimited.
        """
        if megabytes is not None:
            return cls(megabytes)
        raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
        if not raw:
            return cls(None)
        try:
            megabytes = int(raw)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR}={raw!r} is not an integer number of MiB"
            ) from None
        return cls(megabytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def unlimited(self) -> bool:
        """Whether the ledger admits everything."""
        return self._budget_bytes is None

    @property
    def budget_bytes(self) -> Optional[int]:
        """The declared budget in bytes (``None`` when unlimited)."""
        return self._budget_bytes

    @property
    def charged_bytes(self) -> int:
        """Total bytes currently reserved across all stages."""
        return sum(self._charges.values())

    def remaining_bytes(self) -> Optional[int]:
        """Bytes still available (``None`` when unlimited)."""
        if self._budget_bytes is None:
            return None
        return max(0, self._budget_bytes - self.charged_bytes)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, stage: str, nbytes: int) -> None:
        """Check that ``nbytes`` fit without recording a reservation."""
        if self._budget_bytes is None:
            return
        remaining = self.remaining_bytes()
        if int(nbytes) > remaining:
            raise MemoryBudgetError(
                stage, int(nbytes), remaining, self._budget_bytes
            )

    def charge(self, stage: str, nbytes: int) -> None:
        """Admit ``nbytes`` and record them against ``stage``."""
        self.admit(stage, nbytes)
        self._charges[stage] = self._charges.get(stage, 0) + int(nbytes)

    def release(self, stage: str) -> None:
        """Drop every reservation held by ``stage``."""
        self._charges.pop(stage, None)

    @contextmanager
    def reserved(self, stage: str, nbytes: int) -> Iterator[None]:
        """Context manager: charge on entry, release on exit."""
        self.charge(stage, nbytes)
        try:
            yield
        finally:
            self.release(stage)

    def shard_rows(self, bytes_per_row: int, *, minimum: int = 1,
                   cap: Optional[int] = None) -> int:
        """Largest row count whose working set fits the remaining budget.

        Returns ``cap`` (or an effectively unbounded count) when the ledger
        is unlimited, and never less than ``minimum`` — a shard must always
        be able to make progress; the pessimistic *admission* check is what
        rejects work that cannot fit at all.
        """
        per_row = max(1, int(bytes_per_row))
        if self._budget_bytes is None:
            return cap if cap is not None else (1 << 62)
        rows = max(int(minimum), self.remaining_bytes() // per_row)
        if cap is not None:
            rows = min(rows, int(cap))
        return max(int(minimum), rows)


# ----------------------------------------------------------------------
# Pessimistic estimators for the library's dominant working sets
# ----------------------------------------------------------------------
def csr_bytes(num_nodes: int, num_edges: int, index_itemsize: int = 8) -> int:
    """Upper bound on the bytes of a base CSR for ``n`` nodes, ``m`` edges."""
    return (int(num_nodes) + 1) * 8 + 2 * int(num_edges) * int(index_itemsize)


def adjacency_set_bytes(num_nodes: int, num_edges: int) -> int:
    """Upper bound on the adjacency-set compatibility view's heap cost.

    One dict row per node plus one Python-set entry per directed edge —
    the dominant resident structure of the mutation-heavy model phases.
    """
    return (
        int(num_nodes) * _DICT_ROW_BYTES
        + 2 * int(num_edges) * _SET_ENTRY_BYTES
    )


def edge_age_bytes(num_edges: int) -> int:
    """Upper bound on an edge-age queue of ``m`` tuple entries."""
    return int(num_edges) * _DEQUE_ENTRY_BYTES
