"""Hierarchical privacy-budget accounting for the staged synthesis engine.

The paper's Algorithm 3 is a composition of independently budgeted stages:
Θ_X, Θ_F and the structural statistics each consume a named share of the
global ε, and sequential composition (Theorem 2) requires the shares to sum
to at most ε.  :class:`PrivacyAccountant` makes that contract a first-class
object instead of ad-hoc fraction arithmetic:

* the accountant *owns* the global ε for a release;
* :meth:`PrivacyAccountant.allocate` / :meth:`PrivacyAccountant.split` hand
  out named :class:`SubBudget` reservations (sub-budgets can be split again,
  e.g. ``structural`` into ``degrees`` and ``triangles``);
* every mechanism invocation charges its sub-budget, and the accountant
  records the spend in a ledger keyed by the stage path
  (``"structural.degrees"``);
* any attempt to reserve or spend beyond what remains raises
  :class:`~repro.privacy.budget.BudgetExceededError` — overdrafts are bugs,
  not warnings.

The DP learners accept either a plain ``float`` epsilon (direct use, as in
the unit tests) or a :class:`SubBudget`; :func:`charge_epsilon` performs the
coercion and books the spend when an accountant is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.privacy.budget import BudgetExceededError
from repro.utils.validation import check_epsilon

#: Relative numerical tolerance for overdraft checks.
_OVERDRAFT_TOLERANCE = 1e-9

StagePath = Tuple[str, ...]


@dataclass(frozen=True)
class _Charge:
    """One recorded expenditure, keyed by its full stage path."""

    path: StagePath
    epsilon: float


def _check_stage_name(stage: str) -> str:
    if not stage or not isinstance(stage, str):
        raise ValueError(f"stage name must be a non-empty string, got {stage!r}")
    if "." in stage:
        raise ValueError(
            f"stage names must not contain '.' (reserved for paths), got {stage!r}"
        )
    return stage


def _proportional_shares(weights: Mapping[str, float], available: float,
                         owner: str) -> Dict[str, float]:
    """Validate ``weights`` and split ``available`` proportionally."""
    if not weights:
        raise ValueError("weights must not be empty")
    weight_sum = float(sum(weights.values()))
    if weight_sum <= 0 or any(w < 0 for w in weights.values()):
        raise ValueError("weights must be non-negative and sum to a positive value")
    if available <= 0:
        raise BudgetExceededError(f"{owner} has no uncommitted budget to split")
    return {
        _check_stage_name(stage): available * weight / weight_sum
        for stage, weight in weights.items()
    }


class PrivacyAccountant:
    """Owns the global ε of a release and tracks how the stages spend it.

    Parameters
    ----------
    total_epsilon:
        The overall privacy parameter ε for the release.

    Examples
    --------
    >>> accountant = PrivacyAccountant(1.0)
    >>> subs = accountant.split({"attributes": 1, "correlations": 1,
    ...                          "structural": 2})
    >>> subs["attributes"].epsilon
    0.25
    >>> subs["attributes"].spend()
    0.25
    >>> accountant.spent
    0.25
    """

    def __init__(self, total_epsilon: float) -> None:
        self._total = check_epsilon(total_epsilon, "total_epsilon")
        self._allocations: Dict[StagePath, "SubBudget"] = {}
        self._charges: List[_Charge] = []
        self._direct_spent = 0.0

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def total_epsilon(self) -> float:
        """The global privacy budget ε."""
        return self._total

    @property
    def spent(self) -> float:
        """Total ε actually spent by mechanisms so far."""
        return float(sum(charge.epsilon for charge in self._charges))

    @property
    def remaining(self) -> float:
        """ε not yet spent (never negative)."""
        return max(0.0, self._total - self.spent)

    @property
    def allocated(self) -> float:
        """Total ε reserved by top-level allocations."""
        return float(
            sum(sub.epsilon for path, sub in self._allocations.items()
                if len(path) == 1)
        )

    @property
    def uncommitted(self) -> float:
        """ε neither reserved by an allocation nor spent directly."""
        return max(0.0, self._total - self.allocated - self._direct_spent)

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------
    def allocate(self, stage: str, epsilon: float) -> "SubBudget":
        """Reserve ``epsilon`` for the named ``stage`` and return its sub-budget.

        Raises
        ------
        BudgetExceededError
            If the reservation (together with earlier reservations and direct
            spends) would exceed the global budget.
        ValueError
            If the stage name is invalid or already allocated.
        """
        _check_stage_name(stage)
        epsilon = check_epsilon(epsilon, "epsilon")
        path = (stage,)
        if path in self._allocations:
            raise ValueError(f"stage {stage!r} is already allocated")
        committed = self.allocated + self._direct_spent
        if committed + epsilon > self._total * (1.0 + _OVERDRAFT_TOLERANCE):
            raise BudgetExceededError(
                f"allocating {epsilon:.6g} to {stage!r} would exceed the budget: "
                f"{committed:.6g} of {self._total:.6g} already committed"
            )
        sub = SubBudget(self, path, epsilon)
        self._allocations[path] = sub
        return sub

    def split(self, weights: Mapping[str, float]) -> Dict[str, "SubBudget"]:
        """Allocate the uncommitted budget proportionally to ``weights``.

        This is the SplitBudget step of Algorithm 3 expressed through the
        accountant: each named stage receives
        ``uncommitted * weight / sum(weights)``.
        """
        shares = _proportional_shares(weights, self.uncommitted, "the accountant")
        return {
            stage: self.allocate(stage, share) for stage, share in shares.items()
        }

    # ------------------------------------------------------------------
    # Spending
    # ------------------------------------------------------------------
    def spend(self, epsilon: float, label: str = "direct") -> float:
        """Record a direct (un-allocated) expenditure against the global budget.

        Stage-based code should prefer :meth:`allocate` /
        :meth:`SubBudget.spend`.
        """
        _check_stage_name(label)
        epsilon = check_epsilon(epsilon, "epsilon")
        committed = self.allocated + self._direct_spent
        if committed + epsilon > self._total * (1.0 + _OVERDRAFT_TOLERANCE):
            raise BudgetExceededError(
                f"spending {epsilon:.6g} would exceed the budget: "
                f"{committed:.6g} of {self._total:.6g} already committed"
            )
        self._direct_spent += epsilon
        self._record((label,), epsilon)
        return epsilon

    def _record(self, path: StagePath, epsilon: float) -> None:
        self._charges.append(_Charge(path=path, epsilon=epsilon))

    def _register_child(self, sub: "SubBudget") -> None:
        if sub.path in self._allocations:
            raise ValueError(f"stage path {'.'.join(sub.path)!r} already allocated")
        self._allocations[sub.path] = sub

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def ledger(self) -> List[Tuple[str, float]]:
        """Charges in order, labelled by their *top-level* stage name.

        Use :meth:`breakdown` for full stage paths.
        """
        return [(charge.path[0], charge.epsilon) for charge in self._charges]

    def breakdown(self) -> Dict[str, float]:
        """Spend per full dotted stage path (``"structural.degrees"``)."""
        totals: Dict[str, float] = {}
        for charge in self._charges:
            key = ".".join(charge.path)
            totals[key] = totals.get(key, 0.0) + charge.epsilon
        return totals

    def summary(self) -> Dict[str, float]:
        """Spend aggregated by top-level stage name."""
        totals: Dict[str, float] = {}
        for charge in self._charges:
            key = charge.path[0]
            totals[key] = totals.get(key, 0.0) + charge.epsilon
        return totals

    def allocations(self) -> Dict[str, float]:
        """Reserved ε per dotted stage path."""
        return {
            ".".join(path): sub.epsilon for path, sub in self._allocations.items()
        }

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot: total, reservations, spends."""
        return {
            "total_epsilon": self._total,
            "allocations": self.allocations(),
            "spends": self.breakdown(),
            "spent": self.spent,
            "remaining": self.remaining,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PrivacyAccountant(total={self._total:.6g}, "
            f"spent={self.spent:.6g}, allocations={len(self._allocations)})"
        )


class SubBudget:
    """A named reservation handed out by a :class:`PrivacyAccountant`.

    A sub-budget can be spent (fully or partially) or split further into
    child sub-budgets; every spend is recorded in the owning accountant's
    ledger under the sub-budget's stage path.
    """

    __slots__ = ("_accountant", "_path", "_epsilon", "_spent", "_child_allocated")

    def __init__(self, accountant: PrivacyAccountant, path: StagePath,
                 epsilon: float) -> None:
        self._accountant = accountant
        self._path = tuple(path)
        self._epsilon = float(epsilon)
        self._spent = 0.0
        self._child_allocated = 0.0

    @property
    def stage(self) -> str:
        """The sub-budget's own stage name (last path component)."""
        return self._path[-1]

    @property
    def path(self) -> StagePath:
        """Full stage path from the accountant's root."""
        return self._path

    @property
    def epsilon(self) -> float:
        """The reserved ε."""
        return self._epsilon

    @property
    def spent(self) -> float:
        """ε spent directly out of this reservation."""
        return self._spent

    @property
    def remaining(self) -> float:
        """ε still spendable from this reservation."""
        return max(0.0, self._epsilon - self._spent - self._child_allocated)

    def spend(self, epsilon: Optional[float] = None, label: Optional[str] = None
              ) -> float:
        """Spend ``epsilon`` (default: everything remaining) from the reservation.

        Returns the amount spent.  Raises
        :class:`~repro.privacy.budget.BudgetExceededError` when the request
        exceeds what remains (beyond a small numerical tolerance).
        """
        if epsilon is None:
            epsilon = self.remaining
            if epsilon <= 0:
                raise BudgetExceededError(
                    f"sub-budget {'.'.join(self._path)!r} is exhausted "
                    f"({self._epsilon:.6g} reserved, all committed)"
                )
        epsilon = check_epsilon(epsilon, "epsilon")
        committed = self._spent + self._child_allocated
        if committed + epsilon > self._epsilon * (1.0 + _OVERDRAFT_TOLERANCE):
            raise BudgetExceededError(
                f"spending {epsilon:.6g} would overdraw sub-budget "
                f"{'.'.join(self._path)!r}: {committed:.6g} of "
                f"{self._epsilon:.6g} already committed"
            )
        self._spent += epsilon
        path = self._path if label is None else self._path + (label,)
        self._accountant._record(path, epsilon)
        return epsilon

    def split(self, weights: Mapping[str, float]) -> Dict[str, "SubBudget"]:
        """Split the remaining reservation into named child sub-budgets."""
        shares = _proportional_shares(
            weights, self.remaining, f"sub-budget {'.'.join(self._path)!r}"
        )
        children: Dict[str, SubBudget] = {}
        for stage, share in shares.items():
            child = SubBudget(self._accountant, self._path + (stage,), share)
            self._accountant._register_child(child)
            self._child_allocated += child.epsilon
            children[stage] = child
        return children

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SubBudget({'.'.join(self._path)!r}, epsilon={self._epsilon:.6g}, "
            f"spent={self._spent:.6g})"
        )


#: What the DP learners accept as their ``epsilon`` argument.
EpsilonLike = Union[float, int, SubBudget]


def charge_epsilon(epsilon: EpsilonLike, label: Optional[str] = None) -> float:
    """Resolve an epsilon-like value into a float, booking accountant spends.

    A plain number is validated and returned unchanged (no accounting — the
    caller owns the composition argument).  A :class:`SubBudget` is spent in
    full and the expenditure lands in the owning accountant's ledger; the
    optional ``label`` extends the recorded stage path.
    """
    if isinstance(epsilon, SubBudget):
        return epsilon.spend(label=label)
    return check_epsilon(epsilon)
