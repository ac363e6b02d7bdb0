"""Privacy budget accounting.

Differential privacy composes: running mechanisms with parameters
``epsilon_1 .. epsilon_k`` sequentially on the same data yields
``sum(epsilon_i)``-DP, running them on disjoint data yields
``max(epsilon_i)``-DP, and post-processing is free (Section 2.3).
:class:`~repro.privacy.accountant.PrivacyAccountant` makes that arithmetic
explicit and refuses to overspend; this module holds the error it raises.
"""


class BudgetExceededError(RuntimeError):
    """Raised when a mechanism would spend more privacy budget than remains."""
