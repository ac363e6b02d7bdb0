"""Differential-privacy primitives.

Implements the building blocks the paper composes:

* Laplace noise and the normalisation of noisy counts (Section 2.3);
* privacy-budget accounting through sequential / parallel composition;
* the smooth-sensitivity framework of Nissim et al. (Appendix B.1);
* the constrained-inference degree-sequence estimator of Hay et al.
  (Appendix C.3.1);
* the Ladder framework of Zhang et al. for subgraph (triangle) counting
  (Appendix C.3.2).
"""

from repro.privacy.accountant import (
    PrivacyAccountant,
    SubBudget,
    charge_epsilon,
)
from repro.privacy.budget import BudgetExceededError
from repro.privacy.mechanisms import laplace_noise
from repro.privacy.sensitivity import (
    smooth_sensitivity_degree_bounded,
    smooth_sensitivity_laplace_noise,
    beta_for_smooth_sensitivity,
)
from repro.privacy.constrained_inference import private_degree_sequence
from repro.privacy.ladder import (
    ladder_triangle_count,
    naive_laplace_triangle_count,
    smooth_sensitivity_triangle_count,
    triangle_local_sensitivity,
)

__all__ = [
    "PrivacyAccountant",
    "SubBudget",
    "charge_epsilon",
    "BudgetExceededError",
    "laplace_noise",
    "smooth_sensitivity_degree_bounded",
    "smooth_sensitivity_laplace_noise",
    "beta_for_smooth_sensitivity",
    "private_degree_sequence",
    "ladder_triangle_count",
    "naive_laplace_triangle_count",
    "smooth_sensitivity_triangle_count",
    "triangle_local_sensitivity",
]
