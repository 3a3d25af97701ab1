"""Analysis toolkit: theory predictions, scaling fits, the Theorem 15 lower bound."""

from .fitting import CANDIDATE_SHAPES, FitResult, best_shape, fit_shape, power_law_exponent
from .lower_bound import AdversarialSpreadResult, adversarial_push_max_messages
from . import theory

__all__ = [
    "CANDIDATE_SHAPES",
    "FitResult",
    "best_shape",
    "fit_shape",
    "power_law_exponent",
    "AdversarialSpreadResult",
    "adversarial_push_max_messages",
    "theory",
]
