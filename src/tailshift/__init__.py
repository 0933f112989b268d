"""Importance sampling for value-at-risk and conditional value-at-risk.

Rare-tail risk measures of a black-box loss over heavy-tailed, correlated
inputs are estimated by stretching ordinary samples outward along
data-driven directions and reweighting them with the exact change of
measure.  One batch of a few thousand samples then covers tail levels that
plain Monte Carlo would need millions of draws to see.

The package exports each module's ``__all__``, the one list of its public
names.
"""

from . import distributions, errors, estimators, harness, losses, transform
from .distributions import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .harness import *  # noqa: F403
from .losses import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *distributions.__all__, *errors.__all__, *estimators.__all__,
           *harness.__all__, *losses.__all__, *transform.__all__]
