"""Rotation-based iterative Gaussianization.

Multivariate density estimation through alternating marginal Gaussianization
and orthogonal rotations, with sampling and information-theoretic measures
(per-sample information, entropy, total correlation, mutual information) on
tabular and spatio-temporal data.
"""

# Each module's __all__ is the one list of its public names.
from . import cube, errors, flow, marginal, measures, rotation
from .cube import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .rotation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *marginal.__all__,
    *rotation.__all__,
    *flow.__all__,
    *measures.__all__,
    *cube.__all__,
]
