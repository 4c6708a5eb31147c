"""Mass-univariate Bayesian model assessment for general linear models.

Cross-validated log model evidence with accuracy/complexity split, family
evidence aggregation, group-level random-effects model selection with
exceedance probabilities, and cross-validated model averaging — as a
library plus a batch command line (``evidencer``).

The package namespace republishes each module's ``__all__``; that list is
the one place a public name is declared.
"""

__version__ = "0.1.0"

from . import bma, crossval, dataio, errors, glm, pipeline, rfx
from .bma import *  # noqa: F403
from .crossval import *  # noqa: F403
from .dataio import *  # noqa: F403
from .errors import *  # noqa: F403
from .glm import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .rfx import *  # noqa: F403

_MODULES = (bma, crossval, dataio, errors, glm, pipeline, rfx)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
