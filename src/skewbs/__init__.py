"""Skewed multivariate Birnbaum-Saunders distributions.

Core capabilities: univariate BS and generalized BS densities, the
skewed multivariate BS model (density, sampling, conditionals, moments),
its elliptical-generator extension, modified-moment and maximum
likelihood estimation, observed and expected Fisher information with
Wald intervals, and likelihood-ratio / Vuong / goodness-of-fit tests.
Each module's ``__all__`` is its public API, and the package exports
exactly those names.
"""

from .specfun import *
from .univariate import *
from .multivariate import *
from .elliptical import *
from .estimation import *
from .inference import *
from .datasets import *
from . import datasets, elliptical, estimation, inference, multivariate, specfun, univariate

__version__ = "0.1.0"

__all__ = [
    *specfun.__all__,
    *univariate.__all__,
    *multivariate.__all__,
    *elliptical.__all__,
    *estimation.__all__,
    *inference.__all__,
    *datasets.__all__,
    "__version__",
]
