"""Adaptive MCMC with trajectory averaging.

Stochastic-approximation samplers that reweight a partitioned sample
space on the fly (flat-histogram style), a generic varying-truncation
driver, a missing-data maximum likelihood solver built on the same
recursion, and an exact finite-chain oracle for validating all of them.
"""

from . import harness, oracle, sa, samc, samle
from .oracle import *
from .sa import *
from .samc import *
from .samle import *
from .harness import *

__version__ = "0.1.0"

__all__ = []
__all__ += oracle.__all__
__all__ += sa.__all__
__all__ += samc.__all__
__all__ += samle.__all__
__all__ += harness.__all__
