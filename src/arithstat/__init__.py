"""Finite-scale diagnostics for arithmetic and lacunary statistical convergence.

The package turns limit notions built on the gcd kernel x_<m,n> into
computable objects: exceedance counts and densities over prefixes and lacunary
blocks, three-valued convergence verdicts, exact checks of the closure and
transfer mechanisms, and continuity batteries for mapped sequences.

Each module's `__all__` is the one list of its public names; the package
republishes them all.
"""

from . import kernel, lacunary, density, theorems, continuity
from .kernel import *  # noqa: F401,F403
from .lacunary import *  # noqa: F401,F403
from .density import *  # noqa: F401,F403
from .theorems import *  # noqa: F401,F403
from .continuity import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*kernel.__all__, *lacunary.__all__, *density.__all__, *theorems.__all__,
           *continuity.__all__, "__version__"]
