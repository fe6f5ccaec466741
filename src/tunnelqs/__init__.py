"""Tunneling time delays and quantum superluminality for hydrogen-like
atoms in strong fields: closed-form delay/quotient models, parameter
scans, a velocity-gauge TDSE solver, and attoclock spectra extraction.

Every name in a module's ``__all__`` can be imported from ``tunnelqs``;
``tunnelqs.__all__`` is those lists joined, module by module.
"""

from . import atomic, constants, scan, spectra, superluminal, tdse
from .atomic import *  # noqa: F403
from .constants import *  # noqa: F403
from .scan import *  # noqa: F403
from .spectra import *  # noqa: F403
from .superluminal import *  # noqa: F403
from .tdse import *  # noqa: F403

__all__ = [name for module in (atomic, constants, scan, spectra, superluminal, tdse)
           for name in module.__all__]

__version__ = "0.1.0"
