"""High-order tuners for linear parameter identification.

Simulation of the gradient-baseline and high-order tuner family with optional
concurrent learning from recorded data, together with numerical checks of the
stability certificates that back them.

Each module's __all__ is its share of the package's public names, and the
package republishes exactly those; other module-level names stay importable
from their modules. The command line (hotuner.cli) is not republished.
"""

from . import certificates, databuffer, dynamics, integrator, signals
from .certificates import *
from .databuffer import *
from .dynamics import *
from .integrator import *
from .signals import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (certificates, databuffer, dynamics, integrator, signals)
                 for name in module.__all__)
