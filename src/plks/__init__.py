"""Self-similar radial profiles of the critical p-Laplacian Keller-Segel system.

Shooting, classification, and verification for the backward (blow-up) and
forward (spreading) similarity profile families, plus reconstruction of the
full space-time solution pair and its conservation/consistency checks.
The public names are those of each module's __all__ (every class of errors).
"""

from .errors import *
from .params import *
from .radial_ode import *
from .forward import *
from .backward import *
from .reconstruct import *

__version__ = "0.1.0"
