"""Self-similar radial profiles of the critical p-Laplacian Keller-Segel system.

Shooting, classification, and verification for the backward (blow-up) and
forward (spreading) similarity profile families, plus reconstruction of the
full space-time solution pair and its conservation/consistency checks.
The public names are those of each module's __all__ (every class of errors).
Those of forward and reconstruct, which import numpy, load on first use, so
that `import plks` loads no numpy.
"""

import importlib

from .errors import *
from .params import *
from .radial_ode import *
from .backward import *

__version__ = "0.1.0"


def __getattr__(name: str):
    if not name.startswith("_"):
        for stem in ("forward", "reconstruct"):
            module = importlib.import_module("." + stem, __name__)
            globals().update((n, getattr(module, n)) for n in module.__all__)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
