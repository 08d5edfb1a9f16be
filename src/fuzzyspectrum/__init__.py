"""Fuzzy spectrum-access decisions for cognitive radio.

A generic Mamdani inference engine plus the concrete four-input decision
model, batch arbitration, and decision-surface sweeps.
"""

from . import arbitration, engine, model, serialization, sweep
from .arbitration import *  # noqa: F403
from .engine import *  # noqa: F403
from .model import *  # noqa: F403
from .serialization import *  # noqa: F403
from .sweep import *  # noqa: F403

# each module's __all__ is its list of public names
__all__ = engine.__all__ + model.__all__ + arbitration.__all__ + sweep.__all__ + serialization.__all__

__version__ = "0.1.0"
