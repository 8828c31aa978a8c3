"""Toolkit for an entangled-photon-pair random number generator.

The package splits into five layers: exact output laws (`exact`), a seeded
Monte Carlo source with its imperfection models (`simulate`), bitstring
post-processing (`extractors`), statistical tests (`stats`), and file-based
plumbing with a CLI (`fileio`, `cli`). `bitstring`, `config` and `streams`
hold the shared value types.

Each module declares its public names in its own `__all__`; the package
re-exports exactly those.
"""

from . import bitstring, config, errors, exact, extractors, fileio, simulate, stats, streams
from .bitstring import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .exact import *  # noqa: F403
from .extractors import *  # noqa: F403
from .fileio import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stats import *  # noqa: F403
from .streams import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (bitstring, config, errors, exact, extractors, fileio, simulate, stats, streams)

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
