"""Bitext filtering, sequence alignment, and MT evaluation metrics.

Each submodule's ``__all__`` is its public API; the package re-exports
those names and nothing else besides the version and the error classes.
"""

__version__ = "0.1.0"

from . import bisentence_filter, corpus_io, mt_metrics, seq_align, similarity, textnorm
from .bisentence_filter import *  # noqa: F401,F403
from .corpus_io import *  # noqa: F401,F403
from .errors import BifilterError, ConfigError, DataError
from .mt_metrics import *  # noqa: F401,F403
from .seq_align import *  # noqa: F401,F403
from .similarity import *  # noqa: F401,F403
from .textnorm import *  # noqa: F401,F403

__all__ = [
    "__version__", "BifilterError", "ConfigError", "DataError",
    *bisentence_filter.__all__, *corpus_io.__all__, *mt_metrics.__all__,
    *seq_align.__all__, *similarity.__all__, *textnorm.__all__,
]
