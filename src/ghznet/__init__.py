"""Secret-key rates for GHZ-based secret sharing and conference key
agreement over bottleneck networks, with and without quantum memories.
The package exports the entry points; every other name is in its module."""

__version__ = "0.1.0"

from .network import Family, NetworkConfig
from .noise import NoiseParams, QberPair, memoryless_qber
from .finite import FiniteSizeParams, bipartite_optimal
from .analysis import (
    ThresholdQuery,
    advantage_profile,
    best_cka_fraction,
    find_threshold,
    optimized_fraction,
)
