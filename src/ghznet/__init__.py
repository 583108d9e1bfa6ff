"""Secret-key rates for GHZ-based secret sharing and conference key
agreement over bottleneck networks, with and without quantum memories."""

__version__ = "0.1.0"

from .core import binary_entropy, transmission
from .network import (
    BasisStrategy,
    Family,
    NetworkConfig,
    ProtocolSpec,
    SiftingEfficiencies,
    expected_counts,
    sifting,
    simulate_sifting,
    yields,
)
from .noise import (
    GhzPrefactors,
    NoiseParams,
    PairCoefficients,
    QberPair,
    alpha_beta_closed_form,
    ghz_prefactors,
    memoryless_qber,
    memory_qbers,
    memory_qbers_from_exponents,
    pair_coefficients,
)
from .memory import (
    AlphaBetaEstimate,
    RoundSample,
    TimingConfig,
    expected_alpha_beta,
    expected_memory_qbers,
    sample_round,
    trial_times,
    waiting_times,
)
from .rates import AsymptoticRate, asymptotic_rate, cka_equals_qss_check, hbb_rate
from .finite import (
    BipartiteOptimum,
    EpsilonBudget,
    FiniteSizeParams,
    KeyLengthModel,
    KeyLengthResult,
    bipartite_optimal,
    epsilon_budget,
    expected_key_length,
    xi1,
    xi2,
)
from .analysis import (
    AdvantageProfile,
    AdvantageRow,
    ThresholdQuery,
    ThresholdResult,
    advantage_profile,
    best_cka_fraction,
    find_threshold,
    optimized_fraction,
    scenario_qbers,
)
