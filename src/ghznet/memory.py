"""Trial-time accounting and Monte Carlo dephasing estimates for memory networks.

The router repeatedly tries to establish one Bell pair per Bob (trial
period tau_b) while Alice's photon needs a geometric number of trials of
period tau_a.  Stored halves dephase while waiting for Alice's photon, so
the expected parity sums over the pair coefficients are evaluated by
sampling the success-trial indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FIBER_LIGHT_SPEED_M_S
from .network import NetworkConfig
from .noise import NoiseParams, QberPair, ghz_prefactors, memory_qbers


@dataclass(frozen=True)
class TimingConfig:
    tau_a_s: float
    tau_b_s: float
    comm_b_s: float
    t2_s: float


def trial_times(cfg: NetworkConfig, noise: NoiseParams) -> TimingConfig:
    """Trial periods of the Alice link and the Bob links, plus the
    classical round trip on a Bob link."""
    d_a_m = cfg.d_a_km * 1e3
    d_b_m = cfg.d_b_km * 1e3
    tau_a = noise.prep_time_s + d_a_m / FIBER_LIGHT_SPEED_M_S
    tau_b = noise.prep_time_s + 2.0 * d_b_m / FIBER_LIGHT_SPEED_M_S
    comm_b = 2.0 * d_b_m / FIBER_LIGHT_SPEED_M_S
    return TimingConfig(tau_a, tau_b, comm_b, noise.t2_s)


def as_rng(seed: int | np.random.Generator | Sequence[int]) -> np.random.Generator:
    """The generator np.random.default_rng(seed) returns: a Generator
    passes through, a seed or a sequence of seeds starts a PCG64 stream."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class AlphaBetaEstimate:
    alpha: float
    beta: float
    stderr: float
    samples: int


def expected_alpha_beta(
    cfg: NetworkConfig,
    noise: NoiseParams,
    samples: int,
    rng: int | np.random.Generator,
) -> AlphaBetaEstimate:
    """Monte Carlo mean of the even/odd parity sums over waiting-time draws.

    Each draw takes geometric success-trial indices for Alice and the N-1
    Bobs; every pair is stored for its wait at both ends, and the draw's
    alpha is alpha_beta_closed_form over pair_coefficients(e, e, f_depol)
    with e = exp(-wait/T2), vectorised over draws.  alpha + beta is
    dephasing-independent, so a single standard error describes both
    estimates.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_rng(rng)
    timing = trial_times(cfg, noise)
    n_pairs = cfg.n_parties - 1
    n_a = rng.geometric(cfg.p_a, size=samples)
    n_b = rng.geometric(cfg.p_b, size=(samples, n_pairs))
    raw = n_a[:, None] * timing.tau_a_s - n_b * timing.tau_b_s
    # a pair established after Alice's photon arrived stores for no negative
    # time, only for the classical round trip
    wait = np.maximum(raw, 0.0) + timing.comm_b_s
    # exp(-t_bob/T2) * exp(-t_hub/T2) with t_bob == t_hub == wait
    decay = np.exp(-2.0 * wait / timing.t2_s)
    f = noise.f_depol
    even_total = (1.0 - 0.5 * f) ** n_pairs
    # the running product over the columns multiplies in prod(axis=1)'s order
    product = decay[:, 0]
    for column in decay.T[1:]:
        product = product * column
    signed = (1.0 - f) ** n_pairs * product
    alpha_draws = 0.5 * (even_total + signed)
    alpha = float(alpha_draws.mean())
    beta = float(even_total - alpha)
    if samples > 1:
        # std(ddof=1)'s operations, about the mean already taken
        deviation = alpha_draws - alpha
        stderr = math.sqrt(np.add.reduce(deviation * deviation) / (samples - 1)) / math.sqrt(samples)
    else:
        stderr = 0.0
    return AlphaBetaEstimate(alpha, beta, stderr, samples)


def expected_memory_qbers(
    cfg: NetworkConfig,
    noise: NoiseParams,
    samples: int,
    rng: int | np.random.Generator,
) -> tuple[QberPair, AlphaBetaEstimate]:
    """Expected error rates of the memory network via Monte Carlo dephasing."""
    estimate = expected_alpha_beta(cfg, noise, samples, rng)
    pref = ghz_prefactors(estimate.alpha, estimate.beta, noise.f_depol, cfg.n_parties)
    return memory_qbers(pref), estimate
