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
from .noise import (
    NoiseParams,
    QberPair,
    alpha_beta_closed_form,
    ghz_prefactors,
    memory_qbers,
    pair_coefficients,
)


@dataclass(frozen=True)
class TimingConfig:
    tau_a_s: float
    tau_b_s: float
    comm_b_s: float
    t2_s: float

    def __post_init__(self) -> None:
        if self.tau_a_s < 0 or self.tau_b_s < 0 or self.comm_b_s < 0:
            raise ValueError("trial and communication times must be non-negative")
        if not self.t2_s > 0:
            raise ValueError("dephasing time must be positive")


@dataclass(frozen=True)
class RoundSample:
    """Success trial indices for one distribution round (all >= 1)."""

    n_a: int
    n_b: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_a < 1 or any(n < 1 for n in self.n_b):
            raise ValueError("trial indices count from 1")


def trial_times(cfg: NetworkConfig, noise: NoiseParams) -> TimingConfig:
    """Trial periods of the Alice link and the Bob links, plus the
    classical round trip on a Bob link."""
    d_a_m = cfg.d_a_km * 1e3
    d_b_m = cfg.d_b_km * 1e3
    tau_a = noise.prep_time_s + d_a_m / FIBER_LIGHT_SPEED_M_S
    tau_b = noise.prep_time_s + 2.0 * d_b_m / FIBER_LIGHT_SPEED_M_S
    comm_b = 2.0 * d_b_m / FIBER_LIGHT_SPEED_M_S
    return TimingConfig(tau_a, tau_b, comm_b, noise.t2_s)


def waiting_times(sample: RoundSample, timing: TimingConfig) -> list[tuple[float, float]]:
    """Memory storage times (t_bob, t_hub) per Bob for one sampled round.

    A pair established after Alice's photon arrived would give a negative
    difference; storage cannot be negative, so the difference is clamped
    at zero before the classical round trip is added.
    """
    out = []
    for n_b in sample.n_b:
        raw = sample.n_a * timing.tau_a_s - n_b * timing.tau_b_s
        t = max(raw, 0.0) + timing.comm_b_s
        out.append((t, t))
    return out


def as_rng(seed: int | np.random.Generator | Sequence[int]) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_round(
    p_a: float, p_b: float, n_parties: int, rng: int | np.random.Generator
) -> RoundSample:
    """Draw geometric success trial indices for one distribution round."""
    if not 0.0 < p_a <= 1.0 or not 0.0 < p_b <= 1.0:
        raise ValueError("success probabilities must lie in (0, 1]")
    rng = as_rng(rng)
    n_a = int(rng.geometric(p_a))
    n_b = tuple(int(v) for v in rng.geometric(p_b, size=n_parties - 1))
    return RoundSample(n_a, n_b)


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

    Per draw this equals the chain sample_round -> waiting_times ->
    pair_coefficients -> alpha_beta_closed_form, vectorised over draws.
    alpha + beta is dephasing-independent, so a single standard error
    describes both estimates.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_rng(rng)
    timing = trial_times(cfg, noise)
    n_pairs = cfg.n_parties - 1
    n_a = rng.geometric(cfg.p_a, size=samples)
    n_b = rng.geometric(cfg.p_b, size=(samples, n_pairs))
    raw = n_a[:, None] * timing.tau_a_s - n_b * timing.tau_b_s
    wait = np.maximum(raw, 0.0) + timing.comm_b_s
    # exp(-t_bob/T2) * exp(-t_hub/T2) with t_bob == t_hub == wait
    decay = np.exp(-2.0 * wait / timing.t2_s)
    f = noise.f_depol
    even_total = (1.0 - 0.5 * f) ** n_pairs
    signed = (1.0 - f) ** n_pairs * decay.prod(axis=1)
    alpha_draws = 0.5 * (even_total + signed)
    alpha = float(alpha_draws.mean())
    beta = float(even_total - alpha)
    if samples > 1:
        stderr = float(alpha_draws.std(ddof=1) / math.sqrt(samples))
    else:
        stderr = 0.0
    return AlphaBetaEstimate(alpha, beta, stderr, samples)


def single_draw_alpha_beta(
    sample: RoundSample, timing: TimingConfig, f_depol: float
) -> tuple[float, float]:
    """Scalar reference path for one draw (exercised against the vector code)."""
    pairs = []
    for t_bob, t_hub in waiting_times(sample, timing):
        pairs.append(
            pair_coefficients(
                math.exp(-t_bob / timing.t2_s), math.exp(-t_hub / timing.t2_s), f_depol
            )
        )
    return alpha_beta_closed_form(pairs)


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
