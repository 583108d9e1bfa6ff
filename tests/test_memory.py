import math

import numpy as np
import pytest

from ghznet.memory import expected_alpha_beta, expected_memory_qbers, trial_times
from ghznet.network import NetworkConfig
from ghznet.noise import NoiseParams, alpha_beta_closed_form, pair_coefficients

CFG = NetworkConfig(3, 50.0, 4.0)
NOISE = NoiseParams(f_depol=0.01, t2_s=1.0, prep_time_s=2e-6)


def test_trial_times_default_setup():
    timing = trial_times(CFG, NOISE)
    assert timing.tau_a_s == pytest.approx(252e-6)
    assert timing.tau_b_s == pytest.approx(42e-6)
    assert timing.comm_b_s == pytest.approx(40e-6)


def test_trial_times_degenerate():
    timing = trial_times(NetworkConfig(3, 0.0, 0.0), NoiseParams(0.0, t2_s=1.0))
    assert (timing.tau_a_s, timing.tau_b_s, timing.comm_b_s) == (0.0, 0.0, 0.0)


def test_expected_alpha_beta_perfect_memory():
    est = expected_alpha_beta(CFG, NoiseParams(0.0, t2_s=math.inf), 200, 1)
    assert est.alpha == 1.0
    assert est.beta == 0.0
    assert est.stderr == 0.0


def test_expected_alpha_beta_fully_dephased():
    est = expected_alpha_beta(CFG, NoiseParams(0.0, t2_s=1e-12), 200, 1)
    assert est.alpha == pytest.approx(0.5, abs=1e-12)
    assert est.beta == pytest.approx(0.5, abs=1e-12)


def test_expected_alpha_beta_reproducible():
    first = expected_alpha_beta(CFG, NOISE, 1000, 42)
    second = expected_alpha_beta(CFG, NOISE, 1000, 42)
    assert first == second


def test_expected_alpha_beta_large_sample_consistency():
    small = expected_alpha_beta(CFG, NOISE, 1000, 11)
    large = expected_alpha_beta(CFG, NOISE, 200_000, 12)
    combined = math.hypot(small.stderr, large.stderr)
    assert abs(small.alpha - large.alpha) < 4.0 * combined


def test_alpha_beta_sum_independent_of_dephasing():
    fast = expected_alpha_beta(CFG, NoiseParams(0.01, t2_s=1e-3, prep_time_s=2e-6), 500, 5)
    slow = expected_alpha_beta(CFG, NoiseParams(0.01, t2_s=10.0, prep_time_s=2e-6), 500, 5)
    expected_total = (1.0 - 0.005) ** 2
    assert fast.alpha + fast.beta == pytest.approx(expected_total, abs=1e-12)
    assert slow.alpha + slow.beta == pytest.approx(expected_total, abs=1e-12)


def test_alpha_monotone_in_dephasing_time_coupled_draws():
    values = []
    for t2 in (0.01, 0.1, 1.0, 10.0):
        noise = NoiseParams(0.01, t2_s=t2, prep_time_s=2e-6)
        values.append(expected_alpha_beta(CFG, noise, 500, 99).alpha)
    assert values == sorted(values)


def _draws(cfg, samples, seed):
    # the success-trial indices expected_alpha_beta draws from this seed
    rng = np.random.default_rng(seed)
    n_a = rng.geometric(cfg.p_a, size=samples)
    n_b = rng.geometric(cfg.p_b, size=(samples, cfg.n_parties - 1))
    return n_a, n_b


def test_waiting_times_clamped():
    # a pair finishing after the Alice photon cannot store for negative time:
    # its wait is only the classical round trip.  With d_A = d_B the Alice
    # trial is the shorter one, so such draws occur.
    cfg = NetworkConfig(3, 4.0, 4.0)
    timing = trial_times(cfg, NOISE)

    def all_clamped(seed):
        (n_a,), (n_b,) = _draws(cfg, 1, seed)
        return all(n_a * timing.tau_a_s - n * timing.tau_b_s < 0.0 for n in n_b)

    seed = next(s for s in range(1000) if all_clamped(s))
    decay = math.exp(-2.0 * timing.comm_b_s / timing.t2_s)
    total = (1.0 - 0.005) ** 2
    signed = (1.0 - 0.01) ** 2 * decay * decay
    estimate = expected_alpha_beta(cfg, NOISE, 1, seed)
    assert estimate.alpha == pytest.approx(0.5 * (total + signed), abs=1e-15)
    assert estimate.beta == pytest.approx(0.5 * (total - signed), abs=1e-15)


def test_single_draw_matches_hand_expansion():
    # Replay expected_alpha_beta's draws through the scalar chain that the
    # density-matrix oracle verifies (storage wait -> pair_coefficients ->
    # alpha_beta_closed_form) and, for one draw, through the hand expansion
    # of the parity sums.
    cfg = NetworkConfig(3, 4.0, 4.0)
    samples, seed = 2000, 17
    estimate = expected_alpha_beta(cfg, NOISE, samples, seed)
    timing = trial_times(cfg, NOISE)
    n_a, n_b = _draws(cfg, samples, seed)
    alphas, clamped = [], 0
    for trials_a, trials_b in zip(n_a, n_b):
        pairs, decays = [], []
        for trial_b in trials_b:
            raw = trials_a * timing.tau_a_s - trial_b * timing.tau_b_s
            clamped += raw < 0.0
            decay = math.exp(-(max(raw, 0.0) + timing.comm_b_s) / timing.t2_s)
            pairs.append(pair_coefficients(decay, decay, NOISE.f_depol))
            decays.append(decay * decay)
        alphas.append(alpha_beta_closed_form(pairs)[0])
        total = (1.0 - 0.005) ** 2
        signed = (1.0 - 0.01) ** 2 * decays[0] * decays[1]
        assert alphas[-1] == pytest.approx(0.5 * (total + signed), abs=1e-15)
    assert 0 < clamped < n_b.size
    assert estimate.alpha == pytest.approx(math.fsum(alphas) / samples, rel=0.0, abs=1e-12)


def test_expected_memory_qbers_reference_point():
    qbers, est = expected_memory_qbers(CFG, NOISE, 1000, 7)
    # dephasing adds X errors on top of the channel floor; Z errors stay at
    # the channel-only value
    assert 0.0149 < qbers.q_z < 0.015
    assert qbers.q_x > qbers.q_z
    assert est.samples == 1000
