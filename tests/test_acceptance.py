"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and the sifting-rule comparison table.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ghznet.analysis import (
    ThresholdQuery,
    advantage_profile,
    find_threshold,
    optimized_fraction,
    scenario_qbers,
)
from ghznet.finite import FiniteSizeParams, _hoeffding, _serfling, bipartite_optimal
from ghznet.network import (
    Family,
    NetworkConfig,
    ProtocolSpec,
    sifting,
    simulate_sifting,
)
from ghznet.noise import PairCoefficients, alpha_beta_closed_form, memoryless_qber
from ghznet.oracle import alpha_beta_subset_sum, oracle_grid
from ghznet.rates import asymptotic_rate, hbb_rate

MEMORY_NOISE = dict(f_depol=0.01, t2_s=1.0, prep_time_s=2e-6)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS: {description}")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "density oracle matches the analytic error-rate chain to 1e-10"):
        start = time.monotonic()
        rows = oracle_grid(
            max_n=3,
            f_grid=(0.0, 0.01, 0.05, 0.2),
            exponent_values=(1.0, 0.9, 0.5),
            tol=1e-10,
        )
        elapsed = time.monotonic() - start
        worst = max(row.max_abs_error for row in rows)
        assert all(row.passed for row in rows), f"worst deviation {worst:.3e}"
        assert elapsed < 10.0, f"oracle grid took {elapsed:.1f}s"


def test_criterion_02_parity_trick():
    with criterion(2, "closed-form parity sums equal subset enumeration to 1e-12"):
        rng = np.random.default_rng(2024)
        draws = 0
        for size in range(1, 13):
            for _ in range(9):
                pairs = [
                    PairCoefficients(0.5, 0.5, float(t), float(p))
                    for t, p in zip(rng.random(size), rng.random(size))
                ]
                closed = alpha_beta_closed_form(pairs)
                brute = alpha_beta_subset_sum(pairs)
                scale = max(abs(brute[0]), abs(brute[1]), 1e-300)
                assert abs(closed[0] - brute[0]) / scale < 1e-12
                assert abs(closed[1] - brute[1]) / scale < 1e-12
                draws += 1
        assert draws >= 100


def test_criterion_03_noiseless_distance_thresholds():
    with criterion(3, "noiseless advantage thresholds at 15.05 km (N=3), 11.93 km (N=4)"):
        res3 = find_threshold(ThresholdQuery("distance", 3, fixed_noise=0.0), (1.0, 30.0))
        res4 = find_threshold(ThresholdQuery("distance", 4, fixed_noise=0.0), (1.0, 30.0))
        assert res3.value == pytest.approx(15.05, abs=0.05)
        assert res4.value == pytest.approx(11.93, abs=0.05)


def test_criterion_04_xy_scheme_rate_never_positive():
    with criterion(4, "X/Y-basis secret sharing rate is never positive"):
        rng = np.random.default_rng(4)
        for q_x in rng.uniform(1e-12, 0.5, size=1000):
            assert hbb_rate(float(q_x)).raw <= 0.0


def test_criterion_05_asymptotic_duality():
    with criterion(5, "secret sharing and conference keys share the asymptotic rate"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            cfg = NetworkConfig.make_symmetric(n, float(rng.uniform(0.0, 30.0)))
            qbers = memoryless_qber(float(rng.uniform(0.0, 0.3)), n)
            rate_qss = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), qbers)
            rate_cka = asymptotic_rate(cfg, ProtocolSpec(Family.MCKA), qbers)
            assert abs(rate_qss.raw - rate_cka.raw) < 1e-12


def test_criterion_06_sifting_oracle():
    rounds = 1_000_000
    rng = np.random.default_rng(6)
    verdicts = []
    with criterion(6, "sifting simulation matches eta_key within 5 sigma; check rule reported"):
        for n in range(2, 7):
            for p_key in (0.5, 0.9, 0.99):
                spec = ProtocolSpec(Family.MQSS, p_key=p_key)
                emp_key, emp_check = simulate_sifting(spec, n, rounds, rng)
                printed = sifting(spec, n)
                # reference: Alice plus at least one of the N-1 Bobs in the check basis
                all_bobs_check = (1.0 - p_key) * (1.0 - p_key ** (n - 1))

                def within(emp, ref):
                    sigma = max(math.sqrt(ref * (1.0 - ref) / rounds), 1e-12)
                    return abs(emp - ref) <= 5.0 * sigma

                assert within(emp_key, printed.eta_key), (n, p_key, emp_key)
                hit_printed = within(emp_check, printed.eta_check)
                hit_all_bobs = within(emp_check, all_bobs_check)
                verdict = {
                    (True, True): "both",
                    (False, True): "all-bobs",
                    (True, False): "printed",
                    (False, False): "neither",
                }[(hit_printed, hit_all_bobs)]
                verdicts.append((n, p_key, verdict))
                assert hit_all_bobs, (n, p_key, emp_check, all_bobs_check)
        print("\ncheck-round rule comparison (which analytic form matches the simulation):")
        for n, p_key, verdict in verdicts:
            print(f"  N={n} p_key={p_key:<4}: {verdict}")
        assert {v for _, _, v in verdicts} <= {"both", "all-bobs"}


def test_criterion_07_memory_advantage_profile():
    with criterion(7, "advantage persists to N=20+-2 with memories, 10+-1 without (d_A=30 km)"):
        start = time.monotonic()
        from ghznet.noise import NoiseParams

        noise = NoiseParams(**MEMORY_NOISE)
        cfg = NetworkConfig(2, 30.0, 4.0)
        with_mem = advantage_profile(cfg, noise, 26, memories=True, mc_samples=1000, seed=1)
        without = advantage_profile(cfg, noise, 26, memories=False, mc_samples=1000, seed=1)
        elapsed = time.monotonic() - start
        assert with_mem.max_n_advantage == pytest.approx(20, abs=2)
        assert without.max_n_advantage == pytest.approx(10, abs=1)
        assert elapsed < 60.0, f"profiles took {elapsed:.1f}s"


def test_criterion_08a_finite_size_asymptote_recovery():
    # The 5% target is asserted exactly as stated.  With the expected-key
    # formulas implemented here the best achievable gap at a 1e10 block is
    # about 5.7% (pre-shared CKA) and 6.7% (switching QSS): the Serfling
    # penalty with the optimized check fraction plus the basis-string
    # replenishment floor the deficit above 5% at these parameters, so this
    # criterion documents a real shortfall rather than a code defect.
    with criterion(8, "secret fractions at a 1e10 block within 5% of the asymptote"):
        from ghznet.noise import NoiseParams

        noise = NoiseParams(**MEMORY_NOISE)
        cfg = NetworkConfig(3, 50.0, 4.0)
        qb = scenario_qbers(cfg, ProtocolSpec(Family.MQSS, memories=True), noise, 1000, 1)
        asymptote = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS, memories=True), qb).rate
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e10)
        _, res_qss = optimized_fraction(cfg, Family.MQSS, fsp, qb, memories=True)
        _, res_cka = optimized_fraction(cfg, Family.MCKA, fsp, qb, memories=True)
        gap_qss = 1.0 - res_qss.secret_fraction / asymptote
        gap_cka = 1.0 - res_cka.secret_fraction / asymptote
        print(f"\nrelative gap to asymptote at block 1e10: mQSS {gap_qss:.2%}, mCKA {gap_cka:.2%}")
        assert gap_cka <= 0.05, f"mCKA gap {gap_cka:.2%} exceeds 5%"
        assert gap_qss <= 0.05, f"mQSS gap {gap_qss:.2%} exceeds 5%"


def test_criterion_08b_memoryless_advantage_dies_after_seven():
    # Block size is not stated with the source figure; 1e5 reproduces both
    # quoted memoryless numbers (growth to ~4 players, advantage gone
    # after 7) and is pinned here.
    with criterion(8, "memoryless finite advantage vanishes after 7+-1 players"):
        from ghznet.noise import NoiseParams

        noise = NoiseParams(**MEMORY_NOISE)
        cfg = NetworkConfig(2, 50.0, 4.0)
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e5)
        profile = advantage_profile(
            cfg, noise, 12, memories=False, fsp=fsp, mc_samples=1000, seed=1
        )
        assert profile.max_n_advantage == pytest.approx(7, abs=1)


def test_criterion_09_optimizer_sanity():
    with criterion(9, "optimal p_key grows with block size; strategy switches to pre-shared"):
        from ghznet.noise import NoiseParams

        noise = NoiseParams(**MEMORY_NOISE)
        cfg = NetworkConfig(3, 50.0, 4.0)
        qb_multi = scenario_qbers(cfg, ProtocolSpec(Family.MQSS, memories=True), noise, 1000, 1)
        qb_bi = scenario_qbers(cfg, ProtocolSpec(Family.BQSS, memories=True), noise, 1000, 1)
        blocks = [10.0**e for e in range(4, 13)]
        p_qss = []
        p_cka = []
        for block in blocks:
            fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
            opt_qss, _ = optimized_fraction(cfg, Family.MQSS, fsp, qb_multi, memories=True)
            opt_cka, _ = optimized_fraction(cfg, Family.MCKA, fsp, qb_multi, memories=True)
            assert not opt_qss.indeterminate
            p_qss.append(opt_qss.x)
            if not opt_cka.indeterminate:
                p_cka.append(opt_cka.x)
        assert all(b >= a - 1e-6 for a, b in zip(p_qss, p_qss[1:]))
        assert all(b >= a - 1e-6 for a, b in zip(p_cka, p_cka[1:]))
        assert p_qss[-1] > 0.99
        assert p_cka[-1] > 0.99
        # bipartite baseline: switching wins at small blocks, pre-shared at large
        noise_small = FiniteSizeParams(epsilon=1e-10, block_size=1e6)
        noise_large = FiniteSizeParams(epsilon=1e-10, block_size=1e12)
        small = bipartite_optimal(cfg, noise, noise_small, memory_qbers=qb_bi)
        large = bipartite_optimal(cfg, noise, noise_large, memory_qbers=qb_bi)
        assert small.family is Family.BQSS
        assert large.family is Family.BCKA


def test_criterion_10_statistical_penalty_spot_values():
    with criterion(10, "Hoeffding and Serfling penalty spot values"):
        log_inv_eps = math.log(1e10)
        assert _hoeffding(log_inv_eps, 1e6) == pytest.approx(4.799e-3, abs=1e-6)
        assert _serfling(log_inv_eps, 1e6, 1e6) == pytest.approx(6.786e-3, abs=1e-6)
