import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghznet.network import (
    BasisStrategy,
    Family,
    NetworkConfig,
    ProtocolSpec,
    expected_counts,
    formula_party_count,
    sifting,
    simulate_sifting,
    yields,
)

D_HALF = 15.051499783199059  # 50*log10(2), transmission one half


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(1, 10.0, 10.0)
    with pytest.raises(ValueError):
        NetworkConfig(3, -1.0, 4.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            NetworkConfig(3, bad, 4.0)
        with pytest.raises(ValueError, match="finite"):
            NetworkConfig(3, 10.0, bad)
        with pytest.raises(ValueError, match="finite"):
            NetworkConfig.make_symmetric(3, bad)


def test_protocol_spec_defaults_and_guard():
    assert ProtocolSpec(Family.MQSS).basis_strategy is BasisStrategy.SWITCHING
    assert ProtocolSpec(Family.MCKA).basis_strategy is BasisStrategy.PRESHARED
    assert ProtocolSpec(Family.BQSS).basis_strategy is BasisStrategy.SWITCHING
    assert ProtocolSpec(Family.BCKA).basis_strategy is BasisStrategy.PRESHARED
    with pytest.raises(ValueError):
        ProtocolSpec(Family.MQSS, basis_strategy=BasisStrategy.PRESHARED)
    # bipartite CKA may switch bases
    spec = ProtocolSpec(Family.BCKA, basis_strategy=BasisStrategy.SWITCHING)
    assert spec.basis_strategy is BasisStrategy.SWITCHING


def test_yields_symmetric_threshold_point():
    cfg = NetworkConfig.make_symmetric(3, D_HALF)
    assert yields(cfg, ProtocolSpec(Family.MQSS)) == pytest.approx(0.125, abs=1e-12)
    # equality with the bipartite value at p = 1/2 is the noiseless N=3 threshold
    assert yields(cfg, ProtocolSpec(Family.BQSS)) == pytest.approx(0.125, abs=1e-12)


def test_yields_memory_case():
    for n in (2, 3, 7):
        cfg = NetworkConfig(n, 50.0, 4.0)
        assert yields(cfg, ProtocolSpec(Family.MQSS, memories=True)) == pytest.approx(0.1)
        assert yields(cfg, ProtocolSpec(Family.BQSS, memories=True)) == pytest.approx(
            0.1 / (n - 1)
        )


def test_yields_memory_requires_short_bob_links():
    cfg = NetworkConfig(3, 4.0, 50.0)
    with pytest.raises(ValueError):
        yields(cfg, ProtocolSpec(Family.MQSS, memories=True))


def test_yields_memoryless_asymmetric():
    cfg = NetworkConfig(4, 50.0, 4.0)
    p_a, p_b = cfg.p_a, cfg.p_b
    assert yields(cfg, ProtocolSpec(Family.MQSS)) == pytest.approx(p_a * p_b**3)
    assert yields(cfg, ProtocolSpec(Family.BQSS)) == pytest.approx(p_a * p_b / 3.0)


@given(st.integers(min_value=2, max_value=12), st.floats(min_value=10.0, max_value=200.0))
def test_memory_yield_ratio_is_parties_minus_one(n, d_a):
    # the long link cancels out of the memory-case comparison
    cfg = NetworkConfig(n, d_a, 10.0)
    ratio = yields(cfg, ProtocolSpec(Family.MQSS, memories=True)) / yields(
        cfg, ProtocolSpec(Family.BQSS, memories=True)
    )
    assert ratio == pytest.approx(n - 1, rel=1e-12)


def test_sifting_preshared():
    eta = sifting(ProtocolSpec(Family.MCKA, p_key=0.9), 3)
    assert (eta.eta_key, eta.eta_check) == pytest.approx((0.9, 0.1))


def test_sifting_switching_printed():
    eta = sifting(ProtocolSpec(Family.MQSS, p_key=0.9), 3)
    assert eta.eta_key == pytest.approx(0.729)
    assert eta.eta_check == pytest.approx(0.01)


def test_sifting_switching_two_parties():
    eta = sifting(ProtocolSpec(Family.BQSS, p_key=0.7), 2)
    assert eta.eta_key == pytest.approx(0.49)
    assert eta.eta_check == pytest.approx(0.09)


def test_sifting_all_bobs_variant():
    # oracle-check's reference count: Alice plus at least one of the N-1 Bobs
    # in the check basis.  It agrees with the key-length rule for two parties
    # only.
    def all_bobs(p, n):
        return (1.0 - p) * (1.0 - p ** (n - 1))

    two = sifting(ProtocolSpec(Family.BQSS, p_key=0.7), 2)
    assert two.eta_check == pytest.approx(all_bobs(0.7, 2), rel=1e-15)
    for n in range(3, 7):
        printed = sifting(ProtocolSpec(Family.MQSS, p_key=0.9), n)
        assert printed.eta_check < all_bobs(0.9, n)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=2, max_value=10),
    st.sampled_from([Family.MQSS, Family.MCKA]),
)
def test_sifting_efficiencies_bounded(p_key, n, family):
    eta = sifting(ProtocolSpec(family, p_key=p_key), n)
    assert 0.0 <= eta.eta_key <= 1.0
    assert eta.eta_key + eta.eta_check <= 1.0 + 1e-12


def test_sifting_no_checks_at_full_key_bias():
    for family in (Family.MQSS, Family.MCKA):
        eta = sifting(ProtocolSpec(family, p_key=1.0), 4)
        assert eta.eta_check == 0.0


def test_expected_counts_cka_memory():
    cfg = NetworkConfig(3, 50.0, 4.0)
    spec = ProtocolSpec(Family.MCKA, memories=True, p_key=0.5)
    counts = expected_counts(cfg, spec, 1e6)
    assert counts.m == pytest.approx(50_000.0)
    assert counts.k == pytest.approx(50_000.0)


def test_expected_counts_qss_memory():
    cfg = NetworkConfig(3, 50.0, 4.0)
    spec = ProtocolSpec(Family.MQSS, memories=True, p_key=0.5)
    counts = expected_counts(cfg, spec, 1e6)
    assert counts.m == pytest.approx(12_500.0)
    assert counts.k == pytest.approx(25_000.0)


def test_expected_counts_per_pair_option():
    # counting checks per Alice-Bob pair, (1-p)^2 of the delivered rounds,
    # would give fewer checks than the global count the key length uses
    cfg = NetworkConfig(4, 50.0, 4.0)
    spec = ProtocolSpec(Family.MQSS, memories=True, p_key=0.5)
    counts = expected_counts(cfg, spec, 1e6)
    per_pair = (1.0 - spec.p_key) ** 2 * yields(cfg, spec) * 1e6
    assert per_pair == pytest.approx(0.25 * 0.1 * 1e6)
    assert per_pair < counts.k


def test_expected_counts_no_checks():
    cfg = NetworkConfig(3, 50.0, 4.0)
    counts = expected_counts(cfg, ProtocolSpec(Family.MQSS, memories=True, p_key=1.0), 1e6)
    assert counts.k == 0.0


def test_formula_party_count():
    cfg = NetworkConfig(5, 50.0, 4.0)
    assert formula_party_count(cfg, ProtocolSpec(Family.MQSS)) == 5
    assert formula_party_count(cfg, ProtocolSpec(Family.BQSS)) == 2


def test_simulate_sifting_degenerate():
    assert simulate_sifting(ProtocolSpec(Family.MQSS, p_key=1.0), 3, 1000, 0) == (1.0, 0.0)
    assert simulate_sifting(ProtocolSpec(Family.MQSS, p_key=0.0), 3, 1000, 0) == (0.0, 1.0)


def test_simulate_sifting_concentrates():
    spec = ProtocolSpec(Family.MQSS, p_key=0.9)
    emp_key, emp_check = simulate_sifting(spec, 3, 200_000, 42)
    sigma = np.sqrt(0.729 * (1.0 - 0.729) / 200_000)
    assert abs(emp_key - 0.729) < 5.0 * sigma
    # the check count follows the all-Bobs counting
    ref = 0.1 * (1.0 - 0.81)
    sigma_c = np.sqrt(ref * (1.0 - ref) / 200_000)
    assert abs(emp_check - ref) < 5.0 * sigma_c


def test_simulate_sifting_preshared_common_coin():
    emp_key, emp_check = simulate_sifting(ProtocolSpec(Family.MCKA, p_key=0.8), 5, 100_000, 3)
    assert emp_key + emp_check == pytest.approx(1.0)
    assert abs(emp_key - 0.8) < 5.0 * np.sqrt(0.8 * 0.2 / 100_000)
