import math

import pytest
from hypothesis import given, strategies as st

from ghznet.network import Family, NetworkConfig, ProtocolSpec
from ghznet.noise import NoiseParams, QberPair, memoryless_qber
from ghznet.rates import asymptotic_rate, cka_equals_qss_check, hbb_rate

D_HALF = 15.051499783199059


def test_noiseless_threshold_equality():
    cfg = NetworkConfig.make_symmetric(3, D_HALF)
    qb_multi = memoryless_qber(0.0, 3)
    qb_bi = memoryless_qber(0.0, 2)
    multi = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), qb_multi)
    bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), qb_bi)
    assert multi.rate == pytest.approx(0.125, abs=1e-12)
    assert bi.rate == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_perfect_network_rate_is_one(n):
    cfg = NetworkConfig.make_symmetric(n, 0.0)
    rate = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(0.0, n))
    assert rate.rate == 1.0


def test_short_distance_ordering_with_noise():
    # at short range the multipartite protocol stays ahead despite noise
    cfg = NetworkConfig.make_symmetric(3, 4.0)
    multi = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(0.02, 3))
    bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), memoryless_qber(0.02, 2))
    assert multi.rate > bi.rate > 0.0


def test_rate_clamped_and_components():
    cfg = NetworkConfig.make_symmetric(2, 0.0)
    rate = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), QberPair(0.3, 0.3))
    assert rate.raw < 0.0
    assert rate.rate == 0.0
    assert rate.rate <= rate.yield_per_use
    assert 1.0 - rate.entropy_x - rate.entropy_z == pytest.approx(1.0 - 2.0 * rate.entropy_x)


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.0, max_value=30.0),
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=1e-4, max_value=0.05),
)
def test_rate_monotone_in_noise_and_distance(n, d, f, step):
    spec = ProtocolSpec(Family.MQSS)
    rate = asymptotic_rate(NetworkConfig.make_symmetric(n, d), spec, memoryless_qber(f, n))
    noisier = asymptotic_rate(
        NetworkConfig.make_symmetric(n, d), spec, memoryless_qber(min(f + step, 1.0), n)
    )
    farther = asymptotic_rate(
        NetworkConfig.make_symmetric(n, d + 10.0 * step), spec, memoryless_qber(f, n)
    )
    assert noisier.rate <= rate.rate + 1e-12
    assert farther.rate <= rate.rate + 1e-12


@given(st.integers(min_value=3, max_value=9), st.floats(min_value=0.0, max_value=25.0))
def test_noiseless_rate_ratio_identity(n, d):
    cfg = NetworkConfig.make_symmetric(n, d)
    multi = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(0.0, n))
    bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), memoryless_qber(0.0, 2))
    assert multi.rate / bi.rate == pytest.approx((n - 1) * cfg.p_a ** (n - 2), rel=1e-9)


def test_noiseless_threshold_solves_closed_form():
    for n in (3, 4, 5):
        p_star = (n - 1) ** (-1.0 / (n - 2))
        d_star = -50.0 * math.log10(p_star)
        cfg = NetworkConfig.make_symmetric(n, d_star)
        multi = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(0.0, n))
        bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), memoryless_qber(0.0, 2))
        assert multi.rate == pytest.approx(bi.rate, rel=1e-12)


def test_hbb_rate_never_positive():
    assert hbb_rate(0.0).raw == 0.0
    assert hbb_rate(0.05).raw < 0.0
    assert hbb_rate(0.05).rate == 0.0


@given(st.floats(min_value=1e-9, max_value=0.5), st.floats(min_value=0.0, max_value=1.0))
def test_hbb_rate_property(q_x, yield_per_use):
    assert hbb_rate(q_x, yield_per_use).raw <= 0.0


def test_cka_equals_qss():
    assert cka_equals_qss_check(NetworkConfig.make_symmetric(3, 5.0), NoiseParams(0.02))
    assert cka_equals_qss_check(NetworkConfig(5, 50.0, 4.0), NoiseParams(0.01))


def test_duality_holds_for_memory_chain_qbers():
    from ghznet.noise import memory_qbers_from_exponents

    cfg = NetworkConfig(5, 50.0, 4.0)
    qbers = memory_qbers_from_exponents([(0.95, 0.9)] * 4, 0.01)
    spec_qss = ProtocolSpec(Family.MQSS, memories=True)
    spec_cka = ProtocolSpec(Family.MCKA, memories=True)
    assert asymptotic_rate(cfg, spec_qss, qbers).raw == pytest.approx(
        asymptotic_rate(cfg, spec_cka, qbers).raw, abs=1e-15
    )


def test_distinct_qbers_give_distinct_rates():
    cfg = NetworkConfig.make_symmetric(3, 5.0)
    spec = ProtocolSpec(Family.MQSS)
    base = asymptotic_rate(cfg, spec, QberPair(0.02, 0.02))
    perturbed = asymptotic_rate(cfg, spec, QberPair(0.02, 0.03))
    assert abs(base.raw - perturbed.raw) > 1e-12
