import math

import pytest
from hypothesis import given, strategies as st

from ghznet.noise import (
    GhzPrefactors,
    NoiseParams,
    PairCoefficients,
    alpha_beta_closed_form,
    ghz_prefactors,
    memoryless_qber,
    memory_qbers,
    memory_qbers_from_exponents,
    pair_coefficients,
)
from ghznet.oracle import alpha_beta_subset_sum

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_noise_params_validation():
    NoiseParams(0.0)
    NoiseParams(1.0, t2_s=math.inf)
    with pytest.raises(ValueError):
        NoiseParams(1.2)
    with pytest.raises(ValueError):
        NoiseParams(0.1, t2_s=0.0)
    with pytest.raises(ValueError):
        NoiseParams(0.1, prep_time_s=-1.0)


def test_memoryless_qber_values():
    noiseless = memoryless_qber(0.0, 5)
    assert (noiseless.q_x, noiseless.q_z) == (0.0, 0.0)
    qb = memoryless_qber(0.02, 3)
    assert qb.q_x == pytest.approx(0.029404, abs=1e-9)
    assert qb.q_z == qb.q_x
    assert memoryless_qber(1.0, 2).q_x == pytest.approx(0.5)


@given(
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=1e-6, max_value=0.01),
    st.integers(min_value=2, max_value=20),
)
def test_memoryless_qber_monotone(f, df, n):
    assert memoryless_qber(f + df, n).q_x >= memoryless_qber(f, n).q_x
    assert memoryless_qber(f, n + 1).q_x >= memoryless_qber(f, n).q_x


def test_pair_coefficients_examples():
    perfect = pair_coefficients(1.0, 1.0, 0.0)
    assert (perfect.keep, perfect.flip) == (1.0, 0.0)
    assert (perfect.w_keep, perfect.w_flip) == (1.0, 0.0)
    dephased = pair_coefficients(0.0, 0.0, 0.0)
    assert dephased.keep == dephased.flip == 0.5
    assert dephased.w_keep == dephased.w_flip == 0.5
    noisy = pair_coefficients(1.0, 1.0, 0.04)
    assert noisy.w_keep == pytest.approx(0.97)
    assert noisy.w_flip == pytest.approx(0.01)


@given(unit, unit, unit)
def test_pair_coefficient_sum_rule(exp_b, exp_c, f):
    pair = pair_coefficients(exp_b, exp_c, f)
    assert pair.keep + pair.flip == pytest.approx(1.0, abs=1e-12)
    # the pair weight sum depends only on the channel noise
    assert pair.w_keep + pair.w_flip == pytest.approx(1.0 - 0.5 * f, abs=1e-12)
    assert pair.w_keep >= pair.w_flip


def test_alpha_beta_pure_and_dephased():
    pure = [pair_coefficients(1.0, 1.0, 0.0)] * 3
    assert alpha_beta_closed_form(pure) == pytest.approx((1.0, 0.0))
    flat = [PairCoefficients(0.5, 0.5, 0.5, 0.5)] * 2
    assert alpha_beta_closed_form(flat) == pytest.approx((0.5, 0.5))
    with pytest.raises(ValueError):
        alpha_beta_closed_form([])


def test_alpha_beta_two_pair_expansion():
    # explicit subset expansion for two pairs anchors both implementations
    one = PairCoefficients(0.5, 0.5, 0.7, 0.2)
    two = PairCoefficients(0.5, 0.5, 0.6, 0.3)
    even = 0.7 * 0.6 + 0.2 * 0.3
    odd = 0.7 * 0.3 + 0.2 * 0.6
    assert alpha_beta_closed_form([one, two]) == pytest.approx((even, odd), abs=1e-15)
    assert alpha_beta_subset_sum([one, two]) == pytest.approx((even, odd), abs=1e-15)


@given(
    st.lists(st.tuples(unit, unit), min_size=1, max_size=12),
)
def test_alpha_beta_closed_form_matches_enumeration(weights):
    pairs = [PairCoefficients(0.5, 0.5, w_keep, w_flip) for w_keep, w_flip in weights]
    closed = alpha_beta_closed_form(pairs)
    brute = alpha_beta_subset_sum(pairs)
    scale = max(abs(brute[0]), abs(brute[1]), 1e-300)
    assert abs(closed[0] - brute[0]) / scale < 1e-12
    assert abs(closed[1] - brute[1]) / scale < 1e-12


def test_ghz_prefactors_noiseless_passthrough():
    pref = ghz_prefactors(0.83, 0.17, 0.0, 4)
    assert (pref.a, pref.b) == (0.83, 0.17)


def test_ghz_prefactors_plugin_value():
    # formula plug-in at alpha=1, beta=0: the all-flipped branch adds
    # 2^(N-1) (f/4)^N = 2e-4 at N=2, f=0.04 (anchored by the density oracle)
    pref = ghz_prefactors(1.0, 0.0, 0.04, 2)
    assert pref.a == pytest.approx(0.97 + 2.0 * 0.01**2, abs=1e-15)
    assert pref.b == pytest.approx(0.01 + 2.0 * 0.01**2, abs=1e-15)


@pytest.mark.parametrize("f_depol", [0.0, 0.01, 0.04, 0.3, 1.0])
def test_ghz_prefactors_flip_term_from_ldexp(f_depol):
    # at alpha = beta = 0 both weights are the all-flipped term alone; it
    # equals the integer-power product bit for bit wherever that product ran
    for n in range(2, 1025):
        pref = ghz_prefactors(0.0, 0.0, f_depol, n)
        assert pref.a == pref.b == 2 ** (n - 1) * (f_depol / 4.0) ** n, n
    # past N = 1024 the integer power no longer converts to a float
    with pytest.raises(OverflowError):
        2 ** 1024 * (f_depol / 4.0) ** 1025
    # where (f/4)^N underflows, the term is 0
    assert ghz_prefactors(0.0, 0.0, f_depol, 1100).a == 0.0


@given(
    st.integers(min_value=2, max_value=8),
    unit,
    st.lists(st.tuples(unit, unit), min_size=1, max_size=7),
)
def test_prefactor_total_weight_physical(n, f, exponents):
    exponents = (exponents * n)[: n - 1]
    pairs = [pair_coefficients(eb, ec, f) for eb, ec in exponents]
    alpha, beta = alpha_beta_closed_form(pairs)
    pref = ghz_prefactors(alpha, beta, f, n)
    assert pref.a >= pref.b - 1e-12
    assert pref.a + pref.b <= 1.0 + 1e-9


def test_memory_qbers_examples():
    ideal = memory_qbers(GhzPrefactors(1.0, 0.0, 1.0, 0.0))
    assert (ideal.q_x, ideal.q_z) == (0.0, 0.0)
    fully_dephased = memory_qbers(GhzPrefactors(0.5, 0.5, 0.5, 0.5))
    assert fully_dephased.q_x == pytest.approx(0.5)
    assert fully_dephased.q_z == pytest.approx(0.0)


def test_memory_qbers_rejects_unphysical():
    with pytest.raises(ValueError):
        memory_qbers(GhzPrefactors(0.9, 0.2, 0.9, 0.2))


@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
def test_dephasing_only_never_causes_z_errors(exponents):
    qb = memory_qbers_from_exponents(exponents, 0.0)
    assert qb.q_z == pytest.approx(0.0, abs=1e-12)


def test_memory_chain_two_parties_perfect_memory_matches_two_channels():
    # with perfect memories the two-party swapped state reproduces the
    # two-channel depolarization error rates
    for f in (0.0, 0.01, 0.2, 0.7):
        chain = memory_qbers_from_exponents([(1.0, 1.0)], f)
        direct = memoryless_qber(f, 2)
        assert chain.q_x == pytest.approx(direct.q_x, abs=1e-12)
        assert chain.q_z == pytest.approx(direct.q_z, abs=1e-12)


def test_memory_chain_three_parties_differs_from_channel_model():
    chain = memory_qbers_from_exponents([(1.0, 1.0)] * 2, 0.2)
    direct = memoryless_qber(0.2, 3)
    assert abs(chain.q_z - direct.q_z) > 1e-3
