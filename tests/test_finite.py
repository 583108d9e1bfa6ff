import ast
import math
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghznet
from ghznet.core import binary_entropy
from ghznet.finite import (
    BipartiteOptimum,
    FiniteSizeParams,
    KeyLengthModel,
    KeyLengthResult,
    _GRID_ENTROPY,
    _entropy_penalty,
    _grid_sifting,
    _hoeffding,
    _key_terms,
    _serfling,
    bipartite_models,
    bipartite_optimal,
    expected_key_length,
    stacked_fractions,
)
from ghznet.network import BasisStrategy, Family, NetworkConfig, ProtocolSpec
from ghznet.noise import NoiseParams, QberPair, memoryless_qber
from ghznet.optimize import UNIT_GRID, maximize_unit_interval

CFG = NetworkConfig(3, 50.0, 4.0)
NOISE = NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6)
QB_MULTI = memoryless_qber(0.01, 3)
QB_BI = memoryless_qber(0.01, 2)


def key_length(cfg, spec, fsp, qbers):
    """One protocol's key length at its spec's p_key."""
    return KeyLengthModel(cfg, spec, fsp, qbers).result(spec.p_key)


# The penalties take log(1/eps), as KeyLengthModel computes it once per model.
def xi1(eps, m):
    return _hoeffding(math.log(1.0 / eps), m)


def xi2(eps, m, k):
    return _serfling(math.log(1.0 / eps), m, k)


def test_xi1_spot_values():
    assert xi1(1.0 / math.e, 1) == pytest.approx(1.0, abs=1e-12)
    assert xi1(1e-10, 1e6) == pytest.approx(4.79852591219e-3, abs=1e-9)
    assert xi1(1e-10, 1e14) < 1e-6


def test_xi2_spot_values():
    assert xi2(1e-10, 1e6, 1e6) == pytest.approx(6.78614381748e-3, abs=1e-9)
    assert xi2(1.0, 1e6, 1e6) == 0.0
    # huge check counts recover the one-sided penalty
    assert xi2(1e-10, 1e6, 1e14) == pytest.approx(xi1(1e-10, 1e6), rel=1e-4)


def test_xi2_no_overflow_for_huge_counts():
    # extreme check counts must hit the xi1 limit, not overflow to nan
    value = xi2(1e-10, 1e5, 1e200)
    assert math.isfinite(value)
    assert value == pytest.approx(xi1(1e-10, 1e5), rel=1e-12)


def test_epsilon_budget_values():
    fsp = FiniteSizeParams(1e-10, block_size=1.0)
    assert fsp.eps_c == pytest.approx(5e-11)
    assert fsp.eps_pa == pytest.approx(2.5e-11)
    assert fsp.eps_pe == pytest.approx(1.25e-11)
    # powers of two make the split exact in binary floating point
    assert fsp.eps_c + fsp.eps_pa + 2.0 * fsp.eps_pe == 1e-10
    loose = FiniteSizeParams(0.8, block_size=1.0)
    assert (loose.eps_c, loose.eps_pa, loose.eps_pe) == (0.4, 0.2, 0.1)


def test_finite_size_params_validation():
    with pytest.raises(TypeError):
        FiniteSizeParams(epsilon=1e-10)
    with pytest.raises(ValueError):
        FiniteSizeParams(epsilon=2.0, block_size=1e6)
    # one security parameter: no robustness or error-correction override
    assert [field.name for field in fields(FiniteSizeParams)] == ["epsilon", "block_size", "mc_samples"]


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(epsilon=1e-300, block_size=1e8), "epsilon"),
    ],
)
def test_finite_size_params_reject_underflowing_log_term(kwargs, name):
    # eps_c * eps_pa**2 underflows to 0: a ValueError naming the field,
    # not a ZeroDivisionError inside KeyLengthModel
    with pytest.raises(ValueError, match=rf"^{name}=.*underflows"):
        FiniteSizeParams(**kwargs)


def test_smallest_config_epsilon_survives_the_link_split():
    from ghznet.config import MIN_EPSILON

    qbers = memoryless_qber(0.01, 2)
    fsp = FiniteSizeParams(MIN_EPSILON, block_size=1e8)
    # every player count a recipe, a benchmark workload or a script default
    # reaches, and past N ~ 225, where (N-1)/(2 eps_c eps_pa^2) overflows
    for n in (*range(2, 31), 300):
        cfg = NetworkConfig(n, 1.0, 1.0)
        link = FiniteSizeParams(MIN_EPSILON / (n - 1), block_size=1e8)
        models = [KeyLengthModel(cfg, ProtocolSpec(family), link, qbers) for family in Family]
        models += bipartite_models(cfg, fsp, [(False, qbers)]).values()
        for model in models:
            assert math.isfinite(model.log_term)


def test_bipartite_models_split_epsilon_over_the_links():
    fsp = FiniteSizeParams(1e-10, block_size=1e8)
    modes = [(False, QB_BI), (True, QberPair(0.0125, 0.00995))]
    # each link of an N-party baseline runs at epsilon/(N-1): two parties
    # keep the whole epsilon, five split it four ways
    for n, link in ((2, fsp), (5, FiniteSizeParams(2.5e-11, block_size=1e8))):
        cfg = NetworkConfig(n, 50.0, 4.0)
        for (family, memories), model in bipartite_models(cfg, fsp, modes).items():
            qbers = dict(modes)[memories]
            assert vars(model) == vars(KeyLengthModel(cfg, ProtocolSpec(family, memories), link, qbers))
            assert model.eps_c == link.eps_c


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["block_size"])
def test_finite_size_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        FiniteSizeParams(epsilon=1e-10, **{name: value})


def test_ell_is_positive_zero_without_rounds():
    # no key-basis detections per use means infinitely many rounds for the
    # block; ell must be +0.0, not -0.0 from max(-0.0, 0.0)
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e6)
    no_key = key_length(CFG, ProtocolSpec(Family.MCKA, p_key=0.0), fsp, QB_MULTI)
    no_yield = key_length(
        NetworkConfig(3, 2e4, 2e4), ProtocolSpec(Family.MQSS, p_key=0.9), fsp, QB_MULTI
    )
    for result in (no_key, no_yield):
        assert result.rounds == math.inf
        assert result.ell == 0.0 and math.copysign(1.0, result.ell) == 1.0
        assert result.secret_fraction == 0.0


SPEC_CHOICES = [
    (Family.MQSS, BasisStrategy.SWITCHING),
    (Family.MCKA, BasisStrategy.PRESHARED),
    (Family.MCKA, BasisStrategy.SWITCHING),
    (Family.BQSS, BasisStrategy.SWITCHING),
    (Family.BQSS, BasisStrategy.PRESHARED),
    (Family.BCKA, BasisStrategy.PRESHARED),
    (Family.BCKA, BasisStrategy.SWITCHING),
]
P_KEYS = (0.0, 1e-8, 0.5, 0.9999, 1.0)


@pytest.mark.parametrize("n_parties", [2, 3, 5, 10])
@pytest.mark.parametrize("family,strategy", SPEC_CHOICES)
def test_key_length_model_matches_expected_key_length(n_parties, family, strategy):
    # the array path's UNIT_GRID row agrees with the single-point path to
    # 1e-12 relative and the scalar objective is the single-point fraction
    # bit for bit, also at the ends of [0, 1] that the grid leaves out
    cfg = NetworkConfig(n_parties, 50.0, 4.0)
    for f_depol in (0.0, 0.01, 0.05, 0.3):
        qbers = memoryless_qber(f_depol, 2 if family.bipartite else n_parties)
        for block in (1e4, 1e8, 1e10):
            fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
            for memories in (False, True):
                model = KeyLengthModel(cfg, ProtocolSpec(family, memories, strategy), fsp, qbers)
                (row,) = stacked_fractions([model])
                for p_key in P_KEYS:
                    spec = ProtocolSpec(family, memories, strategy, p_key)
                    expected = key_length(cfg, spec, fsp, qbers).secret_fraction
                    assert model.fraction(p_key) == expected
                for p_key, from_grid in zip(UNIT_GRID[::7].tolist(), row[::7]):
                    spec = ProtocolSpec(family, memories, strategy, p_key)
                    expected = key_length(cfg, spec, fsp, qbers).secret_fraction
                    assert from_grid == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_parties", [2, 3, 5, 10])
@pytest.mark.parametrize("family,strategy", SPEC_CHOICES)
def test_fraction_is_the_result_fraction_bit_for_bit(n_parties, family, strategy):
    # the optimizer's scalar objective skips the breakdown but not a bit of
    # the arithmetic, down to the sign of a zero fraction
    cfg = NetworkConfig(n_parties, 50.0, 4.0)
    p_keys = [*P_KEYS, *UNIT_GRID[::7].tolist()]
    for f_depol in (0.0, 0.01, 0.05, 0.3):
        qbers = memoryless_qber(f_depol, 2 if family.bipartite else n_parties)
        for block in (1e4, 1e8, 1e10):
            fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
            for memories in (False, True):
                model = KeyLengthModel(cfg, ProtocolSpec(family, memories, strategy), fsp, qbers)
                for p_key in p_keys:
                    fraction = model.fraction(p_key)
                    expected = model.result(p_key).secret_fraction
                    assert type(fraction) is type(expected)
                    assert fraction == expected, (block, f_depol, memories, p_key)
                    assert math.copysign(1.0, fraction) == math.copysign(1.0, expected)


@pytest.mark.parametrize("n_parties", [2, 3, 5, 10])
def test_stacked_rows_equal_single_model_rows(n_parties):
    # stacking every family x strategy x memories changes no bit of a row
    cfg = NetworkConfig(n_parties, 50.0, 4.0)
    for f_depol in (0.0, 0.01, 0.05, 0.3):
        for block in (1e4, 1e8, 1e10):
            fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
            models = [
                KeyLengthModel(
                    cfg, ProtocolSpec(family, memories, strategy), fsp,
                    memoryless_qber(f_depol, 2 if family.bipartite else n_parties),
                )
                for family, strategy in SPEC_CHOICES
                for memories in (False, True)
            ]
            stack = stacked_fractions(models)
            assert stack.shape == (len(models), len(UNIT_GRID))
            for model, row in zip(models, stack):
                assert np.array_equal(row, stacked_fractions([model])[0])


def _reference_result(model, p_key):
    # KeyLengthModel.result as one scalar evaluation, the way it was written
    # before expected_key_length evaluated columns: every row of the column
    # pass must equal it bit for bit
    per_key, per_check, rounds, charge = model._counts(p_key)
    if math.isfinite(rounds):
        m, k, q_pe_eff, q_ec_eff, pe_pen, ec_pen, raw = _key_terms(model, per_key, per_check, rounds, charge)
        log_term = model.log_term
    else:
        m = k = raw = log_term = charge = 0.0
    if m <= 0.0 or k <= 0.0:
        q_pe_eff, q_ec_eff, pe_pen, ec_pen = model.q_pe, model.q_ec, 1.0, 1.0
    ell = raw if raw > 0.0 else 0.0
    if m < 1.0 or k < 1.0:
        status = "insufficient-detections"
    elif ell > 0.0:
        status = "ok"
    else:
        status = "abort"
    q_x_eff, q_z_eff = (q_pe_eff, q_ec_eff) if model.preshared else (q_ec_eff, q_pe_eff)
    return KeyLengthResult(
        ell, raw, rounds, ell / rounds, status, m, k, q_x_eff, q_z_eff, m * pe_pen, m * ec_pen, log_term, charge
    )


def _bits(result):
    # each field's type and repr: repr tells every double apart, -0.0 from 0.0
    values = [getattr(result, field.name) for field in fields(result)]
    return [(type(value), repr(value)) for value in values]


def _row(columns, i):
    return KeyLengthResult(*(getattr(columns, field.name)[i] for field in fields(KeyLengthResult)))


@st.composite
def _model_rows(draw):
    """A model and a p_key over the evaluator's whole domain, with the
    degenerate rows drawn on purpose: no key detections (p_key = 0 or a
    yield that underflows), m < 1 (a block of 1), k < 1 (p_key at or next
    to 1) and penalized error rates at or past 1/2 (QBERs up to 0.6)."""
    family, strategy = draw(st.sampled_from(SPEC_CHOICES))
    memories = draw(st.booleans())
    n = draw(st.integers(2, 30))
    d_b = draw(st.floats(0.0, 200.0))
    # memories need p_a > 0: 10**(-0.02 d) underflows to 0 past d ~ 16,170 km
    d_a = draw(st.floats(d_b, 16000.0)) if memories else draw(st.floats(0.0, 20000.0))
    block = draw(st.one_of(st.just(1.0), st.floats(0.0, 16.0).map(lambda e: 10.0**e)))
    epsilon = 10.0 ** draw(st.floats(-100.0, -3.0))
    # half the error rates low enough that some rows yield key
    qber = st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 0.6))
    qbers = QberPair(draw(qber), draw(qber))
    p_key = draw(st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12]), st.floats(0.0, 1.0)))
    spec = ProtocolSpec(family, memories, strategy)
    model = KeyLengthModel(NetworkConfig(n, d_a, d_b), spec, FiniteSizeParams(epsilon, block), qbers)
    return model, p_key


# 300 examples of up to 8 rows take about 2.5 s on a 2-core x86-64 VM
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_model_rows(), min_size=1, max_size=8))
def test_column_pass_is_the_scalar_result_bit_for_bit(rows):
    models, p_keys = zip(*rows)
    columns = expected_key_length(models, p_keys)
    for i, (model, p_key) in enumerate(rows):
        reference = _bits(_reference_result(model, p_key))
        assert _bits(_row(columns, i)) == reference, (model.strategy, model.n_formula, p_key)
        # a row evaluated on its own, through the one-row view
        assert _bits(model.result(p_key)) == reference


def test_column_pass_takes_every_log_from_math():
    # numpy's log2 and pow differ from math's in the last place on a few
    # inputs per thousand: a dense p_key grid of live rows finds them if
    # the column pass ever takes a log or a pow from numpy
    p_keys = np.linspace(0.3, 1.0, 1001)[:-1].tolist()
    for family, strategy in SPEC_CHOICES:
        model = KeyLengthModel(CFG, ProtocolSpec(family, True, strategy), FiniteSizeParams(1e-10, 1e9), QB_MULTI)
        columns = expected_key_length([model] * len(p_keys), p_keys)
        for i, p_key in enumerate(p_keys):
            assert _bits(_row(columns, i)) == _bits(_reference_result(model, p_key)), (family, strategy, p_key)


def test_entropy_penalty_saturates_and_matches_binary_entropy():
    for q in (math.nan, 0.5, 0.5000001, 0.9, 1.0, math.inf):
        assert _entropy_penalty(q) == 1.0
    zero = _entropy_penalty(0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    for q in (1e-300, 1e-12, 0.01, 0.11, 0.25, 0.4999999):
        assert _entropy_penalty(q) == binary_entropy(q)


def _array_grid(model):
    # the model's own UNIT_GRID row of the stacked array path
    return stacked_fractions([model])[0]


def _pointwise_maximum(model):
    return maximize_unit_interval(
        model.fraction, np.array([model.fraction(float(x)) for x in UNIT_GRID])
    )


@pytest.mark.parametrize(
    "cfg,family,f_depol,block",
    [
        (NetworkConfig.make_symmetric(5, 4.0), Family.MCKA, 0.01, 1e8),
        (NetworkConfig(3, 50.0, 4.0), Family.MQSS, 0.01, 1e12),
        (NetworkConfig(3, 300.0, 4.0), Family.BQSS, 0.3, 1e4),
    ],
    ids=["cka-n5", "pkey-near-one", "dead"],
)
def test_array_grid_matches_pointwise_grid(cfg, family, f_depol, block):
    qbers = memoryless_qber(f_depol, 2 if family.bipartite else cfg.n_parties)
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
    model = KeyLengthModel(cfg, ProtocolSpec(family), fsp, qbers)
    assert maximize_unit_interval(model.fraction, _array_grid(model)) == _pointwise_maximum(model)


def test_qss_abort_without_checks():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e8)
    spec = ProtocolSpec(Family.MQSS, memories=True, p_key=1.0)
    result = key_length(CFG, spec, fsp, QB_MULTI)
    assert result.status == "insufficient-detections"
    assert result.ell == 0.0


def test_abort_on_saturated_qber():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e8)
    spec = ProtocolSpec(Family.MCKA, memories=True, p_key=0.9)
    result = key_length(CFG, spec, fsp, QberPair(0.5, 0.01))
    assert result.ell == 0.0
    assert result.status == "abort"


def test_strategy_dispatch_guards():
    # the formula follows the basis strategy, not the family name: a
    # conference key run with basis switching is the secret-sharing formula,
    # and secret sharing cannot be run with a pre-shared basis string
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e8)
    switching_cka = ProtocolSpec(Family.MCKA, basis_strategy="switching", p_key=0.9)
    assert key_length(CFG, switching_cka, fsp, QB_MULTI) == key_length(
        CFG, ProtocolSpec(Family.MQSS, p_key=0.9), fsp, QB_MULTI
    )
    with pytest.raises(ValueError):
        ProtocolSpec(Family.MQSS, basis_strategy="preshared", p_key=0.9)


def test_penalty_terms_non_negative_and_breakdown():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e9)
    spec = ProtocolSpec(Family.MQSS, memories=True, p_key=0.95)
    result = key_length(CFG, spec, fsp, QB_MULTI)
    assert result.status == "ok"
    assert result.m == pytest.approx(1e9, rel=1e-12)  # the block's key-basis detections
    assert result.pe_term >= 0 and result.ec_term >= 0
    assert result.log_term > 0 and result.preshared_term == 0.0
    assert result.q_z_eff > QB_MULTI.q_z
    assert result.ell <= result.m
    assert result.secret_fraction <= 1.0


def test_preshared_term_scales_with_rounds():
    # doubling the block doubles the rounds it takes
    spec = ProtocolSpec(Family.MCKA, memories=True, p_key=0.99)
    small = key_length(
        CFG, spec, FiniteSizeParams(epsilon=1e-10, block_size=1e8), QB_MULTI
    )
    large = key_length(
        CFG, spec, FiniteSizeParams(epsilon=1e-10, block_size=2e8), QB_MULTI
    )
    assert large.rounds == pytest.approx(2.0 * small.rounds, rel=1e-12)
    assert large.preshared_term == pytest.approx(2.0 * small.preshared_term, rel=1e-12)


@pytest.mark.parametrize("family,p_key", [(Family.MQSS, 0.9), (Family.MCKA, 0.999)])
def test_key_length_monotone_in_rounds(family, p_key):
    spec = ProtocolSpec(family, memories=True, p_key=p_key)
    previous = -1.0
    # a larger block takes more rounds
    for block in (1e7, 1e8, 1e9, 1e10):
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
        result = key_length(CFG, spec, fsp, QB_MULTI)
        assert result.ell >= previous
        previous = result.ell


def test_fraction_approaches_asymptote_from_below():
    # the secret fraction converges to the asymptotic rate from below;
    # the sqrt statistical penalties still cost ~1-2% at m = 1e12
    from ghznet.analysis import optimized_fraction
    from ghznet.rates import asymptotic_rate

    asym = asymptotic_rate(CFG, ProtocolSpec(Family.MQSS), QB_MULTI).rate
    gaps = []
    for block in (1e8, 1e10, 1e12):
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
        _, result = optimized_fraction(CFG, Family.MQSS, fsp, QB_MULTI)
        assert 0.0 < result.secret_fraction < asym
        gaps.append(1.0 - result.secret_fraction / asym)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.025


@pytest.mark.parametrize(
    "cfg,memories",
    [(NetworkConfig(3, 50.0, 4.0), True), (NetworkConfig.make_symmetric(5, 2.0), False)],
    ids=["criterion-8a", "memoryless-n5"],
)
def test_switching_gap_falls_as_block_to_the_minus_quarter(cfg, memories):
    # A switching check needs Alice and a Bob in the check basis, so
    # k ~ (1 - p)^2 n for a block of n: the loss a (1 - p) + b / ((1 - p) sqrt(n))
    # is smallest at 1 - p ~ n^(-1/4), and the gap to the asymptote follows.
    # The local exponent per decade of block approaches 1/4 from below.
    from ghznet.analysis import optimized_fraction, scenario_qbers
    from ghznet.rates import asymptotic_rate

    spec = ProtocolSpec(Family.MQSS, memories=memories)
    qbers = scenario_qbers(cfg, spec, NOISE, 1000, 1)
    asymptote = asymptotic_rate(cfg, spec, qbers).rate
    gaps = []
    for exponent in range(11, 16):
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=10.0**exponent)
        _, result = optimized_fraction(cfg, Family.MQSS, fsp, qbers, memories)
        gaps.append(1.0 - result.secret_fraction / asymptote)
    slopes = [math.log10(a / b) for a, b in zip(gaps, gaps[1:])]
    assert all(abs(slope - 0.25) <= 0.01 for slope in slopes), slopes
    assert slopes == sorted(slopes), slopes


def test_key_term_duality_at_formula_level():
    # with the pre-shared and log terms zeroed, both protocol styles reduce
    # to (1 - eps_c) m (1 - h(q_a) - h(q_b)); the basis roles only swap
    # which error rate takes which penalty
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e6)
    cka = KeyLengthModel(CFG, ProtocolSpec(Family.MCKA), fsp, QB_MULTI)
    terms = SimpleNamespace(
        eps_c=cka.eps_c, q_pe=0.02, q_ec=0.01, log_pe=cka.log_pe, log_ec=cka.log_ec, log_term=0.0
    )
    m, k, q_pe_eff, q_ec_eff, pe_pen, ec_pen, raw = _key_terms(terms, 0.1, 0.001, 1e6, 0.0)
    assert (m, k) == (1e5, 1e3)
    assert (pe_pen, ec_pen) == (binary_entropy(q_pe_eff), binary_entropy(q_ec_eff))
    assert raw == pytest.approx((1.0 - cka.eps_c) * 1e5 * (1.0 - pe_pen - ec_pen), rel=1e-12)
    # pre-shared checks X (Serfling) and keys in Z (Hoeffding); switching swaps them
    qbers = QberPair(0.02, 0.01)
    for family, q_pe, q_ec in ((Family.MCKA, "q_x", "q_z"), (Family.MQSS, "q_z", "q_x")):
        model = KeyLengthModel(CFG, ProtocolSpec(family), fsp, qbers)
        result = model.result(0.9)
        serfling = _serfling(model.log_pe, result.m, result.k)
        hoeffding = _hoeffding(model.log_ec, result.m)
        assert getattr(result, q_pe + "_eff") == getattr(qbers, q_pe) + serfling
        assert getattr(result, q_ec + "_eff") == getattr(qbers, q_ec) + hoeffding


def test_two_party_baseline_uses_full_budget():
    cfg2 = NetworkConfig(2, 50.0, 4.0)
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e8)
    best = bipartite_optimal(cfg2, NoiseParams(0.01), fsp)
    spec = ProtocolSpec(best.family, p_key=best.p_key)
    direct = key_length(cfg2, spec, fsp, QB_BI)
    assert best.result.ell == pytest.approx(direct.ell, rel=1e-12)


def test_bipartite_optimal_tracks_strategies():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e8)
    best = bipartite_optimal(CFG, NOISE, fsp)
    assert set(best.candidates) == {("bCKA", False), ("bQSS", False)}
    assert best.result.secret_fraction == pytest.approx(
        max(v for _, v in best.candidates.values()), rel=1e-9
    )


def test_bipartite_optimal_includes_memory_modes():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e8)
    qb_mem = QberPair(0.0125, 0.00995)
    best = bipartite_optimal(CFG, NOISE, fsp, memory_qbers=qb_mem)
    assert len(best.candidates) == 4
    assert best.memories  # the memory link dodges the short-link loss


def test_bipartite_optimal_dead_network():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e4)
    dead = bipartite_optimal(
        NetworkConfig(3, 300.0, 4.0), NoiseParams(0.3), fsp
    )
    assert dead.indeterminate
    assert dead.result.ell == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=4, max_value=9))
def test_raw_length_below_block(p_key, exponent):
    spec = ProtocolSpec(Family.MQSS, memories=True, p_key=p_key)
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=10.0**exponent)
    result = key_length(CFG, spec, fsp, QB_MULTI)
    assert result.raw <= result.m
    assert result.ell >= 0.0


def _reference_bipartite_optimal(cfg, noise, fsp, memory_qbers=None):
    # every candidate's full result is built and ranked by its own fraction
    n = cfg.n_parties
    fsp_link = FiniteSizeParams(fsp.epsilon / (n - 1), fsp.block_size) if n > 2 else fsp
    modes = [(False, memoryless_qber(noise.f_depol, 2))]
    if memory_qbers is not None:
        modes.append((True, memory_qbers))
    candidates, best = {}, None
    for family in (Family.BCKA, Family.BQSS):
        for memories, qbers in modes:
            model = KeyLengthModel(cfg, ProtocolSpec(family, memories), fsp_link, qbers)
            opt = maximize_unit_interval(model.fraction, _array_grid(model))
            candidates[(family.value, memories)] = (opt.x, opt.value)
            if opt.indeterminate:
                continue
            result = model.result(opt.x)
            if best is None or result.secret_fraction > best[0].secret_fraction:
                best = (result, family, memories, opt.x)
    return BipartiteOptimum(*best, False, candidates)


@pytest.mark.parametrize(
    "cfg,f_depol,block,memory_qbers",
    [
        (CFG, 0.01, 1e8, None),
        (CFG, 0.01, 1e8, QberPair(0.0125, 0.00995)),
        (NetworkConfig(2, 50.0, 4.0), 0.01, 1e6, QberPair(0.011, 0.0101)),
        (NetworkConfig(10, 30.0, 30.0), 0.05, 1e10, QberPair(0.06, 0.05)),
        (NetworkConfig(5, 100.0, 4.0), 0.0, 1e4, None),
    ],
    ids=["n3", "n3-memory", "n2-memory", "n10-memory", "n5-small-block"],
)
def test_bipartite_optimal_matches_full_result_ranking(cfg, f_depol, block, memory_qbers):
    noise = NoiseParams(f_depol, t2_s=1.0, prep_time_s=2e-6)
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
    expected = _reference_bipartite_optimal(cfg, noise, fsp, memory_qbers)
    assert bipartite_optimal(cfg, noise, fsp, memory_qbers) == expected


def test_cached_grid_arrays_are_read_only():
    # shared by every stacked_fractions call, so no caller may write them
    rows = _grid_sifting(BasisStrategy.SWITCHING, 3) + _grid_sifting(BasisStrategy.PRESHARED, 2)
    for array in (UNIT_GRID, _GRID_ENTROPY, *rows):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


def _call_scopes(name, node, scope=""):
    """The enclosing class.function of every call to `name` under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                yield scope
        yield from _call_scopes(name, child, inner)


def test_one_selection_calls_the_optimizer():
    # every p_key optimum, strategy choice and advantage verdict goes
    # through BestFraction: a second call site would fork the optimum path
    sources = sorted(Path(ghznet.__file__).parent.glob("*.py"))
    sites = [
        (path.stem, scope)
        for path in sources
        if path.name != "optimize.py"
        for scope in _call_scopes("maximize_unit_interval", ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("finite", "BestFraction.__init__")]


@pytest.mark.parametrize("name", ["asymptotic_rate", "stacked_fractions"])
def test_one_comparison_computes_both_sides(name):
    # thresholds and profiles compare the two sides only through
    # _advantage, in both regimes: a second call site would fork the comparison
    tree = ast.parse(Path(ghznet.__file__).with_name("analysis.py").read_text(encoding="utf-8"))
    assert set(_call_scopes(name, tree)) == {"_advantage"}
