"""The key length against exact arithmetic, and the two evaluation paths
against each other.

`reference_fraction` evaluates the Tomamichel et al. (Nat. Commun. 3, 634,
2012) key-length equation in 50-digit `decimal` arithmetic from a model's
own inputs (the yield per use, the block size, the log(1/eps) factors, the
log term, eps_c and the error rates), with the sifting fractions written as
their plain products.  It shares no arithmetic with ghznet, so it checks the
float path (`fraction`) and the array path (`stacked_fractions`) alike.
"""

import decimal
from decimal import Decimal

import numpy as np

from ghznet.finite import (
    FiniteSizeParams,
    KeyLengthModel,
    bipartite_models,
    stacked_fractions,
)
from ghznet.network import Family, NetworkConfig
from ghznet.noise import QberPair, memoryless_qber
from ghznet.optimize import UNIT_GRID

DIGITS = 50


def _h2(q: Decimal) -> Decimal:
    if q <= 0 or q >= 1:
        return Decimal(0)
    return -(q * q.ln() + (1 - q) * (1 - q).ln()) / Decimal(2).ln()


def _penalty(q_eff: Decimal) -> Decimal:
    return _h2(q_eff) if q_eff < Decimal("0.5") else Decimal(1)


def reference_fraction(model: KeyLengthModel, p_key: float) -> float:
    """The model's secret fraction at p_key, from the equation in DIGITS digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        one = Decimal(1)
        p, n = Decimal(p_key), model.n_formula
        if model.preshared:
            eta_key, eta_check = p, one - p
        elif n == 2:
            eta_key, eta_check = p**2, (one - p) ** 2
        else:
            eta_key, eta_check = p**n, (one - p) * (one - p ** (n - 2))
        per_use = Decimal(model.per_use)
        per_key = eta_key * per_use
        if per_key == 0:
            return 0.0
        rounds = max(Decimal(model.block_size) / per_key, one)
        m = per_key * rounds
        k = eta_check * per_use * rounds
        m_pen, k_pen = max(m, one), max(k, one)
        ratio = (m_pen + k_pen) * (k_pen + 1) / (m_pen * k_pen**2)
        serfling = (ratio * Decimal(model.log_pe)).sqrt()
        hoeffding = (Decimal(model.log_ec) / m_pen).sqrt()
        pe_pen = _penalty(Decimal(model.q_pe) + serfling)
        ec_pen = _penalty(Decimal(model.q_ec) + hoeffding)
        charge = rounds * _h2(p) if model.preshared else 0
        raw = (one - Decimal(model.eps_c)) * (
            m * (one - pe_pen - ec_pen) - charge - Decimal(model.log_term)
        )
        return float(raw / rounds) if raw > 0 else 0.0


def _relative_errors(values, references):
    """Relative errors where the reference is positive; the zero sets must match."""
    values, references = np.asarray(values), np.asarray(references)
    assert np.array_equal(values > 0.0, references > 0.0)
    live = references > 0.0
    return np.abs(values[live] / references[live] - 1.0)


def _models(block: float) -> list[KeyLengthModel]:
    """Switching mQSS and pre-shared mCKA at N = 3, 5 and 10, memoryless and
    with memory-like error rates (q_x != q_z), and the bipartite links of the
    N = 5 baseline in both strategies and both modes."""
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
    models = []
    for n in (3, 5, 10):
        cfg = NetworkConfig(n, 50.0, 4.0)
        for qbers, memories in ((memoryless_qber(0.0, n), False), (QberPair(0.03, 0.011), True)):
            for family in (Family.MQSS, Family.MCKA):
                models.append(KeyLengthModel(cfg, family, fsp, qbers, memories))
    modes = [(False, memoryless_qber(0.01, 2)), (True, QberPair(0.0125, 0.00995))]
    models += bipartite_models(NetworkConfig(5, 50.0, 4.0), fsp, modes).values()
    return models


BLOCKS = (1e6, 1e9, 1e12, 1e15)


def _sample_p_keys(rng: np.random.Generator) -> np.ndarray:
    """Off-grid p_keys with log10(1 - p_key) uniform over [-9, -0.3], plus
    three over [-7.5, -4.5]: there a switching check fraction is small while
    a large block still holds enough checks for a positive fraction."""
    exponents = np.concatenate([rng.uniform(-9.0, -0.3, 5), rng.uniform(-7.5, -4.5, 3)])
    return 1.0 - 10.0**exponents


def test_key_length_matches_the_decimal_reference():
    # both paths at a sample of each model's grid points, the float path
    # also off the grid
    rng = np.random.default_rng(17)
    values, references = [], []
    for block in BLOCKS:
        models = _models(block)
        for model, row in zip(models, stacked_fractions(models)):
            on_grid = rng.choice(len(UNIT_GRID), 3, replace=False)
            for p_key, from_grid in zip(UNIT_GRID[on_grid].tolist(), row[on_grid]):
                reference = reference_fraction(model, p_key)
                values += [model.fraction(p_key), from_grid]
                references += [reference, reference]
            for p_key in _sample_p_keys(rng).tolist():
                values.append(model.fraction(p_key))
                references.append(reference_fraction(model, p_key))
    errors = _relative_errors(values, references)
    assert len(errors) > 100  # the sample holds enough positive fractions
    assert errors.max() <= 1e-12


def test_stacked_rows_agree_with_the_scalar_objective():
    # the array and the float path evaluate one expression, so they agree
    # to a few ulps of the fraction at every grid point with 1 - p_key < 0.4,
    # also where 1 - p_key is small and the block large
    near_one = np.flatnonzero(1.0 - UNIT_GRID < 0.4)
    values, expected = [], []
    for block in (1e10, 1e11, 1e12):
        models = _models(block)
        for model, row in zip(models, stacked_fractions(models)):
            values += row[near_one].tolist()
            expected += [model.fraction(p_key) for p_key in UNIT_GRID[near_one].tolist()]
    assert _relative_errors(values, expected).max() <= 1e-13
