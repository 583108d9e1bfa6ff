"""Asymptotic secret-key rates per network use."""

from __future__ import annotations

from dataclasses import dataclass

from .core import binary_entropy
from .network import Family, NetworkConfig, ProtocolSpec, formula_party_count, yields
from .noise import NoiseParams, QberPair, memoryless_qber


@dataclass(frozen=True)
class AsymptoticRate:
    """Secret bits per network use; `raw` is `rate` before clamping at 0."""

    rate: float
    raw: float
    yield_per_use: float
    entropy_x: float
    entropy_z: float


def asymptotic_rate(cfg: NetworkConfig, spec: ProtocolSpec, qbers: QberPair) -> AsymptoticRate:
    """Y * (1 - h2(q_x) - h2(q_z)) with the key basis chosen at probability 1.

    In the infinite-round limit sifting costs vanish, so the rate is the
    yield times the one-shot key fraction; a symmetric network makes the
    per-Bob maximum equal the common Z error rate.
    """
    y = yields(cfg, spec)
    h_x = binary_entropy(qbers.q_x)
    h_z = binary_entropy(qbers.q_z)
    raw = y * (1.0 - h_x - h_z)
    return AsymptoticRate(max(raw, 0.0), raw, y, h_x, h_z)


def hbb_rate(q_x: float, yield_per_use: float = 1.0) -> AsymptoticRate:
    """Rate of the original X/Y-basis secret sharing scheme.

    A single Bob sees Alice's Y outcomes as uniformly random, so the check
    penalty is a full bit and the raw rate can never be positive; this is
    the motivation for moving the checks to the Z basis.
    """
    h_x = binary_entropy(q_x)
    raw = yield_per_use * (1.0 - h_x - 1.0)
    return AsymptoticRate(max(raw, 0.0), raw, yield_per_use, h_x, 1.0)


def cka_equals_qss_check(cfg: NetworkConfig, noise: NoiseParams, tol: float = 1e-12) -> bool:
    """Asymptotic duality: secret sharing and conference keys share one rate.

    Both protocols bound the adversary through the same complementary-basis
    error rates, so their asymptotic formulas coincide; this evaluates the
    two rates independently and compares.
    """
    qss = ProtocolSpec(Family.MQSS)
    cka = ProtocolSpec(Family.MCKA)
    qbers = memoryless_qber(noise.f_depol, formula_party_count(cfg, qss))
    rate_qss = asymptotic_rate(cfg, qss, qbers)
    rate_cka = asymptotic_rate(cfg, cka, qbers)
    return abs(rate_qss.raw - rate_cka.raw) < tol
