"""QBER models: channel depolarization and the memory-network GHZ chain.

Two noise models coexist and are deliberately not reconciled:

* direct transmission -- every one of the N channels depolarizes the GHZ
  state, giving the closed-form ``memoryless_qber``;
* memory-assisted distribution -- the router swaps a locally produced
  GHZ state onto dephased Bell pairs.  The chain ``pair_coefficients ->
  alpha_beta_closed_form -> ghz_prefactors -> memory_qbers`` evaluates the
  resulting error rates, and :mod:`ghznet.oracle` re-derives them from
  density matrices for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import check_parties, check_probability

QBER_CLAMP_SLACK = 1e-9


@dataclass(frozen=True)
class NoiseParams:
    """Channel depolarization plus quantum-memory timing constants."""

    f_depol: float
    t2_s: float = math.inf
    prep_time_s: float = 0.0

    def __post_init__(self) -> None:
        check_probability(self.f_depol, "f_depol")
        if not self.t2_s > 0:
            raise ValueError(f"dephasing time must be positive, got {self.t2_s!r}")
        if not (math.isfinite(self.prep_time_s) and self.prep_time_s >= 0):
            raise ValueError(f"preparation time must be finite and >= 0, got {self.prep_time_s!r}")


@dataclass(frozen=True)
class QberPair:
    """Collective X-basis error rate and Alice-Bob Z-basis error rate."""

    q_x: float
    q_z: float

    def __post_init__(self) -> None:
        check_probability(self.q_x, "q_x")
        check_probability(self.q_z, "q_z")


@dataclass(frozen=True)
class PairCoefficients:
    """Bell-diagonal weights of one stored-and-transmitted resource pair.

    ``keep``/``flip`` are the phi+/phi- weights after memory dephasing
    alone; ``w_keep``/``w_flip`` additionally fold in the depolarization of
    the travelling half (the two psi weights are both f_depol/4).
    """

    keep: float
    flip: float
    w_keep: float
    w_flip: float


def pair_coefficients(exp_b: float, exp_c: float, f_depol: float) -> PairCoefficients:
    """Coefficients for one Bell pair given its two dephasing exponentials.

    exp_b = exp(-t_bob/T2) for the half stored at the Bob, exp_c likewise
    for the half stored at the router hub.
    """
    for name, value in (("exp_b", exp_b), ("exp_c", exp_c)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    check_probability(f_depol, "f_depol")
    keep = 0.5 * (1.0 + exp_b * exp_c)
    flip = 1.0 - keep
    w_keep = (1.0 - f_depol) * keep + f_depol / 4.0
    w_flip = (1.0 - f_depol) * flip + f_depol / 4.0
    return PairCoefficients(keep, flip, w_keep, w_flip)


def alpha_beta_closed_form(pairs: Sequence[PairCoefficients]) -> tuple[float, float]:
    """Even/odd-parity weight sums over all flip subsets of the pairs.

    Equals sum over subsets S of {pairs} with |S| even (odd) of
    prod_{i in S} w_flip_i * prod_{j not in S} w_keep_j, computed via the
    product-of-sums +- product-of-differences parity identity instead of
    the exponential enumeration.
    """
    if not pairs:
        raise ValueError("need at least one resource pair")
    total = 1.0
    signed = 1.0
    for pair in pairs:
        total *= pair.w_keep + pair.w_flip
        signed *= pair.w_keep - pair.w_flip
    alpha = 0.5 * (total + signed)
    beta = 0.5 * (total - signed)
    return alpha, beta


@dataclass(frozen=True)
class GhzPrefactors:
    """Weights of the two zero-string GHZ-basis projectors of the final state."""

    a: float
    b: float
    alpha: float
    beta: float


def ghz_prefactors(alpha: float, beta: float, f_depol: float, n_parties: int) -> GhzPrefactors:
    """Final-state GHZ weights from the parity sums of the resource pairs.

    The closing term collects the branch where the hub qubit and every
    pair all took the bit-flipped component: weight f/4 at the hub and
    f/4 per pair, with 2^(N-1) sign combinations.
    """
    check_parties(n_parties)
    check_probability(f_depol, "f_depol")
    flip_all = math.ldexp((f_depol / 4.0) ** n_parties, n_parties - 1)
    a = (1.0 - 0.75 * f_depol) * alpha + 0.25 * f_depol * beta + flip_all
    b = (1.0 - 0.75 * f_depol) * beta + 0.25 * f_depol * alpha + flip_all
    return GhzPrefactors(a, b, alpha, beta)


def _clamped_qber(value: float, name: str) -> float:
    if value < -QBER_CLAMP_SLACK or value > 1.0 + QBER_CLAMP_SLACK:
        raise ValueError(f"{name} = {value!r} is out of range beyond numerical slack")
    return min(max(value, 0.0), 1.0)


def memoryless_qber(f_depol: float, n_parties: int) -> QberPair:
    """Error rates after direct transmission through n independently
    depolarizing channels; the bipartite baseline uses n_parties=2."""
    check_probability(f_depol, "f_depol")
    check_parties(n_parties)
    q = 0.5 * (1.0 - (1.0 - f_depol) ** n_parties)
    return QberPair(q, q)


def memory_qbers(pref: GhzPrefactors) -> QberPair:
    """Error rates of the swapped state from its GHZ weights.

    q_z is the probability that at least one Bob's Z outcome disagrees
    with Alice's; q_x the probability of an odd collective X parity.
    """
    q_x = _clamped_qber(0.5 * (1.0 - pref.a + pref.b), "q_x")
    q_z = _clamped_qber(1.0 - pref.a - pref.b, "q_z")
    return QberPair(q_x, q_z)


def memory_qbers_from_exponents(
    exponent_pairs: Iterable[tuple[float, float]], f_depol: float
) -> QberPair:
    """Full analytic chain for fixed per-pair dephasing exponentials."""
    pairs = [pair_coefficients(eb, ec, f_depol) for eb, ec in exponent_pairs]
    alpha, beta = alpha_beta_closed_form(pairs)
    return memory_qbers(ghz_prefactors(alpha, beta, f_depol, len(pairs) + 1))
