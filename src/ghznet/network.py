"""Bottleneck-network topology: yields, sifting efficiencies and detection counts.

The network is a star: Alice reaches a central router over one link of
length ``d_a_km`` and the router reaches each of the N-1 Bobs over links of
length ``d_b_km``.  Multipartite protocols deliver an entangled state to all
players in one network use; bipartite baselines spend N-1 uses, one per Bob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import check_parties, check_probability, transmission


class Family(str, Enum):
    MQSS = "mQSS"
    MCKA = "mCKA"
    BQSS = "bQSS"
    BCKA = "bCKA"

    @property
    def bipartite(self) -> bool:
        return self in (Family.BQSS, Family.BCKA)


class BasisStrategy(str, Enum):
    PRESHARED = "preshared"
    SWITCHING = "switching"


@dataclass(frozen=True)
class NetworkConfig:
    """Star topology with one Alice link and N-1 identical Bob links."""

    n_parties: int
    d_a_km: float
    d_b_km: float

    def __post_init__(self) -> None:
        check_parties(self.n_parties)
        for distance in (self.d_a_km, self.d_b_km):
            if not (math.isfinite(distance) and distance >= 0):
                raise ValueError(f"link distances must be finite and >= 0, got {distance!r}")

    @classmethod
    def make_symmetric(cls, n_parties: int, d_km: float) -> "NetworkConfig":
        return cls(n_parties, d_km, d_km)

    @property
    def p_a(self) -> float:
        return transmission(self.d_a_km)

    @property
    def p_b(self) -> float:
        return transmission(self.d_b_km)

    def with_parties(self, n_parties: int) -> "NetworkConfig":
        return NetworkConfig(n_parties, self.d_a_km, self.d_b_km)


def _default_strategy(family: Family) -> BasisStrategy:
    if family in (Family.MQSS, Family.BQSS):
        return BasisStrategy.SWITCHING
    return BasisStrategy.PRESHARED


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol runs on the network and how bases are chosen."""

    family: Family
    memories: bool = False
    basis_strategy: BasisStrategy | None = None
    p_key: float = 1.0

    def __post_init__(self) -> None:
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        strategy = self.basis_strategy
        if strategy is None:
            strategy = _default_strategy(family)
        strategy = BasisStrategy(strategy)
        object.__setattr__(self, "basis_strategy", strategy)
        if family is Family.MQSS and strategy is not BasisStrategy.SWITCHING:
            # A pre-shared basis key would hand malicious players the round
            # schedule, so secret sharing must switch bases actively.
            raise ValueError("mQSS requires active basis switching")
        check_probability(self.p_key, "protocol.p_key")

    @property
    def bipartite(self) -> bool:
        return self.family.bipartite


def formula_party_count(cfg: NetworkConfig, spec: ProtocolSpec) -> int:
    """Party count entering the QBER/sifting/key-length formulas.

    Bipartite baselines run N-1 two-party links, so their per-link formulas
    use 2 while the yield still divides by the N-1 network uses.
    """
    return 2 if spec.bipartite else cfg.n_parties


def check_memory_network(cfg: NetworkConfig) -> float:
    """The Alice link's transmission p_a on a network that the memory-assisted
    model holds on: a long Alice link, short Bob links and p_a > 0."""
    p_a = cfg.p_a
    if p_a > cfg.p_b:
        raise ValueError("memory-assisted networks need d_A_km >= d_B_km")
    if p_a == 0.0:
        raise ValueError(f"memory-assisted networks need p_a > 0; d_A_km = {cfg.d_a_km:g} gives 0")
    return p_a


def yields(cfg: NetworkConfig, spec: ProtocolSpec) -> float:
    """Deliverable states per network use, before basis sifting.

    Without memories every link must succeed at once; with memories the
    short links are pre-established and the Alice link alone limits the
    rate (valid on a network that check_memory_network accepts).
    """
    n = cfg.n_parties
    if spec.memories:
        p_a = check_memory_network(cfg)
        return p_a / (n - 1) if spec.bipartite else p_a
    p_a, p_b = cfg.p_a, cfg.p_b
    return p_a * p_b / (n - 1) if spec.bipartite else p_a * p_b ** (n - 1)


def sifting_fractions(strategy: BasisStrategy, n_parties: int, p_key):
    """Key and check sifting fractions for a float or a numpy array of p_key.

    Under switching a check round needs Alice in the check basis; for N >= 3
    the key lengths use (1-p)(1-p^(N-2)) for it, formed as
    (p-1) expm1((N-2) log p): 1 - p^(N-2) cancels as p -> 1, where math and
    numpy also round pow differently.  log 0 = -inf gives 1 - p at p = 0,
    and the form is +0.0 at p = 1.  The exact count over the basis strings,
    `oracle.sifting_enumeration`, of "Alice plus at least one of the N-1
    Bobs" is (1-p)(1-p^(N-1)); `oracle-check` prints both, and they agree
    only at N = 2.
    """
    p = p_key
    if strategy is BasisStrategy.PRESHARED:
        return p, 1.0 - p
    if n_parties == 2:
        # Two-party switching: both in key basis / both in check basis.
        return p * p, (1.0 - p) ** 2
    if isinstance(p, np.ndarray):
        with np.errstate(divide="ignore"):
            return p**n_parties, (p - 1.0) * np.expm1((n_parties - 2) * np.log(p))
    log_p = math.log(p) if p > 0.0 else -math.inf
    return p**n_parties, (p - 1.0) * math.expm1((n_parties - 2) * log_p)


def sifting(spec: ProtocolSpec, n_parties: int) -> tuple[float, float]:
    """(eta_key, eta_check): the probability that a delivered round is
    usable for key / for checks."""
    check_parties(n_parties)
    return sifting_fractions(spec.basis_strategy, n_parties, spec.p_key)


def expected_counts(cfg: NetworkConfig, spec: ProtocolSpec, rounds: float) -> tuple[float, float]:
    """(m, k): the expected key/check detections in `rounds` network uses."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds!r}")
    y = yields(cfg, spec)
    eta_key, eta_check = sifting(spec, formula_party_count(cfg, spec))
    return eta_key * y * rounds, eta_check * y * rounds


def simulate_sifting(
    spec: ProtocolSpec, n_parties: int, rounds: int, seed: int | np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the sifting efficiencies.

    Samples basis choices round by round (independent per party under
    switching, one shared coin under a pre-shared key) and counts rounds
    where everyone chose the key basis, and rounds where Alice plus at
    least one Bob chose the check basis.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if spec.basis_strategy is BasisStrategy.PRESHARED:
        key_round = rng.random(rounds) < spec.p_key
        return float(key_round.mean()), float(1.0 - key_round.mean())
    key_choice = rng.random((rounds, n_parties)) < spec.p_key
    alice_key = key_choice[:, 0]
    # every Bob in the key basis: an AND over the N-1 Bob columns
    bobs_key = key_choice[:, 1].copy()
    for column in key_choice[:, 2:].T:
        bobs_key &= column
    all_key = np.count_nonzero(alice_key & bobs_key)
    check_usable = np.count_nonzero(~(alice_key | bobs_key))
    return float(all_key / rounds), float(check_usable / rounds)
