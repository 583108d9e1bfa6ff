"""Composable finite-size key lengths: statistical penalties, one expected
key-length model for both protocol styles, the security budget and the
bipartite baseline optimized over strategy and basis probability."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import binary_entropy
from .network import (
    BasisStrategy,
    Family,
    NetworkConfig,
    ProtocolSpec,
    formula_party_count,
    sifting_fractions,
    yields,
)
from .noise import NoiseParams, QberPair, memoryless_qber
from .optimize import maximize_unit_interval


# The penalty formulas of xi1 / xi2, shared with KeyLengthModel, which works
# out log(1/eps) once and passes np.sqrt on its array path.
def _hoeffding(log_inv_eps, m, sqrt=math.sqrt):
    return sqrt(log_inv_eps / m)


def _serfling(log_inv_eps, m, k, sqrt=math.sqrt):
    # (m+k)(k+1)/(m k^2), factored to avoid overflow for huge k
    ratio = (1.0 + k / m) * ((k + 1.0) / k / k)
    return sqrt(ratio * log_inv_eps)


def xi1(eps: float, m: float) -> float:
    """Concentration penalty for estimating a rate from m samples of a
    pre-characterized distribution (Hoeffding form, natural log)."""
    if m < 1:
        raise ValueError("need m >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return _hoeffding(math.log(1.0 / eps), m)


def xi2(eps: float, m: float, k: float) -> float:
    """Sampling-without-replacement penalty when k checks bound the error
    of the remaining m rounds (Serfling form)."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return _serfling(math.log(1.0 / eps), m, k)


@dataclass(frozen=True)
class EpsilonBudget:
    eps_c: float
    eps_pa: float
    eps_pe: float
    eps_ec: float
    eps_rob: float


def epsilon_budget(
    epsilon: float, eps_rob: float | None = None, eps_ec: float | None = None
) -> EpsilonBudget:
    """Split of the overall security parameter: eps_c + eps_pa + 2*eps_pe
    = epsilon with the 1/2, 1/4, 1/8 weights.

    The error-correction and robustness parameters are not part of the
    secrecy budget; both default to eps_c.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    eps_c = epsilon / 2.0
    return EpsilonBudget(
        eps_c=eps_c,
        eps_pa=epsilon / 4.0,
        eps_pe=epsilon / 8.0,
        eps_ec=eps_c if eps_ec is None else eps_ec,
        eps_rob=eps_c if eps_rob is None else eps_rob,
    )


@dataclass(frozen=True)
class FiniteSizeParams:
    """Finite-run description: either total rounds L or a target block size
    (expected key-basis detections), plus the security budget."""

    epsilon: float
    rounds: float | None = None
    block_size: float | None = None
    eps_rob: float | None = None
    eps_ec: float | None = None
    # Read by nothing in ghznet; kept only because the benchmark's
    # player-profiles workload passes it.
    mc_samples: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if (self.rounds is None) == (self.block_size is None):
            raise ValueError("set exactly one of rounds / block_size")
        for name in ("rounds", "block_size"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 1):
                raise ValueError(f"{name} must be finite and >= 1")
        for name in ("eps_rob", "eps_ec"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    def budget(self) -> EpsilonBudget:
        budget = epsilon_budget(self.epsilon, self.eps_rob, self.eps_ec)
        total = budget.eps_c + budget.eps_pa + 2.0 * budget.eps_pe
        if abs(total - self.epsilon) > 1e-12 * self.epsilon:
            raise AssertionError("security budget does not add up")
        return budget

    def scaled(self, factor: float) -> "FiniteSizeParams":
        """Budget for one of several parallel sub-protocols: epsilon and any
        explicit eps_rob / eps_ec overrides divided by factor."""
        return replace(
            self,
            epsilon=self.epsilon / factor,
            eps_rob=None if self.eps_rob is None else self.eps_rob / factor,
            eps_ec=None if self.eps_ec is None else self.eps_ec / factor,
        )


STATUS_OK = "ok"
STATUS_ABORT = "abort"
STATUS_INSUFFICIENT = "insufficient-detections"


@dataclass(frozen=True)
class KeyLengthResult:
    """Expected extractable key length and its term-by-term breakdown."""

    ell: float
    raw: float
    rounds: float
    secret_fraction: float
    status: str
    m: float
    k: float
    q_x_eff: float
    q_z_eff: float
    pe_term: float
    ec_term: float
    log_term: float
    preshared_term: float


def _entropy_penalty(q_eff: float) -> float:
    # A penalized error rate at or beyond 1/2 saturates the bound; the
    # inverted comparison also routes non-finite values to the cap.
    if not q_eff < 0.5:
        return 1.0
    return binary_entropy(q_eff)


def _entropy_array(q: np.ndarray) -> np.ndarray:
    """binary_entropy over an array of probabilities, 0 at both ends."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return np.where((q > 0.0) & (q < 1.0), h, 0.0)


def _entropy_penalty_array(q_eff: np.ndarray) -> np.ndarray:
    return np.where(q_eff < 0.5, _entropy_array(q_eff), 1.0)


class KeyLengthModel:
    """Expected key length of one protocol as a function of p_key alone.

    Everything that does not depend on the key-basis probability is worked
    out once: the formula party count, the security budget, the yield, the
    basis whose check rounds take the Serfling penalty (xi2) and the basis
    that takes the Hoeffding penalty (xi1), their log(1/eps) factors, the
    log term and whether a pre-shared basis string is charged.

    The two protocol styles differ only in those choices.  A pre-shared
    conference key lives in Z: the collective X parity checks take xi2 at
    eps_pe, the per-Bob union bound gives Z xi1 at eps_rob/sqrt(N-1), the
    log term uses eps_c and the basis string consumes h2(p_key) bits per
    network use.  Basis-switching secret sharing keeps the key in X: the
    per-Bob Z checks take xi2 at eps_pe/sqrt(N-1), X takes xi1 at eps_rob,
    the log term uses eps_ec and no basis string exists to replenish.

    `result` evaluates one p_key in float arithmetic (the path of every
    single-point call and of the optimizer's refinement); `fractions`
    evaluates the secret fraction over a numpy array of p_key values.
    """

    def __init__(
        self,
        cfg: NetworkConfig,
        family: Family,
        fsp: FiniteSizeParams,
        qbers: QberPair,
        memories: bool = False,
        basis_strategy: BasisStrategy | None = None,
    ) -> None:
        spec = ProtocolSpec(family, memories, basis_strategy)
        n_formula = formula_party_count(cfg, spec)
        budget = fsp.budget()
        self.strategy = spec.basis_strategy
        self.n_formula = n_formula
        self.rounds = fsp.rounds
        self.block_size = fsp.block_size
        self.per_use = yields(cfg, spec)
        self.eps_rob = budget.eps_rob
        self.preshared = self.strategy is BasisStrategy.PRESHARED
        if self.preshared:
            self.q_pe, self.q_ec = qbers.q_x, qbers.q_z
            eps_pe, eps_ec = budget.eps_pe, budget.eps_rob / math.sqrt(n_formula - 1)
            eps_log = budget.eps_c
        else:
            self.q_pe, self.q_ec = qbers.q_z, qbers.q_x
            eps_pe, eps_ec = budget.eps_pe / math.sqrt(n_formula - 1), budget.eps_rob
            eps_log = budget.eps_ec
        self.log_pe = math.log(1.0 / eps_pe)
        self.log_ec = math.log(1.0 / eps_ec)
        self.log_term = math.log2((n_formula - 1) / (2.0 * eps_log * budget.eps_pa**2))

    def result(self, p_key: float) -> KeyLengthResult:
        eta_key, eta_check = sifting_fractions(self.strategy, self.n_formula, p_key)
        per_key = eta_key * self.per_use
        rounds = self.rounds
        if rounds is None:
            rounds = max(self.block_size / per_key, 1.0) if per_key > 0.0 else math.inf
        if not math.isfinite(rounds):
            return self._assemble(rounds, 0.0, 0.0, self.q_pe, self.q_ec, 1.0, 1.0, 0.0, 0.0)
        m = per_key * rounds
        k = eta_check * self.per_use * rounds
        preshared_term = rounds * binary_entropy(p_key) if self.preshared else 0.0
        if m <= 0.0 or k <= 0.0:
            return self._assemble(
                rounds, m, k, self.q_pe, self.q_ec, 1.0, 1.0, self.log_term, preshared_term
            )
        m_pen = max(m, 1.0)
        q_pe_eff = self.q_pe + _serfling(self.log_pe, m_pen, max(k, 1.0))
        q_ec_eff = self.q_ec + _hoeffding(self.log_ec, m_pen)
        return self._assemble(
            rounds,
            m,
            k,
            q_pe_eff,
            q_ec_eff,
            _entropy_penalty(q_pe_eff),
            _entropy_penalty(q_ec_eff),
            self.log_term,
            preshared_term,
        )

    def fraction(self, p_key: float) -> float:
        return self.result(p_key).secret_fraction

    def fractions(self, p_key: np.ndarray) -> np.ndarray:
        p = np.asarray(p_key, dtype=float)
        eta_key, eta_check = sifting_fractions(self.strategy, self.n_formula, p)
        per_key = eta_key * self.per_use
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.rounds is None:
                rounds = np.where(per_key > 0.0, np.maximum(self.block_size / per_key, 1.0), np.inf)
            else:
                rounds = np.full_like(p, self.rounds)
            m = per_key * rounds
            k = eta_check * self.per_use * rounds
            m_pen = np.maximum(m, 1.0)
            xi_pe = _serfling(self.log_pe, m_pen, np.maximum(k, 1.0), np.sqrt)
            pe_pen = _entropy_penalty_array(self.q_pe + xi_pe)
            ec_pen = _entropy_penalty_array(self.q_ec + _hoeffding(self.log_ec, m_pen, np.sqrt))
            preshared_term = rounds * _entropy_array(p) if self.preshared else 0.0
            # Without key or check detections the penalties need no mask:
            # one check round already saturates the Serfling penalty and the
            # log term is positive, so raw < 0 there as in `result`.
            raw = (1.0 - self.eps_rob) * (
                m * (1.0 - pe_pen - ec_pen) - preshared_term - self.log_term
            )
            return np.where(np.isfinite(rounds), np.maximum(raw, 0.0) / rounds, 0.0)

    def _assemble(
        self,
        rounds: float,
        m: float,
        k: float,
        q_pe_eff: float,
        q_ec_eff: float,
        pe_pen: float,
        ec_pen: float,
        log_term: float,
        preshared_term: float,
    ) -> KeyLengthResult:
        raw = (1.0 - self.eps_rob) * (m * (1.0 - pe_pen - ec_pen) - preshared_term - log_term)
        # +0.0 also when raw is -0.0 (no rounds at all), where max(raw, 0.0)
        # would keep the sign
        ell = raw if raw > 0.0 else 0.0
        if m < 1.0 or k < 1.0:
            status = STATUS_INSUFFICIENT
        elif ell > 0.0:
            status = STATUS_OK
        else:
            status = STATUS_ABORT
        q_x_eff, q_z_eff = (q_pe_eff, q_ec_eff) if self.preshared else (q_ec_eff, q_pe_eff)
        return KeyLengthResult(
            ell=ell,
            raw=raw,
            rounds=rounds,
            secret_fraction=ell / rounds if math.isfinite(rounds) else 0.0,
            status=status,
            m=m,
            k=k,
            q_x_eff=q_x_eff,
            q_z_eff=q_z_eff,
            pe_term=m * pe_pen,
            ec_term=m * ec_pen,
            log_term=log_term,
            preshared_term=preshared_term,
        )


def expected_key_length(
    cfg: NetworkConfig, spec: ProtocolSpec, fsp: FiniteSizeParams, qbers: QberPair
) -> KeyLengthResult:
    """Expected key length of one protocol at the spec's p_key."""
    model = KeyLengthModel(cfg, spec.family, fsp, qbers, spec.memories, spec.basis_strategy)
    return model.result(spec.p_key)


@dataclass(frozen=True)
class BipartiteOptimum:
    """Best bipartite baseline over strategy, memory use and p_key."""

    result: KeyLengthResult
    family: Family
    memories: bool
    p_key: float
    indeterminate: bool
    candidates: dict


def bipartite_optimal(
    cfg: NetworkConfig,
    noise: NoiseParams,
    fsp: FiniteSizeParams,
    memory_qbers: QberPair | None = None,
) -> BipartiteOptimum:
    """N-1 parallel two-party links as the baseline for an N-party task.

    Each link runs with security parameter epsilon/(N-1); the basis
    probability is optimized independently for the pre-shared and the
    switching strategy, without memories and, where error rates for the
    memory-assisted link are supplied, with them.
    """
    n = cfg.n_parties
    fsp_link = fsp.scaled(n - 1) if n > 2 else fsp
    modes = [(False, memoryless_qber(noise.f_depol, 2))]
    if memory_qbers is not None:
        modes.append((True, memory_qbers))
    candidates: dict = {}
    best: tuple[float, KeyLengthResult, Family, bool, float] | None = None
    for family in (Family.BCKA, Family.BQSS):
        for memories, qbers in modes:
            model = KeyLengthModel(cfg, family, fsp_link, qbers, memories)
            opt = maximize_unit_interval(model.fraction, model.fractions)
            candidates[(family.value, memories)] = (opt.x, opt.value)
            if opt.indeterminate:
                continue
            result = model.result(opt.x)
            if best is None or result.secret_fraction > best[0]:
                best = (result.secret_fraction, result, family, memories, opt.x)
    if best is None:
        # Every strategy aborts; report a concrete dead memoryless evaluation.
        spec = ProtocolSpec(Family.BQSS, p_key=0.5)
        result = expected_key_length(cfg, spec, fsp_link, modes[0][1])
        return BipartiteOptimum(result, Family.BQSS, False, math.nan, True, candidates)
    return BipartiteOptimum(best[1], best[2], best[3], best[4], False, candidates)
