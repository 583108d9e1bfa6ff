"""Exact density-operator check of the memory-network error-rate chain.

It simulates the hub's GHZ production, the noisy resource pairs and the
entanglement swapping on the density operator and reads the error rates
off the final state, so the closed-form chain in :mod:`ghznet.noise` can
be checked to near machine precision.  States are kept as 2^n x 2^n
matrices and worked on as qubit tensors: single-qubit channels act on one
reshaped axis pair, and the swaps contract one resource pair at a time
into the hub state, so the state never grows past the N parties' 2^N x 2^N.
The parity-sum enumeration and exact sifting count of `ghznet oracle-check` live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .network import ProtocolSpec, sifting
from .noise import (
    PairCoefficients,
    QberPair,
    alpha_beta_closed_form,
    ghz_prefactors,
    memory_qbers,
    pair_coefficients,
)

MAX_ORACLE_PARTIES = 4
ORACLE_TOL = 1e-10  # largest |oracle - analytic| error-rate difference oracle_grid accepts


@lru_cache(maxsize=None)
def subset_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2^k, k) flip mask, row r the subset whose bits are set in r, and
    the mask of its odd-parity rows; built once per pair count, read-only."""
    flips = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1) == 1
    odd = flips.sum(axis=1) % 2 == 1
    flips.flags.writeable = False
    odd.flags.writeable = False
    return flips, odd


def alpha_beta_subset_sum(pairs: Sequence[PairCoefficients]) -> tuple[float, float]:
    """Even/odd parity sums by explicit enumeration of all flip subsets.

    Exponential reference used only to validate the closed form; the
    production path is :func:`ghznet.noise.alpha_beta_closed_form`.
    """
    if not pairs:
        raise ValueError("need at least one resource pair")
    flips, odd = subset_masks(len(pairs))
    keep = np.array([pair.w_keep for pair in pairs])
    flip = np.array([pair.w_flip for pair in pairs])
    terms = np.where(flips, flip, keep).prod(axis=1)
    return float(terms[~odd].sum()), float(terms[odd].sum())


I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def kron_all(ops: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, ops)


def _num_qubits(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    if rho.shape != (dim, dim) or 2**n != dim:
        raise ValueError(f"not a qubit density matrix, shape {rho.shape}")
    return n


def apply_one_qubit(rho: np.ndarray, op: np.ndarray, qubit: int) -> np.ndarray:
    """op . rho . op^dagger with the 2x2 `op` acting on one qubit of rho."""
    n = _num_qubits(rho)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    axes = (2**qubit, 2, 2 ** (n - qubit - 1))
    tensor = rho.reshape(axes + axes)
    tensor = np.einsum("ab,xbyuvw->xayuvw", op, tensor)
    tensor = np.einsum("xayubw,cb->xayucw", tensor, op.conj())
    return tensor.reshape(rho.shape)


def validate_density(rho: np.ndarray, tol: float = 1e-12) -> None:
    """Hermiticity, unit trace and positivity up to numerical slack."""
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {eigenvalues.min()}")


def apply_depolarizing(rho: np.ndarray, qubit: int, f_depol: float) -> np.ndarray:
    """Single-qubit depolarizing channel with Pauli weight f_depol/4 each."""
    out = (1.0 - 0.75 * f_depol) * rho
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        out = out + 0.25 * f_depol * apply_one_qubit(rho, pauli, qubit)
    return out


def apply_dephasing(rho: np.ndarray, qubit: int, lam: float) -> np.ndarray:
    """Single-qubit phase-flip channel; lam in [0, 1/2]."""
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"dephasing weight must lie in [0, 1/2], got {lam!r}")
    return (1.0 - lam) * rho + lam * apply_one_qubit(rho, PAULI_Z, qubit)


def controlled_flip_gate(control: int, target: int, n_qubits: int) -> np.ndarray:
    """|+><+| (x) 1 + |-><-| (x) X on (control, target)."""
    proj_plus = np.outer(_PLUS, _PLUS.conj())
    proj_minus = np.outer(_MINUS, _MINUS.conj())
    ops_plus = [I2] * n_qubits
    ops_plus[control] = proj_plus
    ops_minus = [I2] * n_qubits
    ops_minus[control] = proj_minus
    ops_minus[target] = PAULI_X
    return kron_all(ops_plus) + kron_all(ops_minus)


def build_hub_state(n_parties: int, f_depol: float) -> np.ndarray:
    """State of (Alice, router qubits 1..N-1) after GHZ production at the hub.

    Alice entangles a carrier qubit with her own, sends the carrier through
    the depolarizing long link, the hub fans it out onto N-1 fresh qubits
    with controlled flips, measures the carrier in Z and applies the
    outcome-conditioned Z correction on the first fan-out qubit.  Both
    outcome branches are summed with their probabilities.
    """
    if not 2 <= n_parties <= MAX_ORACLE_PARTIES:
        raise ValueError(f"hub-state oracle supports 2 <= N <= {MAX_ORACLE_PARTIES}")
    # qubit order while building: [carrier, alice, fanout_1..fanout_{N-1}]
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    psi = controlled_flip_gate(0, 1, 2) @ psi
    rho = np.outer(psi, psi.conj())
    rho = apply_depolarizing(rho, 0, f_depol)
    n_qubits = 2
    for _ in range(n_parties - 1):
        rho = np.kron(rho, np.diag([1.0, 0.0]).astype(complex))
        n_qubits += 1
        gate = controlled_flip_gate(0, n_qubits - 1, n_qubits)
        rho = gate @ rho @ gate.conj().T
    # Z-measure the carrier: the two diagonal blocks are the outcome branches.
    half = 2 ** (n_qubits - 1)
    blocks = rho.reshape(2, half, 2, half)
    branch0 = blocks[0, :, 0, :]
    branch1 = blocks[1, :, 1, :]
    return branch0 + apply_one_qubit(branch1, PAULI_Z, 1)  # first fan-out qubit


def noisy_pair_state(exp_b: float, exp_c: float, f_depol: float) -> np.ndarray:
    """Resource Bell pair on (hub half, Bob half) after dephasing of both
    halves and depolarization of the travelling half only."""
    rho = np.outer(_PHI_PLUS, _PHI_PLUS.conj())
    rho = apply_dephasing(rho, 0, 0.5 * (1.0 - exp_c))
    rho = apply_dephasing(rho, 1, 0.5 * (1.0 - exp_b))
    return apply_depolarizing(rho, 1, f_depol)


def swap_pairs(hub_state: np.ndarray, pair_states: Sequence[np.ndarray]) -> np.ndarray:
    """Project every (fan-out, hub-half) pair onto phi+ and renormalize,
    leaving the (Alice, Bob_1..Bob_{N-1}) state.

    One pair at a time: with f the fan-out qubit i of the current state R
    and P the (hub half, Bob half) pair state,
    S[a,b,a',b'] = 1/2 sum_{f,f'} R[a,f,a',f'] P[f,b,f',b'],
    so Bob i takes fan-out qubit i's place and the state keeps its size.
    """
    n_parties = _num_qubits(hub_state)
    if len(pair_states) != n_parties - 1:
        raise ValueError("need one resource pair per Bob")
    rho = hub_state
    for qubit, pair in enumerate(pair_states, start=1):
        if pair.shape != (4, 4):
            raise ValueError("resource pairs must be two-qubit states")
        axes = (2**qubit, 2, 2 ** (n_parties - qubit - 1))
        tensor = np.einsum(
            "xfyuFv,fbFB->xbyuBv", rho.reshape(axes + axes), pair.reshape(2, 2, 2, 2)
        )
        rho = 0.5 * tensor.reshape(hub_state.shape)
    norm = float(np.real(np.trace(rho)))
    if norm < 1e-15:
        raise ValueError("entanglement swapping projection has zero norm")
    return rho / norm


@dataclass(frozen=True)
class GhzDecomposition:
    """Weights over the 2^N GHZ-basis projectors of an N-party state."""

    n_parties: int
    weights_plus: np.ndarray
    weights_minus: np.ndarray
    residual: float

    @property
    def a(self) -> float:
        return float(self.weights_plus[0])

    @property
    def b(self) -> float:
        return float(self.weights_minus[0])


def ghz_basis_vector(bits: int, sign: int, n_parties: int) -> np.ndarray:
    """(|0>|bits> + sign |1>|~bits>)/sqrt(2) with Alice as the leading qubit."""
    n_bobs = n_parties - 1
    negated = (2**n_bobs - 1) ^ bits
    vec = np.zeros(2**n_parties, dtype=complex)
    vec[bits] = 1.0 / np.sqrt(2.0)
    vec[2**n_bobs + negated] += sign / np.sqrt(2.0)
    return vec


@lru_cache(maxsize=None)
def ghz_basis(n_parties: int) -> np.ndarray:
    """The GHZ basis as columns: the + vectors for bits 0..2^(N-1)-1, then
    the - vectors; built once per party count, read-only."""
    half = 2 ** (n_parties - 1)
    basis = np.column_stack(
        [ghz_basis_vector(bits, sign, n_parties) for sign in (1, -1) for bits in range(half)]
    )
    basis.flags.writeable = False
    return basis


def decompose_ghz(rho: np.ndarray, n_parties: int) -> GhzDecomposition:
    half = 2 ** (n_parties - 1)
    basis = ghz_basis(n_parties)
    weights = np.real(np.einsum("ik,ij,jk->k", basis.conj(), rho, basis))
    reconstructed = (basis * weights) @ basis.conj().T
    residual = float(np.linalg.norm(rho - reconstructed))
    return GhzDecomposition(n_parties, weights[:half], weights[half:], residual)


def extract_qbers(dec: GhzDecomposition) -> QberPair:
    """Error rates from the GHZ weights: odd collective X parity, and at
    least one Bob discordant with Alice in Z."""
    q_x = float(dec.weights_minus.sum())
    q_z = float(1.0 - dec.weights_plus[0] - dec.weights_minus[0])
    return QberPair(min(max(q_x, 0.0), 1.0), min(max(q_z, 0.0), 1.0))


@lru_cache(maxsize=None)
def x_parity_operator(n_parties: int) -> np.ndarray:
    """1 - X^(x)N, twice the projector onto odd collective X parity; built
    once per party count, read-only."""
    operator = np.eye(2**n_parties) - kron_all([PAULI_X] * n_parties)
    operator.flags.writeable = False
    return operator


def direct_qbers(rho: np.ndarray, n_parties: int) -> QberPair:
    """Error rates measured directly on the state, bypassing the decomposition.

    q_x: all parties measure X, an error is an odd product of outcomes.
    q_z: all parties measure Z, an error is any Bob differing from Alice.
    """
    q_x = float(np.real(np.trace(rho @ x_parity_operator(n_parties))) / 2.0)
    diag = np.real(np.diag(rho))
    q_z = float(1.0 - diag[0] - diag[-1])
    return QberPair(min(max(q_x, 0.0), 1.0), min(max(q_z, 0.0), 1.0))


@dataclass(frozen=True)
class OracleCheckRow:
    n_parties: int
    f_depol: float
    exponents: tuple[tuple[float, float], ...]
    max_abs_error: float
    ghz_residual: float
    passed: bool


DEFAULT_F_GRID = (0.0, 0.01, 0.05, 0.2)
DEFAULT_EXPONENTS = (1.0, 0.9, 0.5)


def oracle_grid(
    max_n: int = 3,
    f_grid: Sequence[float] = DEFAULT_F_GRID,
    exponent_values: Sequence[float] = DEFAULT_EXPONENTS,
    tol: float = ORACLE_TOL,
    prefactor_fn: Callable = ghz_prefactors,
) -> list[OracleCheckRow]:
    """Compare oracle error rates against the analytic chain on a grid.

    Per (N, f) the grid spans all per-pair exponent assignments from
    `exponent_values` plus one asymmetric spot check.  `prefactor_fn` is
    injectable so tests can prove a perturbed formula is caught.
    """
    if not 2 <= max_n <= MAX_ORACLE_PARTIES:
        raise ValueError(f"oracle supports 2 <= N <= {MAX_ORACLE_PARTIES}, got {max_n}")
    rows: list[OracleCheckRow] = []
    for n in range(2, max_n + 1):
        exponent_sets = [
            tuple((e, e) for e in combo)
            for combo in product(exponent_values, repeat=n - 1)
        ]
        exponent_sets.append(tuple((0.9, 0.8) for _ in range(n - 1)))
        for f in f_grid:
            hub = build_hub_state(n, f)
            # the exponent sets share a few (e_b, e_c) pairs: build each
            # pair's state and coefficients once
            pairs: dict[tuple[float, float], tuple] = {}
            for exps in exponent_sets:
                for eb, ec in exps:
                    if (eb, ec) not in pairs:
                        pairs[eb, ec] = (noisy_pair_state(eb, ec, f), pair_coefficients(eb, ec, f))
                swapped = swap_pairs(hub, [pairs[exp][0] for exp in exps])
                dec = decompose_ghz(swapped, n)
                oracle_q = extract_qbers(dec)
                direct_q = direct_qbers(swapped, n)
                alpha, beta = alpha_beta_closed_form([pairs[exp][1] for exp in exps])
                analytic_q = memory_qbers(prefactor_fn(alpha, beta, f, n))
                err = max(
                    abs(oracle_q.q_x - analytic_q.q_x),
                    abs(oracle_q.q_z - analytic_q.q_z),
                    abs(direct_q.q_x - analytic_q.q_x),
                    abs(direct_q.q_z - analytic_q.q_z),
                )
                rows.append(
                    OracleCheckRow(
                        n, f, exps, err, dec.residual, err <= tol and dec.residual <= tol
                    )
                )
    return rows


PARITY_TRIALS = 25  # random coefficient sets per pair count in the parity check
PARITY_SEED = 1  # seed of the parity check's random coefficients
EXACT_RTOL = 1e-12  # relative tolerance of the parity and sifting checks
# a sifting row's check-round verdict by (matches printed, matches all-Bobs)
CHECK_VERDICTS = {(True, True): "both", (False, True): "all-bobs", (True, False): "printed", (False, False): "neither"}


def parity_check_rows() -> tuple[list, bool]:
    """oracle-check's closed-form parity sums against subset enumeration on
    random coefficients of 1 to 12 pairs, and whether every size passed."""
    rng = np.random.default_rng(PARITY_SEED)
    rows = []
    all_pass = True
    for size in range(1, 13):
        worst = 0.0
        for _ in range(PARITY_TRIALS):
            thetas = rng.random(size)
            phis = rng.random(size)
            pairs = [
                PairCoefficients(0.5, 0.5, float(t), float(p)) for t, p in zip(thetas, phis)
            ]
            closed = alpha_beta_closed_form(pairs)
            brute = alpha_beta_subset_sum(pairs)
            scale = max(abs(brute[0]), abs(brute[1]), 1e-300)
            err = max(abs(closed[0] - brute[0]), abs(closed[1] - brute[1])) / scale
            worst = max(worst, err)
        passed = worst < EXACT_RTOL
        all_pass &= passed
        rows.append((size, worst, passed))
    return rows, all_pass


def sifting_enumeration(n_parties: int, p_key: float) -> tuple[float, float]:
    """Exact switching sifting fractions: the weight p^j (1-p)^(N-j) of each
    basis string (a `subset_masks(N)` row, True for its j key-basis parties,
    column 0 Alice) summed over the strings with every party in the key
    basis, and over those with Alice and not every Bob in the check basis."""
    key_basis, _ = subset_masks(n_parties)
    j = key_basis.sum(axis=1)
    weights = p_key**j * (1.0 - p_key) ** (n_parties - j)
    alice_key, bobs_key = key_basis[:, 0], key_basis[:, 1:].all(axis=1)
    return float(weights[alice_key & bobs_key].sum()), float(weights[~alice_key & ~bobs_key].sum())


def sifting_check_rows() -> tuple[list, bool]:
    """oracle-check's exact switching sifting count against the printed and
    the all-Bobs check-round fractions, and whether every row matched one."""
    rows = []
    all_pass = True
    for n in range(2, 7):
        for p_key in (0.5, 0.9, 0.99):
            exact_key, exact_check = sifting_enumeration(n, p_key)
            printed_key, printed_check = sifting(ProtocolSpec("mQSS", p_key=p_key), n)
            # Alice plus at least one of the N-1 Bobs in the check basis
            all_bobs_check = (1.0 - p_key) * (1.0 - p_key ** (n - 1))
            key_ok = math.isclose(exact_key, printed_key, rel_tol=EXACT_RTOL)
            match_printed = math.isclose(exact_check, printed_check, rel_tol=EXACT_RTOL)
            match_all_bobs = math.isclose(exact_check, all_bobs_check, rel_tol=EXACT_RTOL)
            verdict = CHECK_VERDICTS[match_printed, match_all_bobs]
            ok = key_ok and verdict != "neither"
            all_pass &= ok
            rows.append((n, p_key, exact_key, printed_key, key_ok, exact_check, printed_check, all_bobs_check, verdict))
    return rows, all_pass
