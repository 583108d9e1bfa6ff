from functools import reduce

import numpy as np
import pytest

from ghznet.noise import (
    PairCoefficients,
    alpha_beta_closed_form,
    ghz_prefactors,
    memory_qbers,
    memory_qbers_from_exponents,
    pair_coefficients,
)
from ghznet.oracle import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    alpha_beta_subset_sum,
    apply_dephasing,
    apply_depolarizing,
    apply_one_qubit,
    build_hub_state,
    decompose_ghz,
    direct_qbers,
    extract_qbers,
    ghz_basis_vector,
    noisy_pair_state,
    oracle_grid,
    swap_pairs,
    validate_density,
)


def random_density(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


# Dense references: the oracle's channels and swaps written with full
# kron-embedded operators, a qubit permutation of the joint state and one
# global projector.  Slow and memory-hungry, but a direct transcription of
# the physics to check the tensor contractions against.

I2 = np.eye(2, dtype=complex)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def dense_embed_one(op, qubit, n_qubits):
    return reduce(np.kron, [op if i == qubit else I2 for i in range(n_qubits)])


def dense_depolarizing(rho, qubit, f_depol):
    n = int(np.log2(rho.shape[0]))
    out = (1.0 - 0.75 * f_depol) * rho
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        op = dense_embed_one(pauli, qubit, n)
        out = out + 0.25 * f_depol * (op @ rho @ op.conj().T)
    return out


def dense_dephasing(rho, qubit, lam):
    op = dense_embed_one(PAULI_Z, qubit, int(np.log2(rho.shape[0])))
    return (1.0 - lam) * rho + lam * (op @ rho @ op.conj().T)


def dense_permute_qubits(rho, perm):
    """Reorder qubits so new position i holds old qubit perm[i]."""
    n = len(perm)
    tensor = rho.reshape((2,) * (2 * n))
    axes = list(perm) + [n + p for p in perm]
    return tensor.transpose(axes).reshape(2**n, 2**n)


def dense_swap_pairs(hub_state, pair_states):
    n_parties = int(np.log2(hub_state.shape[0]))
    rho = reduce(np.kron, pair_states, hub_state)
    # order: [alice, fanout_1..fanout_{n-1}, hub_1, bob_1, ..., hub_{n-1}, bob_{n-1}]
    keep = [0] + [n_parties + 2 * i + 1 for i in range(n_parties - 1)]
    project = []
    for i in range(n_parties - 1):
        project += [1 + i, n_parties + 2 * i]
    rho = dense_permute_qubits(rho, keep + project)
    bra = PHI_PLUS.conj().reshape(1, 4)
    projector = np.kron(
        np.eye(2**n_parties, dtype=complex), reduce(np.kron, [bra] * (n_parties - 1))
    )
    projected = projector @ rho @ projector.conj().T
    return projected / np.real(np.trace(projected))


def loop_subset_sum(pairs):
    even = odd = 0.0
    for mask in range(2 ** len(pairs)):
        term = 1.0
        for index, pair in enumerate(pairs):
            term *= pair.w_flip if (mask >> index) & 1 else pair.w_keep
        if mask.bit_count() % 2 == 0:
            even += term
        else:
            odd += term
    return even, odd


BELL_PHI_PLUS = np.zeros((4, 4), dtype=complex)
BELL_PHI_PLUS[0, 0] = BELL_PHI_PLUS[0, 3] = BELL_PHI_PLUS[3, 0] = BELL_PHI_PLUS[3, 3] = 0.5


@pytest.mark.parametrize("seed", [0, 1])
def test_channels_preserve_density_properties(seed):
    rho = random_density(2, seed)
    for out in (apply_depolarizing(rho, 0, 0.3), apply_dephasing(rho, 1, 0.4)):
        validate_density(out)


def test_depolarizing_identity_and_full():
    rho = random_density(1, 3)
    assert np.allclose(apply_depolarizing(rho, 0, 0.0), rho)
    pure0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(apply_depolarizing(pure0, 0, 1.0), np.eye(2) / 2.0)


def test_depolarized_bell_pair_weights():
    rho = apply_depolarizing(BELL_PHI_PLUS, 1, 0.04)
    weights = [np.real(v.conj() @ rho @ v) for v in _bell_vectors()]
    assert weights == pytest.approx([0.97, 0.01, 0.01, 0.01])


def _bell_vectors():
    s = 1 / np.sqrt(2)
    return [
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    ]


def test_dephasing_identity_diag_and_range():
    rho = random_density(1, 4)
    assert np.allclose(apply_dephasing(rho, 0, 0.0), rho)
    out = apply_dephasing(rho, 0, 0.37)
    assert np.allclose(np.diag(out), np.diag(rho))
    with pytest.raises(ValueError):
        apply_dephasing(rho, 0, 0.6)


def test_dephasing_both_halves_matches_pair_coefficients():
    lam1, lam2 = 0.12, 0.31
    rho = apply_dephasing(apply_dephasing(BELL_PHI_PLUS, 0, lam1), 1, lam2)
    phi_plus = _bell_vectors()[0]
    weight = np.real(phi_plus.conj() @ rho @ phi_plus)
    assert weight == pytest.approx(0.5 * (1 + (1 - 2 * lam1) * (1 - 2 * lam2)), abs=1e-14)
    pair = pair_coefficients(1 - 2 * lam2, 1 - 2 * lam1, 0.0)
    assert weight == pytest.approx(pair.keep, abs=1e-14)


def test_full_dephasing_equalizes_phi_weights():
    rho = apply_dephasing(BELL_PHI_PLUS, 0, 0.5)
    vs = _bell_vectors()
    w_plus = np.real(vs[0].conj() @ rho @ vs[0])
    w_minus = np.real(vs[1].conj() @ rho @ vs[1])
    assert w_plus == pytest.approx(w_minus) == pytest.approx(0.5)


def test_hub_state_two_parties():
    assert np.allclose(build_hub_state(2, 0.0), BELL_PHI_PLUS, atol=1e-14)
    rho = build_hub_state(2, 0.12)
    weights = [np.real(v.conj() @ rho @ v) for v in _bell_vectors()]
    assert weights == pytest.approx([1 - 0.09, 0.03, 0.03, 0.03])


def test_hub_state_ghz_diagonal():
    rho = build_hub_state(3, 0.05)
    validate_density(rho)
    dec = decompose_ghz(rho, 3)
    assert dec.residual < 1e-12
    assert dec.a == pytest.approx(1 - 0.75 * 0.05)


def test_hub_state_party_guard():
    with pytest.raises(ValueError):
        build_hub_state(5, 0.0)
    with pytest.raises(ValueError):
        build_hub_state(1, 0.0)


def test_noisy_pair_state_matches_coefficients():
    exp_b, exp_c, f = 0.8, 0.9, 0.06
    rho = noisy_pair_state(exp_b, exp_c, f)
    validate_density(rho)
    pair = pair_coefficients(exp_b, exp_c, f)
    vs = _bell_vectors()
    assert np.real(vs[0].conj() @ rho @ vs[0]) == pytest.approx(pair.w_keep, abs=1e-14)
    assert np.real(vs[1].conj() @ rho @ vs[1]) == pytest.approx(pair.w_flip, abs=1e-14)
    assert np.real(vs[2].conj() @ rho @ vs[2]) == pytest.approx(f / 4.0, abs=1e-14)


def test_ghz_basis_vectors_orthonormal():
    n = 3
    vectors = [ghz_basis_vector(bits, sign, n) for bits in range(4) for sign in (1, -1)]
    gram = np.array([[abs(u.conj() @ v) for v in vectors] for u in vectors])
    assert np.allclose(gram, np.eye(8), atol=1e-14)


def test_swap_ideal_pairs():
    hub = build_hub_state(3, 0.0)
    pairs = [noisy_pair_state(1.0, 1.0, 0.0)] * 2
    dec = decompose_ghz(swap_pairs(hub, pairs), 3)
    assert dec.a == pytest.approx(1.0, abs=1e-13)
    assert dec.b == pytest.approx(0.0, abs=1e-13)


def test_swap_rejects_zero_overlap():
    hub = np.zeros((8, 8), dtype=complex)
    hub[0, 0] = 1.0  # |000>
    ones = np.zeros((4, 4), dtype=complex)
    ones[3, 3] = 1.0  # pair in |11>
    with pytest.raises(ValueError):
        swap_pairs(hub, [ones, ones])


@pytest.mark.parametrize(
    "n,f,exponents",
    [
        (2, 0.04, [(1.0, 1.0)]),
        (3, 0.05, [(0.9, 0.8), (0.9, 0.8)]),
        (3, 0.2, [(1.0, 0.5), (0.7, 0.9)]),
    ],
)
def test_swap_matches_analytic_chain(n, f, exponents):
    hub = build_hub_state(n, f)
    pairs = [noisy_pair_state(eb, ec, f) for eb, ec in exponents]
    dec = decompose_ghz(swap_pairs(hub, pairs), n)
    coeffs = [pair_coefficients(eb, ec, f) for eb, ec in exponents]
    alpha, beta = alpha_beta_closed_form(coeffs)
    pref = ghz_prefactors(alpha, beta, f, n)
    assert dec.a == pytest.approx(pref.a, abs=1e-10)
    assert dec.b == pytest.approx(pref.b, abs=1e-10)
    oracle_q = extract_qbers(dec)
    analytic_q = memory_qbers_from_exponents(exponents, f)
    assert oracle_q.q_x == pytest.approx(analytic_q.q_x, abs=1e-10)
    assert oracle_q.q_z == pytest.approx(analytic_q.q_z, abs=1e-10)


def test_direct_measurements_agree_with_weights():
    hub = build_hub_state(3, 0.07)
    pairs = [noisy_pair_state(0.85, 0.95, 0.07), noisy_pair_state(0.6, 1.0, 0.07)]
    swapped = swap_pairs(hub, pairs)
    dec = decompose_ghz(swapped, 3)
    assert dec.residual < 1e-10
    from_weights = extract_qbers(dec)
    from_measurement = direct_qbers(swapped, 3)
    assert from_measurement.q_x == pytest.approx(from_weights.q_x, abs=1e-12)
    assert from_measurement.q_z == pytest.approx(from_weights.q_z, abs=1e-12)


def test_uniform_weights_qbers():
    n = 3
    dec = decompose_ghz(np.eye(2**n, dtype=complex) / 2**n, n)
    qb = extract_qbers(dec)
    assert qb.q_z == pytest.approx(1.0 - 2.0 * 2.0**-n)
    assert qb.q_x == pytest.approx(0.5)


def test_oracle_grid_default_passes():
    rows = oracle_grid(max_n=2, f_grid=(0.0, 0.05), exponent_values=(1.0, 0.5))
    assert all(row.passed for row in rows)


def test_oracle_grid_catches_wrong_sign():
    def broken(alpha, beta, f, n):
        pref = ghz_prefactors(alpha, beta, f, n)
        from ghznet.noise import GhzPrefactors

        return GhzPrefactors(pref.a, -pref.b, pref.alpha, pref.beta)

    rows = oracle_grid(
        max_n=2, f_grid=(0.05,), exponent_values=(0.5,), prefactor_fn=broken
    )
    assert any(not row.passed for row in rows)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_channels_match_dense_reference(n_qubits):
    rho = random_density(n_qubits, 10 + n_qubits)
    for qubit in range(n_qubits):
        np.testing.assert_allclose(
            apply_depolarizing(rho, qubit, 0.37), dense_depolarizing(rho, qubit, 0.37),
            rtol=0, atol=1e-15,
        )
        np.testing.assert_allclose(
            apply_dephasing(rho, qubit, 0.21), dense_dephasing(rho, qubit, 0.21),
            rtol=0, atol=1e-15,
        )
        for op in (PAULI_Y, np.array([[0.3, 1.0j], [-0.5, 2.0]])):
            embedded = dense_embed_one(op, qubit, n_qubits)
            np.testing.assert_allclose(
                apply_one_qubit(rho, op, qubit), embedded @ rho @ embedded.conj().T,
                rtol=0, atol=1e-14,
            )
    with pytest.raises(ValueError):
        apply_one_qubit(rho, PAULI_Z, n_qubits)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_matches_dense_reference(n):
    # random hub and pair states, far from GHZ-diagonal
    for seed in range(3):
        hub = random_density(n, 100 * n + seed)
        pairs = [random_density(2, 1000 * n + 10 * seed + i) for i in range(n - 1)]
        swapped = swap_pairs(hub, pairs)
        assert np.abs(swapped - dense_swap_pairs(hub, pairs)).max() <= 1e-13
        validate_density(swapped)


def test_decompose_matches_projector_loop():
    n = 3
    rho = random_density(n, 21)
    dec = decompose_ghz(rho, n)
    reconstructed = np.zeros_like(rho)
    for bits in range(4):
        for sign, weights in ((1, dec.weights_plus), (-1, dec.weights_minus)):
            vec = ghz_basis_vector(bits, sign, n)
            weight = np.real(vec.conj() @ rho @ vec)
            assert weights[bits] == pytest.approx(weight, abs=1e-15)
            reconstructed += weight * np.outer(vec, vec.conj())
    assert dec.residual == pytest.approx(np.linalg.norm(rho - reconstructed), abs=1e-15)


@pytest.mark.parametrize("k", range(1, 9))
def test_subset_sum_matches_plain_loop(k):
    rng = np.random.default_rng(k)
    pairs = [PairCoefficients(0.5, 0.5, float(t), float(p)) for t, p in rng.random((k, 2))]
    even, odd = alpha_beta_subset_sum(pairs)
    ref_even, ref_odd = loop_subset_sum(pairs)
    assert even == pytest.approx(ref_even, rel=1e-14)
    assert odd == pytest.approx(ref_odd, rel=1e-14)


def test_subset_sum_rejects_empty():
    with pytest.raises(ValueError):
        alpha_beta_subset_sum([])
