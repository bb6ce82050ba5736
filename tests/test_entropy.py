from math import log

import numpy as np
import pytest

from unigraph.ensemble import _projection_stats
from unigraph.entropy import (EmptyKeepSet, FullKeepSet, InvalidReducedState,
                              NormViolation, OrderViolation, _plogp, element_entropy,
                              eigenvector_entropy, mean_purity,
                              mean_random_vector_entropy, page_mean_entropy,
                              partial_trace, purity, reduced_entropies,
                              von_neumann_entropy)
from unigraph.rand import RandomStream, haar_unitary
from unigraph.spectral import eigendecompose

LN2 = log(2)


def fourier_matrix(n):
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestEigenvectorEntropy:
    def test_diagonal_unitary_has_basis_eigenvectors(self):
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.9, 4.0])))
        assert eigenvector_entropy(eigendecompose(u)) < 1e-20

    def test_fourier_eigenbasis(self):
        # a unitary whose eigenvector matrix is the flat Fourier matrix
        n = 8
        f = fourier_matrix(n)
        u = f @ np.diag(np.exp(1j * np.linspace(0.1, 5.9, n))) @ f.conj().T
        assert abs(eigenvector_entropy(eigendecompose(u)) - log(n)) < 1e-9

    def test_cue_mean_matches_harmonic_sum(self):
        # mean component entropy of a Haar-random unit vector is
        # sum_{j=2}^{N} 1/j = 2.380729 at N=16
        draws = 1000
        values = [eigenvector_entropy(eigendecompose(haar_unitary(16, RandomStream(30, t))))
                  for t in range(draws)]
        expected = mean_random_vector_entropy(16)
        assert abs(expected - 2.380728993228994) < 1e-12
        assert abs(np.mean(values) - expected) / expected < 0.01

    def test_invariance_under_column_permutation_and_phases(self):
        data = eigendecompose(haar_unitary(8, RandomStream(31, 0)))
        base = eigenvector_entropy(data)
        rng = np.random.default_rng(0)
        data.vectors = data.vectors[:, rng.permutation(8)] * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 8))[None, :]
        assert abs(eigenvector_entropy(data) - base) < 1e-12


class TestElementEntropy:
    def test_identity(self):
        assert element_entropy(np.eye(7, dtype=complex)) == 0.0

    def test_fourier(self):
        assert abs(element_entropy(fourier_matrix(9)) - log(9)) < 1e-12

    def test_additive_over_kron(self):
        a = haar_unitary(4, RandomStream(32, 0))
        b = haar_unitary(8, RandomStream(32, 1))
        total = element_entropy(np.kron(a, b))
        assert abs(total - element_entropy(a) - element_entropy(b)) <= 1e-10

    def test_invariant_under_permutations(self):
        u = haar_unitary(6, RandomStream(33, 0))
        rng = np.random.default_rng(1)
        p = np.eye(6)[rng.permutation(6)]
        q = np.eye(6)[rng.permutation(6)]
        assert abs(element_entropy(p @ u @ q) - element_entropy(u)) < 1e-12


    @pytest.mark.parametrize("dim", [16, 54, 64, 81])
    def test_stack_is_the_per_matrix_values(self, dim):
        # the stacked reduction must keep each matrix's summation order;
        # odd N checks it
        stack = haar_unitary(dim, [RandomStream(35, t) for t in range(17)])
        values = element_entropy(stack)
        assert values.shape == (17,)
        assert [float(v) for v in values] == [element_entropy(u) for u in stack]

    def test_unit_modulus_entries_are_not_negative(self):
        # |e^{i phi}|^2 rounds to 1 + 2e-16 for some phi; clipped, each
        # entry adds 0, not -2e-16
        phases = np.linspace(0.0, 2 * np.pi, 4000, endpoint=False).reshape(1000, 4)
        stack = np.zeros((1000, 4, 4), dtype=complex)
        stack[:, np.arange(4), np.arange(4)] = np.exp(1j * phases)
        assert (np.abs(stack) ** 2).max() > 1.0
        values = element_entropy(stack)
        assert (values >= 0).all() and values.max() < 1e-14
        assert element_entropy(stack[0][:1, :1]) >= 0


def test_plogp_is_the_masked_kernel():
    # p log p with 0 log 0 := 0, bit for bit the kernel that indexes by a mask
    p = np.abs(haar_unitary(16, [RandomStream(36, t) for t in range(4)])) ** 2
    p[:, ::3] = 0.0
    masked = np.zeros_like(p)
    masked[p > 0] = p[p > 0] * np.log(p[p > 0])
    assert np.array_equal(_plogp(p), masked)


class TestMeanFormulas:
    def test_mean_random_vector_entropy_values(self):
        assert mean_random_vector_entropy(1) == 0.0
        assert mean_random_vector_entropy(2) == 0.5
        assert abs(mean_random_vector_entropy(4) - 13 / 12) < 1e-15

    def test_gap_to_log_approaches_one_minus_gamma(self):
        for n in (2, 64, 4096):
            assert mean_random_vector_entropy(n) < log(n)
        gap = log(100_000) - mean_random_vector_entropy(100_000)
        assert abs(gap - (1 - np.euler_gamma)) < 1e-4

    def test_page_mean(self):
        assert abs(page_mean_entropy(16, 16) - (0.5 * log(256) - 0.5 + 1 / 32)) < 1e-12
        assert page_mean_entropy(1, 5) == 0.0
        assert abs(page_mean_entropy(2, 4) - (LN2 - 0.125)) < 1e-15

    def test_page_equal_halves_identity(self):
        # ln sqrt(N) - (sqrt(N)-1)/(2 sqrt(N)) ~ ln(N)/2 - 1/2 for large N
        n_a = 64
        approx = 0.5 * log(n_a**2) - 0.5
        assert abs(page_mean_entropy(n_a, n_a) - approx) < 1 / (2 * n_a) + 1e-12

    def test_page_order_violation(self):
        with pytest.raises(OrderViolation):
            page_mean_entropy(8, 4)

    def test_mean_purity(self):
        assert mean_purity(2, 2) == 0.8
        assert mean_purity(1, 17) == 1.0
        assert mean_purity(3, 7) == mean_purity(7, 3)


def partial_trace_oracle(state, dims, keep):
    """Explicit index-sum partial trace."""
    from itertools import product as iproduct
    from math import prod
    k = len(dims)
    kept0 = sorted(p - 1 for p in keep)
    rest0 = [p for p in range(k) if p not in kept0]
    dim_a = prod(dims[p] for p in kept0)
    psi = np.asarray(state).reshape(dims)
    sigma = np.zeros((dim_a, dim_a), dtype=complex)
    kept_ranges = [range(dims[p]) for p in kept0]
    rest_ranges = [range(dims[p]) for p in rest0]
    for ai, a in enumerate(iproduct(*kept_ranges)):
        for bi, b in enumerate(iproduct(*kept_ranges)):
            for r in iproduct(*rest_ranges):
                ia = [0] * k
                ib = [0] * k
                for p, v in zip(kept0, a):
                    ia[p] = v
                for p, v in zip(kept0, b):
                    ib[p] = v
                for p, v in zip(rest0, r):
                    ia[p] = v
                    ib[p] = v
                sigma[ai, bi] += psi[tuple(ia)] * np.conj(psi[tuple(ib)])
    return sigma


class TestPartialTrace:
    def test_product_state_is_pure(self):
        psi = np.kron(np.array([1, 0]), random_state(3, 0))
        sigma = partial_trace(psi, (2, 3), keep=(1,))
        assert np.allclose(sigma, np.diag([1, 0]))
        assert abs(purity(sigma) - 1.0) < 1e-12

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        sigma = partial_trace(bell, (2, 2), keep=(1,))
        assert np.allclose(sigma, np.eye(2) / 2)
        assert abs(von_neumann_entropy(sigma) - LN2) < 1e-12

    def test_three_qubit_matches_oracle(self):
        psi = random_state(8, 7)
        got = partial_trace(psi, (2, 2, 2), keep=(1, 3))
        expected = partial_trace_oracle(psi, (2, 2, 2), keep=(1, 3))
        assert np.abs(got - expected).max() <= 1e-12

    def test_schmidt_symmetry(self):
        psi = random_state(24, 8)
        ha = von_neumann_entropy(partial_trace(psi, (4, 6), keep=(1,)))
        hb = von_neumann_entropy(partial_trace(psi, (4, 6), keep=(2,)))
        assert abs(ha - hb) <= 1e-9

    def test_bad_keep_sets(self):
        psi = random_state(4, 9)
        with pytest.raises(EmptyKeepSet):
            partial_trace(psi, (2, 2), keep=())
        with pytest.raises(FullKeepSet):
            partial_trace(psi, (2, 2), keep=(1, 2))
        with pytest.raises(NormViolation):
            partial_trace(2 * psi, (2, 2), keep=(1,))


class TestVonNeumannAndPurity:
    def test_pure_state(self):
        sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert von_neumann_entropy(sigma) == 0.0
        assert purity(sigma) == 1.0


    def test_pure_states_have_nonnegative_entropy(self):
        # eigvalsh puts the top eigenvalue of some |psi><psi| at 1 + 4e-16
        for seed in range(50):
            psi = random_state(2, 60 + seed)
            assert 0.0 <= von_neumann_entropy(np.outer(psi, psi.conj())) <= 1e-13
    def test_maximally_mixed(self):
        d = 5
        sigma = np.eye(d) / d
        assert abs(von_neumann_entropy(sigma) - log(d)) < 1e-12
        assert abs(purity(sigma) - 1 / d) < 1e-15

    def test_bell_diagonal_weights(self):
        sigma = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        assert abs(von_neumann_entropy(sigma) - 1.75 * LN2) < 1e-12
        assert abs(purity(sigma) - 11 / 32) < 1e-15

    def test_bounds_and_pure_iff(self):
        for seed in range(4):
            psi = random_state(12, 40 + seed)
            sigma = partial_trace(psi, (3, 4), keep=(1,))
            d = sigma.shape[0]
            assert 1 / d - 1e-12 <= purity(sigma) <= 1 + 1e-12
            assert -1e-12 <= von_neumann_entropy(sigma) <= log(d) + 1e-12


    def test_a_stack_is_the_per_matrix_values(self):
        sigmas = np.stack([partial_trace(random_state(12, 70 + j), (3, 4), keep=(1,))
                           for j in range(5)])
        entropies, purities = von_neumann_entropy(sigmas), purity(sigmas)
        assert entropies.shape == purities.shape == (5,)
        for j, sigma in enumerate(sigmas):
            alone = von_neumann_entropy(sigma), purity(sigma)
            assert all(type(value) is float for value in alone)
            assert (entropies[j], purities[j]) == alone

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.5, -0.5]), "floor"), (np.diag([1.0, 1.0]), "trace"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.full((2, 2), np.nan), "Hermitian")])
    def test_one_invalid_matrix_in_a_stack_is_refused(self, bad, message):
        sigmas = np.stack([np.eye(2) / 2, bad, np.eye(2) / 2]).astype(complex)
        with pytest.raises(InvalidReducedState, match=message):
            von_neumann_entropy(sigmas)


class TestReducedEntropies:
    @pytest.mark.parametrize("dims, keep", [
        ((2, 3), (1,)), ((2, 3, 2), (1, 3)), ((3, 2, 2, 2), (2, 4)),
        ((2, 2, 2, 2), (1, 2, 3)), ((1, 3, 2), (1, 2))])
    def test_matches_single_state_functionals(self, dims, keep):
        total = int(np.prod(dims))
        states = haar_unitary(total, RandomStream(34, total)).T
        entropies, purities = reduced_entropies(states, dims, [p - 1 for p in keep])
        for j, state in enumerate(states):
            sigma = partial_trace(state, dims, keep)
            assert abs(entropies[j] - von_neumann_entropy(sigma)) <= 1e-12
            assert abs(purities[j] - purity(sigma)) <= 1e-12

    @pytest.mark.parametrize("dims, keep", [((2, 3, 3, 3), (1, 2)), ((3, 3, 3, 3), (2, 4)),
                                            ((2,) * 6, (1, 2, 3))])
    def test_stack_is_the_per_state_values(self, dims, keep):
        total = int(np.prod(dims))
        states = haar_unitary(total, [RandomStream(37, t) for t in range(17)])[:, :, 0]
        entropies, purities = reduced_entropies(states, dims, [p - 1 for p in keep])
        for j in range(17):
            alone = reduced_entropies(states[j:j + 1], dims, [p - 1 for p in keep])
            assert (entropies[j], purities[j]) == (alone[0][0], alone[1][0])

    def test_stack_with_a_state_of_norm_two_is_rejected(self):
        states = np.stack([random_state(8, 35), 2 * random_state(8, 36),
                           random_state(8, 37)])
        with pytest.raises(InvalidReducedState, match="trace"):
            reduced_entropies(states, (2, 4), [0])
        with pytest.raises(InvalidReducedState, match="trace"):
            reduced_entropies(states[1:2] / 4, (2, 4), [1])

    def test_stack_with_a_nan_amplitude_is_rejected(self):
        # every check compares False on NaN, so each is written to fail then
        states = np.stack([random_state(8, 38), random_state(8, 39), random_state(8, 40)])
        states[1, 3] = np.nan
        with pytest.raises(InvalidReducedState):
            reduced_entropies(states, (2, 4), [0])

    def test_nan_matrix_is_rejected(self):
        with pytest.raises(InvalidReducedState):
            von_neumann_entropy(np.full((2, 2), np.nan, dtype=complex))

    def test_eigenvalue_floor_is_checked(self):
        # unit trace and Hermitian, but not positive: the same rule guards
        # von_neumann_entropy and reduced_entropies
        with pytest.raises(InvalidReducedState, match="floor"):
            von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))


def projection_oracle(vectors, dims, particle):
    """Slice every column with np.take at each basis index of ``particle``,
    then average entropy and purity of the first remaining particle with
    partial_trace, von_neumann_entropy and purity: (probability-weighted
    entropy, purity, null slices, uniform entropy, purity)."""
    rest = [d for p, d in enumerate(dims, start=1) if p != particle]
    weights, entropies, purities, skipped = [], [], [], 0
    for column in vectors.T:
        psi = column.reshape(dims)
        for b in range(dims[particle - 1]):
            slice_ = np.take(psi, b, axis=particle - 1).ravel()
            weight = float(np.sum(np.abs(slice_) ** 2))
            if weight <= 1e-14:
                skipped += 1
                continue
            sigma = partial_trace(slice_ / np.sqrt(weight), rest, keep=(1,))
            weights.append(weight)
            entropies.append(von_neumann_entropy(sigma))
            purities.append(purity(sigma))
    return (np.average(entropies, weights=weights),
            np.average(purities, weights=weights), skipped,
            np.mean(entropies), np.mean(purities))


def product_column():
    """a (x) e_1 (x) c on dims (2, 3, 2): slices 0 and 2 of particle 2 are null."""
    basis = np.zeros(3)
    basis[1] = 1.0
    return np.kron(np.kron(random_state(2, 10), basis), random_state(2, 11))[:, None]


class TestProjection:
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("dims, particle", [
        ((2, 3, 2), 1), ((2, 3, 2), 2), ((2, 3, 2), 3), ((3, 2, 2, 2), 2)])
    def test_matches_oracle(self, dims, particle, weighted):
        # one outcome weighting per case: by probability (columns 0, 1), or
        # uniform over the slices (columns 3, 4)
        columns = [0, 1] if weighted else [3, 4]
        total = int(np.prod(dims))
        vectors = eigendecompose(haar_unitary(total, RandomStream(38, total))).vectors
        got = _projection_stats(vectors[None], dims, particle)[0]
        expected = projection_oracle(vectors, dims, particle)
        assert np.abs(got[columns] - np.take(expected, columns)).max() <= 1e-12
        assert got[2] == expected[2] == 0

    def test_product_state_slice(self):
        got = _projection_stats(product_column()[None], (2, 3, 2), 2)[0]
        assert np.abs(got[[0, 3]]).max() <= 1e-12
        assert np.abs(got[[1, 4]] - 1.0).max() <= 1e-12

    def test_orthogonal_slice_is_null(self):
        # the two null slices weigh nothing: they are not averaged in as zero states
        column = product_column()
        got = _projection_stats(column[None], (2, 3, 2), 2)[0]
        assert got[2] == 2
        assert tuple(got) == pytest.approx(projection_oracle(column, (2, 3, 2), 2), abs=1e-12)
