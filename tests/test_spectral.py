import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph import spectral
from unigraph.graph import Clique, InteractionGraph, Layer, ParticleSystem
from unigraph.rand import RandomStream, haar_unitary, random_phases_diagonal
from unigraph.spectral import (ConvergenceFailure, EmptySample, FewerThanTwoPhases,
                               Histogram, InsufficientData, NegativeArgument,
                               eigendecompose, eigenphases, ks_statistic, phase_uniformity,
                               reference_cdf, spacings)
from unigraph.tensor import evolution_unitary

TWO_PI = 2 * np.pi


def wigner_pdf(s):
    """Oracle: the Wigner surmise (32/pi^2) s^2 exp(-4 s^2 / pi), whose
    integral reference_cdf gives; refuses a negative argument as it does."""
    arr = spectral._check_nonnegative(s)
    out = (32.0 / np.pi**2) * arr**2 * np.exp(-4.0 * arr**2 / np.pi)
    return out if out.ndim else float(out)


def schur_phases(u):
    """Oracle: eigenphases from the diagonal of the complex Schur form."""
    return np.angle(np.diagonal(scipy.linalg.schur(u, output="complex")[0]))


def circular_distance(a, b):
    """Largest distance between two sorted phase sets, after turning both so
    that the widest gap of ``b`` straddles the 0/2pi seam: a phase at 1e-16
    and one at 2pi - 1e-16 are then neighbours, not 2pi apart."""
    b = np.sort(np.mod(b, TWO_PI))
    gaps = np.diff(b, append=b[0] + TWO_PI)
    widest = np.argmax(gaps)
    shift = -(b[widest] + gaps[widest] / 2)
    def turned(x):
        return np.sort(np.mod(np.asarray(x) + shift, TWO_PI))
    return np.abs(turned(a) - turned(b)).max()


def assert_matches_oracle(u, data=None):
    """Phases equal the Schur oracle's and the columns are an orthonormal
    eigenbasis, both to 1e-12."""
    data = eigendecompose(u) if data is None else data
    n = u.shape[0]
    assert circular_distance(data.phases, schur_phases(u)) <= 1e-12
    assert np.all((data.phases >= 0) & (data.phases <= TWO_PI))
    assert np.all(np.diff(data.phases) >= 0)
    assert np.abs(data.vectors.conj().T @ data.vectors - np.eye(n)).max() <= 1e-12
    residual = np.linalg.norm(
        u @ data.vectors - data.vectors * np.exp(1j * data.phases)[None, :], axis=0)
    assert residual.max() <= 1e-9 * n
    return data


def with_phases(phases, seed):
    """V diag(e^{i phases}) V^dagger for a Haar V."""
    v = haar_unitary(len(phases), RandomStream(seed, 0))
    return (v * np.exp(1j * np.asarray(phases))[None, :]) @ v.conj().T


class TestEigendecompose:
    def test_diagonal_phases(self):
        data = eigendecompose(np.diag([1.0, 1j]))
        assert np.allclose(data.phases, [0.0, np.pi / 2])

    def test_identity(self):
        data = eigendecompose(np.eye(8, dtype=complex))
        assert np.allclose(data.phases, 0.0)

    def test_two_by_two_matches_characteristic_roots(self):
        u = haar_unitary(2, RandomStream(0, 1))
        # roots of z^2 - tr z + det
        tr, det = np.trace(u), np.linalg.det(u)
        disc = np.sqrt(tr**2 - 4 * det)
        roots = np.array([(tr + disc) / 2, (tr - disc) / 2])
        expected = np.sort(np.mod(np.angle(roots), TWO_PI))
        assert np.abs(eigendecompose(u).phases - expected).max() < 1e-10

    def test_reconstruction(self):
        u = haar_unitary(32, RandomStream(0, 2))
        data = eigendecompose(u)
        rebuilt = data.vectors @ np.diag(np.exp(1j * data.phases)) @ data.vectors.conj().T
        assert np.abs(rebuilt - u).max() <= 1e-9

    def test_residual_contract(self):
        u = haar_unitary(20, RandomStream(0, 3))
        data = eigendecompose(u)
        residual = np.linalg.norm(
            u @ data.vectors - data.vectors * np.exp(1j * data.phases)[None, :], axis=0)
        assert residual.max() <= 1e-9 * 20
        assert np.abs(np.linalg.norm(data.vectors, axis=0) - 1).max() <= 1e-12

    def test_tensor_product_additive_phases(self):
        a = haar_unitary(3, RandomStream(0, 4))
        b = haar_unitary(4, RandomStream(0, 5))
        pa, pb = eigendecompose(a).phases, eigendecompose(b).phases
        expected = np.sort(np.mod((pa[:, None] + pb[None, :]).ravel(), TWO_PI))
        got = eigendecompose(np.kron(a, b)).phases
        assert np.abs(got - expected).max() <= 1e-9

    def test_global_phase_rotation_leaves_spacings(self):
        u = haar_unitary(16, RandomStream(0, 6))
        s1 = np.sort(spacings(eigendecompose(u).phases))
        s2 = np.sort(spacings(eigendecompose(np.exp(0.7j) * u).phases))
        assert np.abs(s1 - s2).max() <= 1e-9

    def test_defective_matrix_fails_residual_contract(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ConvergenceFailure):
            eigendecompose(jordan)

    @given(st.integers(2, 64), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_haar_matches_schur_oracle(self, n, seed):
        assert_matches_oracle(haar_unitary(n, RandomStream(seed, n)))

    @pytest.mark.parametrize("u", [
        np.eye(8, dtype=complex),
        -np.eye(8, dtype=complex),
        np.diag(np.exp(1j * np.array([0.3, 2.0, 0.3, 5.5, 2.0, 0.3, 5.5, 1.0]))),
    ], ids=["identity", "minus_identity", "repeated_diagonal"])
    def test_degenerate_spectra(self, u):
        assert_matches_oracle(u)

    def test_identity_singleton_tensor_product(self):
        # V on particles 1-3, identity on particle 4: U = V (x) I_2, so every
        # eigenvalue is exactly doubly degenerate
        graph = InteractionGraph(ParticleSystem((2, 2, 2, 2)), (
            Layer("a", (Clique((1, 2, 3)), Clique((4,))), singletons="identity"),))
        u = evolution_unitary(graph, RandomStream(3, 0))
        assert np.array_equal(u[1::2, 1::2], u[::2, ::2])
        data = assert_matches_oracle(u)
        assert np.abs(data.phases[::2] - data.phases[1::2]).max() <= 1e-12

    def test_vectors_are_column_major(self):
        # as one matrix's vectors[:, order] is: eigenvector_entropy sums in
        # memory order, so the layout is part of a report's last bits
        for u in (haar_unitary(12, RandomStream(0, 8)), -np.eye(4, dtype=complex)):
            assert eigendecompose(u).vectors.flags.f_contiguous

    @staticmethod
    def attempts(solve, u, monkeypatch):
        """solve(u) for one matrix, and the alpha of each Cayley attempt."""
        alphas = []
        cayley = spectral._cayley_eigen
        def spy(us, stack_alphas, with_vectors):
            assert len(us) == 1
            alphas.append(float(stack_alphas[0]))
            return cayley(us, stack_alphas, with_vectors)
        monkeypatch.setattr(spectral, "_cayley_eigen", spy)
        found = solve(u)
        monkeypatch.undo()
        return found, alphas

    @pytest.mark.parametrize("phases, gap_middle", [
        # within 1e-12 of -1, with phases on both sides of the 0/2pi seam
        ([np.pi - 5e-13, 1e-13, TWO_PI - 1e-13, 1.0, 2.5, 4.0, 5.0, 5.9], 1.75),
        # |tan| = 1e6: the checks would pass, but the phases would be off by
        # ~1e-10; the widest gap (5.6 to 0.9) straddles the seam
        ([np.pi - 2e-6, 0.9, 1.5, 2.2, 4.0, 4.6, 5.2, 5.6], (5.6 + 0.9 + TWO_PI) / 2),
    ], ids=["minus_one_and_seam", "wrapping_gap"])
    def test_pole_next_to_an_eigenvalue(self, monkeypatch, phases, gap_middle):
        # -1 is the Cayley pole at alpha = 0, so the first attempt is refused
        # (|tan| past the pole budget); the retry puts the pole -e^{-i alpha}, at phase
        # pi - alpha, in the middle of the widest gap between the refused
        # attempt's phases (which are only good to ~1e-3 in the first case)
        u = with_phases(phases, 5)
        data, alphas = self.attempts(eigendecompose, u, monkeypatch)
        assert_matches_oracle(u, data)
        assert circular_distance(data.phases, phases) <= 1e-12
        assert len(alphas) == 2 and alphas[0] == 0.0
        assert abs(np.angle(np.exp(1j * (np.pi - alphas[1] - gap_middle)))) <= 0.01

    @pytest.mark.parametrize("u", [-np.eye(4, dtype=complex), np.diag([1.0, -1.0, 1j])],
                             ids=["minus_identity", "parity"])
    def test_singular_solve_retries_at_alpha_one(self, monkeypatch, u):
        data, alphas = self.attempts(eigendecompose, u, monkeypatch)
        assert alphas == [0.0, 1.0]
        assert_matches_oracle(u, data)

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_singular_solve_then_pole_on_an_eigenvalue(self, monkeypatch, eps):
        # -1 makes the alpha = 0 solve singular, and the blind alpha = 1 retry
        # puts the pole -e^{-i} on (or 1e-4 from) the eigenvalue
        # e^{i(pi - 1 + eps)}: the third attempt, with its pole in the middle
        # of the widest gap (0.3 to 2.0) of the second's phases, is accepted
        diagonal = np.array([-1.0, *np.exp(1j * np.array([np.pi - 1 + eps, 0.3, 2.0, 4.0, 5.5]))])
        u = np.diag(diagonal)
        expected = np.sort(np.mod(np.angle(diagonal), TWO_PI))
        data, alphas = self.attempts(eigendecompose, u, monkeypatch)
        phases, phase_alphas = self.attempts(eigenphases, u[None], monkeypatch)
        assert alphas[:2] == [0.0, 1.0] and len(alphas) == 3
        assert abs(alphas[2] - (np.pi - 1.15)) <= 1e-9
        assert phase_alphas == alphas
        assert_matches_oracle(u, data)
        assert np.abs(data.phases - expected).max() <= 1e-15
        assert np.array_equal(phases[0], data.phases)

    @pytest.mark.parametrize("failure", ["singular", "wrong_vectors"])
    def test_refused_on_every_attempt_raises(self, monkeypatch, failure):
        cayley = spectral._cayley_eigen
        alphas = []
        def broken(us, stack_alphas, with_vectors):
            alphas.extend(stack_alphas.tolist())
            tangents, vectors = cayley(us, stack_alphas, with_vectors)
            if failure == "singular":
                return np.full_like(tangents, np.nan), np.full_like(vectors, np.nan)
            return tangents, np.roll(vectors, 1, axis=-1)
        monkeypatch.setattr(spectral, "_cayley_eigen", broken)
        with pytest.raises(ConvergenceFailure, match=r"stack rows \[0\] are refused"):
            eigendecompose(haar_unitary(24, RandomStream(0, 7)))
        assert len(alphas) == 3 and alphas[0] == 0.0
        if failure == "singular":
            assert alphas == [0.0, 1.0, 1.0]

    def test_stack_rows_equal_each_matrix_alone(self, monkeypatch):
        # row 1 has an eigenvalue within 1e-12 of the alpha = 0 pole, so it
        # needs the retry; row 3's eigenvectors are refused on its first two
        # attempts, so it needs the third; each row keeps the bits of its
        # solve alone (row 3's refused alone as in the stack), and a row
        # refused on all three attempts is named
        us = haar_unitary(8, [RandomStream(34, t) for t in range(6)])
        us[1] = with_phases([np.pi - 5e-13, 1e-13, TWO_PI - 1e-13, 1.0, 2.5, 4.0, 5.0, 5.9], 5)
        cayley = spectral._cayley_eigen
        def refuse_row_3(refusals):
            solved = []
            def spy(stack, alphas, with_vectors):
                solved.append([k for k, u in enumerate(us)
                               if any(np.array_equal(u, v) for v in stack)])
                tangents, vectors = cayley(stack, alphas, with_vectors)
                hit = np.array([np.array_equal(v, us[3]) for v in stack])
                if sum(3 in rows for rows in solved) <= refusals:
                    vectors[hit] = np.roll(vectors[hit], 1, axis=-1)
                return tangents, vectors
            monkeypatch.setattr(spectral, "_cayley_eigen", spy)
            return solved
        solved = refuse_row_3(3)
        with pytest.raises(ConvergenceFailure, match=r"stack rows \[3\] are refused"):
            eigendecompose(us)
        assert solved == [list(range(6)), [1, 3], [3]]
        solved = refuse_row_3(2)
        data = eigendecompose(us)
        assert solved == [list(range(6)), [1, 3], [3]]
        assert data.phases.shape == (6, 8) and data.vectors.shape == (6, 8, 8)
        for u, phases, vectors in zip(us, data.phases, data.vectors):
            refuse_row_3(2)
            alone = eigendecompose(u)
            monkeypatch.undo()
            assert np.array_equal(phases, alone.phases)
            assert np.array_equal(vectors, alone.vectors)
            assert vectors.strides == alone.vectors.strides
            assert_matches_oracle(u, alone)


class TestEigenphases:
    @staticmethod
    def solve(us, monkeypatch):
        """eigenphases(us), and the stack and alphas of each Cayley solve."""
        solves = []
        cayley = spectral._cayley_eigen
        def spy(us, alphas, with_vectors):
            assert not with_vectors
            solves.append((us.copy(), alphas.tolist()))
            return cayley(us, alphas, with_vectors)
        monkeypatch.setattr(spectral, "_cayley_eigen", spy)
        phases = eigenphases(us)
        monkeypatch.undo()
        return phases, solves

    @staticmethod
    def assert_matches_eigendecompose(us, phases):
        """Each row is sorted in [0, 2pi) and within 1e-13 of the checked
        eigendecompose phases on the circle."""
        assert phases.shape == us.shape[:-1]
        assert np.all((phases >= 0) & (phases < TWO_PI))
        assert np.all(np.diff(phases, axis=-1) >= 0)
        for u, row in zip(us, phases):
            assert circular_distance(row, eigendecompose(u).phases) <= 1e-13

    @pytest.mark.parametrize("dim, count", [(2, 64), (16, 64), (36, 20), (64, 8)])
    def test_haar_stack_needs_no_fallback(self, monkeypatch, dim, count):
        us = haar_unitary(dim, [RandomStream(31, t) for t in range(count)])
        # draw 0 turned to put an eigenvalue 1e-4 from -1, past the pole
        # budget (|tan| ~ 2e4), as a draw of a larger stack would be
        us[0] *= np.exp(1j * (np.pi - 1e-4 - eigendecompose(us[0]).phases[0]))
        phases, solves = self.solve(us, monkeypatch)
        self.assert_matches_eigendecompose(us, phases)
        # the draws with an eigenvalue that close to -1 are solved again,
        # each at its own alpha, and none a third time
        assert np.array_equal(solves[0][0], us) and solves[0][1] == [0.0] * count
        assert len(solves) == 2 and 0 < len(solves[1][0]) < count
        assert all(alpha != 0.0 for alpha in solves[1][1])
        for u, row in zip(us, phases):
            assert np.array_equal(eigenphases(u[None])[0], row)

    @pytest.mark.parametrize("dim, bound", [(16, 0.02), (64, 0.08)])
    def test_pole_budget_refuses_few_haar_draws(self, monkeypatch, dim, bound):
        # the budget max(4N, 1000) refuses 1 of 200 seed-1 CUE draws at alpha = 0
        # at N = 16 and 9 at N = 64, where a 4N guard refused 25 and 30
        us = haar_unitary(dim, [RandomStream(1, t) for t in range(200)])
        _, solves = self.solve(us, monkeypatch)
        refused = len(solves[1][0]) if len(solves) > 1 else 0
        assert refused / len(us) < bound

    @pytest.mark.parametrize("u", [
        np.eye(8, dtype=complex),
        -np.eye(8, dtype=complex),
        np.diag(np.exp(1j * np.array([0.3, 2.0, 0.3, 5.5, 2.0, 0.3, 5.5, 1.0]))),
    ], ids=["identity", "minus_identity", "repeated_diagonal"])
    def test_degenerate_spectra(self, u):
        self.assert_matches_eigendecompose(u[None], eigenphases(u[None]))

    def test_identity_singleton_tensor_product(self, monkeypatch):
        # U = V (x) I_2: every eigenvalue is exactly doubly degenerate
        graph = InteractionGraph(ParticleSystem((2, 2, 2, 2)), (
            Layer("a", (Clique((1, 2, 3)), Clique((4,))), singletons="identity"),))
        us = evolution_unitary(graph, [RandomStream(3, t) for t in range(4)])
        phases, solves = self.solve(us, monkeypatch)
        self.assert_matches_eigendecompose(us, phases)
        assert np.abs(phases[:, ::2] - phases[:, 1::2]).max() <= 1e-12
        assert len(solves) <= 2

    def test_diagonal_source(self):
        us = random_phases_diagonal(32, [RandomStream(8, t) for t in range(6)])
        phases = eigenphases(us)
        self.assert_matches_eigendecompose(us, phases)
        expected = np.sort(np.mod(np.angle(np.diagonal(us, axis1=1, axis2=2)), TWO_PI))
        assert np.abs(phases - expected).max() <= 1e-13

    @pytest.mark.parametrize("phases", [
        [np.pi - 5e-13, 1e-13, TWO_PI - 1e-13, 1.0, 2.5, 4.0, 5.0, 5.9],
        [np.pi + 1e-12, 0.9, 1.5, 2.2, 4.0, 4.6, 5.2, 5.6],
    ], ids=["minus_one_and_seam", "just_past_pi"])
    def test_seam_and_pi(self, monkeypatch, phases):
        # an eigenvalue within 1e-12 of the alpha = 0 pole: the first attempt
        # is refused and the first retry solves it
        us = with_phases(phases, 5)[None]
        found, solves = self.solve(us, monkeypatch)
        self.assert_matches_eigendecompose(us, found)
        assert circular_distance(found[0], phases) <= 1e-12
        assert len(solves) == 2

    def test_singular_member_costs_only_its_row(self, monkeypatch):
        # I + U is exactly singular for the third member, so the stacked solve
        # raises and is redone matrix by matrix; only that member is retried
        # at alpha = 1, under the trace check, and accepted there
        us = haar_unitary(8, [RandomStream(32, t) for t in range(6)])
        us[2] = np.diag([1.0, -1.0, 1j, -1j, 1.0, 1j, 1.0, 1.0])
        phases, solves = self.solve(us, monkeypatch)
        assert len(solves) == 1 + 6 + 1
        # the last solve is the retry (the redo's one-matrix solves come first)
        retried = [alpha for u, alpha in zip(*solves[-1]) if np.array_equal(u, us[2])]
        assert retried == [1.0]
        assert circular_distance(phases[2], eigendecompose(us[2]).phases) <= 1e-13
        for k in (0, 1, 3, 4, 5):
            assert np.array_equal(phases[k], eigenphases(us[k:k + 1])[0])
        self.assert_matches_eigendecompose(us, phases)

    @pytest.mark.parametrize("corrupt", [
        lambda t: t + np.where(np.arange(t.shape[-1]) == 3, 1e-7, 0.0),
        lambda t: np.sort(np.concatenate([t[:, 1:2], t[:, 1:]], axis=1)),
    ], ids=["one_phase_shifted", "one_dropped_one_duplicated"])
    def test_failed_trace_check_retries_then_raises(self, monkeypatch, corrupt):
        us = haar_unitary(12, [RandomStream(33, t) for t in range(5)])
        cayley = spectral._cayley_eigen
        calls = []
        def first_corrupted(us, alphas, with_vectors):
            calls.append(len(us))
            tangents, vectors = cayley(us, alphas, with_vectors)
            return (corrupt(tangents) if len(calls) == 1 else tangents), vectors
        monkeypatch.setattr(spectral, "_cayley_eigen", first_corrupted)
        phases = eigenphases(us)
        # every matrix was refused once and solved again
        assert calls == [5, 5]
        self.assert_matches_eigendecompose(us, phases)
        # refused on all three attempts: every matrix is named
        def always_corrupted(us, alphas, with_vectors):
            calls.append(len(us))
            tangents, vectors = cayley(us, alphas, with_vectors)
            return corrupt(tangents), vectors
        monkeypatch.setattr(spectral, "_cayley_eigen", always_corrupted)
        calls.clear()
        with pytest.raises(ConvergenceFailure,
                           match=r"stack rows \[0, 1, 2, 3, 4\] are refused on all three"):
            eigenphases(us)
        assert calls == [5, 5, 5]


class TestSpacings:
    def test_two_equally_spaced(self):
        assert np.allclose(spacings(np.array([0.0, np.pi])), [1.0, 1.0])

    def test_four_equally_spaced(self):
        phases = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert np.allclose(spacings(phases), 1.0)

    def test_mean_is_one_by_closure(self):
        rng = np.random.default_rng(5)
        phases = np.sort(rng.uniform(0, TWO_PI, 257))
        assert abs(spacings(phases).mean() - 1.0) <= 1e-9

    def test_strict_mode_drops_wrap_gap(self):
        # the paper's 63 interior gaps are the first 63 spacings; the wrap gap ends them
        phases = np.sort(np.random.default_rng(6).uniform(0, TWO_PI, 64))
        s = spacings(phases)
        assert len(s) == 64
        assert np.array_equal(s[:-1], np.diff(phases) * (64 / TWO_PI))
        assert s[-1] == (phases[0] + TWO_PI - phases[-1]) * (64 / TWO_PI)

    def test_rejects_single_phase(self):
        with pytest.raises(FewerThanTwoPhases):
            spacings(np.array([1.0]))

    @given(st.integers(2, 200), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mean_one_property(self, n, seed):
        phases = np.sort(np.random.default_rng(seed).uniform(0, TWO_PI, n))
        assert abs(spacings(phases).mean() - 1.0) <= 1e-9


class TestReferenceLaws:
    def test_wigner_at_zero_and_one(self):
        assert wigner_pdf(0.0) == 0.0
        assert abs(wigner_pdf(1.0) - (32 / np.pi**2) * np.exp(-4 / np.pi)) < 1e-15
        assert abs(wigner_pdf(1.0) - 0.9075892109166814) < 1e-12

    def test_wigner_argmax(self):
        # derivative zero at sqrt(pi)/2
        peak = np.sqrt(np.pi) / 2
        grid = np.linspace(0, 4, 4001)
        assert abs(grid[np.argmax(wigner_pdf(grid))] - peak) < 2e-3
        assert wigner_pdf(peak) >= wigner_pdf(grid).max() - 1e-9

    def test_negative_rejected(self):
        with pytest.raises(NegativeArgument):
            wigner_pdf(-0.1)
        with pytest.raises(NegativeArgument):
            reference_cdf("wigner", -1.0)

    def test_wigner_normalization_mean_variance(self):
        mass, _ = scipy.integrate.quad(wigner_pdf, 0, np.inf)
        mean, _ = scipy.integrate.quad(lambda s: s * wigner_pdf(s), 0, np.inf)
        var, _ = scipy.integrate.quad(lambda s: (s - 1) ** 2 * wigner_pdf(s), 0, np.inf)
        assert abs(mass - 1) < 1e-8
        assert abs(mean - 1) < 1e-8
        assert abs(var - (3 * np.pi / 8 - 1)) < 1e-8

    def test_cdf_endpoints(self):
        assert reference_cdf("wigner", 0.0) == 0.0
        assert abs(reference_cdf("wigner", 10.0) - 1.0) < 1e-8
        assert abs(reference_cdf("poisson", np.log(2)) - 0.5) < 1e-12

    def test_cdf_against_closed_form(self):
        # the closed form against an independent quadrature of the pdf,
        # to the documented 1e-10, for arrays and for scalars
        points = np.array([0.1, 0.5, 1.0, 1.7, 2.9])
        oracle = np.array([scipy.integrate.quad(wigner_pdf, 0.0, s, epsabs=1e-14)[0]
                           for s in points])
        assert np.abs(reference_cdf("wigner", points) - oracle).max() < 1e-10
        for s, expected in zip(points, oracle):
            assert abs(reference_cdf("wigner", float(s)) - expected) < 1e-10

    def test_cdf_against_scipy_erf(self):
        # erf comes from math.erf: the law stays within 2 ulp of 1 of the same
        # closed form with scipy's erf, for arrays and for scalars
        points = np.linspace(0.0, 6.0, 10_000)
        oracle = np.minimum(scipy.special.erf(2.0 * points / np.sqrt(np.pi))
                            - (4.0 * points / np.pi) * np.exp(-4.0 * points**2 / np.pi), 1.0)
        assert np.abs(reference_cdf("wigner", points) - oracle).max() <= 4.5e-16
        scalars = np.array([reference_cdf("wigner", float(s)) for s in points])
        assert np.abs(scalars - oracle).max() <= 4.5e-16

    def test_cdf_against_scaled_chi(self):
        # the surmise is a chi(3) law scaled by sqrt(pi/8)
        dist = scipy.stats.chi(3, scale=np.sqrt(np.pi / 8))
        points = np.array([0.25, 0.8862, 1.5])
        assert np.abs(reference_cdf("wigner", points) - dist.cdf(points)).max() < 1e-9


class TestKsStatistic:
    def test_sample_from_reference_is_close(self):
        dist = scipy.stats.chi(3, scale=np.sqrt(np.pi / 8))
        sample = dist.rvs(size=100_000, random_state=42)
        assert ks_statistic(sample, lambda s: reference_cdf("wigner", s)) <= 0.01

    def test_single_point_at_median(self):
        median = scipy.stats.chi(3, scale=np.sqrt(np.pi / 8)).median()
        got = ks_statistic(np.array([median]), lambda s: reference_cdf("wigner", s))
        assert abs(got - 0.5) < 1e-9

    def test_constant_tail_sample(self):
        got = ks_statistic(np.full(10, 25.0), lambda s: reference_cdf("wigner", s))
        assert got > 1 - 1e-8

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            ks_statistic(np.array([]), lambda s: reference_cdf("poisson", s))

    def test_matches_scipy_kstest(self):
        sample = np.random.default_rng(3).exponential(size=500)
        ours = ks_statistic(sample, lambda s: reference_cdf("poisson", s))
        scipys = scipy.stats.kstest(sample, lambda s: 1 - np.exp(-s)).statistic
        assert abs(ours - scipys) < 1e-12


class TestPhaseUniformity:
    def test_equal_counts_statistic_zero(self):
        bins = 8
        phases = (np.arange(80) + 0.5) * TWO_PI / 80
        statistic, p = phase_uniformity(phases, bins=bins)
        assert statistic == 0.0
        assert p == 1.0

    def test_concentrated_phases_rejected(self):
        phases = np.full(320, 0.1)
        _, p = phase_uniformity(phases, bins=8)
        assert p < 1e-10

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            phase_uniformity(np.linspace(0, 6, 50), bins=32)

    @pytest.mark.parametrize("bins", [1, 0, -3])
    def test_too_few_bins_rejected(self, bins):
        # one bin has no degrees of freedom; zero or fewer, no histogram
        with pytest.raises(ValueError, match=f"at least 2 bins, got {bins}$"):
            phase_uniformity(np.linspace(0, 6, 50), bins=bins)

    @pytest.mark.parametrize("bins", [2, 10, 32])
    def test_p_value_is_the_chi_square_survival_function(self, bins):
        rng = np.random.default_rng(bins)
        phases = rng.uniform(0.0, TWO_PI, 20 * bins) ** 1.1 % TWO_PI
        statistic, p = phase_uniformity(phases, bins=bins)
        assert p == pytest.approx(scipy.stats.chi2.sf(statistic, bins - 1), rel=1e-12)

    @pytest.mark.parametrize("bins", [*range(2, 65), 255, 1024])
    def test_closed_form_against_chdtrc(self, bins):
        # from 1e-8 out past the statistic where chdtrc underflows to 0
        statistics = np.geomspace(1e-8, 1e4, 801)
        expected = scipy.special.chdtrc(bins - 1, statistics)
        assert expected[-1] == 0.0
        got = np.array([spectral._chi2_sf(bins - 1, x) for x in statistics])
        assert ((got >= 0) & (got <= 1)).all()
        normal = expected >= 1e-300
        rel = np.abs(got[normal] - expected[normal]) / expected[normal]
        assert rel.max() <= (1e-12 if bins <= 64 else 1e-11)
        assert spectral._chi2_sf(bins - 1, 0.0) == 1.0

    def test_pooled_cue_phases_look_uniform(self):
        pooled = np.concatenate([
            eigendecompose(haar_unitary(32, RandomStream(21, t))).phases
            for t in range(120)])
        _, p = phase_uniformity(pooled, bins=16)
        assert p > 0.001


class TestHistogram:
    def test_counts_density_and_overflow(self):
        h = Histogram.from_samples(np.array([0.1, 0.5, 1.5, 9.0]),
                                   np.linspace(0, 4, 5))
        assert h.counts.tolist() == [2, 1, 0, 0]
        assert h.overflow == 1
        assert h.counts.sum() + h.overflow == 4
        # density integrates to in-range/total
        assert abs((h.density * np.diff(h.edges)).sum() - 3 / 4) < 1e-12

    def test_csv_schema(self):
        h = Histogram.from_samples(np.array([0.5, 4.5]), np.linspace(0, 4, 5))
        lines = h.to_csv().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count,density"
        assert len(lines) == 6
        assert lines[-1] == "overflow,,1,"
