import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph.rand import RandomStream, haar_unitary
from unigraph.spectral import (DEFAULT_SPACING_EDGES, EmptySample,
                               FewerThanTwoPhases, Histogram, InsufficientData,
                               NegativeArgument, eigendecompose, ks_statistic,
                               phase_uniformity, poisson_pdf, reference_cdf,
                               spacings, wigner_pdf)

TWO_PI = 2 * np.pi


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
        from unigraph.spectral import ConvergenceFailure
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ConvergenceFailure):
            eigendecompose(jordan)


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
        phases = np.sort(np.random.default_rng(6).uniform(0, TWO_PI, 64))
        assert len(spacings(phases, include_wrap=False)) == 63
        assert len(spacings(phases)) == 64

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
        for fn in (wigner_pdf, poisson_pdf):
            with pytest.raises(NegativeArgument):
                fn(-0.1)
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
        assert h.total == 4
        # density integrates to in-range/total
        assert abs((h.density * np.diff(h.edges)).sum() - 3 / 4) < 1e-12

    def test_merge_is_associative_and_commutative(self):
        rng = np.random.default_rng(0)
        parts = [rng.exponential(size=100) for _ in range(3)]
        hs = [Histogram.from_samples(p, DEFAULT_SPACING_EDGES) for p in parts]
        merged_a = hs[0].merge(hs[1]).merge(hs[2])
        merged_b = hs[2].merge(hs[0].merge(hs[1]))
        whole = Histogram.from_samples(np.concatenate(parts), DEFAULT_SPACING_EDGES)
        for other in (merged_b, whole):
            assert np.array_equal(merged_a.counts, other.counts)
            assert merged_a.overflow == other.overflow

    def test_csv_schema(self):
        h = Histogram.from_samples(np.array([0.5, 4.5]), np.linspace(0, 4, 5))
        lines = h.to_csv().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count,density"
        assert len(lines) == 6
        assert lines[-1] == "overflow,,1,"
