"""Acceptance suite: one test per criterion, tolerances pinned.

These runs reproduce the headline statistics at desk scale (about 10^5
pooled eigenvalues for the spacing criteria); the whole module takes a few
minutes. A one-line verdict per criterion is printed in the terminal
summary (see conftest).
"""

import time
from math import log

import numpy as np
import pytest
import scipy.integrate

from unigraph.ensemble import (Analysis, EnsembleSpec, ReferenceEnsemble, _stacks,
                               benchmark_generation, run_ensemble)
from unigraph.entropy import element_entropy, mean_purity
from unigraph.graph import (Clique, InteractionGraph, Layer, ParticleSystem,
                            chain_graph, from_bond_vertex_graph, ring_graph)
from unigraph.rand import DEFAULT_SEED, RandomStream, haar_unitary
from unigraph.spectral import eigenphases, ks_statistic, reference_cdf, spacings
from unigraph.tensor import evolution_unitary

SEED = DEFAULT_SEED
TWO_PI = 2 * np.pi
# spacing variances of the Wigner surmise, 3 pi/8 - 1, and of the Poissonian law
WIGNER_VARIANCE = 3.0 * np.pi / 8.0 - 1.0
POISSON_VARIANCE = 1.0


def wigner_pdf(s):
    """The Wigner surmise for CUE spacings, (32/pi^2) s^2 exp(-4 s^2 / pi)."""
    return (32.0 / np.pi**2) * s**2 * np.exp(-4.0 * s**2 / np.pi)


def layer_of(*cliques, color="c"):
    return Layer(color, tuple(Clique(tuple(c)) for c in cliques))


def pair_graph(n):
    # two particles: local blocks first, then one joint block
    return from_bond_vertex_graph([(1, 2)], [(1,), (2,)], n=n)


def three_chain_graph(n_a, n_b, n_c):
    # three particles: blocks on {1} and {2,3}, then on {1,2} and {3}
    return InteractionGraph(ParticleSystem((n_a, n_b, n_c)),
                            (layer_of((1,), (2, 3)), layer_of((1, 2), (3,))))


def crossed_square_graph(n):
    # four particles: pair layer {1,3},{2,4}, then pair layer {1,2},{3,4}
    return from_bond_vertex_graph([(1, 2), (3, 4)], [(1, 3), (2, 4)], n=n)


def triangle_matching_graph(n):
    # six particles: matching layer {1,4},{2,5},{3,6}, then a triangle block
    # on {1,2,3} with sampled singletons
    return InteractionGraph(
        ParticleSystem((n,) * 6),
        (layer_of((1, 4), (2, 5), (3, 6)),
         layer_of((1, 2, 3), (4,), (5,), (6,))))


def spacing_spec(source, draws):
    return EnsembleSpec(source=source, draws=draws, master_seed=SEED,
                        analyses=(Analysis("spacing"), Analysis("phase_density")))


@pytest.fixture(scope="module")
def pair_n10_report():
    # N=100, T=1000: 1e5 pooled spacings
    return run_ensemble(spacing_spec(pair_graph(10), 1000))


@pytest.fixture(scope="module")
def triangle_qubits_report():
    # N=64, T=1500: ~1e5 pooled spacings
    return run_ensemble(spacing_spec(triangle_matching_graph(2), 1500))


@pytest.fixture(scope="module")
def chain6_report():
    # six-qubit five-step chain, reused by criteria 8 and 10
    spec = EnsembleSpec(source=chain_graph(6, 2), draws=2000, master_seed=SEED,
                        analyses=(Analysis("spacing"), Analysis("element_entropy")))
    return run_ensemble(spec)


def test_c01_wigner_reference_self_consistency():
    """Quadrature of the surmise: mass 1, mean 1, variance 3pi/8 - 1."""
    start = time.perf_counter()
    mass, _ = scipy.integrate.quad(wigner_pdf, 0, np.inf, epsabs=1e-12)
    mean, _ = scipy.integrate.quad(lambda s: s * wigner_pdf(s), 0, np.inf,
                                   epsabs=1e-12)
    variance, _ = scipy.integrate.quad(lambda s: (s - 1) ** 2 * wigner_pdf(s),
                                       0, np.inf, epsabs=1e-12)
    elapsed = time.perf_counter() - start
    assert abs(mass - 1.0) <= 1e-8
    assert abs(mean - 1.0) <= 1e-8
    assert abs(variance - WIGNER_VARIANCE) <= 1e-6
    assert abs(WIGNER_VARIANCE - 0.1781) < 1e-4
    assert elapsed < 1.0


def _assert_wigner_like(result):
    assert abs(result["variance"] - 0.178) <= 0.015
    assert result["ks_wigner"] < result["ks_poisson"]
    assert result["ks_wigner"] <= 0.015


def test_c02_connected_graphs_follow_wigner(pair_n10_report, triangle_qubits_report):
    """Connected graphs at N=100 and N=64 show CUE spacing statistics."""
    _assert_wigner_like(pair_n10_report.analyses["spacing"])
    _assert_wigner_like(triangle_qubits_report.analyses["spacing"])


def _circular_sorted_close(a, b, tol):
    """Elementwise closeness of two sorted phase multisets on the circle,
    allowing a cyclic shift across the 0/2pi seam."""
    n = len(a)
    for shift in (-1, 0, 1):
        delta = a - np.roll(b, shift)
        delta = np.abs(np.mod(delta + np.pi, TWO_PI) - np.pi)
        if delta.max() <= tol:
            return True
    return False


# Pooled spacing variance of CUE(m) x CUE(m) spectra at m = n^2, reckoned
# without this package (scipy.stats.unitary_group, ~1e5 spacings per size)
TWO_BLOCK_VARIANCE = {2: 0.526, 3: 0.746, 4: 0.849}


def _assert_rises_toward_poisson(variances):
    sizes = sorted(variances)
    values = [variances[n] for n in sizes]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < POISSON_VARIANCE
    for n in sizes:
        assert abs(variances[n] - TWO_BLOCK_VARIANCE[n]) <= 0.03


def stacked_phases(graph, draws):
    """The checked eigenphases of draws 0..draws-1 of ``graph``, generated and
    solved in the stacks of draws that campaigns use."""
    return np.concatenate([
        eigenphases(evolution_unitary(graph, streams))
        for streams in _stacks(SEED, graph, draws)])


def test_c03_disconnected_graph_is_poissonian():
    """Two disjoint blocks: exact spectral factorization, spacings closer to
    Poisson than to Wigner, and a pooled spacing variance that rises toward
    the Poisson value as the blocks grow (n = 2, 3, 4; N = 16, 81, 256)."""
    draws = 400
    graph = InteractionGraph(
        ParticleSystem((4, 4, 4, 4)),
        (layer_of((1, 2), (3, 4)), layer_of((1, 2), (3, 4))))
    pooled = []
    for t, phases in enumerate(stacked_phases(graph, draws)):
        stream = RandomStream(SEED, t)
        pooled.append(spacings(phases))
        # component evolutions rebuilt from the documented substreams
        block_a = (haar_unitary(16, stream.substream(1, 0))
                   @ haar_unitary(16, stream.substream(0, 0)))
        block_b = (haar_unitary(16, stream.substream(1, 1))
                   @ haar_unitary(16, stream.substream(0, 1)))
        pa = np.mod(np.angle(np.linalg.eigvals(block_a)), TWO_PI)
        pb = np.mod(np.angle(np.linalg.eigvals(block_b)), TWO_PI)
        expected = np.sort(np.mod((pa[:, None] + pb[None, :]).ravel(), TWO_PI))
        assert _circular_sorted_close(phases, expected, 1e-9)
    pooled = np.concatenate(pooled)
    ks_p = ks_statistic(pooled, lambda s: reference_cdf("poisson", s))
    ks_w = ks_statistic(pooled, lambda s: reference_cdf("wigner", s))
    assert ks_p < ks_w
    # The spectrum of CUE(m) x CUE(m) superposes m rotated copies of one
    # CUE(m) spectrum. Such a superposition approaches the Poisson variance 1
    # only from below, roughly as 1 - 2.4/m: at m = 16 it is ~0.85, not 1.
    # So check the rise with block size against the reference values, each
    # size pooling ~1e5 spacings from the same two-block graph shape.
    variances = {4: pooled.var(ddof=1)}
    for n, size_draws in ((2, 6400), (3, 1250)):
        smaller = InteractionGraph(ParticleSystem((n,) * 4), graph.layers)
        variances[n] = np.concatenate(
            [spacings(phases) for phases in stacked_phases(smaller, size_draws)]).var(ddof=1)
    _assert_rises_toward_poisson(variances)


def test_c04_cue_eigenvector_entropy_mean():
    """CUE N=64 eigenvector entropy equals the harmonic sum 3.7439 to 1%."""
    spec = EnsembleSpec(source=ReferenceEnsemble("cue", 64), draws=200,
                        master_seed=SEED, analyses=(Analysis("evec_entropy"),))
    result = run_ensemble(spec).analyses["evec_entropy"]
    expected = sum(1.0 / j for j in range(2, 65))
    assert abs(expected - 3.743890903705768) < 1e-12
    assert abs(result["mean"] - expected) / expected <= 0.01


def test_c05_page_mean_entanglement():
    """Crossed square with n=4: eigenvector entanglement at the Page mean."""
    spec = EnsembleSpec(source=crossed_square_graph(4), draws=200, master_seed=SEED,
                        analyses=(Analysis("entanglement", (1, 2)),))
    result = run_ensemble(spec).analyses["entanglement"]
    expected = 0.5 * log(256) - 0.5
    assert abs(expected - 2.272588722239781) < 1e-12
    assert abs(result["mean_entropy"] - expected) / expected <= 0.02


def test_c06_projection_independent_of_central_dimension():
    """Projected purity of the three-chain matches random-state purity and
    does not depend on the central particle's dimension."""
    means = {}
    for n_b in (2, 3, 4):
        spec = EnsembleSpec(source=three_chain_graph(3, n_b, 3), draws=300,
                            master_seed=SEED,
                            analyses=(Analysis("projection", (2,)),))
        means[n_b] = run_ensemble(spec).analyses["projection"]["mean_purity"]
    reference = mean_purity(3, 3)
    assert reference == 0.6
    for value in means.values():
        assert abs(value - reference) / reference <= 0.03
    spread = max(means.values()) - min(means.values())
    assert spread / np.mean(list(means.values())) <= 0.03


def test_c07_element_entropy_additivity():
    """H_el(A kron B) = H_el(A) + H_el(B) to 1e-10 for 200 Haar pairs."""
    for t in range(200):
        a = haar_unitary(4, RandomStream(SEED, t).substream(0))
        b = haar_unitary(8, RandomStream(SEED, t).substream(1))
        defect = abs(element_entropy(np.kron(a, b))
                     - element_entropy(a) - element_entropy(b))
        assert defect <= 1e-10


def test_c08_element_entropy_separates_structured_from_cue(chain6_report):
    """Structured matrices have broader, lower element entropy than CUE."""
    spec = EnsembleSpec(source=ReferenceEnsemble("cue", 64), draws=2000,
                        master_seed=SEED, analyses=(Analysis("element_entropy"),))
    cue = run_ensemble(spec).analyses["element_entropy"]
    structured = chain6_report.analyses["element_entropy"]
    assert structured["variance"] > cue["variance"]
    assert structured["mean"] < cue["mean"]


def test_c09_composed_ensemble_is_cue_like():
    """P1 X P2 X^dagger at N=100: spacing variance within 0.178 +/- 0.02."""
    spec = EnsembleSpec(source=ReferenceEnsemble("composed", 100), draws=1000,
                        master_seed=SEED, analyses=(Analysis("spacing"),))
    result = run_ensemble(spec).analyses["spacing"]
    assert abs(result["variance"] - 0.178) <= 0.02


def test_c10_five_step_chain_closer_to_wigner(chain6_report):
    """Six-qubit stepwise chain: closer to Wigner than to Poisson."""
    result = chain6_report.analyses["spacing"]
    assert result["ks_wigner"] < result["ks_poisson"]


def test_c11_phase_density_is_uniform(pair_n10_report, triangle_qubits_report):
    """Pooled eigenphases of the connected-graph runs pass the chi-square
    uniformity test at 32 bins."""
    for report in (pair_n10_report, triangle_qubits_report):
        result = report.analyses["phase_density"]
        assert result["bins"] == 32
        assert result["p_value"] > 0.01


def test_c12_structured_generation_is_faster():
    """Ring of 8 qubits: generating structured matrices beats direct CUE."""
    result = benchmark_generation(ring_graph(8, 2), 100, master_seed=SEED)
    assert result.dim == 256
    assert result.ratio < 1.0
