import numpy as np
import pytest
import scipy.stats

from unigraph import spectral
from unigraph.ensemble import (ANALYSES, STACK_AMPLITUDES, Analysis, EnsembleReport,
                               EnsembleSpec, IncompatibleAnalysis, ReferenceEnsemble,
                               _aggregate, _moments_from_eigvals, _run_draw,
                               benchmark_generation, run_ensemble)
from unigraph.entropy import partial_trace, purity, von_neumann_entropy
from unigraph.graph import (Clique, InteractionGraph, Layer, ParticleSystem,
                            chain_graph, from_bond_vertex_graph, ring_graph)
from unigraph.rand import RandomStream, haar_unitary, random_phases_diagonal, sample_composed
from unigraph.spectral import eigendecompose
from unigraph.tensor import DimensionCapExceeded, evolution_unitary


def pair_graph(n):
    return from_bond_vertex_graph([(1, 2)], [(1,), (2,)], n=n)


def per_draw_matrix(source, stream):
    """One draw of a campaign's source, generated on its own."""
    if isinstance(source, InteractionGraph):
        return evolution_unitary(source, stream)
    draw = {"cue": haar_unitary, "composed": sample_composed,
            "diagonal": random_phases_diagonal}[source.kind]
    return draw(source.dim, stream)


class TestAnalysisTable:
    def test_kinds_needs_and_graph_flags(self):
        assert {kind: (row.needs, row.graph) for kind, row in ANALYSES.items()} == {
            "spacing": ("phases", False),
            "phase_density": ("phases", False),
            "evec_entropy": ("eigensystem", False),
            "element_entropy": ("matrix", False),
            "trace_moments": ("phases", False),
            "entanglement": ("eigensystem", True),
            "projection": ("eigensystem", True),
            "state_sample": ("state", True),
        }

    def test_matrix_and_state_kinds_skip_the_eigensolve(self, monkeypatch):
        def refuse(u):
            raise AssertionError("eigendecompose called")
        monkeypatch.setattr(spectral, "eigendecompose", refuse)
        spec = EnsembleSpec(source=chain_graph(6, 2), draws=3, master_seed=0,
                            analyses=(Analysis("element_entropy"), Analysis("state_sample")))
        assert set(run_ensemble(spec).analyses) == {"element_entropy", "state_sample"}
        with pytest.raises(AssertionError, match="eigendecompose called"):
            run_ensemble(EnsembleSpec(source=chain_graph(6, 2), draws=1, master_seed=0,
                                      analyses=(Analysis("trace_moments", (1,)),)))


class TestAnalysisParsing:
    def test_plain_and_parameterized(self):
        assert Analysis.parse("spacing") == Analysis("spacing")
        assert Analysis.parse("entanglement:1,2") == Analysis("entanglement", (1, 2))
        assert Analysis.parse("trace_moments:4") == Analysis("trace_moments", (4,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Analysis.parse("frobnicate")


class TestSpecValidation:
    def test_graph_only_analyses_rejected_for_references(self):
        with pytest.raises(IncompatibleAnalysis):
            EnsembleSpec(source=ReferenceEnsemble("cue", 8), draws=1,
                         master_seed=0, analyses=(Analysis("entanglement", (1,)),))

    def test_projection_needs_three_particles(self):
        with pytest.raises(IncompatibleAnalysis):
            EnsembleSpec(source=pair_graph(2), draws=1, master_seed=0,
                         analyses=(Analysis("projection", (1,)),))

    def test_trivial_bipartition_rejected(self):
        with pytest.raises(IncompatibleAnalysis):
            EnsembleSpec(source=pair_graph(2), draws=1, master_seed=0,
                         analyses=(Analysis("entanglement", (1, 2)),))

    def test_draws_must_be_positive(self):
        with pytest.raises(ValueError):
            EnsembleSpec(source=ReferenceEnsemble("cue", 4), draws=0,
                         master_seed=0, analyses=(Analysis("spacing"),))


class TestRunEnsemble:
    def test_single_cue2_draw(self):
        spec = EnsembleSpec(source=ReferenceEnsemble("cue", 2), draws=1,
                            master_seed=1, analyses=(Analysis("spacing"),))
        report = run_ensemble(spec)
        result = report.analyses["spacing"]
        assert result["count"] == 2
        assert abs(result["count"] * result["mean"] - 2.0) < 1e-9

    def test_reports_are_deterministic(self):
        spec = EnsembleSpec(
            source=ring_graph(4, 2), draws=6, master_seed=9,
            analyses=(Analysis("spacing"), Analysis("evec_entropy"),
                      Analysis("element_entropy"), Analysis("entanglement", (1, 2)),
                      Analysis("trace_moments", (3,)), Analysis("state_sample")))
        a = run_ensemble(spec).to_dict(include_timing=False)
        b = run_ensemble(spec).to_dict(include_timing=False)
        assert a == b

    def test_parallel_equals_serial(self):
        spec = EnsembleSpec(
            source=chain_graph(6, 2), draws=40, master_seed=10,
            analyses=(Analysis("spacing"), Analysis("projection", (2,)),
                      Analysis("phase_density")))
        assert spec.draws > 2 * (STACK_AMPLITUDES // spec.dim**2)  # three stacks
        serial = run_ensemble(spec, workers=1).to_dict(include_timing=False)
        parallel = run_ensemble(spec, workers=4).to_dict(include_timing=False)
        assert serial == parallel

    @pytest.mark.parametrize("source,draws", [
        (chain_graph(6, 2), 1), (chain_graph(6, 2), 15), (chain_graph(6, 2), 16),
        (chain_graph(6, 2), 17), (chain_graph(6, 2), 40),
        (ReferenceEnsemble("cue", 64), 17), (ReferenceEnsemble("composed", 64), 17),
        (ReferenceEnsemble("diagonal", 64), 17)])
    def test_stacks_equal_the_per_draw_oracle(self, source, draws):
        # N=64 gives stacks of 16 draws, so these counts end inside, at and
        # past a stack boundary
        assert STACK_AMPLITUDES // 64**2 == 16
        analyses = (Analysis("spacing"), Analysis("element_entropy"),
                    Analysis("trace_moments", (2,)))
        if isinstance(source, InteractionGraph):
            analyses += (Analysis("state_sample"),)
        spec = EnsembleSpec(source=source, draws=draws, master_seed=15, analyses=analyses)
        records = [_run_draw(spec, per_draw_matrix(source, RandomStream(15, t)))
                   for t in range(draws)]
        expected = EnsembleReport(spec.source_description(), draws, 15,
                                  _aggregate(spec, records), 0.0)
        assert run_ensemble(spec).to_dict(include_timing=False) \
            == expected.to_dict(include_timing=False)

    def test_pooled_spacing_mean_is_one(self):
        spec = EnsembleSpec(source=ReferenceEnsemble("cue", 24), draws=20,
                            master_seed=11, analyses=(Analysis("spacing"),))
        result = run_ensemble(spec).analyses["spacing"]
        assert abs(result["mean"] - 1.0) <= 1e-9
        assert result["count"] == 24 * 20

    def test_diagonal_source_spacing_is_poissonian(self):
        spec = EnsembleSpec(source=ReferenceEnsemble("diagonal", 200), draws=50,
                            master_seed=12, analyses=(Analysis("spacing"),))
        result = run_ensemble(spec).analyses["spacing"]
        assert abs(result["variance"] - 1.0) < 0.1
        assert result["ks_poisson"] < result["ks_wigner"]

    def test_failed_draw_aborts(self):
        spec = EnsembleSpec(source=ring_graph(4, 2), draws=2, master_seed=0,
                            analyses=(Analysis("spacing"),), dim_cap=8)
        with pytest.raises(DimensionCapExceeded):
            run_ensemble(spec)

    def test_strict_paper_mode_drops_wrap(self):
        spec = EnsembleSpec(source=ReferenceEnsemble("cue", 16), draws=3,
                            master_seed=13, analyses=(Analysis("spacing"),),
                            include_wrap=False)
        assert run_ensemble(spec).analyses["spacing"]["count"] == 15 * 3

    def test_entanglement_matches_spec_ops(self):
        # batched analysis must agree with partial_trace + entropy per column
        graph = ring_graph(4, 2)
        spec = EnsembleSpec(source=graph, draws=1, master_seed=14,
                            analyses=(Analysis("entanglement", (1, 2)),))
        result = run_ensemble(spec).analyses["entanglement"]
        data = eigendecompose(evolution_unitary(graph, RandomStream(14, 0)))
        entropies, purities = [], []
        for j in range(16):
            sigma = partial_trace(data.vectors[:, j], (2, 2, 2, 2), keep=(1, 2))
            entropies.append(von_neumann_entropy(sigma))
            purities.append(purity(sigma))
        assert abs(result["mean_entropy"] - np.mean(entropies)) < 1e-10
        assert abs(result["mean_purity"] - np.mean(purities)) < 1e-10

    def test_repeated_keep_particles_collapse(self):
        # a keep set is a set: (1, 1, 2) reports exactly what (1, 2) does
        reports = [run_ensemble(EnsembleSpec(
            source=ring_graph(4, 2), draws=2, master_seed=22,
            analyses=(Analysis("entanglement", keep), Analysis("state_sample", keep))
        )).to_dict(include_timing=False) for keep in ((1, 1, 2), (1, 2))]
        assert reports[0] == reports[1]
        assert reports[0]["analyses"]["entanglement"]["keep"] == [1, 2]

    def test_state_sample_matches_spec_ops(self):
        # default keep set is the first half of the particles
        graph = chain_graph(5, 2)
        spec = EnsembleSpec(source=graph, draws=3, master_seed=23,
                            analyses=(Analysis("state_sample"),))
        result = run_ensemble(spec).analyses["state_sample"]
        sigmas = [partial_trace(evolution_unitary(graph, RandomStream(23, t))[:, 0],
                                graph.dims, keep=(1, 2)) for t in range(3)]
        assert result["keep"] == [1, 2]
        assert abs(result["mean_entropy"]
                   - np.mean([von_neumann_entropy(s) for s in sigmas])) < 1e-12
        assert abs(result["mean_purity"] - np.mean([purity(s) for s in sigmas])) < 1e-12


class TestRandomGraphState:
    """The state U|0> of one sampled evolution: its unitary's first column."""

    def test_identity_singletons_give_basis_state(self):
        graph = InteractionGraph(
            ParticleSystem((4,)),
            (Layer("c", (Clique((1,)),), singletons="identity"),))
        state = evolution_unitary(graph, RandomStream(15, 0))[:, 0]
        assert np.array_equal(state, np.eye(4, dtype=complex)[:, 0])

    def test_unit_norm(self):
        state = evolution_unitary(ring_graph(4, 2), RandomStream(16, 0))[:, 0]
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_two_qubit_entropy_matches_haar_states(self):
        # the joint second-layer block makes the sampled state Haar on C^4
        draws = 400
        graph = pair_graph(2)
        structured = [von_neumann_entropy(partial_trace(
            evolution_unitary(graph, RandomStream(17, t))[:, 0], (2, 2), (1,)))
            for t in range(draws)]
        rng = np.random.default_rng(18)
        haar_states = rng.normal(size=(draws, 4)) + 1j * rng.normal(size=(draws, 4))
        haar_states /= np.linalg.norm(haar_states, axis=1)[:, None]
        direct = [von_neumann_entropy(partial_trace(s, (2, 2), (1,)))
                  for s in haar_states]
        assert scipy.stats.ks_2samp(structured, direct).pvalue > 0.001


def trace_moments_spec(source, draws, max_power, seed=0):
    return EnsembleSpec(source=source, draws=draws, master_seed=seed,
                        analyses=(Analysis("trace_moments", (max_power,)),))


class TestTraceMoments:
    def test_identity(self):
        # an identity singleton leaves U = I, so Tr U^m = N on every draw
        graph = InteractionGraph(
            ParticleSystem((5,)),
            (Layer("c", (Clique((1,)),), singletons="identity"),))
        result = run_ensemble(trace_moments_spec(graph, 2, 3)).analyses["trace_moments"]
        assert np.allclose(result["mean_real"], [5, 5, 5])
        assert np.allclose(result["mean_imag"], 0)

    def test_parity_diagonal(self):
        # the sums a draw makes from the checked eigenphases of diag(1, -1)
        phases = eigendecompose(np.diag([1.0, -1.0]).astype(complex)).phases
        moments = _moments_from_eigvals(np.exp(1j * phases), 2)
        assert abs(moments[0]) < 1e-12
        assert abs(moments[1] - 2) < 1e-12

    def test_cue_mean_trace_vanishes(self):
        # draw t is haar_unitary(16, RandomStream(19, t))
        spec = trace_moments_spec(ReferenceEnsemble("cue", 16), 1000, 1, seed=19)
        result = run_ensemble(spec).analyses["trace_moments"]
        assert abs(result["mean_real"][0]) < 4 * result["se_real"][0]
        assert abs(result["mean_imag"][0]) < 4 * result["se_imag"][0]

    def test_rejects_zero_power(self):
        with pytest.raises(IncompatibleAnalysis):
            trace_moments_spec(ReferenceEnsemble("cue", 2), 1, 0)


class TestBenchmark:
    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            benchmark_generation(ring_graph(4, 2), 0)

    def test_structured_beats_cue_on_large_ring(self):
        result = benchmark_generation(ring_graph(8, 2), 30, master_seed=20)
        assert result.dim == 256
        assert result.ratio < 1.0

    def test_time_grows_with_ring_size(self):
        times = [benchmark_generation(ring_graph(k, 2), 20,
                                      master_seed=21).structured_seconds
                 for k in (4, 6, 8)]
        assert times[0] < times[1] < times[2]
