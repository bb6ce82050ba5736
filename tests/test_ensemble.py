from math import prod

import numpy as np
import pytest
import scipy.stats

from unigraph import ensemble, rand, spectral, tensor
from unigraph import entropy as ent
from unigraph.ensemble import (ANALYSES, STACK_AMPLITUDES, TILE_AMPLITUDES, Analysis,
                               EnsembleReport, EnsembleSpec, IncompatibleAnalysis,
                               ReferenceEnsemble, _aggregate, _moments_from_eigvals,
                               _stack_record, benchmark_generation, run_ensemble)
from unigraph.entropy import partial_trace, purity, von_neumann_entropy
from unigraph.graph import (Clique, InteractionGraph, Layer, ParticleSystem,
                            chain_graph, components, from_bond_vertex_graph, ring_graph)
from unigraph.rand import (RandomStream, UnitarityError, haar_unitary,
                           random_phases_diagonal, sample_composed, unitarity_defects,
                           unitarity_tolerance)
from unigraph.spectral import SpectralData, eigendecompose
from unigraph.tensor import (DEFAULT_DIM_CAP, DimensionCapExceeded, evolution_factors,
                             evolution_unitary)


def pair_graph(n):
    return from_bond_vertex_graph([(1, 2)], [(1,), (2,)], n=n)


def phases_records(spec, us):
    """The records of a (B, N, N) stack taken as one tile solved by
    eigenphases: the solve of every campaign here that reads phases but no
    eigenvectors."""
    return _stack_record(spec, [(us, SpectralData(spectral.eigenphases(us), None))])


def run_draw(spec, u):
    """One draw's records, analysed as a stack of one."""
    return phases_records(spec, u[None])


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
        for name in ("eigendecompose", "eigenphases"):
            def refuse(u, name=name):
                raise AssertionError(f"{name} called")
            monkeypatch.setattr(spectral, name, refuse)
        spec = EnsembleSpec(source=chain_graph(6, 2), draws=3, master_seed=0,
                            analyses=(Analysis("element_entropy"), Analysis("state_sample")))
        assert set(run_ensemble(spec).analyses) == {"element_entropy", "state_sample"}
        # both patches bite: phases come from eigenphases, eigensystems from
        # eigendecompose
        for kind, name in ((Analysis("trace_moments", (1,)), "eigenphases"),
                           (Analysis("evec_entropy"), "eigendecompose")):
            with pytest.raises(AssertionError, match=f"{name} called"):
                run_ensemble(EnsembleSpec(source=chain_graph(6, 2), draws=1,
                                          master_seed=0, analyses=(kind,)))

    @pytest.mark.parametrize("analyses, expected", [
        # N=64: stacks of 32 and 8 draws in tiles of 2, one eigenphases call per tile
        ((Analysis("spacing"), Analysis("phase_density"), Analysis("trace_moments", (2,))),
         {"eigenphases": [2] * 20, "eigendecompose": []}),
        # an eigensystem serves the phases too: one eigendecompose call per tile
        ((Analysis("evec_entropy"), Analysis("spacing")),
         {"eigenphases": [], "eigendecompose": [2] * 20}),
    ], ids=["phases_only", "evec_entropy"])
    def test_eigensolve_calls(self, monkeypatch, analyses, expected):
        calls = {name: [] for name in expected}
        for name in calls:
            def count(us, real=getattr(spectral, name), seen=calls[name]):
                seen.append(len(us) if us.ndim == 3 else 1)
                return real(us)
            monkeypatch.setattr(spectral, name, count)
        run_ensemble(EnsembleSpec(source=chain_graph(6, 2), draws=40, master_seed=4,
                                  analyses=analyses))
        assert calls == expected


class TestAnalysisParsing:
    def test_plain_and_parameterized(self):
        assert Analysis.parse("spacing") == Analysis("spacing")
        assert Analysis.parse("entanglement:1,2") == Analysis("entanglement", (1, 2))
        assert Analysis.parse("trace_moments:4") == Analysis("trace_moments", (4,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Analysis.parse("frobnicate")

    def test_non_integer_parameter_is_named(self):
        with pytest.raises(ValueError, match="'trace_moments:x': parameters are integers"):
            Analysis.parse("trace_moments:x")

    @pytest.mark.parametrize("kind, arg", [
        ("entanglement", (1.5,)), ("state_sample", (True,)), ("trace_moments", ("3",))])
    def test_non_integer_parameter_is_refused(self, kind, arg):
        with pytest.raises(ValueError, match=f"'{kind}': parameters are integers"):
            Analysis(kind, arg)

    def test_integer_parameters_are_stored_as_ints(self):
        arg = Analysis("entanglement", (np.int64(1), 2)).arg
        assert arg == (1, 2) and all(type(p) is int for p in arg)


@pytest.mark.parametrize("build", [
    lambda cap: EnsembleSpec(source=ReferenceEnsemble("cue", 8), draws=2, master_seed=1,
                             analyses=(Analysis("spacing"),), dim_cap=cap),
    lambda cap: evolution_unitary(chain_graph(3, 2), RandomStream(1, 0), dim_cap=cap),
    lambda cap: evolution_factors(chain_graph(3, 2), [RandomStream(1, 0)], dim_cap=cap),
    lambda cap: benchmark_generation(chain_graph(3, 2), 2, dim_cap=cap),
], ids=["spec", "evolution_unitary", "evolution_factors", "benchmark_generation"])
@pytest.mark.parametrize("cap", [0, -5])
def test_dim_cap_below_one_is_refused_before_any_draw(monkeypatch, build, cap):
    def refuse(*args):
        raise AssertionError("a block was drawn")
    monkeypatch.setattr(tensor, "haar_unitary", refuse)
    monkeypatch.setattr(ensemble, "haar_unitary", refuse)
    with pytest.raises(ValueError, match=f"dim_cap must be >= 1, got {cap}"):
        build(cap)


@pytest.mark.parametrize("build", [
    lambda v: EnsembleSpec(ring_graph(4, 2), v, 1, (Analysis("spacing"),)),
    lambda v: EnsembleSpec(ring_graph(4, 2), 2, 1, (Analysis("spacing"),), dim_cap=v),
    lambda v: ReferenceEnsemble("cue", v),
    lambda v: benchmark_generation(ring_graph(4, 2), v),
    lambda v: benchmark_generation(ring_graph(4, 2), 2, dim_cap=v),
], ids=["spec_draws", "spec_dim_cap", "reference_dim", "bench_draws", "bench_dim_cap"])
@pytest.mark.parametrize("value", [2.5, 16.0, True, "3"])
def test_non_integer_size_is_refused_when_built(monkeypatch, build, value):
    # a float ran until a draw raised TypeError, and True ran as one draw
    # reported as "draws: true"
    def refuse(*args):
        raise AssertionError("a block was drawn")
    monkeypatch.setattr(tensor, "haar_unitary", refuse)
    monkeypatch.setattr(ensemble, "haar_unitary", refuse)
    with pytest.raises(ValueError, match=f"must be an integer, got {value!r}"):
        build(value)


def test_integer_sizes_are_stored_as_ints():
    spec = EnsembleSpec(ReferenceEnsemble("cue", np.int64(4)), np.int64(2), 1,
                        (Analysis("spacing"),), dim_cap=np.int64(16))
    assert type(spec.draws) is int and type(spec.dim_cap) is int
    assert type(spec.source.dim) is int


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

    @pytest.mark.parametrize("make, args, named", [
        (EnsembleSpec, (ring_graph(4, 2), 2, 1, ("spacing",)), "got 'spacing'$"),
        (EnsembleSpec, (ring_graph(4, 2), 2, 1, (Analysis("spacing"), "phase_density")),
         "got 'phase_density'$"),
        (EnsembleSpec, ("ring", 2, 1, (Analysis("spacing"),)), "got 'ring'$"),
        (EnsembleSpec, (ring_graph(4, 2), 2, 1, "spacing"), "sequence .* got 'spacing'$"),
        (EnsembleSpec, (ring_graph(4, 2), 2, 1, None), "sequence .* got None$"),
        (EnsembleSpec, (ring_graph(4, 2), 2, 1, 5), "sequence .* got 5$"),
        (Analysis, ("trace_moments", 3), "sequence, got 3$"),
        (Analysis, ("trace_moments", "12"), "sequence, got '12'$"),
    ], ids=["analysis_text", "second_analysis_text", "source_text", "analyses_text",
            "analyses_none", "analyses_int", "arg_int", "arg_text"])
    def test_malformed_spec_names_the_value(self, make, args, named):
        # a malformed value is named in a ValueError: not an AttributeError,
        # not a character of a str given as a sequence, and not a TypeError
        # from iterating a non-iterable
        with pytest.raises(ValueError, match=named):
            make(*args)

    @pytest.mark.parametrize("source, dim_cap", [
        (ring_graph(14, 2), DEFAULT_DIM_CAP), (ReferenceEnsemble("cue", 5000), DEFAULT_DIM_CAP),
        (ReferenceEnsemble("composed", 16), 8), (chain_graph(3, 2), 7),
    ], ids=["graph", "reference", "reference_own_cap", "graph_own_cap"])
    def test_source_over_its_cap_is_refused_by_the_spec(self, source, dim_cap):
        # the spec was accepted, and only run_ensemble raised
        with pytest.raises(DimensionCapExceeded):
            EnsembleSpec(source, 2, 1, (Analysis("spacing"),), dim_cap=dim_cap)


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
            source=chain_graph(6, 2), draws=70, master_seed=10,
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
        (ReferenceEnsemble("diagonal", 64), 17), (ReferenceEnsemble("cue", 64), 40)])
    def test_stacks_equal_the_per_draw_oracle(self, source, draws):
        # at N=64 every source takes stacks of 32 draws in tiles of 2, so these
        # counts end inside, at and past a tile boundary, and 40 past a stack
        # boundary
        assert (STACK_AMPLITUDES // 64**2, TILE_AMPLITUDES // 64**2) == (32, 2)
        analyses = (Analysis("spacing"), Analysis("element_entropy"),
                    Analysis("trace_moments", (2,)))
        if isinstance(source, InteractionGraph):
            analyses += (Analysis("state_sample"),)
        spec = EnsembleSpec(source=source, draws=draws, master_seed=15, analyses=analyses)
        records = [run_draw(spec, per_draw_matrix(source, RandomStream(15, t)))
                   for t in range(draws)]
        expected = EnsembleReport(spec.source_description(), draws, 15,
                                  _aggregate(spec, records), 0.0)
        assert run_ensemble(spec).to_dict(include_timing=False) \
            == expected.to_dict(include_timing=False)

    @pytest.mark.parametrize("analyses", [
        "evec_entropy,entanglement:1,2", "spacing,trace_moments:2",
        "element_entropy,state_sample"])
    def test_tile_size_and_workers_do_not_matter(self, monkeypatch, analyses):
        # 40 draws at N=64: stacks of 32 and 8 draws, cut in tiles of 1, of 3
        # (the 8-draw stack ends inside a tile) and of a whole stack
        spec = EnsembleSpec(source=chain_graph(6, 2), draws=40, master_seed=16,
                            analyses=tuple(map(Analysis.parse, analyses.split(",", 1))))
        default = run_ensemble(spec).to_dict(include_timing=False)
        for tile in (1, 3, STACK_AMPLITUDES // 64**2):
            monkeypatch.setattr(ensemble, "TILE_AMPLITUDES", tile * 64**2)
            for workers in (1, 4):
                assert run_ensemble(spec, workers=workers).to_dict(
                    include_timing=False) == default, (tile, workers)

    @pytest.mark.parametrize("tile", [1, 3, 32])
    def test_blocks_are_drawn_once_per_order_per_stack(self, monkeypatch, tile):
        # chain6 of qubits: 5 pair blocks and 20 singletons per draw, one
        # haar_unitary call per block order for each stack of 32 and 8 draws
        calls = []
        haar = tensor.haar_unitary
        monkeypatch.setattr(tensor, "haar_unitary", lambda order, generators: calls.append(
            (order, len(generators))) or haar(order, generators))
        monkeypatch.setattr(ensemble, "TILE_AMPLITUDES", tile * 64**2)
        run_ensemble(EnsembleSpec(source=chain_graph(6, 2), draws=40, master_seed=16,
                                  analyses=(Analysis("element_entropy"),)))
        assert calls == [(4, 32 * 5), (2, 32 * 20), (4, 8 * 5), (2, 8 * 20)]

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

    def test_failed_draw_aborts(self, monkeypatch):
        # N=64: stacks of 32 and 8 draws, solved in tiles of 2; a draw of the
        # second stack fails, and the campaign raises with no report
        solve, tiles = spectral.eigenphases, []

        def fail_late(us):
            tiles.append(len(us))
            if len(tiles) == 17:
                raise spectral.ConvergenceFailure("injected")
            return solve(us)
        monkeypatch.setattr(spectral, "eigenphases", fail_late)
        spec = EnsembleSpec(source=ReferenceEnsemble("cue", 64), draws=40, master_seed=0,
                            analyses=(Analysis("spacing"),))
        with pytest.raises(spectral.ConvergenceFailure, match="injected"):
            run_ensemble(spec)
        assert tiles == [2] * 17

    def test_strict_paper_mode_drops_wrap(self):
        # the interior_* keys are the paper's convention: N-1 gaps per draw
        spec = EnsembleSpec(source=ReferenceEnsemble("cue", 16), draws=3,
                            master_seed=13, analyses=(Analysis("spacing"),))
        result = run_ensemble(spec).analyses["spacing"]
        assert (result["count"], result["interior_count"]) == (16 * 3, 15 * 3)
        assert result["interior_histogram"].counts.sum() \
            + result["interior_histogram"].overflow == 15 * 3

    @pytest.mark.parametrize("draws, dim", [(1, 2), (20, 16), (7, 64)])
    def test_one_cdf_pass_equals_two_stats_passes(self, draws, dim):
        # the oracle: two _spacing_stats passes, each set sorted and its CDFs
        # evaluated on its own, each KS distance also from ks_statistic; tied values
        rng = np.random.default_rng(draws * dim)
        values = np.round(rng.exponential(size=(draws, dim)), 2)
        values[:, ::3] = values[:, :1]
        oracle = {}
        for prefix, v in (("", values), ("interior_", values[:, :-1])):
            laws = ("wigner", "poisson")
            stats = ensemble._spacing_stats(
                v, {law: spectral.reference_cdf(law, v).ravel() for law in laws},
                np.argsort(v, axis=None))
            for law in laws:
                assert stats[f"ks_{law}"] == spectral.ks_statistic(
                    v.ravel(), lambda s: spectral.reference_cdf(law, s))
            oracle.update({prefix + key: value for key, value in stats.items()})
        got = ensemble._spacing_summary(None, None, values)
        assert list(got) == list(oracle)
        for key, value in got.items():
            if key.endswith("histogram"):
                assert np.array_equal(value.counts, oracle[key].counts)
                assert value.overflow == oracle[key].overflow
            else:
                assert value == oracle[key], key

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

    def test_keep_set_that_is_a_whole_component_has_zero_entropy(self):
        # U|0> is a product over the components {1, 2} and {3}, so every
        # reduced state on {1, 2} is pure; rounding puts an eigenvalue at
        # 1 + 2e-16, which must not make an entropy negative
        graph = InteractionGraph(ParticleSystem((2, 2, 2)), (
            Layer("a", (Clique((1, 2)), Clique((3,)))),
            Layer("b", (Clique((1,)), Clique((2,)), Clique((3,))))))
        draws = 200
        spec = EnsembleSpec(source=graph, draws=draws, master_seed=2,
                            analyses=(Analysis("state_sample", (1, 2)),))
        histogram = run_ensemble(spec).analyses["state_sample"]["histogram"]
        assert histogram.overflow == 0
        assert histogram.counts[0] == draws
        states = evolution_unitary(graph, [RandomStream(2, t) for t in range(draws)])[:, :, 0]
        entropies, _ = ent.reduced_entropies(states, graph.dims, [0, 1])
        assert (entropies >= 0).all()

    def test_unit_modulus_entries_give_no_negative_element_entropy(self):
        # every nonzero |u_ij|^2 of a diagonal unitary is 1 to rounding, and
        # 1 + 2e-16 once made an entropy of -9e-16, outside the histogram
        source = ReferenceEnsemble("diagonal", 4)
        spec = EnsembleSpec(source=source, draws=20, master_seed=3,
                            analyses=(Analysis("element_entropy"),))
        assert run_ensemble(spec).analyses["element_entropy"]["histogram"].overflow == 0
        stack = random_phases_diagonal(4, [RandomStream(3, t) for t in range(20)])
        assert (ent.element_entropy(stack) >= 0).all()
        assert ent.element_entropy(haar_unitary(1, [RandomStream(3, t) for t in range(20)])) \
            .min() >= 0


# particle dims whose products are N = 16, 54, 64 and 81; odd N checks the
# order of the stacked reductions
ORACLE_DIMS = [(2, 2, 2, 2), (2, 3, 3, 3), (2, 2, 2, 2, 2, 2), (3, 3, 3, 3)]


def brick_graph(dims):
    """Two layers of neighbouring pairs, with Haar singletons left over."""
    k = len(dims)
    layers = tuple(Layer(color, tuple(Clique(c) for c in cliques)) for color, cliques in (
        ("a", [(i, i + 1) for i in range(1, k, 2)]),
        ("b", [(1,)] + [(i, i + 1) for i in range(2, k, 2)] + [(k,)] * (k % 2 == 0))))
    return InteractionGraph(ParticleSystem(dims), layers)


def oracle_values(spec, u):
    """One draw's value of each stacked kind, from the single-matrix functions."""
    phases = spectral.eigenphases(u[None])[0]
    keep = [a.arg for a in spec.analyses if a.kind == "state_sample"][0] \
        or range(1, len(spec.source.dims) // 2 + 1)
    sigma = partial_trace(u[:, 0], spec.source.dims, keep)
    return {"spacing": spectral.spacings(phases),
            "interior": np.diff(phases) * (len(phases) / spectral.TWO_PI),
            "phase_density": phases,
            "element_entropy": ent.element_entropy(u),
            "trace_moments": _moments_from_eigvals(np.exp(1j * phases), 3),
            "state_sample": (von_neumann_entropy(sigma), purity(sigma))}


def projection_per_draw(vectors, dims, particle):
    """One draw's projection row, (entropy, purity, skipped, uniform entropy,
    uniform purity), as the campaign computed it draw by draw: the null slices
    of the (N, M) eigenvector columns are dropped before one reduced_entropies
    call on the rest, which is averaged with the slices' weights and with 1s."""
    b0 = particle - 1
    nvec = vectors.shape[1]
    rest_dims = [d for p, d in enumerate(dims) if p != b0]
    psi = np.moveaxis(vectors.T.reshape((nvec,) + tuple(dims)), b0 + 1, 1)
    slices = psi.reshape(nvec * dims[b0], -1)
    weights = (np.abs(slices) ** 2).sum(axis=1)
    valid = weights > 1e-14
    normed = slices[valid] / np.sqrt(weights[valid])[:, None]
    entropies, purities = ent.reduced_entropies(normed, rest_dims, [0])
    weighted, uniform = ([float((w * x).sum() / w.sum()) for x in (entropies, purities)]
                         for w in (weights[valid], np.ones(len(entropies))))
    return (*weighted, int((~valid).sum()), *uniform)


class TestStackedRows:
    """Each kind's row takes a stack and returns one array of its B per-draw
    values; each value equals the draw's value from single-matrix functions."""

    @pytest.mark.parametrize("draws", [1, 15, 16, 17])
    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda dims: f"N{prod(dims)}")
    @pytest.mark.parametrize("wrap,keep", [(True, ()), (False, (2, 4))])
    def test_rows_equal_the_single_matrix_oracle(self, dims, draws, wrap, keep):
        graph = brick_graph(dims)
        spec = EnsembleSpec(source=graph, draws=draws, master_seed=17,
                            analyses=(Analysis("spacing"), Analysis("phase_density"),
                                      Analysis("element_entropy"),
                                      Analysis("trace_moments", (3,)),
                                      Analysis("state_sample", keep)))
        us = evolution_unitary(graph, [RandomStream(17, t) for t in range(draws)])
        records = phases_records(spec, us)
        assert {kind: len(values) for kind, values in records.items()} \
            == dict.fromkeys(records, draws)
        # wrap: the N wrap-inclusive spacings; else the paper's N-1 interior
        # gaps, the row's first N-1 columns, which the interior_* keys read
        spacing = records["spacing"] if wrap else records["spacing"][:, :-1]
        summary = _aggregate(spec, [records])["spacing"]
        assert summary["count" if wrap else "interior_count"] == spacing.size \
            == (prod(dims) - (not wrap)) * draws
        keep0 = [p - 1 for p in (keep or range(1, len(dims) // 2 + 1))]
        for j, u in enumerate(us):
            expected = oracle_values(spec, u)
            assert np.array_equal(spacing[j], expected["spacing" if wrap else "interior"])
            for kind in ("phase_density", "element_entropy", "trace_moments"):
                assert np.array_equal(records[kind][j], expected[kind]), kind
            # partial_trace symmetrizes its reduced state, which moves the
            # entropy and purity by rounding; the draw's state alone, as a
            # stack of one, gives the same bits
            assert np.abs(records["state_sample"][j] - expected["state_sample"]).max() <= 1e-14
            alone = ent.reduced_entropies(u[:, :1].T, dims, keep0)
            assert np.array_equal(records["state_sample"][j], np.concatenate(alone))

    @pytest.mark.parametrize("draws", [1, 3, 17])
    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda dims: f"N{prod(dims)}")
    def test_eigensystem_rows_equal_the_single_matrix_oracle(self, dims, draws):
        graph = brick_graph(dims)
        spec = EnsembleSpec(source=graph, draws=draws, master_seed=18,
                            analyses=(Analysis("evec_entropy"),
                                      Analysis("entanglement", (1, 3)),
                                      Analysis("projection", (2,))))
        us = evolution_unitary(graph, [RandomStream(18, t) for t in range(draws)])
        records = _stack_record(spec, [(us, eigendecompose(us))])
        for j, u in enumerate(us):
            data = eigendecompose(u)
            assert records["evec_entropy"][j] == ent.eigenvector_entropy(data)
            entropies, purities = ent.reduced_entropies(data.vectors.T, dims, [0, 2])
            assert np.array_equal(records["entanglement"][j],
                                  [entropies.mean(), purities.mean()])
            assert np.array_equal(records["projection"][j],
                                  projection_per_draw(data.vectors, dims, 2))

    @pytest.mark.parametrize("weighted", [True, False])
    def test_null_slices_weigh_nothing_in_a_stacked_tile(self, weighted):
        # a (2, 12, 12) tile on dims (2, 3, 2): a Haar draw's eigenvectors, and
        # the same with column 0 a (x) e_1 (x) c, whose slices 0 and 2 at
        # particle 2 are null; one weighting's (entropy, purity, skipped)
        # columns per case
        columns = [0, 1, 2] if weighted else [3, 4, 2]
        dims = (2, 3, 2)
        vectors = eigendecompose(haar_unitary(12, RandomStream(41, 0))).vectors
        a, c = haar_unitary(2, [RandomStream(41, 1), RandomStream(41, 2)])[:, :, 0]
        spoiled = vectors.copy()
        spoiled[:, 0] = np.kron(np.kron(a, np.eye(3)[1]), c)
        tile = np.stack([vectors, spoiled])
        got = ensemble._projection_stats(tile, dims, 2)
        expected = [projection_per_draw(v, dims, 2) for v in tile]
        assert got.shape == (2, 5)
        assert list(got[:, 2]) == [e[2] for e in expected] == [0, 2]
        assert np.array_equal(got[0, columns], np.take(expected[0], columns))
        assert np.abs(got[1, columns] - np.take(expected[1], columns)).max() <= 1e-14

    @pytest.mark.parametrize("draws", [1, 3])
    def test_every_row_returns_one_array_per_tile(self, draws):
        graph = chain_graph(4, 2)
        spec = EnsembleSpec(source=graph, draws=draws, master_seed=19, analyses=tuple(
            Analysis(kind, arg) for kind, arg in (
                ("spacing", ()), ("phase_density", ()), ("evec_entropy", ()),
                ("element_entropy", ()), ("trace_moments", (2,)), ("entanglement", (1,)),
                ("projection", (1,)), ("state_sample", ()))))
        assert {a.kind for a in spec.analyses} == set(ANALYSES)
        us = evolution_unitary(graph, [RandomStream(19, t) for t in range(draws)])
        for kind, values in _stack_record(spec, [(us, eigendecompose(us))]).items():
            assert isinstance(values, np.ndarray) and len(values) == draws, kind

    def test_factored_rows_return_one_array_per_stack(self):
        spec = phases_spec(FACTORED_GRAPHS["two_mixed_dims"], draws=5)
        records = ensemble._plan(spec)([RandomStream(31, t) for t in range(5)])
        assert set(records) == {a.kind for a in PHASE_ANALYSES}
        for kind, values in records.items():
            assert isinstance(values, np.ndarray) and len(values) == 5, kind


    def test_state_kinds_take_the_stack_in_one_call(self, monkeypatch):
        # a 32-draw chain6 stack in tiles of 2: element_entropy takes each
        # tile, state_sample one reduced_entropies call on the stack's states
        calls = []
        for name in ("element_entropy", "reduced_entropies"):
            def record(x, *args, name=name, fn=getattr(ent, name)):
                calls.append((name, x.shape))
                return fn(x, *args)
            monkeypatch.setattr(ent, name, record)
        spec = EnsembleSpec(source=chain_graph(6, 2), draws=32, master_seed=16,
                            analyses=(Analysis("element_entropy"), Analysis("state_sample")))
        record = ensemble._plan(spec)([RandomStream(16, t) for t in range(32)])
        assert {kind: values.shape for kind, values in record.items()} \
            == {"element_entropy": (32,), "state_sample": (32, 2)}
        assert calls == [("element_entropy", (2, 64, 64))] * 16 \
            + [("reduced_entropies", (32, 64))]


class TestMeasuredChecks:
    """tensor.require_unitary measures exactly the draws without a passing
    certificate: the stack's first draw, any draw whose certificate exceeds
    the tolerance, and every draw whose blocks cost as much to measure as U,
    one call per tile that holds any."""

    @staticmethod
    def measured(monkeypatch):
        shapes = []
        require = tensor.require_unitary
        monkeypatch.setattr(tensor, "require_unitary",
                            lambda u: shapes.append(u.shape) or require(u))
        return shapes

    def test_generate_chain6_measures_one_draw_per_stack(self, monkeypatch):
        # 600 draws: 19 stacks of up to 32 draws, 300 tiles, no fallback
        shapes = self.measured(monkeypatch)
        run_ensemble(EnsembleSpec(source=chain_graph(6, 2), draws=600, master_seed=1,
                                  analyses=(Analysis("element_entropy"),
                                            Analysis("state_sample"))))
        assert shapes == [(1, 64, 64)] * 19

    def test_vectors_ring8_measures_one_draw_per_stack(self, monkeypatch):
        # 30 draws: 15 stacks of 2 draws, built in 1-draw tiles
        shapes = self.measured(monkeypatch)
        run_ensemble(EnsembleSpec(source=ring_graph(8, 2), draws=30, master_seed=1,
                                  analyses=tuple(map(Analysis.parse, (
                                      "spacing", "evec_entropy", "entanglement:1,2,3,4",
                                      "projection:1")))))
        assert shapes == [(1, 256, 256)] * 15

    def test_a_block_as_large_as_u_is_measured_on_every_tile(self, monkeypatch):
        # the pair graph's one 9 x 9 block is as costly to measure as U
        shapes = self.measured(monkeypatch)
        monkeypatch.setattr(ensemble, "TILE_AMPLITUDES", 3 * 81)
        run_ensemble(EnsembleSpec(source=pair_graph(3), draws=10, master_seed=2,
                                  analyses=(Analysis("element_entropy"),)))
        assert shapes == [(3, 9, 9)] * 3 + [(1, 9, 9)]


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

    def test_times_the_campaign_stacks(self, monkeypatch):
        calls = []
        fold = ensemble._folded_blocks
        monkeypatch.setattr(ensemble, "_folded_blocks", lambda graph, streams, dim_cap:
                            calls.append(("fold", [s.path for s in streams]))
                            or fold(graph, streams, dim_cap))
        monkeypatch.setattr(ensemble, "evolution_unitary", lambda graph, blocks:
                            calls.append(("evolution", blocks.draws)))
        monkeypatch.setattr(ensemble, "haar_unitary", lambda dim, streams:
                            calls.append(("haar", [s.path for s in streams])))
        result = benchmark_generation(chain_graph(6, 2), 40, master_seed=3)
        assert (result.dim, result.draws) == (64, 40)
        # N=64: stacks of 32 draws, the graph's built and CUE's sampled in
        # tiles of 2, as run_ensemble generates them
        paths = [(t,) for t in range(40)]
        assert calls == ([("fold", paths[:32])] + [("evolution", 2)] * 16
                         + [("fold", paths[32:])] + [("evolution", 2)] * 4
                         + [("haar", paths[t:t + 2]) for t in range(0, 40, 2)])

    def test_over_cap_graph_raises(self):
        with pytest.raises(DimensionCapExceeded):
            benchmark_generation(ring_graph(6, 2), 2, dim_cap=32)

    def test_structured_beats_cue_on_large_ring(self):
        result = benchmark_generation(ring_graph(8, 2), 30, master_seed=20)
        assert result.dim == 256
        assert result.ratio < 1.0

    def test_time_grows_with_ring_size(self):
        times = [benchmark_generation(ring_graph(k, 2), 20,
                                      master_seed=21).structured_seconds
                 for k in (4, 6, 8)]
        assert times[0] < times[1] < times[2]


def layer(color, singletons, *cliques):
    return Layer(color, tuple(Clique(c) for c in cliques), singletons)


# disconnected graphs whose phases-only campaigns are solved one connected
# component at a time
FACTORED_GRAPHS = {
    # components (1, 3) and (2, 4), of dims 2 x 2 and 3 x 3
    "two_mixed_dims": InteractionGraph(ParticleSystem((2, 3, 2, 3)), (
        layer("a", "haar", (1, 3), (2, 4)),
        layer("b", "haar", (1,), (2, 4), (3,)))),
    # components (1, 2), (3,) and (4, 5); particle 3 is idle throughout
    "three_with_idle": InteractionGraph(ParticleSystem((3, 2, 2, 2, 3)), (
        layer("a", "identity", (1, 2), (3,), (4, 5)),
        layer("b", "identity", (1, 2), (3,), (4,), (5,)),
        layer("c", "haar", (1, 2), (4, 5), (3,)))),
    # (2,) is a one-particle Haar component of dim 3, (3,) one of dim 1: a
    # random global phase
    "haar_singletons_and_dim_one": InteractionGraph(ParticleSystem((2, 3, 1, 2)), (
        layer("a", "haar", (1, 4), (2,), (3,)),
        layer("b", "haar", (1,), (2,), (3,), (4,)))),
    # a dim-1 particle inside the component (1, 2)
    "dim_one_inside": InteractionGraph(ParticleSystem((1, 2, 2)), (
        layer("a", "haar", (1, 2), (3,)),
        layer("b", "identity", (1,), (2,), (3,)))),
    # two chains of three qubits, (1, 2, 3) and (4, 5, 6): each factor is
    # two folded 4 x 4 blocks, certified rather than measured
    "two_chains": InteractionGraph(ParticleSystem((2,) * 6), (
        layer("a", "haar", (1, 2), (3,), (4, 5), (6,)),
        layer("b", "haar", (1,), (2, 3), (4,), (5, 6)))),
}

PHASE_ANALYSES = (Analysis("spacing"), Analysis("phase_density"),
                  Analysis("trace_moments", (2,)))


def phases_spec(graph, draws=24, seed=31):
    return EnsembleSpec(source=graph, draws=draws, master_seed=seed,
                        analyses=PHASE_ANALYSES)


def full_matrix_report(spec) -> dict:
    """The campaign with each draw's phases from its full matrix."""
    records = [run_draw(spec, evolution_unitary(spec.source,
                                                RandomStream(spec.master_seed, t)))
               for t in range(spec.draws)]
    return EnsembleReport(spec.source_description(), spec.draws, spec.master_seed,
                          _aggregate(spec, records), 0.0).to_dict(include_timing=False)


def assert_reports_close(got, expected, tol=1e-13, path="report"):
    """Every float within ``tol`` and all else identical: a histogram is its
    CSV text, so its counts must be equal."""
    assert type(got) is type(expected), path
    if isinstance(got, dict):
        assert got.keys() == expected.keys(), path
        for key in got:
            assert_reports_close(got[key], expected[key], tol, f"{path}/{key}")
    elif isinstance(got, list):
        assert len(got) == len(expected), path
        for k, (a, b) in enumerate(zip(got, expected)):
            assert_reports_close(a, b, tol, f"{path}[{k}]")
    elif isinstance(got, float):
        assert abs(got - expected) <= tol, (path, got, expected)
    else:
        assert got == expected, path


@pytest.mark.parametrize("name", list(FACTORED_GRAPHS))
class TestFactoredPhases:
    def test_graph_is_disconnected(self, name, monkeypatch):
        graph = FACTORED_GRAPHS[name]
        assert len(components(graph)) > 1
        factored = []
        factors = ensemble.evolution_factors
        monkeypatch.setattr(ensemble, "evolution_factors",
                            lambda *args: factored.append(factors(*args)) or factored[-1])
        run_ensemble(phases_spec(graph, draws=2))
        assert [len(stacks) for stacks in factored] == [len(components(graph))]

    def test_matches_the_full_matrix_solve(self, name, monkeypatch):
        spec = phases_spec(FACTORED_GRAPHS[name])
        calls = []
        for builder in ("evolution_factors", "evolution_unitary"):
            def record(*args, builder=builder, build=getattr(ensemble, builder), **kwargs):
                calls.append(builder)
                return build(*args, **kwargs)
            monkeypatch.setattr(ensemble, builder, record)
        got = run_ensemble(spec).to_dict(include_timing=False)
        # drawn by component, with no fallback
        assert calls and set(calls) == {"evolution_factors"}
        assert_reports_close(got, full_matrix_report(spec))

    def test_stack_size_and_workers_do_not_matter(self, name, monkeypatch):
        spec = phases_spec(FACTORED_GRAPHS[name], draws=70)
        default = run_ensemble(spec).to_dict(include_timing=False)
        assert run_ensemble(spec, workers=4).to_dict(include_timing=False) == default
        monkeypatch.setattr(ensemble, "STACK_AMPLITUDES", 1)
        assert run_ensemble(spec).to_dict(include_timing=False) == default
        assert run_ensemble(spec, workers=4).to_dict(include_timing=False) == default


class TestFactoredChecks:
    graph = FACTORED_GRAPHS["two_mixed_dims"]

    def test_connected_and_eigensystem_campaigns_keep_the_full_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("evolution_factors called")
        monkeypatch.setattr(ensemble, "evolution_factors", refuse)
        run_ensemble(phases_spec(ring_graph(4, 2), draws=2))
        for analyses in ((Analysis("spacing"), Analysis("evec_entropy")),
                         (Analysis("spacing"), Analysis("element_entropy"))):
            spec = EnsembleSpec(source=self.graph, draws=2, master_seed=0,
                                analyses=analyses)
            run_ensemble(spec)
        # the patch bites on a phases-only campaign of this graph
        with pytest.raises(AssertionError, match="evolution_factors called"):
            run_ensemble(phases_spec(self.graph, draws=2))

    def test_the_route_is_chosen_once(self, monkeypatch):
        # three stacks of 4 draws: one connectivity test for the campaign
        tested, factored = [], []
        connected, factors = ensemble.is_connected, ensemble.evolution_factors
        monkeypatch.setattr(ensemble, "is_connected",
                            lambda graph: tested.append(graph) or connected(graph))
        monkeypatch.setattr(ensemble, "evolution_factors",
                            lambda *args: factored.append(args) or factors(*args))
        monkeypatch.setattr(ensemble, "STACK_AMPLITUDES", 36**2 * 4)
        run_ensemble(phases_spec(self.graph, draws=10))
        assert len(factored) == 3 and tested == [self.graph]

    @staticmethod
    def spoil_blocks(monkeypatch, index, by):
        """Scale two_chains' 4 x 4 blocks at ``index`` (draw, block), of four
        per draw in clique order ((1, 2), (4, 5), (2, 3), (5, 6)), by 1 + ``by``
        after haar_unitary's own check."""
        haar = tensor.haar_unitary

        def spoiled(dim, generators):
            out = haar(dim, generators)
            if dim == 4:
                out.reshape(-1, 4, 4, 4)[index] *= 1 + by
            return out
        monkeypatch.setattr(tensor, "haar_unitary", spoiled)

    def test_each_factor_passes_require_unitary(self, monkeypatch):
        checked = []
        require = tensor.require_unitary
        monkeypatch.setattr(tensor, "require_unitary",
                            lambda u: checked.append(u.shape) or require(u))
        # each component of two_mixed_dims is blocks as large as its factor,
        # so both factors are measured whole
        run_ensemble(phases_spec(self.graph, draws=3))
        assert checked == [(3, 4, 4), (3, 9, 9)]
        # two_chains: each factor is certified, its first draw measured
        chains = FACTORED_GRAPHS["two_chains"]
        checked.clear()
        run_ensemble(phases_spec(chains, draws=3))
        assert checked == [(1, 8, 8), (1, 8, 8)]
        # a 3e-13 defect in draw 2's block on (1, 2) takes the first
        # factor's certificate over 1e-12: draws 0 and 2 of that factor are
        # measured, and pass; draw 1 keeps its certificate
        self.spoil_blocks(monkeypatch, (2, 0), 1.5e-13)
        certificates = tensor._folded_blocks(
            chains, [RandomStream(31, t) for t in range(3)], 64, components(chains)).certificates
        assert certificates[0][2] > 1e-12 and certificates[0][1] <= 1e-12
        assert certificates[1][1:].max() <= 1e-12
        assert all(np.isnan(c[0]) for c in certificates)
        checked.clear()
        run_ensemble(phases_spec(chains, draws=3))
        assert checked == [(2, 8, 8), (1, 8, 8)]

    def test_a_corrupted_block_raises(self, monkeypatch):
        # one 3x3 block of one draw with unitarity defect 1e-11
        haar = tensor.haar_unitary

        def corrupt(dim, streams):
            out = haar(dim, streams)
            if dim == 9:
                out[0] *= 1 + 5e-12
            return out
        monkeypatch.setattr(tensor, "haar_unitary", corrupt)
        with pytest.raises(UnitarityError):
            run_ensemble(phases_spec(self.graph, draws=3))

    def test_the_product_is_checked(self, monkeypatch):
        # two_chains: a 7e-14 scaling of every draw's blocks on (1, 2) and
        # (4, 5) gives each factor a certificate of about 6e-13 on draws 1
        # and 2 (draw 0 is measured), within its own tolerance, but their
        # product's bound, (1 + c_1)(1 + c_2) - 1, exceeds the 1e-12 of the
        # whole dimension
        chains = FACTORED_GRAPHS["two_chains"]
        self.spoil_blocks(monkeypatch, np.s_[:, :2], 7e-14)
        certificates = tensor._folded_blocks(
            chains, [RandomStream(31, t) for t in range(3)], 64, components(chains)).certificates
        assert all(c[1:].max() <= 1e-12 for c in certificates)
        assert ((1 + certificates[0][1:]) * (1 + certificates[1][1:]) - 1).min() > 1e-12
        with pytest.raises(UnitarityError):
            run_ensemble(phases_spec(chains, draws=3))

    def test_the_product_reads_measured_defects(self, monkeypatch):
        # every layer call scales by 1 + 2e-13: the 4x4 factor takes one
        # layer and the 9x9 factor two, so their measured defects, 4e-13
        # and 8e-13, pass their own checks, but the product U_1 (x) U_2 is
        # off by 1.2e-12, which the whole dimension refuses
        layer = tensor.layer_unitary
        monkeypatch.setattr(tensor, "layer_unitary",
                            lambda *args: layer(*args) * (1 + 2e-13))
        factors = []
        require = tensor.require_unitary
        monkeypatch.setattr(tensor, "require_unitary",
                            lambda u: factors.append(u) or require(u))
        with pytest.raises(UnitarityError):
            run_ensemble(phases_spec(self.graph, draws=3))
        assert [u.shape for u in factors] == [(3, 4, 4), (3, 9, 9)]
        assert all(unitarity_defects(u).max() <= unitarity_tolerance(u.shape[-1])
                   for u in factors)
        assert unitarity_defects(np.kron(factors[0][0], factors[1][0])).max() \
            > unitarity_tolerance(self.graph.total_dim)

    def test_corrupted_phases_take_the_full_matrix(self, monkeypatch):
        # the first draw of each 9x9 stack gets wrong phases: its product
        # fails the trace check and is solved from its full matrix
        solve = spectral.eigenphases

        def corrupt(us):
            phases = solve(us)
            if us.shape[-1] == 9:
                phases[0] = np.sort(np.mod(phases[0] + 1e-6 * np.arange(9), 2 * np.pi))
            return phases
        monkeypatch.setattr(spectral, "eigenphases", corrupt)
        evolve = ensemble.evolution_unitary
        full = []

        def record(graph, streams, dim_cap):
            full.append([s.path for s in streams])
            return evolve(graph, streams, dim_cap=dim_cap)
        monkeypatch.setattr(ensemble, "evolution_unitary", record)
        monkeypatch.setattr(ensemble, "STACK_AMPLITUDES", 36**2 * 4)  # stacks of 4
        spec = phases_spec(self.graph, draws=10)
        got = run_ensemble(spec).to_dict(include_timing=False)
        assert full == [[(0,)], [(4,)], [(8,)]]
        monkeypatch.setattr(spectral, "eigenphases", solve)
        assert_reports_close(got, full_matrix_report(spec))

    def test_cap_is_the_whole_dimension(self):
        # N = 36 over a cap of 16 that each component (4 and 9) is within
        with pytest.raises(DimensionCapExceeded):
            EnsembleSpec(source=self.graph, draws=2, master_seed=0,
                         analyses=PHASE_ANALYSES, dim_cap=16)
        with pytest.raises(DimensionCapExceeded):
            evolution_factors(self.graph, [RandomStream(0, 0)], dim_cap=16)


class TestOneStackPipeline:
    """Every route yields its tiles to one _stack_record call per stack, and
    refuses a source over the cap before it draws anything."""

    @pytest.mark.parametrize("source,draws,analyses,tiles", [
        # N=64: stacks of 32 and 8 draws in tiles of 2
        (chain_graph(6, 2), 40, "element_entropy,state_sample", [16, 4]),
        # a phases-only campaign on a disconnected graph: one tile, no matrices
        (FACTORED_GRAPHS["two_mixed_dims"], 5, "spacing,phase_density,trace_moments:2", [1]),
        (ReferenceEnsemble("cue", 64), 40, "spacing", [16, 4]),
    ], ids=["tiled_graph", "factored", "cue"])
    def test_every_route_makes_one_stack_record_call_per_stack(
            self, monkeypatch, source, draws, analyses, tiles):
        calls = []
        stack_record = ensemble._stack_record

        def spy(spec, stack_tiles):
            stack_tiles = list(stack_tiles)
            calls.append([us is None for us, _ in stack_tiles])
            return stack_record(spec, stack_tiles)
        monkeypatch.setattr(ensemble, "_stack_record", spy)
        run_ensemble(EnsembleSpec(source=source, draws=draws, master_seed=5,
                                  analyses=tuple(map(Analysis.parse, analyses.split(",")))))
        # us is None only on the factored route, whose one tile is the stack
        assert calls == [[tiles == [1]] * n for n in tiles]

    @pytest.mark.parametrize("source,analyses", [
        (chain_graph(6, 2), "spacing"),
        (chain_graph(6, 2), "state_sample"),
        (FACTORED_GRAPHS["two_mixed_dims"], "spacing,phase_density,trace_moments:2"),
        (ReferenceEnsemble("cue", 64), "spacing"),
        (ReferenceEnsemble("composed", 64), "spacing"),
        (ReferenceEnsemble("diagonal", 64), "spacing"),
        (chain_graph(6, 2), None),
    ], ids=["tiled_graph", "state_only", "factored", "cue", "composed", "diagonal",
            "benchmark_generation"])
    def test_the_cap_is_the_dimension_on_every_route(self, monkeypatch, source, analyses):
        def build(cap):
            if analyses is None:
                return benchmark_generation(source, 2, master_seed=6, dim_cap=cap)
            return run_ensemble(EnsembleSpec(
                source=source, draws=2, master_seed=6, dim_cap=cap,
                analyses=tuple(map(Analysis.parse, analyses.split(",")))))
        drawn = []
        for module, name in ((rand, "haar_unitary"), (tensor, "haar_unitary"),
                             (ensemble, "haar_unitary"), (ensemble, "random_phases_diagonal")):
            def spy(*args, draw=getattr(module, name), name=name):
                drawn.append(name)
                return draw(*args)
            monkeypatch.setattr(module, name, spy)
        dim = ensemble._dim(source)
        with pytest.raises(DimensionCapExceeded):
            build(dim - 1)
        assert drawn == []
        build(dim)
        assert drawn
