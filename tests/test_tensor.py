from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph import ensemble, tensor
from unigraph.graph import (Clique, InteractionGraph, Layer, ParticleSystem, chain_graph,
                            components, ring_graph)
from unigraph.rand import (RandomStream, UnitarityError, as_streams, haar_unitary,
                           unitarity_defects, unitarity_tolerance)
from unigraph.spectral import eigendecompose
from unigraph.tensor import (BlockDimMismatch, DimensionCapExceeded, apply_block,
                             evolution_factors, evolution_unitary, layer_unitary)


def layer_of(*cliques, color="c", singletons="haar"):
    return Layer(color, tuple(Clique(tuple(c)) for c in cliques), singletons)


def lift_oracle(block, clique, dims):
    """Direct index-sum construction: block entry on the clique legs,
    delta on the rest."""
    k, total = len(dims), prod(dims)
    parts = sorted(p - 1 for p in clique)
    rest = [p for p in range(k) if p not in parts]
    digits = [np.unravel_index(g, dims) for g in range(total)]
    out = np.zeros((total, total), dtype=complex)
    for g, dg in enumerate(digits):
        for h, dh in enumerate(digits):
            if any(dg[p] != dh[p] for p in rest):
                continue
            bi = bj = 0
            for p in parts:
                bi = bi * dims[p] + dg[p]
                bj = bj * dims[p] + dh[p]
            out[g, h] = block[bi, bj]
    return out


def lifted(block, clique, dims):
    """The block on the clique's legs as an N x N matrix, via apply_block."""
    return apply_block(block, clique, dims, np.eye(prod(dims), dtype=complex))


class TestLift:
    """apply_block on an identity operand is the lifted block."""

    def test_full_support_clique_is_block(self):
        b = haar_unitary(4, RandomStream(0, 0))
        assert np.array_equal(lifted(b, (1, 2), (2, 2)), b)

    def test_single_leg_matches_kron(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(lifted(x, (2,), (2, 2)), np.kron(np.eye(2), x))

    def test_swap_on_outer_qubits(self):
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
        out = lifted(swap, (1, 3), (2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    src = np.ravel_multi_index((a, b, c), (2, 2, 2))
                    dst = np.ravel_multi_index((c, b, a), (2, 2, 2))
                    assert out[dst, src] == 1

    @pytest.mark.parametrize("dims,clique", [
        ((2, 2, 2), (1, 3)),
        ((2, 3, 2), (2,)),
        ((3, 2, 2), (1, 2)),
        ((2, 2, 3, 2), (2, 4)),
        ((2, 2), (1, 2)),
        ((2, 3), (1,)),
        ((2, 3, 1, 2), (1, 3, 4)),
        ((3, 2, 2, 2), (4, 1, 2)),
        ((1, 2, 3), (2, 3)),
        # adjacent legs at the front, in the middle and at the end
        ((2, 3, 2, 2), (1, 2)),
        ((2, 3, 2, 2), (2, 3)),
        ((2, 3, 2, 2), (3, 4)),
        ((2, 3, 2, 2), (2, 3, 4)),
        # a ring's wrap clique
        ((2, 3, 2, 2), (1, 4)),
        ((3, 2, 2, 3), (4, 1)),
        # a dimension-1 leg inside a contiguous clique
        ((2, 3, 1, 2), (2, 3, 4)),
        ((2, 1, 3), (1, 2, 3)),
    ])
    def test_matches_brute_force(self, dims, clique):
        block = haar_unitary(prod(dims[p - 1] for p in clique),
                             RandomStream(1, hash(dims) % 1000))
        assert np.array_equal(lifted(block, clique, dims),
                              lift_oracle(block, clique, dims))

    def test_preserves_unitarity(self):
        b = haar_unitary(6, RandomStream(2, 0))
        assert unitarity_defects(lifted(b, (1, 3), (2, 2, 3))).max() <= 1e-12

    def test_lift_of_identity(self):
        assert np.array_equal(lifted(np.eye(4, dtype=complex), (2, 3), (2, 2, 2, 2)),
                              np.eye(16))

    def test_disjoint_lifts_commute(self):
        a = haar_unitary(4, RandomStream(3, 0))
        b = haar_unitary(4, RandomStream(3, 1))
        la = lifted(a, (1, 4), (2, 2, 2, 2))
        lb = lifted(b, (2, 3), (2, 2, 2, 2))
        assert np.abs(la @ lb - lb @ la).max() <= 1e-13

    def test_block_dim_mismatch(self):
        with pytest.raises(BlockDimMismatch):
            apply_block(np.eye(3, dtype=complex), (1, 2), (2, 2), np.eye(4))
        with pytest.raises(BlockDimMismatch):
            apply_block(np.eye(3, dtype=complex)[None], (1, 2), (2, 2), np.eye(4)[None])

    @pytest.mark.parametrize("dims,clique", [
        ((2, 3, 2), (1, 2)),        # adjacent legs
        ((2, 3, 2, 2), (2, 3, 4)),  # adjacent legs at the end
        ((2, 3, 2), (1, 3)),        # a wrap clique: moveaxis path
        ((3, 2, 2, 2), (1, 2, 4)),  # non-adjacent legs
    ])
    @pytest.mark.parametrize("rest", [(), (3,), (24,)])
    def test_stacked_blocks_equal_per_matrix(self, dims, clique, rest):
        rng = np.random.default_rng(len(rest) + sum(dims))
        b, count = prod(dims[p - 1] for p in clique), 5
        blocks = rng.normal(size=(count, b, b)) + 1j * rng.normal(size=(count, b, b))
        shape = (count, prod(dims)) + rest
        operands = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = apply_block(blocks, clique, dims, operands)
        assert got.shape == shape
        for j in range(count):
            assert np.array_equal(got[j], apply_block(blocks[j], clique, dims, operands[j]))

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_any_operand(self, dims, data):
        dims = tuple(dims)
        k, total = len(dims), prod(dims)
        clique = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=min(k, 3),
                                    unique=True))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        block_dim = prod(dims[p - 1] for p in clique)
        block = rng.normal(size=(block_dim, block_dim)) \
            + 1j * rng.normal(size=(block_dim, block_dim))
        expected = lift_oracle(block, clique, dims)
        for shape in ((total, total), (total,), (total, 3)):
            operand = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = apply_block(block, clique, dims, operand)
            assert got.shape == shape
            assert np.abs(got - expected @ operand).max() <= 1e-13


def one_layer(dims, layer):
    return InteractionGraph(ParticleSystem(dims), (layer,))


def clique_by_clique(graph, stream, particles=None):
    """The evolution built clique by clique: block c of layer i drawn from
    substream(i, c) and applied to the running operator in clique order,
    with no singleton folded. The oracle of the folded build; a one-layer
    graph's evolution is bit-identical to it."""
    single, streams = as_streams(stream)
    legs = {p: k for k, p in enumerate(particles or range(1, graph.num_particles + 1),
                                       start=1)}
    leg_dims = [graph.dims[p - 1] for p in legs]
    u = np.tile(np.eye(prod(leg_dims), dtype=complex), (len(streams), 1, 1))
    for i, layer in enumerate(graph.layers):
        for c, clique in enumerate(layer.cliques):
            if clique.particles[0] not in legs or (
                    len(clique) == 1 and layer.singletons == "identity"):
                continue
            block = haar_unitary(prod(graph.dims[p - 1] for p in clique),
                                 [s.substream(i, c) for s in streams])
            u = apply_block(block, [legs[p] for p in clique], leg_dims, u)
    return u[0] if single else u


class TestLayerUnitary:
    def test_identity_singletons(self):
        graph = one_layer((2, 3), layer_of((1,), (2,), singletons="identity"))
        assert np.array_equal(evolution_unitary(graph, RandomStream(0, 0)), np.eye(6))

    def test_single_clique_is_one_haar_block(self):
        stream = RandomStream(4, 0)
        got = evolution_unitary(one_layer((3, 3), layer_of((1, 2))), stream)
        assert np.array_equal(got, haar_unitary(9, stream.substream(0, 0)))

    def test_mixed_orders_equal_the_clique_by_clique_product(self):
        # orders 2, 3, 4, 6, 9 and 12 plus identity singletons; each layer
        # alone is bit-identical to the clique-by-clique build, and over all
        # four layers (later operands not the identity) the folded build
        # agrees with it to rounding
        dims = (2, 3, 2, 3)
        layers = (layer_of((1, 3), (2, 4), color="a"),
                  layer_of((1, 2), (3,), (4,), singletons="identity", color="b"),
                  layer_of((1,), (2,), (3,), (4,), color="d"),
                  layer_of((1, 2, 3), (4,), color="e"))
        graph = InteractionGraph(ParticleSystem(dims), layers)
        for t in range(3):
            stream = RandomStream(12, t)
            for layer in layers:
                assert np.array_equal(evolution_unitary(one_layer(dims, layer), stream),
                                      clique_by_clique(one_layer(dims, layer), stream))
            assert np.abs(evolution_unitary(graph, stream)
                          - clique_by_clique(graph, stream)).max() <= 1e-13

    def test_equals_product_of_lifts_either_order(self):
        stream = RandomStream(5, 0)
        got = evolution_unitary(one_layer((2, 2, 2, 2), layer_of((2, 3), (1, 4))), stream)
        # canonical clique order sorts (1,4) before (2,3)
        b0 = haar_unitary(4, stream.substream(0, 0))
        b1 = haar_unitary(4, stream.substream(0, 1))
        l0 = lift_oracle(b0, (1, 4), (2, 2, 2, 2))
        l1 = lift_oracle(b1, (2, 3), (2, 2, 2, 2))
        assert np.abs(got - l0 @ l1).max() <= 1e-13
        assert np.abs(got - l1 @ l0).max() <= 1e-13


def oracle_evolution(graph, stream):
    """Product of lift_oracle blocks, layer by layer, drawn from the
    documented substreams: block c of layer i uses substream (i, c)."""
    dims = graph.dims
    u = np.eye(graph.total_dim, dtype=complex)
    for i, layer in enumerate(graph.layers):
        for c, clique in enumerate(layer.cliques):
            if len(clique) == 1 and layer.singletons == "identity":
                continue
            block = haar_unitary(prod(dims[p - 1] for p in clique),
                                 stream.substream(i, c))
            u = lift_oracle(block, clique, dims) @ u
    return u


class TestEvolutionUnitary:
    def test_two_particle_composition(self):
        g = InteractionGraph(
            ParticleSystem((3, 3)),
            (layer_of((1,), (2,)), layer_of((1, 2))))
        stream = RandomStream(6, 0)
        u = evolution_unitary(g, stream)
        v1 = haar_unitary(3, stream.substream(0, 0))
        v2 = haar_unitary(3, stream.substream(0, 1))
        w12 = haar_unitary(9, stream.substream(1, 0))
        assert np.allclose(u, w12 @ np.kron(v1, v2), atol=1e-13)

    def test_output_is_unitary(self):
        u = evolution_unitary(ring_graph(6, 2), RandomStream(7, 0))
        assert unitarity_defects(u).max() <= 1e-12

    def test_disconnected_spectrum_is_additive(self):
        g = InteractionGraph(
            ParticleSystem((2, 2, 2, 2)),
            (layer_of((1, 2), (3, 4)), layer_of((1, 2), (3, 4))))
        stream = RandomStream(8, 0)
        u = evolution_unitary(g, stream)
        # rebuild the two block evolutions from the documented substreams
        ua = (haar_unitary(4, stream.substream(1, 0))
              @ haar_unitary(4, stream.substream(0, 0)))
        ub = (haar_unitary(4, stream.substream(1, 1))
              @ haar_unitary(4, stream.substream(0, 1)))
        pa = eigendecompose(ua).phases
        pb = eigendecompose(ub).phases
        expected = np.sort(np.mod((pa[:, None] + pb[None, :]).ravel(), 2 * np.pi))
        assert np.abs(eigendecompose(u).phases - expected).max() <= 1e-9

    def test_same_partition_layers_factorize(self):
        g = InteractionGraph(
            ParticleSystem((2, 2, 2, 2)),
            (layer_of((1, 2), (3, 4)), layer_of((1, 2), (3, 4))))
        stream = RandomStream(9, 0)
        u = evolution_unitary(g, stream)
        v0 = haar_unitary(4, stream.substream(0, 0))
        v1 = haar_unitary(4, stream.substream(0, 1))
        w0 = haar_unitary(4, stream.substream(1, 0))
        w1 = haar_unitary(4, stream.substream(1, 1))
        assert np.abs(u - np.kron(w0 @ v0, w1 @ v1)).max() <= 1e-13

    def test_stream_assignment_is_positional(self):
        g = ring_graph(4, 2)
        stream = RandomStream(10, 2)
        u = evolution_unitary(g, stream)
        blocks = [[haar_unitary(4, stream.substream(i, c)) for c in range(2)]
                  for i in range(2)]
        l0 = np.kron(blocks[0][0], blocks[0][1])
        l1 = lift_oracle(blocks[1][0], (1, 4), (2, 2, 2, 2)) \
            @ lift_oracle(blocks[1][1], (2, 3), (2, 2, 2, 2))
        assert np.allclose(u, l1 @ l0, atol=1e-13)

    @pytest.mark.parametrize("dims,layers", [
        # non-adjacent pairs, then a three-particle clique beside a singleton
        ((2, 3, 2, 2), (layer_of((1, 3), (2, 4)), layer_of((1, 2, 4), (3,)))),
        # identity singletons around a non-adjacent three-particle clique
        ((3, 2, 1, 2), (layer_of((1, 2, 4), (3,)),
                        layer_of((1,), (2,), (3,), (4,), singletons="identity"),
                        layer_of((2, 4), (1,), (3,), singletons="identity"),
                        layer_of((1, 4), (2, 3)))),
        # a ring closure on mixed dims
        ((2, 3, 3), (layer_of((1, 2), (3,)), layer_of((1, 3), (2,)))),
    ])
    def test_matches_product_of_lifted_blocks(self, dims, layers):
        g = InteractionGraph(ParticleSystem(dims), layers)
        for t in range(3):
            stream = RandomStream(11, t)
            assert np.abs(evolution_unitary(g, stream)
                          - oracle_evolution(g, stream)).max() <= 1e-13

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapExceeded):
            evolution_unitary(ring_graph(4, 2), RandomStream(0, 0), dim_cap=8)
        with pytest.raises(DimensionCapExceeded):
            evolution_unitary(ring_graph(4, 2), [RandomStream(0, 0)] * 2, dim_cap=8)

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_stream_sequence_rejected(self, empty):
        with pytest.raises(ValueError, match="at least one stream"):
            evolution_unitary(ring_graph(4, 2), empty)


@st.composite
def layered_graphs(draw):
    """Mixed dims, cliques of one to three particles in any position (so
    non-adjacent and wrap cliques), some layers with identity singletons."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=5)))
    k = len(dims)
    layers = []
    for i in range(draw(st.integers(1, 3))):
        rest = draw(st.permutations(range(1, k + 1)))
        cliques = []
        while rest:
            size = draw(st.integers(1, min(3, len(rest))))
            cliques.append(tuple(rest[:size]))
            rest = rest[size:]
        singletons = draw(st.sampled_from(("haar", "identity")))
        layers.append(layer_of(*cliques, color=f"c{i}", singletons=singletons))
    return InteractionGraph(ParticleSystem(dims), tuple(layers))


class TestStackedEvolution:
    @given(layered_graphs(), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 2**16), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_stack_member_is_the_single_draw(self, graph, seed, draws):
        streams = [RandomStream(seed, t) for t in draws]
        stack = evolution_unitary(graph, streams)
        assert stack.shape == (len(streams), graph.total_dim, graph.total_dim)
        for j, stream in enumerate(streams):
            assert np.array_equal(stack[j], evolution_unitary(graph, stream))

    def test_layer_stack_member_is_the_single_layer(self):
        dims = (2, 3, 2, 3)
        streams = [RandomStream(13, t) for t in range(3)]
        operands = np.stack([haar_unitary(36, s.substream(9)) for s in streams])
        blocks = [((1, 4), haar_unitary(6, [s.substream(0) for s in streams])),
                  ((2,), haar_unitary(3, [s.substream(1) for s in streams]))]
        stack = layer_unitary(blocks, dims, operands)
        for j in range(len(streams)):
            assert np.array_equal(stack[j], layer_unitary(
                [(clique, block[j]) for clique, block in blocks], dims, operands[j]))

    # a broken assembly is seen only in a stack's first draw, which is always
    # measured; later draws are certified from their blocks
    # (TestCertificate.test_a_block_defect_in_a_later_draw_is_refused)
    @pytest.mark.parametrize("bad", [0])
    def test_every_draw_of_a_stack_is_checked(self, monkeypatch, bad):
        layer = tensor.layer_unitary

        def layer_spoiling_one_draw(*args):
            out = layer(*args)
            out[bad, 0, 1] += 1e-9
            return out
        monkeypatch.setattr(tensor, "layer_unitary", layer_spoiling_one_draw)
        with pytest.raises(UnitarityError):
            evolution_unitary(ring_graph(4, 2), [RandomStream(14, t) for t in range(3)])


def renumbered(index):
    """tensor._generators as a component built alone must see it: clique c
    of layer i draws from the whole graph's substream(i, index[i][c])."""
    generators = tensor._generators
    return lambda streams, suffixes: generators(
        streams, [(i, index[i][c]) for i, c in suffixes])


def component_alone(graph, part):
    """The connected component ``part`` as a graph of its own (particles
    renumbered 1..len(part), every layer kept) and, per layer, the index in
    the whole layer of each of its cliques."""
    number = {p: k for k, p in enumerate(part, start=1)}
    layers, index = [], []
    for layer in graph.layers:
        kept = [c for c, clique in enumerate(layer.cliques) if clique.particles[0] in number]
        layers.append(Layer(layer.color, tuple(
            Clique(tuple(number[p] for p in layer.cliques[c].particles)) for c in kept),
            layer.singletons))
        index.append(tuple(kept))
    dims = tuple(graph.dims[p - 1] for p in part)
    return InteractionGraph(ParticleSystem(dims), tuple(layers)), tuple(index)


class TestComponentFactors:
    """evolution_factors(graph, streams) are the evolution's tensor factors
    on its connected components, drawn from the same substreams."""

    @given(layered_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_factors_compose_to_the_evolution(self, graph, seed):
        streams = [RandomStream(seed, t) for t in range(2)]
        parts = components(graph)
        factors = evolution_factors(graph, streams)
        assert len(factors) == len(parts)
        product = np.ones((2, 1, 1), dtype=complex)
        for part, factor in zip(parts, factors):
            size = prod(graph.dims[p - 1] for p in part)
            assert factor.shape == (2, size, size)
            product = np.einsum("bij,bkl->bikjl", product, factor).reshape(
                2, product.shape[1] * size, -1)
        # the full evolution with its legs in component order
        order = [p - 1 for part in parts for p in part]
        k = graph.num_particles
        full = evolution_unitary(graph, streams).reshape((2,) + graph.dims * 2)
        full = full.transpose([0] + [1 + p for p in order] + [1 + k + p for p in order])
        assert np.abs(full.reshape(product.shape) - product).max() <= 1e-13

    def test_clique_keeps_its_index_in_the_whole_layer(self):
        # clique (3, 4) is clique 1 of the layer: its block is substream(1)'s
        # Haar draw, not substream(0)'s
        graph = InteractionGraph(ParticleSystem((2, 2, 3, 2)),
                                 (layer_of((1, 2), (3, 4)),))
        stream = RandomStream(5, 0)
        factor = evolution_factors(graph, [stream])[1][0]
        assert np.array_equal(factor, haar_unitary(6, stream.substream(0, 1)))

    def test_cap_is_the_whole_dimension(self):
        graph = InteractionGraph(ParticleSystem((2,) * 4),
                                 (layer_of((1, 2), (3, 4)),))
        with pytest.raises(DimensionCapExceeded):
            evolution_factors(graph, [RandomStream(0, 0)], dim_cap=8)

    @pytest.mark.parametrize("dims,layers", [
        # components {1, 3} and {2, 4}, singletons around their cliques
        ((2, 3, 2, 2), (layer_of((1,), (2,), (3,), (4,)), layer_of((1, 3), (2,), (4,)),
                        layer_of((1,), (2, 4), (3,)), layer_of((1,), (2,), (3,), (4,)))),
        # an idle particle and identity-singleton layers
        ((3, 2, 2, 2, 3), (layer_of((1, 2), (3,), (4, 5), singletons="identity"),
                           layer_of((1, 2), (3,), (4,), (5,), singletons="identity"),
                           layer_of((1, 2), (4, 5), (3,)))),
        # particle 2 is touched by singletons only
        ((2, 3, 2), (layer_of((1, 3), (2,)), layer_of((1,), (2,), (3,)),
                     layer_of((1, 3), (2,)), layer_of((1,), (2,), (3,)))),
    ])
    def test_each_factor_is_its_component_built_alone(self, dims, layers, monkeypatch):
        # drawn together with the other components' blocks, a factor keeps
        # every bit of its component's evolution drawn on its own
        graph = InteractionGraph(ParticleSystem(dims), layers)
        assert len(components(graph)) > 1
        streams = [RandomStream(23, t) for t in range(3)]
        for part, factor in zip(components(graph), evolution_factors(graph, streams)):
            alone, index = component_alone(graph, part)
            with monkeypatch.context() as patch:
                patch.setattr(tensor, "_generators", renumbered(index))
                built = evolution_unitary(alone, streams)
            assert np.array_equal(factor, built)

    def test_one_haar_call_per_block_order_for_all_components(self, monkeypatch):
        # components (1, 2) and (3, 4) each draw blocks of orders 6, 2 and 3
        orders = []
        haar = tensor.haar_unitary

        def record(order, streams):
            orders.append((order, len(streams)))
            return haar(order, streams)
        monkeypatch.setattr(tensor, "haar_unitary", record)
        graph = InteractionGraph(ParticleSystem((2, 3, 2, 3)), (
            layer_of((1, 2), (3, 4)), layer_of((1,), (2,), (3,), (4,))))
        evolution_factors(graph, [RandomStream(0, t) for t in range(3)])
        assert sorted(orders) == [(2, 6), (3, 6), (6, 6)]

    def test_no_layer_call_for_a_components_empty_layer(self, monkeypatch):
        # the second layer is idle on component (3, 4)
        calls = []
        layer = tensor.layer_unitary

        def record(blocks, dims, operand):
            calls.append((len(blocks), operand.shape[-1]))
            return layer(blocks, dims, operand)
        monkeypatch.setattr(tensor, "layer_unitary", record)
        graph = InteractionGraph(ParticleSystem((2, 2, 3, 3)), (
            layer_of((1, 2), (3, 4)),
            layer_of((1, 2), (3,), (4,), singletons="identity")))
        evolution_factors(graph, [RandomStream(0, t) for t in range(3)])
        assert calls == [(1, 4), (1, 4), (1, 9)]


FOLD_GRAPHS = {
    # Haar singletons on particles 1 and 3 before their first clique and
    # after their last
    "before_first_and_after_last": ((2, 3, 2), (
        layer_of((1,), (2,), (3,)), layer_of((1, 2), (3,)), layer_of((1,), (2, 3)),
        layer_of((1,), (2,), (3,)))),
    # three singletons on particle 1 between two of its cliques
    "consecutive_between_cliques": ((2, 2, 3), (
        layer_of((1, 2), (3,)), layer_of((1,), (2,), (3,)), layer_of((1,), (2, 3)),
        layer_of((1,), (2,), (3,)), layer_of((1, 2), (3,)))),
    # particle 2 is touched by singletons only
    "isolated_particle": ((2, 3, 2), (
        layer_of((1, 3), (2,)), layer_of((1,), (2,), (3,)), layer_of((1, 3), (2,)),
        layer_of((1,), (2,), (3,)))),
    # identity-singleton layers between Haar singletons
    "identity_singleton_layers": ((3, 2, 2), (
        layer_of((1,), (2,), (3,)), layer_of((1,), (2, 3), singletons="identity"),
        layer_of((1,), (2,), (3,), singletons="identity"), layer_of((1, 2), (3,)),
        layer_of((1,), (2,), (3,)))),
    # dims 1 to 3; three-particle, non-adjacent and wrap cliques
    "mixed_dims_wide_cliques": ((3, 1, 2, 2, 3), (
        layer_of((1, 3, 5), (2,), (4,)), layer_of((1,), (2, 4), (3,), (5,)),
        layer_of((1, 5), (2,), (3,), (4,)), layer_of((1,), (2,), (3, 4), (5,)),
        layer_of((1,), (2,), (3,), (4,), (5,)))),
}


class TestFoldedSingletons:
    """The folded build agrees with the clique-by-clique oracle to rounding."""

    @pytest.mark.parametrize("name", sorted(FOLD_GRAPHS))
    def test_matches_the_clique_by_clique_oracle(self, name):
        dims, layers = FOLD_GRAPHS[name]
        graph = InteractionGraph(ParticleSystem(dims), layers)
        streams = [RandomStream(19, t) for t in range(4)]
        got = evolution_unitary(graph, streams)
        assert np.abs(got - clique_by_clique(graph, streams)).max() <= 1e-13
        assert np.abs(got[1] - oracle_evolution(graph, streams[1])).max() <= 1e-13

    def test_factor_matches_the_oracle(self):
        # components {1, 3} and {2, 4}, each with singletons around its cliques
        graph = InteractionGraph(ParticleSystem((2, 3, 2, 2)), (
            layer_of((1,), (2,), (3,), (4,)), layer_of((1, 3), (2,), (4,)),
            layer_of((1,), (2, 4), (3,)), layer_of((1,), (2,), (3,), (4,))))
        streams = [RandomStream(20, t) for t in range(3)]
        for part, got in zip(components(graph), evolution_factors(graph, streams)):
            assert np.abs(got - clique_by_clique(graph, streams, part)).max() <= 1e-13

    @given(layered_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_graph_matches_the_oracle(self, graph, seed):
        streams = [RandomStream(seed, t) for t in range(2)]
        assert np.abs(evolution_unitary(graph, streams)
                      - clique_by_clique(graph, streams)).max() <= 1e-13

    def test_graphs_without_haar_singletons_are_bit_identical(self):
        streams = [RandomStream(21, t) for t in range(3)]
        for graph in (ring_graph(6, 2), ring_graph(4, 3)):
            assert np.array_equal(evolution_unitary(graph, streams),
                                  clique_by_clique(graph, streams))

    def test_bit_identical_across_stack_sizes(self, monkeypatch):
        graph = InteractionGraph(ParticleSystem((2, 3, 2)),
                                 FOLD_GRAPHS["before_first_and_after_last"][1])

        def draws():
            return np.concatenate([
                evolution_unitary(graph, streams)
                for streams in ensemble._stacks(22, graph, 7)])
        default = draws()
        # tiles of 3 draws built from slices of one stack's blocks
        blocks = tensor._folded_blocks(graph, [RandomStream(22, t) for t in range(7)], 12)
        assert np.array_equal(np.concatenate(
            [evolution_unitary(graph, blocks[t:t + 3]) for t in range(0, 7, 3)]), default)
        monkeypatch.setattr(ensemble, "STACK_AMPLITUDES", 1)
        assert len(ensemble._stacks(22, graph, 7)) == 7
        assert np.array_equal(draws(), default)

    def test_one_haar_call_per_block_order(self, monkeypatch):
        # chain6 of qubits: 5 pair blocks and 20 singletons per draw, drawn
        # by one call for order 4 and one for order 2
        orders = []
        haar = tensor.haar_unitary

        def record(order, streams):
            orders.append((order, len(streams)))
            return haar(order, streams)
        monkeypatch.setattr(tensor, "haar_unitary", record)
        evolution_unitary(chain_graph(6, 2), [RandomStream(0, t) for t in range(3)])
        assert sorted(orders) == [(2, 60), (4, 15)]

    def test_every_block_is_applied_once_per_layer_call(self, monkeypatch):
        # chain6 applies 5 blocks per draw, one per layer
        calls = []
        layer = tensor.layer_unitary

        def record(blocks, dims, operand):
            calls.append(len(blocks))
            return layer(blocks, dims, operand)
        monkeypatch.setattr(tensor, "layer_unitary", record)
        evolution_unitary(chain_graph(6, 2), RandomStream(0, 0))
        assert calls == [1] * 5


def long_double_evolution(graph, blocks):
    """The evolution stack of ``blocks``, built as ``evolution_unitary``
    builds it but in np.clongdouble: the exact product of the stored blocks
    to about 1e-19."""
    u = np.broadcast_to(np.eye(graph.total_dim, dtype=np.clongdouble),
                        (blocks.draws,) + (graph.total_dim,) * 2)
    for layer in blocks.layers:
        if layer:
            u = layer_unitary([(clique, block.astype(np.clongdouble))
                               for clique, block in layer], graph.dims, u)
    return u


def product_bounds(blocks):
    """(p, s) of all of a stack's blocks, whatever they cost to measure."""
    return tensor._product_bounds([block for layer in blocks.layers for _, block in layer],
                                  blocks.draws)


ROUNDING_GRAPHS = {
    "chain6": chain_graph(6, 2),
    "ring4-qutrits": ring_graph(4, 3),
    "mixed-dims": InteractionGraph(ParticleSystem(FOLD_GRAPHS["mixed_dims_wide_cliques"][0]),
                                   FOLD_GRAPHS["mixed_dims_wide_cliques"][1]),
}


class TestCertificate:
    """Each draw's certificate bounds the max-norm defect of the U built from
    its blocks, and a draw is measured exactly where it has no passing
    certificate."""

    @given(layered_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_measured_defect(self, graph, seed):
        blocks = tensor._folded_blocks(graph, [RandomStream(seed, t) for t in range(3)], 4096)
        p, s = product_bounds(blocks)
        certificate = p + (1 + p) * s * (2 + s)
        got, = blocks.certificates
        # the first draw is the spot check; the rest are certified unless
        # the blocks cost as much to measure as U
        assert np.isnan(got[0])
        assert np.isnan(got).all() or np.array_equal(got[1:], certificate[1:])
        assert (unitarity_defects(evolution_unitary(graph, blocks)) <= certificate).all()

    @given(layered_graphs(), st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_draw_is_certified_or_measured(self, graph, seed, tile):
        measured = []
        require = tensor.require_unitary

        def record(u):
            measured.append(u.copy())
            return require(u)
        blocks = tensor._folded_blocks(graph, [RandomStream(seed, t) for t in range(4)], 4096)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor, "require_unitary", record)
            us = [evolution_unitary(graph, blocks[t:t + tile]) for t in range(0, 4, tile)]
        certificate, = blocks.certificates
        passed = certificate <= unitarity_tolerance(graph.total_dim)
        assert not passed[0]
        # the measured draws, in order, are exactly those without a passing one
        assert np.array_equal(np.concatenate(measured), np.concatenate(us)[~passed])
        assert not any(np.isnan(u).any() for u in us + measured)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="np.clongdouble is no wider than complex128 here")
    @pytest.mark.parametrize("name", sorted(ROUNDING_GRAPHS))
    def test_the_rounding_term_bounds_the_float_error(self, name):
        # f = sqrt(1 + p) s bounds each column's distance from the exact
        # product of the stored blocks; without s the certificate would
        # claim a float U that is the exact product
        graph = ROUNDING_GRAPHS[name]
        blocks = tensor._folded_blocks(graph, [RandomStream(24, t) for t in range(4)], 4096)
        p, s = product_bounds(blocks)
        f = np.sqrt(1 + p) * s
        error = evolution_unitary(graph, blocks) - long_double_evolution(graph, blocks)
        columns = np.sqrt((np.abs(error)**2).sum(axis=-2)).max(axis=-1).astype(float)
        assert (columns > 0).all() and (columns <= f).all()

    def test_a_block_defect_in_a_later_draw_is_refused(self, monkeypatch):
        # a 1e-11 defect in one 4 x 4 block of draw 2 (after haar_unitary's
        # own check): its certificate exceeds the tolerance, so draw 2 is
        # measured with the spot-checked draw 0, and the measured check raises
        haar = tensor.haar_unitary

        def spoiled(dim, generators):
            out = haar(dim, generators)
            if dim == 4:
                out.reshape(3, -1, 4, 4)[2, 0] *= 1 + 5e-12
            return out
        monkeypatch.setattr(tensor, "haar_unitary", spoiled)
        measured = []
        require = tensor.require_unitary
        monkeypatch.setattr(tensor, "require_unitary",
                            lambda u: measured.append(u.shape) or require(u))
        graph, streams = ring_graph(4, 2), [RandomStream(14, t) for t in range(3)]
        certificate, = tensor._folded_blocks(graph, streams, 4096).certificates
        assert certificate[2] > 1e-12 and certificate[1] <= 1e-12 and np.isnan(certificate[0])
        with pytest.raises(UnitarityError):
            evolution_unitary(graph, streams)
        assert measured == [(2, 16, 16)]

    def test_a_nan_measured_defect_is_refused(self, monkeypatch):
        # a measured check that hands back NaN defects without raising is
        # caught by the product bound, which refuses anything not <= tol
        monkeypatch.setattr(tensor, "require_unitary", lambda u: np.full(len(u), np.nan))
        streams = [RandomStream(26, t) for t in range(3)]
        with pytest.raises(UnitarityError, match="not finite"):
            evolution_unitary(chain_graph(6, 2), streams)
        graph = InteractionGraph(ParticleSystem((2, 2, 2, 2)), (layer_of((1, 2), (3, 4)),))
        with pytest.raises(UnitarityError, match="not finite"):
            evolution_factors(graph, streams)

    def test_identity_singletons_certify_zero(self):
        graph = InteractionGraph(ParticleSystem((2, 3)), (
            layer_of((1,), (2,), singletons="identity"),
            layer_of((1,), (2,), color="d", singletons="identity")))
        blocks = tensor._folded_blocks(graph, [RandomStream(25, t) for t in range(4)], 4096)
        assert np.array_equal(blocks.certificates[0], [np.nan, 0, 0, 0], equal_nan=True)
        assert np.array_equal(evolution_unitary(graph, blocks), np.broadcast_to(
            np.eye(6), (4, 6, 6)))
