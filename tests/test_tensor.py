from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph.graph import Clique, InteractionGraph, Layer, ParticleSystem, ring_graph
from unigraph.rand import RandomStream, haar_unitary, unitarity_defect
from unigraph.spectral import eigendecompose
from unigraph.tensor import (BlockDimMismatch, DimensionCapExceeded, apply_block,
                             evolution_unitary, layer_unitary)


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
    ])
    def test_matches_brute_force(self, dims, clique):
        block = haar_unitary(prod(dims[p - 1] for p in clique),
                             RandomStream(1, hash(dims) % 1000))
        assert np.array_equal(lifted(block, clique, dims),
                              lift_oracle(block, clique, dims))

    def test_preserves_unitarity(self):
        b = haar_unitary(6, RandomStream(2, 0))
        assert unitarity_defect(lifted(b, (1, 3), (2, 2, 3))) <= 1e-12

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


class TestLayerUnitary:
    def test_identity_singletons(self):
        layer = layer_of((1,), (2,), singletons="identity")
        assert np.array_equal(layer_unitary(layer, (2, 3), RandomStream(0, 0), np.eye(6)),
                              np.eye(6))

    def test_single_clique_is_one_haar_block(self):
        stream = RandomStream(4, 0)
        layer = layer_of((1, 2))
        got = layer_unitary(layer, (3, 3), stream, np.eye(9))
        assert np.array_equal(got, haar_unitary(9, stream.substream(0)))

    def test_equals_product_of_lifts_either_order(self):
        stream = RandomStream(5, 0)
        layer = layer_of((2, 3), (1, 4))
        got = layer_unitary(layer, (2, 2, 2, 2), stream, np.eye(16))
        # canonical clique order sorts (1,4) before (2,3)
        b0 = haar_unitary(4, stream.substream(0))
        b1 = haar_unitary(4, stream.substream(1))
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
        assert unitarity_defect(u) <= 1e-12

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
