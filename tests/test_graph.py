import hashlib
import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph.graph import (Clique, DuplicateParticle, GraphSpecError,
                            IndexOutOfRange, InteractionGraph, InvalidDimension,
                            Layer, MissingParticle, OddParticleCount,
                            ParticleSystem, SpecSyntaxError, chain_graph,
                            components, from_bond_vertex_graph, graph_hash,
                            is_connected,
                            parse_graph_spec, ring_graph, serialize_graph,
                            validate_layer)


def layer_of(*cliques, color="c", singletons="haar"):
    return Layer(color, tuple(Clique(tuple(c)) for c in cliques), singletons)


def graph_of(dims, *layer_cliques):
    return InteractionGraph(ParticleSystem(tuple(dims)),
                            tuple(layer_of(*lc) for lc in layer_cliques))


class TestParticleSystem:
    def test_total_dim_is_exact_product(self):
        assert ParticleSystem((2, 3, 4)).total_dim == 24
        big = ParticleSystem((2,) * 80)
        assert big.total_dim == 2**80  # exact, no wraparound

    def test_rejects_bad_dims(self):
        with pytest.raises(GraphSpecError):
            ParticleSystem(())
        with pytest.raises(InvalidDimension):
            ParticleSystem((2, 0))
        with pytest.raises(InvalidDimension):
            ParticleSystem((2, 2.5))


class TestClique:
    def test_normalizes_to_increasing(self):
        assert Clique((2, 1)).particles == (1, 2)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(DuplicateParticle):
            Clique((1, 1))
        with pytest.raises(GraphSpecError):
            Clique(())


class TestValidateLayer:
    def test_valid_pair_partition(self):
        validate_layer(layer_of((1, 2), (3, 4)), 4)

    def test_missing_particle(self):
        with pytest.raises(MissingParticle) as info:
            validate_layer(layer_of((1,)), 2)
        assert info.value.index == 2

    def test_duplicate_particle(self):
        with pytest.raises(DuplicateParticle) as info:
            validate_layer(layer_of((1, 2), (2, 3)), 3)
        assert info.value.index == 2

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as info:
            validate_layer(layer_of((1, 2), (3, 5)), 4)
        assert info.value.index == 5

    @given(st.integers(1, 7), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_accepts_iff_concatenation_covers_range(self, k, rnd):
        # random partition of 1..k
        particles = list(range(1, k + 1))
        rnd.shuffle(particles)
        cliques, i = [], 0
        while i < k:
            size = rnd.randint(1, k - i)
            cliques.append(tuple(particles[i:i + size]))
            i += size
        validate_layer(layer_of(*cliques), k)
        flat = sorted(p for c in cliques for p in c)
        assert flat == list(range(1, k + 1))
        # dropping any clique must raise
        if len(cliques) > 1:
            with pytest.raises(MissingParticle):
                validate_layer(layer_of(*cliques[1:]), k)


class TestIsConnected:
    def test_ring_six_is_connected(self):
        g = graph_of([2] * 6, [(1, 2), (3, 4), (5, 6)], [(2, 3), (4, 5), (6, 1)])
        assert is_connected(g)

    def test_single_vertex(self):
        assert is_connected(graph_of([3], [(1,)]))

    def test_repeated_pair_partition_is_disconnected(self):
        g = graph_of([2] * 4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])
        assert not is_connected(g)

    def test_invariant_under_layer_and_clique_order(self):
        a = graph_of([2] * 4, [(1, 2), (3, 4)], [(2, 3), (1, 4)])
        b = graph_of([2] * 4, [(1, 4), (2, 3)], [(3, 4), (1, 2)])
        assert is_connected(a) == is_connected(b)

    @given(st.integers(2, 7), st.integers(1, 3), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, k, num_layers, rnd):
        layers = []
        for _ in range(num_layers):
            particles = list(range(1, k + 1))
            rnd.shuffle(particles)
            cliques, i = [], 0
            while i < k:
                size = rnd.randint(1, k - i)
                cliques.append(tuple(particles[i:i + size]))
                i += size
            layers.append(cliques)
        g = graph_of([2] * k, *layers)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(1, k + 1))
        for layer in layers:
            for clique in layer:
                for a in clique:
                    for b in clique:
                        if a < b:
                            nxg.add_edge(a, b)
        assert is_connected(g) == nx.is_connected(nxg)
        assert components(g) == sorted(tuple(sorted(part))
                                       for part in nx.connected_components(nxg))

    def test_idle_particle_is_its_own_component(self):
        # particle 3 only ever sits in identity singletons
        idle = (Layer("a", (Clique((1, 2)), Clique((3,)), Clique((4,))), "identity"),
                Layer("b", (Clique((2,)), Clique((3,)), Clique((4, 1))), "identity"))
        g = InteractionGraph(ParticleSystem((2, 3, 2, 1)), idle)
        assert components(g) == [(1, 2, 4), (3,)]
        assert not is_connected(g)


class TestGraphHash:
    def test_hashed_once_per_graph(self, monkeypatch):
        from unigraph import graph as graph_module
        calls = []
        serialize = graph_module.serialize_graph
        monkeypatch.setattr(graph_module, "serialize_graph",
                            lambda g: calls.append(g) or serialize(g))
        g, twin = ring_graph(4, 2), ring_graph(4, 2)
        assert graph_hash(g) == graph_hash(g) == graph_hash(twin)
        assert len(calls) == 2  # once for g, once for its equal twin
        assert graph_hash(g) == hashlib.sha256(serialize(g).encode()).hexdigest()
        assert graph_hash(g) != graph_hash(ring_graph(4, 3))


class TestBuilders:
    def test_bond_vertex_four_particles(self):
        g = from_bond_vertex_graph([(1, 2), (3, 4)], [(2, 3), (1, 4)], n=2)
        assert [c.particles for c in g.layers[0].cliques] == [(1, 4), (2, 3)]
        assert [c.particles for c in g.layers[1].cliques] == [(1, 2), (3, 4)]
        assert g.dims == (2, 2, 2, 2)

    def test_bond_vertex_two_particles(self):
        g = from_bond_vertex_graph([(1, 2)], [(1,), (2,)], n=3)
        assert [c.particles for c in g.layers[0].cliques] == [(1,), (2,)]
        assert [c.particles for c in g.layers[1].cliques] == [(1, 2)]
        assert g.total_dim == 9

    def test_bond_vertex_odd_count(self):
        with pytest.raises(OddParticleCount):
            from_bond_vertex_graph([(1, 2), (3,)], [(1,), (2,), (3,)], n=2)

    def test_ring_four(self):
        g = ring_graph(4, 3)
        assert [c.particles for c in g.layers[0].cliques] == [(1, 2), (3, 4)]
        assert [c.particles for c in g.layers[1].cliques] == [(1, 4), (2, 3)]

    def test_ring_two_normalizes(self):
        g = ring_graph(2, 2)
        assert [c.particles for c in g.layers[1].cliques] == [(1, 2)]

    def test_ring_rejects_odd(self):
        with pytest.raises(OddParticleCount):
            ring_graph(5, 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_ring_needs_two_particles(self, k):
        with pytest.raises(GraphSpecError, match=f"a ring needs at least two particles, "
                                                 f"got {k}") as caught:
            ring_graph(k, 2)
        assert not isinstance(caught.value, OddParticleCount)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
    def test_ring_connected(self, k):
        assert is_connected(ring_graph(k, 2))

    def test_chain_six(self):
        g = chain_graph(6, 2)
        assert len(g.layers) == 5
        assert [c.particles for c in g.layers[0].cliques] == \
            [(1, 2), (3,), (4,), (5,), (6,)]

    def test_chain_two(self):
        g = chain_graph(2, 2)
        assert len(g.layers) == 1
        assert [c.particles for c in g.layers[0].cliques] == [(1, 2)]

    def test_chain_four_has_three_layers(self):
        assert len(chain_graph(4, 4).layers) == 3

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_chain_connected(self, k):
        assert is_connected(chain_graph(k, 2))


class TestSpecFiles:
    def test_minimal_two_qubit_spec(self):
        g = parse_graph_spec(
            '{"dims": [2,2], "layers": [{"color":"red","cliques":[[1,2]]}]}')
        assert g.total_dim == 4
        assert g.layers[0].color == "red"

    def test_out_of_range_clique(self):
        spec = '{"dims": [2,2,2,2], "layers": [{"cliques":[[1,2],[3,5],[4]]}]}'
        with pytest.raises(IndexOutOfRange) as info:
            parse_graph_spec(spec)
        assert info.value.index == 5

    def test_crossed_pairs_spec(self):
        spec = json.dumps({
            "dims": [3, 3, 3, 3],
            "layers": [{"cliques": [[1, 3], [2, 4]]},
                       {"cliques": [[1, 2], [3, 4]]}],
        })
        g = parse_graph_spec(spec)
        assert [c.particles for c in g.layers[0].cliques] == [(1, 3), (2, 4)]

    def test_uniform_shorthand(self):
        g = parse_graph_spec('{"n": 2, "k": 4, "layers": [{"cliques":[[1,2],[3,4]]}]}')
        assert g.dims == (2, 2, 2, 2)

    def test_shorthand_k_past_the_listed_particles_is_refused_unbuilt(self):
        # (2,) * 10**12 could not be allocated: the refusal comes first
        spec = '{"n": 2, "k": 1000000000000, "layers": [{"cliques": [[1]]}]}'
        with pytest.raises(GraphSpecError, match=r"exceeds the particle count of layer 1 \(1\)"):
            parse_graph_spec(spec)
        with pytest.raises(MissingParticle):
            parse_graph_spec('{"n": 2, "k": 2, "layers": [{"cliques": [[1, 2]]}, '
                             '{"cliques": [[1]]}]}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphSpecError):
            parse_graph_spec('{"dims": [2,2], "layers": [{"cliques":[[1,2]]}], "x": 1}')
        with pytest.raises(GraphSpecError):
            parse_graph_spec('{"dims": [2,2], "layers": [{"cliques":[[1,2]], "y": 0}]}')

    @pytest.mark.parametrize("cliques", ["[1, 2]", "[[1, 2], null]", '["12"]'])
    def test_clique_that_is_not_a_list_names_its_layer(self, cliques):
        spec = ('{"dims": [2, 2], "layers": [{"cliques": [[1, 2]]}, '
                f'{{"cliques": {cliques}}}]}}')
        with pytest.raises(GraphSpecError, match="layer 2: clique .* is not a list"):
            parse_graph_spec(spec)

    def test_syntax_error_carries_location(self):
        with pytest.raises(SpecSyntaxError) as info:
            parse_graph_spec('{"dims": [2,2], ')
        assert info.value.line == 1

    def test_round_trip(self):
        g = ring_graph(6, 2)
        assert parse_graph_spec(serialize_graph(g)) == g
        spec = '{"dims":[2,3],"layers":[{"color":"a","cliques":[[2],[1]]}]}'
        parsed = parse_graph_spec(spec)
        assert parse_graph_spec(serialize_graph(parsed)) == parsed

    def test_bond_vertex_output_validates(self):
        g = from_bond_vertex_graph([(5, 6), (1, 2), (3, 4)],
                                   [(2, 3), (4, 5), (6, 1)], n=2)
        # construction already validated; round-trip confirms it serializes
        assert parse_graph_spec(serialize_graph(g)) == g
