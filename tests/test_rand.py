import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unigraph import rand
from unigraph.graph import chain_graph
from unigraph.rand import (DimensionZero, RandomStream, UnitarityError,
                           haar_unitary, random_phases_diagonal, require_unitary,
                           sample_composed, unitarity_defects)
from unigraph.tensor import evolution_unitary

# path entries of one 32-bit word and of two, so one batch mixes word counts
PATH = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                min_size=1, max_size=4).map(tuple)
SEED = st.integers(0, 2**64 - 1)


class TestRandomStream:
    def test_same_stream_bit_identical(self):
        a = haar_unitary(8, RandomStream(123, 5))
        b = haar_unitary(8, RandomStream(123, 5))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = haar_unitary(8, RandomStream(123, 5))
        b = haar_unitary(8, RandomStream(123, 6))
        assert not np.allclose(a, b)

    def test_substream_is_deterministic_and_distinct(self):
        s = RandomStream(9, 2)
        assert np.array_equal(s.substream(0, 1).generator().random(4),
                              s.substream(0, 1).generator().random(4))
        assert not np.array_equal(s.substream(0).generator().random(4),
                                  s.substream(1).generator().random(4))

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(0, -3)

    @pytest.mark.parametrize("seed,path,error", [
        (3, (1, -1), ValueError), (3, (1, 1 << 64), ValueError),
        (3, (1, True), ValueError), (3, (1, 2.0), ValueError),
        (True, 0, ValueError), (1 << 64, 0, ValueError)])
    def test_construction_checks_the_seed_and_every_path_entry(self, seed, path, error):
        with pytest.raises(error):
            RandomStream(seed, path)

    @pytest.mark.parametrize("index,error", [
        (-1, ValueError), (True, ValueError), (1 << 64, ValueError), (1.0, ValueError)])
    def test_substream_rejects_bad_indices(self, index, error):
        stream = RandomStream(3, 4)
        with pytest.raises(error):
            stream.substream(index)
        with pytest.raises(error):
            stream.substream(0, index)

    def test_substream_is_the_constructed_stream(self):
        child = RandomStream(9, 2).substream(0, (1 << 64) - 1).substream(5)
        made = RandomStream(9, (2, 0, (1 << 64) - 1, 5))
        assert child == made and hash(child) == hash(made)
        assert type(child.path) is tuple and child.path == made.path
        assert np.array_equal(child.generator().random(8), made.generator().random(8))


def counted_seeding(monkeypatch):
    """Record the key-array shape of every vectorized pass and count the
    spot checks; RandomStream.substream refuses to run."""
    seen = {"passes": [], "checks": 0}
    states, check = rand._stream_states, rand._seeded_like_numpy

    def counted_states(seed, keys):
        seen["passes"].append(keys.shape)
        return states(seed, keys)

    def counted_check(generator, stream):
        seen["checks"] += 1
        return check(generator, stream)

    def refuse(self, *indices):
        raise AssertionError("substream called")
    monkeypatch.setattr(rand, "_stream_states", counted_states)
    monkeypatch.setattr(rand, "_seeded_like_numpy", counted_check)
    monkeypatch.setattr(RandomStream, "substream", refuse)
    return seen


class TestVectorizedSeeding:
    """haar_unitary seeds a batch of streams in one vectorized pass of
    SeedSequence's hash; RandomStream.generator() is the oracle."""

    @given(SEED, st.lists(PATH, min_size=1, max_size=8), SEED)
    @example(2**64 - 1, [(2**64 - 1,), (0, 1), (2**32,), (5,)], 0)
    @example(0, [(0,)], 1)
    @settings(max_examples=150, deadline=None)
    def test_each_generator_is_the_streams_own(self, seed, paths, other_seed):
        # one master seed for the batch, so paths of one word count make a
        # group; two streams of a second seed join the batch
        streams = [RandomStream(seed, path) for path in paths]
        streams += [RandomStream(other_seed, path) for path in paths[:2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fallback
            generators = rand._generators(streams)
        for generator, stream in zip(generators, streams):
            assert np.array_equal(generator.standard_normal(8),
                                  stream.generator().standard_normal(8))

    @given(SEED, st.integers(1, 8).flatmap(lambda width: st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
        min_size=1, max_size=6)))
    # the master seeds at the ends of one and two 32-bit words
    @example(0, [[0]])
    @example(2**32 - 1, [[1, 2], [2**32 - 1, 0]])
    @example(2**32, [[5]])
    @example(2**64 - 1, [[2**32 - 1, 0, 7]])
    @settings(max_examples=150, deadline=None)
    def test_states_are_numpys_generate_state(self, seed, keys):
        states = rand._stream_states(seed, np.array(keys, dtype=np.uint32))
        assert states.shape == (len(keys), 4)
        for key, state in zip(keys, states):
            expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert np.array_equal(state, expected)

    def test_evolution_across_the_two_word_boundary_is_per_stream(self, monkeypatch):
        # draw indices straddle 2**32: a block's key (t, i, c) takes three
        # words below it and four from it on, one pass and one spot check
        # per key width; chain3 has 4 blocks per draw
        graph = chain_graph(3, 2)
        streams = [RandomStream(11, t) for t in range(2**32 - 2, 2**32 + 2)]
        seen = counted_seeding(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stack = evolution_unitary(graph, streams)
        assert sorted(seen["passes"]) == [(8, 3), (8, 4)] and seen["checks"] == 2
        monkeypatch.undo()
        for j, stream in enumerate(streams):
            assert np.array_equal(stack[j], evolution_unitary(graph, stream))


    @given(st.lists(st.tuples(SEED, PATH), min_size=1, max_size=5),
           st.integers(1, 2).flatmap(lambda width: st.lists(
               st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
               min_size=1, max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_substream_generators_are_the_substreams_own(self, named, suffixes):
        streams = [RandomStream(seed, path) for seed, path in named]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fallback
            generators = rand._generators(streams, suffixes)
        assert generators.shape == (len(streams), len(suffixes))
        for j, stream in enumerate(streams):
            for k, suffix in enumerate(suffixes):
                assert np.array_equal(generators[j, k].random(4),
                                      stream.substream(*suffix).generator().random(4))


class TestStackKeySeeding:
    """evolution_unitary seeds all blocks of a stack from one key array per
    master seed and key width: one vectorized pass and one spot check each,
    and no substream object per block."""

    def test_one_pass_and_one_spot_check_per_stack(self, monkeypatch):
        # chain6: 25 blocks per draw, keys (t, i, c) of three words
        graph = chain_graph(6, 2)
        streams = [RandomStream(7, t) for t in range(16)]
        seen = counted_seeding(monkeypatch)
        stack = evolution_unitary(graph, streams)
        assert seen == {"passes": [(400, 3)], "checks": 1}
        monkeypatch.undo()
        for j in (0, 9, 15):
            assert np.array_equal(stack[j], evolution_unitary(graph, streams[j]))

    def test_two_master_seeds_in_one_batch(self, monkeypatch):
        graph = chain_graph(3, 2)
        streams = [RandomStream(seed, t) for t in range(3) for seed in (5, 2**64 - 1)]
        seen = counted_seeding(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stack = evolution_unitary(graph, streams)
        assert seen == {"passes": [(12, 3), (12, 3)], "checks": 2}
        monkeypatch.undo()
        for j, stream in enumerate(streams):
            assert np.array_equal(stack[j], evolution_unitary(graph, stream))


def _flip_a_bit(states):
    return states ^ np.uint64(1)


def _swap_words(states):
    return states[:, ::-1].copy()


class TestSeedingSpotCheck:
    """A wrong state word from the vectorized pass must be caught by the
    spot check, which then seeds the batch stream by stream."""

    STREAMS = [RandomStream(3, (t, 1, c)) for t in range(4) for c in range(3)]

    @pytest.mark.parametrize("corrupt", [_flip_a_bit, _swap_words])
    def test_a_wrong_word_is_caught_and_the_stack_stays_numpys(self, monkeypatch, corrupt):
        expected = [haar_unitary(3, s) for s in self.STREAMS]
        states = rand._stream_states
        monkeypatch.setattr(rand, "_stream_states",
                            lambda seed, keys: corrupt(states(seed, keys)))
        with pytest.warns(RuntimeWarning, match="vectorized SeedSequence seeding"):
            stack = haar_unitary(3, self.STREAMS)
        for j in range(len(self.STREAMS)):
            assert np.array_equal(stack[j], expected[j])

    @pytest.mark.parametrize("corrupt", [_flip_a_bit, _swap_words])
    def test_without_the_spot_check_a_wrong_word_goes_through(self, monkeypatch, corrupt):
        expected = [haar_unitary(3, s) for s in self.STREAMS]
        states = rand._stream_states
        monkeypatch.setattr(rand, "_stream_states",
                            lambda seed, keys: corrupt(states(seed, keys)))
        monkeypatch.setattr(rand, "_seeded_like_numpy", lambda generator, stream: True)
        stack = haar_unitary(3, self.STREAMS)
        assert not any(np.array_equal(stack[j], expected[j])
                       for j in range(len(self.STREAMS)))


    @pytest.mark.parametrize("corrupt", [_flip_a_bit, _swap_words])
    def test_a_wrong_word_in_a_stacks_key_array_is_caught(self, monkeypatch, corrupt):
        graph = chain_graph(4, 2)
        streams = [RandomStream(3, t) for t in range(3)]
        expected = evolution_unitary(graph, streams)
        states = rand._stream_states
        monkeypatch.setattr(rand, "_stream_states",
                            lambda seed, keys: corrupt(states(seed, keys)))
        with pytest.warns(RuntimeWarning, match="vectorized SeedSequence seeding"):
            stack = evolution_unitary(graph, streams)
        assert np.array_equal(stack, expected)
        # the spot check is what catches it
        monkeypatch.setattr(rand, "_seeded_like_numpy", lambda generator, stream: True)
        assert not np.array_equal(evolution_unitary(graph, streams), expected)


class TestOneStreamSeeding:
    """A group of one stream is seeded by RandomStream.generator() itself,
    without the vectorized pass."""

    def test_a_lone_stream_skips_the_vectorized_pass(self, monkeypatch):
        stream = RandomStream(3, (2, 1, 0))
        expected = stream.generator().standard_normal(8)

        def refuse(seed, keys):
            raise AssertionError("vectorized pass on one stream")
        monkeypatch.setattr(rand, "_stream_states", refuse)
        generator, = rand._generators([stream])
        assert np.array_equal(generator.standard_normal(8), expected)
        # a lone stream in each group of a batch: two seeds, two key widths
        batch = [stream, RandomStream(4, (2, 1, 0)), RandomStream(3, (2**40,))]
        for generator, s in zip(rand._generators(batch), batch):
            assert np.array_equal(generator.random(4), s.generator().random(4))


# a NaN or inf entry must not let numpy's "invalid value" warning escape
@pytest.mark.filterwarnings("error")
class TestRequireUnitary:
    def test_accepts_unitary(self):
        require_unitary(np.eye(3, dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(UnitarityError) as info:
            require_unitary(1.5 * np.eye(3, dtype=complex))
        assert info.value.defect > info.value.tol

    @pytest.mark.parametrize("entry", [pytest.param(np.nan, id="nan"),
                                       pytest.param(np.inf, id="inf")])
    def test_rejects_non_finite(self, entry):
        # a NaN defect compares False with the tolerance either way round
        u = np.eye(3, dtype=complex)
        u[1, 2] = entry
        with pytest.raises(UnitarityError, match="^unitarity defect nan is not finite$"):
            require_unitary(u)

    @pytest.mark.parametrize("bad, perturbation", [
        pytest.param(0, 1e-9, id="0"), pytest.param(2, 1e-9, id="2"),
        pytest.param(4, 1e-9, id="4"), pytest.param(2, np.nan, id="2-nan"),
        pytest.param(4, np.inf, id="4-inf")])
    def test_one_perturbed_block_fails_the_stack(self, bad, perturbation):
        stack = haar_unitary(4, [RandomStream(3, j) for j in range(5)])
        require_unitary(stack)
        stack[bad, 1, 2] += perturbation
        with pytest.raises(UnitarityError) as info:
            require_unitary(stack)
        assert info.value.tol == 1e-12
        assert np.array_equal(unitarity_defects(stack).max(), unitarity_defects(stack[bad]),
                              equal_nan=True)


class TestHaarUnitary:
    def test_dimension_one_is_unimodular(self):
        u = haar_unitary(1, RandomStream(0, 0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionZero):
            haar_unitary(0, RandomStream(0, 0))
        with pytest.raises(DimensionZero):
            haar_unitary(0, [RandomStream(0, 0)])

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_stream_sequence_rejected(self, empty):
        with pytest.raises(ValueError, match="at least one stream"):
            haar_unitary(2, empty)

    def test_matches_the_ginibre_qr_recipe(self):
        # Q times the unit-modulus diagonal of R, on the right (columns)
        stream = RandomStream(6, 1)
        rng = stream.generator()
        z = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        expected = q @ np.diag(d / np.abs(d))
        assert np.abs(haar_unitary(5, stream) - expected).max() <= 1e-15
        assert np.abs(haar_unitary(5, [RandomStream(6, 0), stream])[1] - expected).max() \
            <= 1e-15

    def test_every_block_of_a_stack_is_checked(self, monkeypatch):
        qr = np.linalg.qr

        def qr_spoiling_the_last_block(z):
            q, r = qr(z)
            q[-1, 0, 1] += 1e-9
            return q, r
        monkeypatch.setattr(np.linalg, "qr", qr_spoiling_the_last_block)
        with pytest.raises(UnitarityError):
            haar_unitary(3, [RandomStream(2, j) for j in range(4)])
        with pytest.raises(UnitarityError):
            haar_unitary(3, RandomStream(2, 0))

    @given(st.integers(1, 9),
           st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_stack_member_is_the_single_draw(self, dim, keys):
        streams = [RandomStream(seed, (index,)) for seed, index in keys]
        stack = haar_unitary(dim, streams)
        assert stack.shape == (len(streams), dim, dim)
        for j, stream in enumerate(streams):
            assert np.array_equal(stack[j], haar_unitary(dim, stream))

    @pytest.mark.parametrize("dim", [2, 5, 32])
    def test_unitary_within_tolerance(self, dim):
        u = haar_unitary(dim, RandomStream(1, dim))
        assert unitarity_defects(u).max() <= 1e-12

    def test_closure_under_fixed_rotation(self):
        u = haar_unitary(6, RandomStream(4, 0))
        f = haar_unitary(6, RandomStream(4, 1))
        assert unitarity_defects(f @ u).max() <= 1e-12
        assert unitarity_defects(u @ f).max() <= 1e-12

    def test_entry_modulus_mean_is_one_over_n(self):
        # E|u_11|^2 = 1/N by row normalization + permutation symmetry.
        draws = 10_000
        values = np.array([abs(haar_unitary(4, RandomStream(7, t))[0, 0]) ** 2
                           for t in range(draws)])
        se = values.std(ddof=1) / np.sqrt(draws)
        assert abs(values.mean() - 0.25) < 4 * se

    def test_phase_correction_kills_entry_phase_bias(self):
        # Re(u_11) must average to zero regardless of the QR sign convention.
        draws = 10_000
        values = np.array([haar_unitary(2, RandomStream(8, t))[0, 0].real
                           for t in range(draws)])
        se = values.std(ddof=1) / np.sqrt(draws)
        assert abs(values.mean()) < 4 * se


class TestStackedReferenceSamplers:
    """A sequence of streams gives the stack of the single draws, bit for bit."""

    BATCHES = {
        "one": [RandomStream(5, 0)],
        "two": [RandomStream(5, 0), RandomStream(5, 1)],
        "seventeen": [RandomStream(5, t) for t in range(17)],
        "two master seeds": [RandomStream(seed, t) for t in range(3)
                             for seed in (5, 2**64 - 1)],
        "two-word spawn key": [RandomStream(5, t) for t in (2**32 - 1, 2**32, 2**40 + 3)],
    }

    @pytest.mark.parametrize("sampler", [random_phases_diagonal, sample_composed])
    @pytest.mark.parametrize("batch", list(BATCHES))
    @pytest.mark.parametrize("dim", [1, 5])
    def test_stack_is_the_single_draws(self, sampler, batch, dim):
        streams = self.BATCHES[batch]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fallback
            stack = sampler(dim, streams)
        expected = np.stack([sampler(dim, s) for s in streams])
        assert stack.shape == (len(streams), dim, dim)
        assert stack.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sampler", [random_phases_diagonal, sample_composed])
    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_stream_sequence_rejected(self, sampler, empty):
        with pytest.raises(ValueError, match="at least one stream"):
            sampler(2, empty)


class TestRandomPhasesDiagonal:
    def test_matches_the_uniform_phase_recipe(self):
        stream = RandomStream(6, 2**33)
        phases = stream.generator().uniform(0.0, 2.0 * np.pi, 7)
        expected = np.diag(np.exp(1j * phases))
        assert random_phases_diagonal(7, stream).tobytes() == expected.tobytes()

    def test_dimension_one(self):
        u = random_phases_diagonal(1, RandomStream(0, 0))
        assert abs(abs(u[0, 0]) - 1) < 1e-15

    def test_eigenphases_are_the_sampled_phases(self):
        u = random_phases_diagonal(16, RandomStream(3, 1))
        sampled = np.sort(np.mod(np.angle(np.diagonal(u)), 2 * np.pi))
        eigs = np.sort(np.mod(np.angle(np.linalg.eigvals(u)), 2 * np.pi))
        assert np.allclose(sampled, eigs, atol=1e-12)

    def test_spacing_variance_matches_exponential_law(self):
        # spacings of iid uniform phases are exponential: variance 1,
        # fourth central moment 9, so SE(sample var) ~ sqrt(8/N)
        dim = 1000
        u = random_phases_diagonal(dim, RandomStream(12, 0))
        phases = np.sort(np.mod(np.angle(np.diagonal(u)), 2 * np.pi))
        gaps = np.diff(phases)
        gaps = np.append(gaps, phases[0] + 2 * np.pi - phases[-1])
        spacings = gaps * dim / (2 * np.pi)
        assert abs(spacings.var(ddof=1) - 1.0) < 3 * np.sqrt(8 / dim)


class TestSampleComposed:
    def test_unit_determinant_modulus(self):
        u = sample_composed(6, RandomStream(2, 0))
        assert abs(abs(np.linalg.det(u)) - 1) < 1e-10

    def test_dimension_one_is_product_of_two_phases(self):
        s = RandomStream(5, 3)
        u = sample_composed(1, s)
        p1 = random_phases_diagonal(1, s.substream(0))[0, 0]
        p2 = random_phases_diagonal(1, s.substream(1))[0, 0]
        assert abs(u[0, 0] - p1 * p2) < 1e-12

    def test_reconstruction_from_substreams(self):
        s = RandomStream(5, 4)
        u = sample_composed(5, s)
        p1 = random_phases_diagonal(5, s.substream(0))
        p2 = random_phases_diagonal(5, s.substream(1))
        x = haar_unitary(5, s.substream(2))
        # P1 and P2 scale X's rows and columns before the one product with X†
        assert np.array_equal(u, (np.diag(p1)[:, None] * x * np.diag(p2)[None, :]) @ x.conj().T)
        # and the dense product, as an independent oracle
        assert np.allclose(u, p1 @ x @ p2 @ x.conj().T, rtol=0, atol=1e-14)
