"""Seeded, splittable sampling of Haar and auxiliary random unitaries.

Every draw is a pure function of a RandomStream, so ensembles can be
generated in any order (or concurrently) with bit-identical results.

A stream's generator is PCG64 seeded by
``SeedSequence(master_seed, spawn_key=path)``. A batch is seeded from key
arrays, not stream objects (``_generators``): the keys (path words, then any
substream indices) of streams that share a master seed and a key width are
built by broadcasting into one (B, W) uint32 array, and numpy's SeedSequence
hash mixes them into numpy's own ``SeedSequence(master_seed).pool`` in one
vectorized pass (``_stream_states``); a lone key is seeded by numpy itself.
A spot check (``_seeded_like_numpy``) compares each pass's first generator
with numpy's; on a mismatch the pass is seeded key by key through numpy, so
the draws do not change, and a RuntimeWarning is issued (once, under the
default warning filters). Every sampler takes one stream, a sequence of
streams, or a sequence of generators seeded that way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .graph import _integer

DEFAULT_SEED = 0x5EED

_U64 = 1 << 64

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hashmix/mix with these constants, generate_state's output hash
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_FALLBACK_WARNING = ("vectorized SeedSequence seeding disagrees with numpy's; "
                     "seeding stream by stream instead")


class DimensionZero(ValueError):
    """A sampler's matrix dimension is not an integer >= 1."""


class UnitarityError(ArithmeticError):
    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(f"unitarity defect {defect:.3e} exceeds tolerance {tol:.3e}"
                         if np.isfinite(defect) else f"unitarity defect {defect} is not finite")


@dataclass(frozen=True)
class RandomStream:
    """A (master_seed, stream path) pair naming one independent random stream.

    The path's first entry is the stream index (one per Monte Carlo draw);
    substream() extends the path so composite constructions can hand each
    component its own stream without any shared state.
    """

    master_seed: int
    path: tuple[int, ...] = (0,)

    def __post_init__(self):
        path = self.path if isinstance(self.path, tuple) else (self.path,)
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed", 0, _U64))
        object.__setattr__(self, "path", tuple(_integer(p, "stream index", 0, _U64) for p in path))

    def substream(self, *indices: int) -> "RandomStream":
        return RandomStream(self.master_seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count: the hash constant at each
    step of a SeedSequence hash."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _M32)
    return np.array(values, dtype=np.uint32)


# the constants of generate_state's hash, which runs eight steps
_OUTPUT_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _hashmix(value, xor, mul):
    """One step of SeedSequence's hash: xor with the hash constant, multiply
    by its next value, elementwise on uint32 arrays."""
    value = (value ^ xor) * mul & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of the hashed word y into pool word x."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return value ^ value >> 16


def _spawn_words(path: tuple[int, ...]) -> list[int]:
    """numpy's uint32 coercion of a spawn key: each entry's little-endian
    32-bit words, one word for an entry below 2**32 and two above."""
    words = []
    for entry in path:
        words.append(entry & _M32)
        if entry > _M32:
            words.append(entry >> 32)
    return words


def _stream_states(master_seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key).generate_state(4, np.uint64)``
    for every row of ``keys``, a (B, W) uint32 array of spawn-key words, as
    one (B, 4) uint64 array.

    Each spawn-key word is hashed once per pool word and mixed into that
    word. The hash constant advances one step per hash whatever the values
    are, so all rows of one word count share the constants.
    """
    rows, width = keys.shape
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + width) + 1)
    a = a[_POOL_SIZE**2:]  # the run entropy took the first steps
    hashed = _hashmix(keys[:, :, None], a[:-1].reshape(width, _POOL_SIZE),
                      a[1:].reshape(width, _POOL_SIZE))
    # the run entropy's zero padding before a spawn key hashes as its absent words
    pool = np.repeat(np.random.SeedSequence(master_seed).pool[None], rows, axis=0)
    for word in range(width):
        pool = _mix(pool, hashed[:, word])
    # generate_state cycles through the pool: eight 32-bit words, little
    # end first in each 64-bit word
    out = _hashmix(np.tile(pool, 2), _OUTPUT_HASH[:-1], _OUTPUT_HASH[1:])
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 the state words computed for it;
    PCG64 asks for generate_state(4, np.uint64)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seeded_like_numpy(generator: np.random.Generator, stream: RandomStream) -> bool:
    """The spot check of vectorized seeding: whether ``generator`` starts in
    the state of ``stream.generator()``."""
    return generator.bit_generator.state == stream.generator().bit_generator.state


def _keyed_generators(master_seed: int, keys: np.ndarray) -> list[np.random.Generator]:
    """The generator of each row of ``keys``, a (B, W) uint32 array of
    spawn-key words under ``master_seed``: one ``_stream_states`` pass whose
    first generator is spot-checked; a pass that fails the check is seeded
    key by key by numpy instead, with a RuntimeWarning, as is a single key.
    numpy hashes a path's words, so the words name the stream as the path does."""
    if len(keys) > 1:
        generators = [np.random.Generator(np.random.PCG64(_StateWords(words)))
                      for words in _stream_states(master_seed, keys)]
        if _seeded_like_numpy(generators[0], RandomStream(master_seed, tuple(keys[0].tolist()))):
            return generators
        warnings.warn(_FALLBACK_WARNING, RuntimeWarning)
    return [RandomStream(master_seed, tuple(key)).generator() for key in keys.tolist()]


def _generators(streams: Sequence[RandomStream], suffixes=None) -> np.ndarray:
    """The (B,) object array of [s.generator() for s in streams]; given
    ``suffixes``, a (K, S) array of indices below 2**32, the (B, K) array of
    s.substream(*suffixes[k]).generator(), without making those streams.
    Streams that share a master seed and a spawn-key word count form a group,
    whose keys (path words, then a suffix) are built by broadcasting and
    seeded in one ``_keyed_generators`` call. Generators are returned as
    they are."""
    if isinstance(streams[0], np.random.Generator):
        return streams
    tails = np.zeros((1, 0)) if suffixes is None else np.asarray(suffixes)
    paths = [_spawn_words(s.path) for s in streams]
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (s, words) in enumerate(zip(streams, paths)):
        groups.setdefault((s.master_seed, len(words)), []).append(j)
    out = np.empty((len(streams), len(tails)), dtype=object)
    for (master_seed, width), members in groups.items():
        keys = np.empty((len(members), len(tails), width + tails.shape[1]), dtype=np.uint32)
        keys[:, :, :width] = np.array([paths[j] for j in members], dtype=np.uint32)[:, None]
        keys[:, :, width:] = tails
        group = _keyed_generators(master_seed, keys.reshape(-1, keys.shape[-1]))
        out[members] = np.array(group, dtype=object).reshape(len(members), len(tails))
    return out[:, 0] if suffixes is None else out


def unitarity_tolerance(dim: int) -> float:
    # 1e-12 is comfortable for doubles up to N=1024; scale beyond that.
    return 1e-12 if dim <= 1024 else 1e-14 * dim


def unitarity_defects(u: np.ndarray) -> np.ndarray:
    """Max-norm of U†U - I for each matrix of a stack (a 0-d array for one),
    as the square root of the largest squared modulus. U†U - I is formed in
    U†U's own array, and the squared moduli in its real and imaginary
    slots; a NaN or inf entry gives a NaN or inf defect."""
    dim = u.shape[-1]
    with np.errstate(invalid="ignore"):  # inf * 0 inside the matmul
        gram = np.swapaxes(u.conj(), -1, -2) @ u
        gram.reshape(gram.shape[:-2] + (-1,))[..., ::dim + 1] -= 1.0
        parts = gram.view(float)
        np.square(parts, out=parts)
        return np.sqrt((parts[..., ::2] + parts[..., 1::2]).max(axis=(-2, -1)))


def require_unitary(u: np.ndarray) -> np.ndarray:
    """The defects of ``u``, a matrix or a stack of them (``unitarity_defects``),
    if every one is unitary to unitarity_tolerance of its order; else raise
    UnitarityError. A NaN or inf entry makes the defect NaN, which fails the
    comparison."""
    tol = unitarity_tolerance(u.shape[-1])
    defects = unitarity_defects(u)
    defect = float(defects.max())
    if not defect <= tol:
        raise UnitarityError(defect, tol)
    return defects


def as_streams(stream: RandomStream | Sequence[RandomStream]
               ) -> tuple[bool, Sequence[RandomStream]]:
    """(whether ``stream`` is a single stream, the streams as a sequence);
    an empty sequence raises ValueError."""
    if isinstance(stream, RandomStream):
        return True, [stream]
    if len(stream) == 0:
        raise ValueError("at least one stream is needed")
    return False, stream


def haar_unitary(dim: int, stream: RandomStream | Sequence[RandomStream]) -> np.ndarray:
    """Draw a Haar-distributed unitary via a complex Ginibre matrix and a
    phase-corrected QR factorization (Q * diag(r_jj / |r_jj|)).

    Given a sequence of streams, or of their generators, return the (len,
    dim, dim) stack whose j-th matrix is the one drawn from streams[j] alone;
    the stack is factorized and checked in single calls, and its streams are
    seeded in vectorized groups (``_generators``). An empty sequence raises
    ValueError.
    """
    dim = _integer(dim, "matrix dimension", 1, error=DimensionZero)
    single, streams = as_streams(stream)
    # per stream, the real parts then the imaginary parts, in one draw
    x = np.empty((len(streams), 2, dim, dim))
    for j, generator in enumerate(_generators(streams)):
        generator.standard_normal(out=x[j])
    z = x[:, 0] + 1j * x[:, 1]
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    require_unitary(q)
    return q[0] if single else q


def _phases(dim: int, generators) -> np.ndarray:
    """(B, dim) phase factors exp(i theta), theta uniform on [0, 2pi), a row per generator."""
    return np.exp(1j * np.array([g.uniform(0.0, 2.0 * np.pi, dim) for g in generators]))


def random_phases_diagonal(dim: int, stream: RandomStream | Sequence[RandomStream]
                           ) -> np.ndarray:
    """Diagonal unitary with independent phases uniform on [0, 2pi): the
    Poissonian reference ensemble; a stack for a sequence, as haar_unitary."""
    dim = _integer(dim, "matrix dimension", 1, error=DimensionZero)
    single, streams = as_streams(stream)
    u = np.zeros((len(streams), dim, dim), dtype=complex)
    u[:, np.arange(dim), np.arange(dim)] = _phases(dim, _generators(streams))
    return u[0] if single else u


def sample_composed(dim: int, stream: RandomStream | Sequence[RandomStream]) -> np.ndarray:
    """Two independent Poissonian diagonals mixed through a Haar rotation:
    P1 @ X @ P2 @ X†. Substreams 0, 1, 2 feed P1, P2, X respectively, seeded
    from one key array; P1 and P2 scale X's rows and columns, so a sequence
    of streams gives a stack formed by one product and checked in one call."""
    dim = _integer(dim, "matrix dimension", 1, error=DimensionZero)
    single, streams = as_streams(stream)
    generators = _generators(streams, [(0,), (1,), (2,)])
    p1, p2 = (_phases(dim, generators[:, k]) for k in (0, 1))
    x = haar_unitary(dim, generators[:, 2])
    u = (p1[:, :, None] * x * p2[:, None, :]) @ np.swapaxes(x.conj(), -1, -2)
    require_unitary(u)
    return u[0] if single else u
