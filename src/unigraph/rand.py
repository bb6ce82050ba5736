"""Seeded, splittable sampling of Haar and auxiliary random unitaries.

Every draw is a pure function of a RandomStream, so ensembles can be
generated in any order (or concurrently) with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0x5EED

_U64 = 1 << 64


class DimensionZero(ValueError):
    def __init__(self, dim: int):
        super().__init__(f"matrix dimension must be >= 1, got {dim}")


class UnitarityError(ArithmeticError):
    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(f"unitarity defect {defect:.3e} exceeds tolerance {tol:.3e}")


def _check_index(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < _U64:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")
    return value


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
        _check_index(self.master_seed, "master_seed")
        path = self.path if isinstance(self.path, tuple) else (self.path,)
        for entry in path:
            _check_index(entry, "stream index")
        object.__setattr__(self, "path", path)

    def substream(self, *indices: int) -> "RandomStream":
        return RandomStream(self.master_seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def unitarity_tolerance(dim: int) -> float:
    # 1e-12 is comfortable for doubles up to N=1024; scale beyond that.
    return 1e-12 if dim <= 1024 else 1e-14 * dim


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U†U - I."""
    dim = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(dim)).max())


def require_unitary(u: np.ndarray) -> np.ndarray:
    tol = unitarity_tolerance(u.shape[0])
    defect = unitarity_defect(u)
    if defect > tol:
        raise UnitarityError(defect, tol)
    return u


def haar_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """Draw a Haar-distributed unitary via a complex Ginibre matrix and a
    phase-corrected QR factorization (Q * diag(r_jj / |r_jj|))."""
    if dim < 1:
        raise DimensionZero(dim)
    rng = stream.generator()
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return require_unitary(q)


def random_phases_diagonal(dim: int, stream: RandomStream) -> np.ndarray:
    """Diagonal unitary with independent phases uniform on [0, 2pi):
    the Poissonian reference ensemble."""
    if dim < 1:
        raise DimensionZero(dim)
    rng = stream.generator()
    phases = rng.uniform(0.0, 2.0 * np.pi, dim)
    return np.diag(np.exp(1j * phases))


def sample_composed(dim: int, stream: RandomStream) -> np.ndarray:
    """Two independent Poissonian diagonals mixed through a Haar rotation:
    P1 @ X @ P2 @ X†. Substreams 0, 1, 2 feed P1, P2, X respectively."""
    if dim < 1:
        raise DimensionZero(dim)
    p1 = random_phases_diagonal(dim, stream.substream(0))
    p2 = random_phases_diagonal(dim, stream.substream(1))
    x = haar_unitary(dim, stream.substream(2))
    return require_unitary(p1 @ x @ p2 @ x.conj().T)
