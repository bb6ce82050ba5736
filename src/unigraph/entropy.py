"""Entropy functionals, partial traces, reduced states, and ensemble means.

All entropies are in nats; the harmonic-sum mean psi(N+1) - psi(2) of a
random complex vector only holds with the natural logarithm, which fixes
the log base everywhere. Conversion to bits is a display concern.
"""

from __future__ import annotations

from math import log, prod
from typing import Sequence

import numpy as np

from .graph import _integer

LN2 = log(2.0)

#: eigenvalues of a reduced state may dip this far below zero before we
#: treat the state as invalid rather than as rounding noise
EIGENVALUE_FLOOR = -1e-10


class EmptyKeepSet(ValueError):
    pass


class FullKeepSet(ValueError):
    pass


class NormViolation(ValueError):
    pass


class OrderViolation(ValueError):
    pass


class InvalidReducedState(ValueError):
    pass


def _plogp(p: np.ndarray) -> np.ndarray:
    # 0 * log 0 := 0, without indexing by a mask
    return p * np.log(np.where(p > 0, p, 1.0))


def _entry_entropy(m: np.ndarray) -> np.ndarray:
    """-(1/N) sum_ij w_ij ln w_ij, w_ij = |m_ij|^2 clipped to [0, 1] (rounding
    puts a unit-modulus entry at 1 + 2e-16), of each N x N matrix of a stack,
    its weights summed in the matrix's C memory order; a float for one matrix."""
    weights = np.clip(np.abs(m) ** 2, 0.0, 1.0).reshape(m.shape[:-2] + (-1,))
    return _per_matrix(-_plogp(weights).sum(axis=-1) / m.shape[-1])


def eigenvector_entropy(spec) -> float | np.ndarray:
    """Average Shannon entropy of the eigenvector components,
    -(1/N) sum_{i,j} |chi_ji|^2 ln |chi_ji|^2, weights clipped as in
    element_entropy and summed in the column-major order eigendecompose
    stores them in. For a stack's SpectralData, the (B,) array of each
    matrix's entropy."""
    return _entry_entropy(np.swapaxes(spec.vectors, -1, -2))


def element_entropy(u: np.ndarray) -> float | np.ndarray:
    """Same functional applied to the matrix entries themselves; additive
    over tensor products and so sensitive to graph structure. For a
    (B, N, N) stack, the (B,) array of each matrix's entropy."""
    return _entry_entropy(np.asarray(u))


def mean_random_vector_entropy(dim: int) -> float:
    """Expected component entropy of a Haar-random unit vector:
    psi(N+1) - psi(2) = sum_{j=2}^{N} 1/j."""
    dim = _integer(dim, "dimension", 1)
    return float(np.sum(1.0 / np.arange(2, dim + 1)))


def page_mean_entropy(dim_a: int, dim_b: int) -> float:
    """Page-type mean entanglement entropy of random bipartite pure states,
    ln N_A - (N_A - 1) / (2 N_B), valid for N_B >= N_A."""
    dim_a, dim_b = (_integer(d, "subsystem dimension", 1) for d in (dim_a, dim_b))
    if dim_a > dim_b:
        raise OrderViolation(
            f"requires N_B >= N_A; swap the arguments ({dim_a} > {dim_b})")
    return log(dim_a) - (dim_a - 1) / (2.0 * dim_b)


def mean_purity(dim_a: int, dim_b: int) -> float:
    """Mean purity of the reduced state of random bipartite pure states:
    (N_A + N_B) / (N_A N_B + 1)."""
    dim_a, dim_b = (_integer(d, "subsystem dimension", 1) for d in (dim_a, dim_b))
    return (dim_a + dim_b) / (dim_a * dim_b + 1.0)


def partial_trace(state: np.ndarray, dims: Sequence[int], keep) -> np.ndarray:
    """Reduced density matrix of a pure state over the kept particles.

    ``keep`` holds 1-based particle indices (a non-empty proper subset);
    rows/columns follow the multi-index order of the kept particles.
    """
    dims = tuple(dims)
    state = np.asarray(state).ravel()
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise EmptyKeepSet("keep set must name at least one particle")
    if len(keep) >= len(dims):
        raise FullKeepSet("keep set must be a proper subset of the particles")
    if any(p < 1 or p > len(dims) for p in keep):
        raise IndexError(f"keep set {keep} outside 1..{len(dims)}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise NormViolation(f"state norm {norm} is not 1")

    sigma = reduced_states(state[None, :], dims, [p - 1 for p in keep])[0]
    return (sigma + sigma.conj().T) / 2.0


def reduced_states(states: np.ndarray, dims: Sequence[int], keep0) -> np.ndarray:
    """Reduced density matrices of a stack of pure states (states[j] is one
    state) over the sorted 0-based particles ``keep0``; rows/columns follow
    the multi-index order of the kept particles. No input checks."""
    rest0 = [p for p in range(len(dims)) if p not in keep0]
    dim_a = prod(dims[p] for p in keep0)
    psi = states.reshape((states.shape[0],) + tuple(dims))
    psi = np.transpose(psi, (0,) + tuple(p + 1 for p in keep0)
                       + tuple(p + 1 for p in rest0))
    m = psi.reshape(states.shape[0], dim_a, -1)
    return m @ np.conj(np.transpose(m, (0, 2, 1)))


def reduced_entropies(states: np.ndarray, dims: Sequence[int],
                      keep0) -> tuple[np.ndarray, np.ndarray]:
    """von_neumann_entropy and purity of the reduced states of a stack of
    pure states (states[j] is one state) over the sorted 0-based particles
    ``keep0``, two (B,) arrays. Every reduced state is checked, so a stack
    holding a state of norm other than one raises InvalidReducedState."""
    sigmas = reduced_states(states, dims, keep0)
    return von_neumann_entropy(sigmas), purity(sigmas)


def _validated_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Eigenvalues of one density matrix or of a stack of them, clipped to
    [0, 1] (rounding puts a pure state's at 1 + 2e-16), once each is Hermitian
    with unit trace and no eigenvalue below EIGENVALUE_FLOOR. The checks are
    written to fail on NaN, so a non-finite state is refused too."""
    sigma = np.asarray(sigma)
    if not np.abs(sigma - np.conj(np.swapaxes(sigma, -1, -2))).max() <= 1e-12:
        raise InvalidReducedState("matrix is not Hermitian")
    trace_defect = np.abs(np.trace(sigma, axis1=-2, axis2=-1).real - 1.0).max()
    if not trace_defect <= 1e-10:
        raise InvalidReducedState(f"trace differs from 1 by {trace_defect:.3e}")
    eigs = np.linalg.eigvalsh(sigma)
    if not eigs.min() >= EIGENVALUE_FLOOR:
        raise InvalidReducedState(f"eigenvalue {eigs.min()} below floor")
    return np.clip(eigs, 0.0, 1.0)


def _per_matrix(values: np.ndarray) -> float | np.ndarray:
    """A stack's (B,) array of per-matrix values as it is; one matrix's as a float."""
    return values if values.ndim else float(values)


def von_neumann_entropy(sigma: np.ndarray) -> float | np.ndarray:
    """-Tr sigma ln sigma via the eigenvalues, clipped to [0, 1], of one density
    matrix (a float) or of each of a (B, d, d) stack (a (B,) array); a matrix
    that fails _validated_eigenvalues' checks raises InvalidReducedState."""
    return _per_matrix(-_plogp(_validated_eigenvalues(sigma)).sum(axis=-1))


def purity(sigma: np.ndarray) -> float | np.ndarray:
    """Tr sigma^2 as the squared Frobenius norm, summed in C order, of one
    matrix (a float) or of each of a (B, d, d) stack (a (B,) array)."""
    moduli = np.abs(sigma)
    return _per_matrix((moduli.reshape(moduli.shape[:-2] + (-1,)) ** 2).sum(axis=-1))


def nats_to_bits(value: float) -> float:
    return value / LN2
