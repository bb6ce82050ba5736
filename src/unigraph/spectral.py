"""Eigenphases, level spacings, reference spacing laws, and distances.

Unitary matrices are normal, so the Cayley transform of a rotated unitary
W = e^{i alpha} U, H = i (I + W)^{-1} (I - W), is Hermitian with the same
eigenvectors and eigenvalues tan((theta + alpha)/2). One checked solver
(_solve) serves a stack of unitaries: at most three Cayley attempts per
matrix, each retry only for the matrices the attempt before refused; a
matrix refused three times raises ConvergenceFailure. Phases live in
[0, 2pi) and spacings are scaled by N/(2pi) so the mean spacing is one.

eigendecompose solves one matrix or a stack with eigh and checks each
eigenpair's residual. eigenphases is the phases-only path for a stack:
eigvalsh, checked by the trace identities sum_j e^{i m theta_j} = Tr U^m
(m = 1, 2) in place of the eigenpair residual. Campaigns reading only
phases (spacing, phase_density, trace_moments) take this path; their
phases differ from eigendecompose's by rounding within _solve's pole budget.
product_eigenphases solves a disconnected graph's draws from their
tensor.evolution_factors stacks' phases, with the same trace identities
checked on the Kronecker product.

The module needs only numpy and the standard library: the Wigner CDF takes
erf from math.erf, and the phase_uniformity p-value is the chi-square
survival function in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import _integer

TWO_PI = 2.0 * np.pi

#: largest accepted eigenpair residual ||U v - e^{i theta} v||, per unit of N
RESIDUAL_TOL = 1e-9
#: largest accepted trace-identity defect |sum_j e^{i m theta_j} - Tr U^m|,
#: m = 1, 2, per unit of N: below any single-phase error RESIDUAL_TOL admits
TRACE_TOL = 1e-10


class ConvergenceFailure(ArithmeticError):
    pass


class FewerThanTwoPhases(ValueError):
    pass


class NegativeArgument(ValueError):
    pass


class EmptySample(ValueError):
    pass


class InsufficientData(ValueError):
    pass


@dataclass
class SpectralData:
    """Sorted eigenphases in [0, 2pi), (N,) or (B, N) for a stack, with
    matching eigenvector columns (None where only the phases were computed)."""

    phases: np.ndarray
    vectors: np.ndarray | None


def eigendecompose(u: np.ndarray) -> SpectralData:
    """Full eigensystem of a unitary matrix, or of each matrix of a (B, N, N)
    stack with the bits of its solve alone: one _solve call.

    Inside an exactly degenerate eigenspace (identity-singleton layers,
    tensor products with an identity factor, diagonal sources) any
    orthonormal basis is an eigenbasis, and which one is returned depends
    on the solver: basis-dependent statistics of such sources, such as the
    eigenvector entropy, differ between solvers by more than rounding.
    Raises ConvergenceFailure, naming the matrix, if one is refused on every
    Cayley attempt (a defective, non-unitary matrix is).
    """
    phases, vectors = _solve(u if u.ndim == 3 else u[None], with_vectors=True)
    return SpectralData(phases, vectors) if u.ndim == 3 else SpectralData(phases[0], vectors[0])


def eigenphases(us: np.ndarray) -> np.ndarray:
    """Sorted eigenphases in [0, 2pi) of each unitary of a (B, N, N) stack,
    as a (B, N) array: _solve without eigenvectors. LAPACK runs matrix by
    matrix inside a stacked call, so each row equals eigenphases(u[None])[0]
    bit for bit whatever else is in the stack."""
    return _solve(np.asarray(us), with_vectors=False)[0]


def _solve(us: np.ndarray, with_vectors: bool):
    """Sorted phases in [0, 2pi), (B, N), of each unitary of a (B, N, N)
    stack, and with_vectors their eigenvector columns, (B, N, N), else None.

    The first attempt solves the whole stack's Cayley transforms at
    alpha = 0. A matrix is refused if its I + W is singular, if some
    |tan((theta + alpha)/2)| exceeds the pole budget max(4N, 1000) (an
    eigenvalue so close to the pole -e^{-i alpha} that the phases could be off
    by more than ~4e-13), or if it fails its check: with vectors (eigh), the
    eigenpair residual and norm checks; without (eigvalsh), the trace
    identities |sum_j e^{i m theta_j} - Tr U^m| <= TRACE_TOL * N for m = 1, 2.
    Only the refused matrices are solved again, each with its pole in the
    middle of the widest gap between its refused phases, or at alpha = 1
    after a singular solve; a third attempt covers a singular first solve
    whose blind alpha = 1 lands on another eigenvalue. A gap-placed pole is
    at least pi/N, less the refused phases' error, from every eigenvalue, so
    |tan| <= cot(pi/2N) < 2N/pi is within the budget. A matrix refused three
    times raises ConvergenceFailure. alpha depends only on U, so the result
    is deterministic.
    """
    dim = us.shape[-1]
    traces = None if with_vectors else _traces(us)
    alphas = np.zeros(len(us))
    todo = np.arange(len(us))
    stack = us  # a whole stack is solved without a copy
    for attempt in range(3):
        tangents, found_vectors = _cayley_eigen(stack, alphas[todo], with_vectors)
        # rebinding found_vectors frees the unsorted columns before a retry
        found, found_vectors = _sorted(2.0 * np.arctan(tangents) - alphas[todo, None],
                                       found_vectors)
        # the pole budget: a phase's error is at most about 2 eps max|tan|, so
        # up to max(4N, 1000) the accepted phases are within ~4e-13 of exact
        accepted = np.abs(tangents).max(axis=-1) <= max(4 * dim, 1000)  # False if singular
        passed = slice(None) if accepted.all() else accepted  # views when all pass
        accepted[passed] = (
            _eigenpairs_pass(stack[passed], found[passed], found_vectors[passed])
            if with_vectors else _traces_match(traces[todo[passed]], found[passed]))
        if attempt == 0:
            phases, vectors = found, found_vectors
        else:
            phases[todo] = found
            if with_vectors:
                vectors[todo] = found_vectors
        refused = found[~accepted]
        todo = todo[~accepted]
        if not todo.size:
            return phases, vectors
        # the middle of each widest circular gap; NaN, so alpha = 1, if singular
        gaps = np.diff(refused, append=refused[:, :1] + TWO_PI)
        middle = np.take_along_axis(refused + 0.5 * gaps, gaps.argmax(axis=-1)[:, None], -1)
        alphas[todo] = np.where(np.isnan(middle[:, 0]), 1.0, np.pi - middle[:, 0])
        stack = us if len(todo) == len(us) else us[todo]
    raise ConvergenceFailure(f"stack rows {todo.tolist()} are refused on all three "
                             "Cayley attempts")


def _cayley_hermitian(us: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The Hermitian part of H = i (I + W)^{-1} (I - W), W = e^{i alpha} U,
    for each matrix of a (B, N, N) stack; its eigenvalues are
    tan((theta + alpha)/2). Raises LinAlgError if some I + W is singular."""
    plus = np.exp(1j * alphas)[:, None, None] * us
    minus = -plus
    diagonal = np.arange(us.shape[-1])
    plus[:, diagonal, diagonal] += 1.0
    minus[:, diagonal, diagonal] += 1.0
    h = np.linalg.solve(plus, minus)
    del plus, minus  # two fewer N x N arrays alive beside h's temporaries
    h *= 1j
    h += np.swapaxes(h.conj(), -1, -2)
    h *= 0.5
    return h


def _cayley_eigen(us: np.ndarray, alphas: np.ndarray, with_vectors: bool):
    """(tangents, vectors): the eigh of _cayley_hermitian, or its eigvalsh
    and None without vectors; tangents = tan((theta + alpha)/2), ascending.
    A row is NaN where a LAPACK call fails, as it does when I + W is
    singular; a stacked call that fails is redone matrix by matrix, so one
    singular matrix costs only its own row."""
    try:
        h = _cayley_hermitian(us, alphas)
        return np.linalg.eigh(h) if with_vectors else (np.linalg.eigvalsh(h), None)
    except np.linalg.LinAlgError:
        if len(us) == 1:
            return (np.full(us.shape[:-1], np.nan),
                    np.full(us.shape, np.nan, dtype=complex) if with_vectors else None)
        tangents, vectors = zip(*[_cayley_eigen(us[k:k + 1], alphas[k:k + 1], with_vectors)
                                  for k in range(len(us))])
        return np.concatenate(tangents), np.concatenate(vectors) if with_vectors else None


def _sorted(phases: np.ndarray, vectors: np.ndarray | None):
    """Each row of ``phases`` mapped to [0, 2pi) and sorted, with its
    matrix's eigenvector columns in the same order (None stays None), each
    matrix column-major as one matrix's vectors[:, order] is."""
    phases = np.mod(phases, TWO_PI)
    order = np.argsort(phases, axis=-1, kind="stable")
    rows = np.arange(len(phases))[:, None]
    if vectors is not None:
        vectors = np.swapaxes(vectors[rows, :, order], -1, -2)
    return phases[rows, order], vectors


def _eigenpairs_pass(us: np.ndarray, phases: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: is every eigenpair residual
    ||U v_j - e^{i theta_j} v_j|| within RESIDUAL_TOL * N, and every column
    norm within 1e-12 of one?"""
    residual = np.linalg.norm(us @ vectors - vectors * np.exp(1j * phases)[:, None, :], axis=-2)
    norm_defect = np.abs(np.linalg.norm(vectors, axis=-2) - 1.0)
    return ((residual.max(axis=-1) <= RESIDUAL_TOL * us.shape[-1])
            & (norm_defect.max(axis=-1) <= 1e-12))


def _traces(us: np.ndarray) -> np.ndarray:
    """(Tr U, Tr U^2) of each matrix of a stack, as a (B, 2) array;
    Tr U^2 = sum_ij U_ij U_ji costs O(N^2)."""
    return np.stack([np.trace(us, axis1=-2, axis2=-1),
                     (us * np.swapaxes(us, -1, -2)).sum(axis=(-2, -1))], axis=-1)


def _traces_match(traces: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per row of ``phases``: do they meet both trace identities,
    sum_j e^{i theta_j} = traces[:, 0] and sum_j e^{2i theta_j} = traces[:, 1],
    within TRACE_TOL * N?"""
    z = np.exp(1j * phases)
    sums = np.stack([z.sum(axis=-1), (z * z).sum(axis=-1)], axis=-1)
    return np.abs(sums - traces).max(axis=-1) <= TRACE_TOL * phases.shape[-1]


def product_eigenphases(factors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenphases in [0, 2pi) of the Kronecker products
    factors[0][j] (x) factors[1][j] (x) ..., as a (B, N) array, with a (B,)
    mask of the rows that pass their check. The products are never formed.

    Each (B, n_c, n_c) factor stack gets one eigenphases call, and a
    product's phases are the sums of one phase per factor, mod 2pi. The trace
    of a Kronecker product is the product of its factors' traces, for U and
    for U^2, so a row passes if |sum_j e^{i m theta_j} - prod_c Tr U_c^m| <=
    TRACE_TOL * N for m = 1, 2: eigenphases' own check, on the product.
    """
    phases = np.zeros((len(factors[0]), 1))
    traces = np.ones((len(factors[0]), 2), dtype=complex)
    for us in factors:
        phases = (phases[:, :, None] + eigenphases(us)[:, None, :]).reshape(len(us), -1)
        traces *= _traces(us)
    phases = np.sort(np.mod(phases, TWO_PI))
    return phases, _traces_match(traces, phases)


def spacings(phases: np.ndarray) -> np.ndarray:
    """Nearest-neighbour spacings of sorted phases, scaled by N/(2pi); for a
    (B, N) stack, those of each row: the N-1 interior gaps, then the circular
    gap from the last phase back to the first, N spacings with mean exactly 1."""
    phases = np.asarray(phases, dtype=float)
    n = phases.shape[-1]
    if n < 2:
        raise FewerThanTwoPhases(f"need at least two phases, got {n}")
    wrap = phases[..., :1] + TWO_PI - phases[..., -1:]
    return np.concatenate([np.diff(phases), wrap], axis=-1) * (n / TWO_PI)


def _check_nonnegative(s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise NegativeArgument("spacing arguments must be >= 0")
    return arr


#: math.erf on each value of an array (an object array back; a float for 0-d)
_erf = np.frompyfunc(math.erf, 1, 1)


def reference_cdf(which: str, s):
    """Cumulative spacing distribution, 'wigner' or 'poisson', in closed form.

    Poisson: 1 - exp(-s). Wigner: erf(2s/sqrt(pi)) - (4s/pi) exp(-4s^2/pi),
    the integral of the Wigner surmise for CUE spacings, (32/pi^2) s^2
    exp(-4s^2/pi), clipped at 1, exact to rounding (absolute error
    far below 1e-10). erf is the standard library's math.erf, applied value
    by value. It differs from scipy.special.erf by at most 2 ulp (math.erf
    is the closer to the exact value), and the law by at most 2.2e-16, so a
    KS distance against it can move by an ulp. Accepts a scalar or an array.
    """
    arr = _check_nonnegative(s)
    if which == "poisson":
        out = 1.0 - np.exp(-arr)
    elif which == "wigner":
        erf = np.asarray(_erf(2.0 * arr / np.sqrt(np.pi)), dtype=float)
        out = np.minimum(erf - (4.0 * arr / np.pi) * np.exp(-4.0 * arr**2 / np.pi), 1.0)
    else:
        raise ValueError(f"unknown reference law {which!r}")
    return out if out.ndim else float(out)


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Sup-norm distance between the sample's empirical CDF and ``cdf``."""
    sample = np.sort(np.asarray(sample, dtype=float))
    if len(sample) == 0:
        raise EmptySample("cannot compute a KS distance of an empty sample")
    return _ks_distance(np.asarray(cdf(sample), dtype=float))


def _ks_distance(ref: np.ndarray) -> float:
    """The KS distance of a sorted sample whose reference CDF values are ``ref``:
    the largest gap between ``ref`` and the empirical CDF's steps."""
    steps = np.arange(len(ref) + 1) / len(ref)
    return float(max((steps[1:] - ref).max(), (ref - steps[:-1]).max()))


def _chi2_sf(k: int, x: float) -> float:
    """P(chi^2_k > x), integer k >= 1: the sums of Abramowitz & Stegun 26.4.4-5
    in h = x/2, each term in log space so none underflows early; clipped at 1."""
    h = x / 2.0
    if h == 0.0:
        return 1.0
    term = lambda a: math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
    # even k: e^{-h} sum_{j<k/2} h^j/j!; odd k: erfc(sqrt h) + e^{-h}
    # sum_{j=1}^{(k-1)/2} h^{j-1/2}/Gamma(j+1/2)
    terms = ([term(j) for j in range(k // 2)] if k % 2 == 0 else
             [math.erfc(math.sqrt(h)), *(term(j - 0.5) for j in range(1, (k + 1) // 2))])
    return min(math.fsum(terms), 1.0)


def phase_uniformity(phases: np.ndarray, bins: int = 32) -> tuple[float, float]:
    """Chi-square test of pooled eigenphases against the uniform density on
    [0, 2pi). Returns (statistic, p_value)."""
    bins = _integer(bins, "bins")
    if bins < 2:
        raise ValueError(f"a chi-square test needs at least 2 bins, got {bins}")
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    if n < 10 * bins:
        raise InsufficientData(f"need at least {10 * bins} phases for {bins} bins, got {n}")
    counts, _ = np.histogram(phases, bins=bins, range=(0.0, TWO_PI))
    expected = n / bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    # closed form: scipy.special's chdtrc would cost 0.15 s and 17 MB cold
    return statistic, _chi2_sf(bins - 1, statistic)


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

DEFAULT_SPACING_EDGES = np.linspace(0.0, 4.0, 51)


@dataclass
class Histogram:
    """Fixed-edge histogram with an out-of-range overflow tally.

    density integrates to (in-range count)/(total count), so it is directly
    comparable to a reference pdf when overflow is negligible.
    """

    edges: np.ndarray
    counts: np.ndarray
    overflow: int

    @classmethod
    def from_samples(cls, values: np.ndarray, edges: np.ndarray) -> "Histogram":
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        in_range = (values >= edges[0]) & (values <= edges[-1])
        counts, _ = np.histogram(values[in_range], bins=edges)
        return cls(edges, counts, int((~in_range).sum()))

    @property
    def density(self) -> np.ndarray:
        total = int(self.counts.sum()) + self.overflow
        if total == 0:
            return np.zeros_like(self.counts, dtype=float)
        widths = np.diff(self.edges)
        return self.counts / (total * widths)

    def to_csv(self) -> str:
        """CSV per the histogram schema: bin rows then a final overflow row."""
        lines = ["bin_left,bin_right,count,density"]
        density = self.density
        for left, right, count, dens in zip(self.edges[:-1], self.edges[1:],
                                            self.counts, density):
            lines.append(f"{left:.12g},{right:.12g},{count},{dens:.12g}")
        lines.append(f"overflow,,{self.overflow},")
        return "\n".join(lines) + "\n"
