"""Eigenphases, level spacings, reference spacing laws, and distances.

Unitary matrices are normal, so the Cayley transform of a rotated unitary
W = e^{i alpha} U, H = i (I + W)^{-1} (I - W), is Hermitian with the same
eigenvectors and eigenvalues tan((theta + alpha)/2); eigendecompose solves
H with a Hermitian eigensolver and falls back to the complex Schur form,
which is diagonal for a normal matrix. Phases live in [0, 2pi) and spacings
are scaled by N/(2pi) so the mean spacing is one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special
import scipy.stats

TWO_PI = 2.0 * np.pi

#: spacing variance of the Wigner surmise, 3*pi/8 - 1
WIGNER_VARIANCE = 3.0 * np.pi / 8.0 - 1.0
#: spacing variance of the Poissonian (exponential) law
POISSON_VARIANCE = 1.0
#: largest accepted eigenpair residual ||U v - e^{i theta} v||, per unit of N
RESIDUAL_TOL = 1e-9


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
    """Sorted eigenphases in [0, 2pi) with matching eigenvector columns."""

    phases: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.phases)


def eigendecompose(u: np.ndarray) -> SpectralData:
    """Full eigensystem of a unitary matrix via its Cayley transform.

    The first attempt takes alpha = 0. It is retried once if I + W is
    singular, if some |tan((theta + alpha)/2)| exceeds 4N (an eigenvalue
    close to the pole -e^{-i alpha}), or if a check below fails; the retry
    puts the pole in the middle of the widest gap between the phases just
    found (alpha = 1 after a singular solve). If the retry fails too, the
    complex Schur form is used. alpha depends only on U, so the result is
    deterministic.

    Inside an exactly degenerate eigenspace (identity-singleton layers,
    tensor products with an identity factor, diagonal sources) any
    orthonormal basis is an eigenbasis, and which one is returned depends
    on the solver: basis-dependent statistics of such sources, such as the
    eigenvector entropy, differ between solvers by more than rounding.

    Raises ConvergenceFailure if every solver fails, or if the residual
    ||U v_j - e^{i theta_j} v_j|| exceeds RESIDUAL_TOL * N for any column
    or a column's norm differs from one by more than 1e-12.
    """
    dim = u.shape[0]
    alpha = 0.0
    for _ in range(2):
        found = _cayley_eigensystem(u, alpha)
        if found is None:
            alpha = 1.0
            continue
        tangents, phases, vectors = found
        if np.abs(tangents).max() <= 4 * dim:
            try:
                return _checked(u, phases, vectors)
            except ConvergenceFailure:
                pass
        alpha = _widest_gap_alpha(phases)
    try:
        t, z = scipy.linalg.schur(u, output="complex")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _checked(u, np.angle(np.diagonal(t)), z)


def _cayley_eigensystem(u: np.ndarray, alpha: float):
    """(tangents, phases, vectors) from the eigensystem of the Hermitian part
    of H = i (I + W)^{-1} (I - W), W = e^{i alpha} U, whose eigenvalues are
    tangents = tan((theta + alpha)/2); None if a LAPACK call fails, as it
    does when I + W is singular."""
    dim = u.shape[0]
    plus = np.exp(1j * alpha) * u
    minus = -plus
    plus.flat[:: dim + 1] += 1.0
    minus.flat[:: dim + 1] += 1.0
    try:
        h = np.linalg.solve(plus, minus)
        del plus, minus  # two fewer N x N arrays alive beside eigh's workspace
        h *= 1j
        h += h.conj().T
        h *= 0.5
        tangents, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        return None
    return tangents, 2.0 * np.arctan(tangents) - alpha, vectors


def _widest_gap_alpha(phases: np.ndarray) -> float:
    """The alpha whose Cayley pole -e^{-i alpha} sits in the middle of the
    widest circular gap between ``phases``."""
    ordered = np.sort(np.mod(phases, TWO_PI))
    gaps = np.diff(ordered, append=ordered[0] + TWO_PI)
    widest = int(np.argmax(gaps))
    return float(np.pi - (ordered[widest] + 0.5 * gaps[widest]))


def _checked(u: np.ndarray, phases: np.ndarray, vectors: np.ndarray) -> SpectralData:
    """Phases mapped to [0, 2pi) and sorted, with their columns, once every
    eigenpair passes the residual and norm checks."""
    dim = u.shape[0]
    phases = np.mod(phases, TWO_PI)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = vectors[:, order]

    residual = np.linalg.norm(u @ vectors - vectors * np.exp(1j * phases)[None, :], axis=0)
    if residual.max() > RESIDUAL_TOL * dim:
        raise ConvergenceFailure(
            f"eigenpair residual {residual.max():.3e} exceeds {RESIDUAL_TOL * dim:.3e}")
    norm_defect = np.abs(np.linalg.norm(vectors, axis=0) - 1.0).max()
    if norm_defect > 1e-12:
        raise ConvergenceFailure(f"eigenvector norm defect {norm_defect:.3e}")
    return SpectralData(phases, vectors)


def spacings(phases: np.ndarray, include_wrap: bool = True) -> np.ndarray:
    """Nearest-neighbour spacings of sorted phases, scaled by N/(2pi).

    With include_wrap (default) the circular gap from the last phase back to
    the first is appended, giving N spacings with mean exactly 1. Without it
    only the N-1 interior gaps are returned (strict-paper mode).
    """
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    if n < 2:
        raise FewerThanTwoPhases(f"need at least two phases, got {n}")
    gaps = np.diff(phases)
    if include_wrap:
        gaps = np.append(gaps, phases[0] + TWO_PI - phases[-1])
    return gaps * (n / TWO_PI)


def _check_nonnegative(s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise NegativeArgument("spacing arguments must be >= 0")
    return arr


def wigner_pdf(s):
    """Wigner surmise for CUE spacings: (32/pi^2) s^2 exp(-4 s^2 / pi)."""
    arr = _check_nonnegative(s)
    out = (32.0 / np.pi**2) * arr**2 * np.exp(-4.0 * arr**2 / np.pi)
    return out if out.ndim else float(out)


def reference_cdf(which: str, s):
    """Cumulative spacing distribution, 'wigner' or 'poisson', in closed form.

    Poisson: 1 - exp(-s). Wigner: erf(2s/sqrt(pi)) - (4s/pi) exp(-4s^2/pi),
    the integral of wigner_pdf clipped at 1, exact to rounding (absolute error
    far below 1e-10). Accepts a scalar or an array.
    """
    arr = _check_nonnegative(s)
    if which == "poisson":
        out = 1.0 - np.exp(-arr)
    elif which == "wigner":
        out = np.minimum(scipy.special.erf(2.0 * arr / np.sqrt(np.pi))
                         - (4.0 * arr / np.pi) * np.exp(-4.0 * arr**2 / np.pi), 1.0)
    else:
        raise ValueError(f"unknown reference law {which!r}")
    return out if out.ndim else float(out)


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Sup-norm distance between the sample's empirical CDF and ``cdf``."""
    sample = np.sort(np.asarray(sample, dtype=float))
    n = len(sample)
    if n == 0:
        raise EmptySample("cannot compute a KS distance of an empty sample")
    ref = np.asarray(cdf(sample), dtype=float)
    steps = np.arange(n + 1) / n
    return float(max((steps[1:] - ref).max(), (ref - steps[:-1]).max()))


def phase_uniformity(phases: np.ndarray, bins: int = 32) -> tuple[float, float]:
    """Chi-square test of pooled eigenphases against the uniform density on
    [0, 2pi). Returns (statistic, p_value)."""
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    if n < 10 * bins:
        raise InsufficientData(f"need at least {10 * bins} phases for {bins} bins, got {n}")
    counts, _ = np.histogram(phases, bins=bins, range=(0.0, TWO_PI))
    expected = n / bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(scipy.stats.chi2.sf(statistic, bins - 1))
    return statistic, p_value


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
