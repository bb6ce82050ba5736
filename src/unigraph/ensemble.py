"""Monte Carlo campaigns over structured and reference unitary ensembles.

Draw t of a campaign always uses RandomStream(master_seed, t), and reports
are merged in draw order, so a campaign is bit-reproducible regardless of
worker count (timing fields aside).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import prod

import numpy as np

from . import entropy as ent
from . import spectral
from .graph import InteractionGraph, graph_hash
from .rand import RandomStream, haar_unitary, random_phases_diagonal, sample_composed
from .spectral import DEFAULT_SPACING_EDGES, Histogram, SpectralData
from .tensor import DEFAULT_DIM_CAP, DimensionCapExceeded, evolution_unitary

REFERENCE_KINDS = ("cue", "composed", "diagonal")

GRAPH_ONLY_ANALYSES = ("entanglement", "projection", "state_sample")
ANALYSIS_KINDS = ("spacing", "phase_density", "evec_entropy", "entanglement",
                  "element_entropy", "projection", "trace_moments", "state_sample")

PHASE_BINS = 32


class IncompatibleAnalysis(ValueError):
    pass


@dataclass(frozen=True)
class ReferenceEnsemble:
    """A structureless source: 'cue', 'composed', or 'diagonal' of one dim."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in REFERENCE_KINDS:
            raise ValueError(f"unknown reference ensemble {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"reference dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class Analysis:
    """One requested statistic; ``arg`` carries its parameters
    (bipartition particles, projected particle, or max trace power)."""

    kind: str
    arg: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ANALYSIS_KINDS:
            raise ValueError(f"unknown analysis {self.kind!r}")
        object.__setattr__(self, "arg", tuple(self.arg))

    @classmethod
    def parse(cls, text: str) -> "Analysis":
        kind, _, rest = text.partition(":")
        arg = tuple(int(v) for v in rest.split(",") if v) if rest else ()
        return cls(kind.strip(), arg)


@dataclass(frozen=True)
class EnsembleSpec:
    source: InteractionGraph | ReferenceEnsemble
    draws: int
    master_seed: int
    analyses: tuple[Analysis, ...]
    dim_cap: int = DEFAULT_DIM_CAP
    include_wrap: bool = True
    weighted_projection: bool = True

    def __post_init__(self):
        object.__setattr__(self, "analyses", tuple(self.analyses))
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")
        kinds = [a.kind for a in self.analyses]
        if len(set(kinds)) != len(kinds):
            raise ValueError("each analysis kind may be requested once")
        if not self.analyses:
            raise ValueError("at least one analysis is required")
        for analysis in self.analyses:
            self._check_analysis(analysis)

    def _check_analysis(self, analysis: Analysis) -> None:
        graph = self.source if isinstance(self.source, InteractionGraph) else None
        if analysis.kind in GRAPH_ONLY_ANALYSES and graph is None:
            raise IncompatibleAnalysis(
                f"{analysis.kind} needs a graph source (reference ensembles "
                "carry no particle structure)")
        if analysis.kind in ("spacing", "phase_density") and self.dim < 2:
            raise IncompatibleAnalysis(f"{analysis.kind} needs dimension >= 2")
        if analysis.kind == "entanglement":
            self._check_bipartition(analysis.arg, graph)
        if analysis.kind == "projection":
            if graph.num_particles < 3:
                raise IncompatibleAnalysis(
                    "projection needs at least three particles")
            if len(analysis.arg) != 1 or not 1 <= analysis.arg[0] <= graph.num_particles:
                raise IncompatibleAnalysis(
                    f"projection takes one valid particle index, got {analysis.arg}")
        if analysis.kind == "trace_moments":
            if len(analysis.arg) != 1 or analysis.arg[0] < 1:
                raise IncompatibleAnalysis(
                    f"trace_moments takes a max power >= 1, got {analysis.arg}")
        if analysis.kind == "state_sample":
            if graph.num_particles < 2:
                raise IncompatibleAnalysis(
                    "state_sample needs at least two particles")
            if analysis.arg:
                self._check_bipartition(analysis.arg, graph)

    @staticmethod
    def _check_bipartition(arg: tuple[int, ...], graph: InteractionGraph) -> None:
        k = graph.num_particles
        if not arg or len(set(arg)) >= k or any(p < 1 or p > k for p in arg):
            raise IncompatibleAnalysis(
                f"bipartition {arg} must be a non-trivial subset of 1..{k}")

    @property
    def dim(self) -> int:
        if isinstance(self.source, InteractionGraph):
            return self.source.total_dim
        return self.source.dim

    def source_description(self) -> dict:
        if isinstance(self.source, InteractionGraph):
            return {"kind": "graph", "dims": list(self.source.dims),
                    "num_layers": len(self.source.layers),
                    "hash": graph_hash(self.source)}
        return {"kind": self.source.kind, "dim": self.source.dim}


@dataclass
class EnsembleReport:
    source: dict
    draws: int
    master_seed: int
    analyses: dict
    wall_seconds: float

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "source": self.source,
            "draws": self.draws,
            "master_seed": self.master_seed,
            "analyses": {},
        }
        if include_timing:
            doc["wall_seconds"] = self.wall_seconds
        for name, result in self.analyses.items():
            entry = {}
            for key, value in result.items():
                if isinstance(value, Histogram):
                    entry[key] = value.to_csv()
                elif isinstance(value, np.ndarray):
                    entry[key] = value.tolist()
                else:
                    entry[key] = value
            doc["analyses"][name] = entry
        return doc


# ---------------------------------------------------------------------------
# Matrix sources and standalone operations
# ---------------------------------------------------------------------------

def _draw_matrix(spec: EnsembleSpec, stream: RandomStream) -> np.ndarray:
    if isinstance(spec.source, InteractionGraph):
        return evolution_unitary(spec.source, stream, dim_cap=spec.dim_cap)
    if spec.source.dim > spec.dim_cap:
        raise DimensionCapExceeded(spec.source.dim, spec.dim_cap)
    if spec.source.kind == "cue":
        return haar_unitary(spec.source.dim, stream)
    if spec.source.kind == "composed":
        return sample_composed(spec.source.dim, stream)
    return random_phases_diagonal(spec.source.dim, stream)


def random_graph_state(graph: InteractionGraph, stream: RandomStream,
                       dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Act with one sampled evolution on the first product basis state;
    returns the first column of the evolution unitary (unit norm)."""
    return evolution_unitary(graph, stream, dim_cap=dim_cap)[:, 0].copy()


def _moments_from_eigvals(eigvals: np.ndarray, max_power: int) -> np.ndarray:
    """Tr(U^m) for m = 1..max_power from the eigenvalues of U."""
    powers = np.arange(1, max_power + 1)
    return (eigvals[None, :] ** powers[:, None]).sum(axis=1)


@dataclass
class BenchmarkResult:
    dim: int
    draws: int
    structured_seconds: float
    cue_seconds: float

    @property
    def ratio(self) -> float:
        return self.structured_seconds / self.cue_seconds


def benchmark_generation(graph: InteractionGraph, draws: int,
                         master_seed: int = 0,
                         dim_cap: int = DEFAULT_DIM_CAP) -> BenchmarkResult:
    """Wall-clock comparison of generating (not diagonalizing) ``draws``
    structured matrices versus direct CUE matrices of the same dimension.
    A graph over ``dim_cap`` raises DimensionCapExceeded on the first draw."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    dim = graph.total_dim
    start = time.perf_counter()
    for t in range(draws):
        evolution_unitary(graph, RandomStream(master_seed, t), dim_cap=dim_cap)
    structured = time.perf_counter() - start

    start = time.perf_counter()
    for t in range(draws):
        haar_unitary(dim, RandomStream(master_seed, t))
    cue = time.perf_counter() - start
    return BenchmarkResult(dim, draws, structured, cue)


# ---------------------------------------------------------------------------
# Reduced-state statistics
# ---------------------------------------------------------------------------

def _keep_set(spec: EnsembleSpec, analysis: Analysis) -> list[int]:
    """The sorted, deduplicated 1-based particles an ``entanglement`` or
    ``state_sample`` analysis keeps; ``state_sample`` defaults to the first
    half of the particles."""
    return sorted(set(analysis.arg or range(1, len(spec.source.dims) // 2 + 1)))


def _projection_stats(vectors: np.ndarray, dims, particle: int,
                      weighted: bool) -> tuple[float, float, int]:
    """Project out one particle from every eigenvector, then average the
    entropy/purity of the first remaining particle's reduced state over all
    basis outcomes (weight-weighted by default). Null slices are skipped."""
    b0 = particle - 1
    nvec = vectors.shape[1]
    local = dims[b0]
    rest_dims = [d for p, d in enumerate(dims) if p != b0]
    psi = vectors.T.reshape((nvec,) + tuple(dims))
    psi = np.moveaxis(psi, b0 + 1, 1)
    slices = psi.reshape(nvec * local, -1)
    weights = (np.abs(slices) ** 2).sum(axis=1)
    valid = weights > 1e-14
    skipped = int((~valid).sum())
    normed = slices[valid] / np.sqrt(weights[valid])[:, None]

    entropies, purities = ent.reduced_entropies(normed, rest_dims, [0])
    if weighted:
        w = weights[valid]
        mean_ent = float((w * entropies).sum() / w.sum())
        mean_pur = float((w * purities).sum() / w.sum())
    else:
        mean_ent = float(entropies.mean())
        mean_pur = float(purities.mean())
    return mean_ent, mean_pur, skipped


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

_SPECTRUM_ANALYSES = {"spacing", "phase_density", "evec_entropy",
                      "entanglement", "projection", "trace_moments"}


def _run_draw(spec: EnsembleSpec, t: int) -> dict:
    stream = RandomStream(spec.master_seed, t)
    u = _draw_matrix(spec, stream)
    dims = spec.source.dims if isinstance(spec.source, InteractionGraph) else None

    data: SpectralData | None = None
    if any(a.kind in _SPECTRUM_ANALYSES for a in spec.analyses):
        data = spectral.eigendecompose(u)

    record: dict = {}
    for analysis in spec.analyses:
        kind = analysis.kind
        if kind == "spacing":
            record[kind] = spectral.spacings(data.phases, include_wrap=spec.include_wrap)
        elif kind == "phase_density":
            record[kind] = data.phases
        elif kind == "evec_entropy":
            record[kind] = ent.eigenvector_entropy(data)
        elif kind == "element_entropy":
            record[kind] = ent.element_entropy(u)
        elif kind in ("entanglement", "state_sample"):
            # every eigenvector, or the sampled state U|0>
            stack = data.vectors.T if kind == "entanglement" else u[:, :1].T
            keep0 = [p - 1 for p in _keep_set(spec, analysis)]
            entropies, purities = ent.reduced_entropies(stack, dims, keep0)
            record[kind] = (float(entropies.mean()), float(purities.mean()))
        elif kind == "projection":
            record[kind] = _projection_stats(data.vectors, dims, analysis.arg[0],
                                             spec.weighted_projection)
        elif kind == "trace_moments":
            record[kind] = _moments_from_eigvals(np.exp(1j * data.phases),
                                                 analysis.arg[0])
    return record


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def _scalar_summary(values: list) -> dict:
    """Summary of one number per draw."""
    mean, se = _mean_se(values)
    return {"draws": len(values), "mean": mean, "se": se,
            "variance": float(np.var(values, ddof=1)) if len(values) > 1 else 0.0}


def _pair_summary(values: list) -> dict:
    """Summary of an (entropy, purity, ...) record per draw."""
    ent_mean, ent_se = _mean_se([v[0] for v in values])
    pur_mean, pur_se = _mean_se([v[1] for v in values])
    return {"draws": len(values), "mean_entropy": ent_mean, "entropy_se": ent_se,
            "mean_purity": pur_mean, "purity_se": pur_se}


def _page_references(dim_a: int, dim_b: int) -> dict:
    """Page mean entropy and mean purity of random pure states on
    C^dim_a (x) C^dim_b."""
    return {"page_reference": ent.page_mean_entropy(min(dim_a, dim_b),
                                                    max(dim_a, dim_b)),
            "purity_reference": ent.mean_purity(dim_a, dim_b)}


def _element_entropy_edges(dim: int) -> np.ndarray:
    center = np.log(dim)
    return np.linspace(max(0.0, center - 2.5), center + 0.5, 121)


def _aggregate(spec: EnsembleSpec, records: list[dict]) -> dict:
    results: dict = {}
    for analysis in spec.analyses:
        kind = analysis.kind
        values = [r[kind] for r in records]
        if kind == "spacing":
            pooled = np.concatenate(values)
            hist = Histogram.from_samples(pooled, DEFAULT_SPACING_EDGES)
            _, mean_se = _mean_se([v.mean() for v in values])
            results[kind] = {
                "count": int(pooled.size),
                "mean": float(pooled.mean()),
                "mean_se": mean_se,
                "variance": float(pooled.var(ddof=1)) if pooled.size > 1 else 0.0,
                "ks_wigner": spectral.ks_statistic(
                    pooled, lambda s: spectral.reference_cdf("wigner", s)),
                "ks_poisson": spectral.ks_statistic(
                    pooled, lambda s: spectral.reference_cdf("poisson", s)),
                "histogram": hist,
            }
        elif kind == "phase_density":
            pooled = np.concatenate(values)
            if len(pooled) >= 10 * PHASE_BINS:
                statistic, p_value = spectral.phase_uniformity(pooled, bins=PHASE_BINS)
            else:
                # too little data for the chi-square contract; keep the histogram
                statistic = p_value = None
            hist = Histogram.from_samples(
                pooled, np.linspace(0.0, spectral.TWO_PI, PHASE_BINS + 1))
            results[kind] = {
                "count": int(pooled.size),
                "bins": PHASE_BINS,
                "chi_square": statistic,
                "p_value": p_value,
                "histogram": hist,
            }
        elif kind == "evec_entropy":
            results[kind] = {
                **_scalar_summary(values),
                "reference_mean": ent.mean_random_vector_entropy(spec.dim),
            }
        elif kind == "element_entropy":
            results[kind] = {
                **_scalar_summary(values),
                "histogram": Histogram.from_samples(
                    np.asarray(values), _element_entropy_edges(spec.dim)),
            }
        elif kind == "entanglement":
            keep = _keep_set(spec, analysis)
            dim_a = prod(spec.source.dims[p - 1] for p in keep)
            dim_b = spec.dim // dim_a
            results[kind] = {
                "keep": keep,
                "dim_a": dim_a,
                "dim_b": dim_b,
                **_pair_summary(values),
                **_page_references(dim_a, dim_b),
            }
        elif kind == "projection":
            particle = analysis.arg[0]
            rest = [d for p, d in enumerate(spec.source.dims, start=1) if p != particle]
            dim_a, dim_c = rest[0], prod(rest[1:])
            results[kind] = {
                "particle": particle,
                "dim_a": dim_a,
                "dim_c": dim_c,
                **_pair_summary(values),
                **_page_references(dim_a, dim_c),
                "skipped_slices": sum(v[2] for v in values),
                "weighted": spec.weighted_projection,
            }
        elif kind == "trace_moments":
            stacked = np.vstack(values)
            means = stacked.mean(axis=0)
            if len(values) > 1:
                se_re = stacked.real.std(axis=0, ddof=1) / np.sqrt(len(values))
                se_im = stacked.imag.std(axis=0, ddof=1) / np.sqrt(len(values))
            else:
                se_re = np.zeros(stacked.shape[1])
                se_im = np.zeros(stacked.shape[1])
            results[kind] = {
                "draws": len(values),
                "max_power": analysis.arg[0],
                "mean_real": means.real,
                "mean_imag": means.imag,
                "se_real": se_re,
                "se_imag": se_im,
            }
        elif kind == "state_sample":
            keep = _keep_set(spec, analysis)
            dim_a = prod(spec.source.dims[p - 1] for p in keep)
            results[kind] = {
                "keep": keep,
                **_pair_summary(values),
                "histogram": Histogram.from_samples(
                    np.asarray([v[0] for v in values]),
                    np.linspace(0.0, np.log(dim_a) + 0.1, 61)),
            }
    return results


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleReport:
    """Run the campaign: draw, analyze, and merge in draw order.

    A failed draw aborts the whole campaign so seed-indexed reproducibility
    stays exact. ``workers`` > 1 runs draws concurrently (the numerical
    results are identical to a serial run).
    """
    start = time.perf_counter()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda t: _run_draw(spec, t), range(spec.draws)))
    else:
        records = [_run_draw(spec, t) for t in range(spec.draws)]
    analyses = _aggregate(spec, records)
    wall = time.perf_counter() - start
    return EnsembleReport(spec.source_description(), spec.draws,
                          spec.master_seed, analyses, wall)
