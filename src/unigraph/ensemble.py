"""Monte Carlo campaigns over structured and reference unitary ensembles.

Draw t of a campaign always uses RandomStream(master_seed, t), and reports
are merged in draw order, so a campaign is bit-reproducible regardless of
worker count (timing fields aside). A stack of consecutive draws
(STACK_AMPLITUDES bounds its size) is the unit of work from seeding to
records: it is generated together, and each analysis kind takes it in one
call that returns its B per-draw values (an eigensystem still costs one
eigendecompose call per draw). Every matrix and per-draw value of a stack
equals its per-draw computation bit for bit, so the stack size does not
change a report.

A phases-only campaign on a disconnected graph never forms its N x N
matrices: it takes each stack's tensor factors, one per connected component
(tensor.evolution_factors, which checks each factor and their product's
unitarity bound), solves each factor stack with one eigenphases call and
sums the phases (spectral.product_eigenphases). A draw whose summed phases
fail the product's trace identities is solved from its full matrix. These
reports match the full-matrix solve to ~1e-13.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from . import entropy as ent
from . import spectral
from .graph import InteractionGraph, graph_hash, is_connected
from .rand import RandomStream, haar_unitary, random_phases_diagonal, sample_composed
from .spectral import DEFAULT_SPACING_EDGES, Histogram, SpectralData
from .tensor import (DEFAULT_DIM_CAP, DimensionCapExceeded, evolution_factors,
                     evolution_unitary)

REFERENCE_KINDS = ("cue", "composed", "diagonal")

PHASE_BINS = 32

# complex amplitudes per stack of generated matrices: a stack holds
# max(1, STACK_AMPLITUDES // N**2) draws, so N >= 256 generates one at a time
STACK_AMPLITUDES = 2**16


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
        if self.kind not in ANALYSES:
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
        kind = ANALYSES[analysis.kind]
        if kind.graph and not isinstance(self.source, InteractionGraph):
            raise IncompatibleAnalysis(
                f"{analysis.kind} needs a graph source (reference ensembles "
                "carry no particle structure)")
        message = kind.check(self, analysis)
        if message:
            raise IncompatibleAnalysis(message)

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

def _draw_matrices(source: InteractionGraph | ReferenceEnsemble,
                   streams: list[RandomStream], dim_cap: int) -> np.ndarray:
    """The (len(streams), N, N) stack of ``source``'s draws from ``streams``,
    from one evolution_unitary call or one call of the reference's sampler."""
    if isinstance(source, InteractionGraph):
        return evolution_unitary(source, streams, dim_cap=dim_cap)
    if source.dim > dim_cap:
        raise DimensionCapExceeded(source.dim, dim_cap)
    sampler = {"cue": haar_unitary, "composed": sample_composed,
               "diagonal": random_phases_diagonal}[source.kind]
    return sampler(source.dim, streams)


def _stacks(dim: int, draws: int) -> list[range]:
    """Draws 0..draws-1 in stacks of max(1, STACK_AMPLITUDES // dim**2)
    consecutive draws: the unit in which matrices are generated."""
    size = max(1, STACK_AMPLITUDES // dim**2)
    return [range(first, min(first + size, draws)) for first in range(0, draws, size)]


def _moments_from_eigvals(eigvals: np.ndarray, max_power: int) -> np.ndarray:
    """Tr(U^m) for m = 1..max_power from the eigenvalues of U, or for each
    row of a (B, N) stack of them, as a (B, max_power) array."""
    powers = np.arange(1, max_power + 1)
    return (eigvals[..., None, :] ** powers[:, None]).sum(axis=-1)


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
    structured matrices versus direct CUE matrices of the same dimension, both
    through ``_draw_matrices`` over the stacks of draws campaigns use. A graph
    over ``dim_cap`` raises DimensionCapExceeded on the first stack."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    dim = graph.total_dim
    stacks = [[RandomStream(master_seed, t) for t in stack]
              for stack in _stacks(dim, draws)]
    seconds = []
    for source in (graph, ReferenceEnsemble("cue", dim)):
        start = time.perf_counter()
        for streams in stacks:
            _draw_matrices(source, streams, dim_cap)
        seconds.append(time.perf_counter() - start)
    return BenchmarkResult(dim, draws, *seconds)


# ---------------------------------------------------------------------------
# The analyses: one table row per kind
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
    w = weights[valid] if weighted else np.ones(len(entropies))
    return (float((w * entropies).sum() / w.sum()),
            float((w * purities).sum() / w.sum()), skipped)


def _no_parameter(spec: EnsembleSpec, analysis: Analysis) -> str | None:
    return f"{analysis.kind} takes no parameter, got {analysis.arg}" if analysis.arg else None


def _spectrum_check(spec: EnsembleSpec, analysis: Analysis) -> str | None:
    if spec.dim < 2:
        return f"{analysis.kind} needs dimension >= 2"
    return _no_parameter(spec, analysis)


def _bipartition_check(spec: EnsembleSpec, analysis: Analysis) -> str | None:
    arg, k = analysis.arg, spec.source.num_particles
    if not arg or len(set(arg)) >= k or any(p < 1 or p > k for p in arg):
        return f"bipartition {arg} must be a non-trivial subset of 1..{k}"
    return None


def _projection_check(spec: EnsembleSpec, analysis: Analysis) -> str | None:
    if spec.source.num_particles < 3:
        return "projection needs at least three particles"
    if len(analysis.arg) != 1 or not 1 <= analysis.arg[0] <= spec.source.num_particles:
        return f"projection takes one valid particle index, got {analysis.arg}"
    return None


def _trace_moments_check(spec: EnsembleSpec, analysis: Analysis) -> str | None:
    ok = len(analysis.arg) == 1 and analysis.arg[0] >= 1
    return None if ok else f"trace_moments takes a max power >= 1, got {analysis.arg}"


def _state_sample_check(spec: EnsembleSpec, analysis: Analysis) -> str | None:
    if spec.source.num_particles < 2:
        return "state_sample needs at least two particles"
    return _bipartition_check(spec, analysis) if analysis.arg else None


def _reduced(spec: EnsembleSpec, analysis: Analysis,
             states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and purities of the keep set's reduced states of a stack of states."""
    keep0 = [p - 1 for p in _keep_set(spec, analysis)]
    return ent.reduced_entropies(states, spec.source.dims, keep0)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), se


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


def _element_entropy_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    center = np.log(spec.dim)
    edges = np.linspace(max(0.0, center - 2.5), center + 0.5, 121)
    return {**_scalar_summary(values),
            "histogram": Histogram.from_samples(np.asarray(values), edges)}


def _spacing_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    pooled = np.concatenate(values)
    _, mean_se = _mean_se([v.mean() for v in values])
    return {"count": int(pooled.size), "mean": float(pooled.mean()), "mean_se": mean_se,
            "variance": float(pooled.var(ddof=1)) if pooled.size > 1 else 0.0,
            "ks_wigner": spectral.ks_statistic(
                pooled, lambda s: spectral.reference_cdf("wigner", s)),
            "ks_poisson": spectral.ks_statistic(
                pooled, lambda s: spectral.reference_cdf("poisson", s)),
            "histogram": Histogram.from_samples(pooled, DEFAULT_SPACING_EDGES)}


def _phase_density_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    pooled = np.concatenate(values)
    if len(pooled) >= 10 * PHASE_BINS:
        statistic, p_value = spectral.phase_uniformity(pooled, bins=PHASE_BINS)
    else:
        # too little data for the chi-square contract; keep the histogram
        statistic = p_value = None
    return {"count": int(pooled.size), "bins": PHASE_BINS,
            "chi_square": statistic, "p_value": p_value,
            "histogram": Histogram.from_samples(
                pooled, np.linspace(0.0, spectral.TWO_PI, PHASE_BINS + 1))}


def _entanglement_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    keep = _keep_set(spec, analysis)
    dim_a = prod(spec.source.dims[p - 1] for p in keep)
    dim_b = spec.dim // dim_a
    return {"keep": keep, "dim_a": dim_a, "dim_b": dim_b,
            **_pair_summary(values), **_page_references(dim_a, dim_b)}


def _projection_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    particle = analysis.arg[0]
    rest = [d for p, d in enumerate(spec.source.dims, start=1) if p != particle]
    dim_a, dim_c = rest[0], prod(rest[1:])
    return {"particle": particle, "dim_a": dim_a, "dim_c": dim_c,
            **_pair_summary(values), **_page_references(dim_a, dim_c),
            "skipped_slices": sum(v[2] for v in values),
            "weighted": spec.weighted_projection}


def _trace_moments_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    n = len(values)
    stacked = np.vstack(values)
    means = stacked.mean(axis=0)
    se_re, se_im = (part.std(axis=0, ddof=1) / np.sqrt(n) if n > 1
                    else np.zeros(stacked.shape[1])
                    for part in (stacked.real, stacked.imag))
    return {"draws": n, "max_power": analysis.arg[0],
            "mean_real": means.real, "mean_imag": means.imag,
            "se_real": se_re, "se_imag": se_im}


def _state_sample_summary(spec: EnsembleSpec, analysis: Analysis, values: list) -> dict:
    keep = _keep_set(spec, analysis)
    dim_a = prod(spec.source.dims[p - 1] for p in keep)
    return {"keep": keep, **_pair_summary(values),
            "histogram": Histogram.from_samples(
                np.asarray([v[0] for v in values]),
                np.linspace(0.0, np.log(dim_a) + 0.1, 61))}


class AnalysisKind(NamedTuple):
    """One analysis kind. ``needs``: "state" (U|0>), "matrix" (U), "phases"
    (a stack's eigenphases, without eigenvectors), or "eigensystem" (one
    eigendecomposition per draw, which serves "phases" too). ``check`` returns the
    IncompatibleAnalysis message for a bad request, else None. ``per_stack(spec,
    analysis, us, data)`` returns the B per-draw values of a (B, N, N) stack
    (None on the factored path) from its SpectralData: (B, N) phases and a
    list of B eigenvector matrices. ``summary(spec, analysis, values)``."""

    needs: str
    graph: bool  # needs a graph source
    check: Callable[[EnsembleSpec, Analysis], str | None]
    per_stack: Callable
    summary: Callable


# rows call ent.* and spectral.* through their modules, so patching reaches them
ANALYSES = {
    "spacing": AnalysisKind(
        "phases", False, _spectrum_check,
        lambda spec, a, us, data: spectral.spacings(
            data.phases, include_wrap=spec.include_wrap),
        _spacing_summary),
    "phase_density": AnalysisKind(
        "phases", False, _spectrum_check,
        lambda spec, a, us, data: data.phases,
        _phase_density_summary),
    "evec_entropy": AnalysisKind(
        "eigensystem", False, _no_parameter,
        lambda spec, a, us, data: [ent.eigenvector_entropy(SpectralData(p, v))
                                   for p, v in zip(data.phases, data.vectors)],
        lambda spec, a, values: {
            **_scalar_summary(values),
            "reference_mean": ent.mean_random_vector_entropy(spec.dim)}),
    "element_entropy": AnalysisKind(
        "matrix", False, _no_parameter,
        lambda spec, a, us, data: ent.element_entropy(us),
        _element_entropy_summary),
    "trace_moments": AnalysisKind(
        "phases", False, _trace_moments_check,
        lambda spec, a, us, data: _moments_from_eigvals(
            np.exp(1j * data.phases), a.arg[0]),
        _trace_moments_summary),
    "entanglement": AnalysisKind(
        "eigensystem", True, _bipartition_check,
        lambda spec, a, us, data: [[x.mean() for x in _reduced(spec, a, v.T)]
                                   for v in data.vectors],
        _entanglement_summary),
    "projection": AnalysisKind(
        "eigensystem", True, _projection_check,
        lambda spec, a, us, data: [_projection_stats(
            v, spec.source.dims, a.arg[0], spec.weighted_projection) for v in data.vectors],
        _projection_summary),
    "state_sample": AnalysisKind(
        "state", True, _state_sample_check,
        lambda spec, a, us, data: np.column_stack(_reduced(spec, a, us[:, :, 0])),
        _state_sample_summary),
}


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def _records(spec: EnsembleSpec, us, data) -> dict:
    """Each kind's per-draw values of one stack, from one row call per kind."""
    return {a.kind: ANALYSES[a.kind].per_stack(spec, a, us, data) for a in spec.analyses}


def _analyse(spec: EnsembleSpec, us: np.ndarray) -> dict:
    """The records of the (B, N, N) stack ``us``. An eigensystem costs one
    eigendecompose call per draw; phases alone, one eigenphases call for the
    stack (each row equals that draw's solve on its own)."""
    needs = {ANALYSES[a.kind].needs for a in spec.analyses}
    if "eigensystem" in needs:
        spectra = [spectral.eigendecompose(u) for u in us]
        data = SpectralData(np.array([d.phases for d in spectra]),
                            [d.vectors for d in spectra])
    elif "phases" in needs:
        data = SpectralData(spectral.eigenphases(us), None)
    else:
        data = None
    return _records(spec, us, data)


def _aggregate(spec: EnsembleSpec, records: list[dict]) -> dict:
    """Each kind's summary of the stacks' records, in draw order."""
    return {a.kind: ANALYSES[a.kind].summary(
        spec, a, [value for stack in records for value in stack[a.kind]])
        for a in spec.analyses}


def _run_stack(spec: EnsembleSpec, draws: range) -> dict:
    """Generate and analyze ``draws`` as one stack; a phases-only campaign on
    a disconnected graph solves the stack's tensor factors (module docstring)."""
    streams = [RandomStream(spec.master_seed, t) for t in draws]
    if ({ANALYSES[a.kind].needs for a in spec.analyses} == {"phases"}
            and isinstance(spec.source, InteractionGraph) and not is_connected(spec.source)):
        factors = evolution_factors(spec.source, streams, spec.dim_cap)
        phases, passed = spectral.product_eigenphases(factors)
        if not passed.all():
            redo = np.flatnonzero(~passed)
            phases[redo] = spectral.eigenphases(evolution_unitary(
                spec.source, [streams[j] for j in redo], dim_cap=spec.dim_cap))
        return _records(spec, None, SpectralData(phases, None))
    return _analyse(spec, _draw_matrices(spec.source, streams, spec.dim_cap))


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleReport:
    """Run the campaign: draw, analyze, and merge in draw order.

    Draws are generated in stacks of max(1, STACK_AMPLITUDES // N**2)
    consecutive draws; the report is bit-identical for any stack size. A
    failed draw aborts the whole campaign so seed-indexed reproducibility
    stays exact. ``workers`` > 1 runs stacks concurrently (the numerical
    results are identical to a serial run).
    """
    start = time.perf_counter()
    stacks = _stacks(spec.dim, spec.draws)
    if workers > 1:
        # imported here: concurrent.futures loads logging, ~12 ms of start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda draws: _run_stack(spec, draws), stacks))
    else:
        records = [_run_stack(spec, draws) for draws in stacks]
    analyses = _aggregate(spec, records)
    wall = time.perf_counter() - start
    return EnsembleReport(spec.source_description(), spec.draws,
                          spec.master_seed, analyses, wall)
