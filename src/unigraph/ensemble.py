"""Monte Carlo campaigns over structured and reference unitary ensembles.

Draw t of a campaign always uses RandomStream(master_seed, t), and reports
are merged in draw order, so a campaign is bit-reproducible regardless of
worker count (timing fields aside). A stack of consecutive draws
(STACK_AMPLITUDES) is the unit of workers, and a graph's stack the unit of
its seeding, block sampling and folding; a reference source is seeded by its
sampler, tile by tile. Its N x N work runs in tiles of consecutive draws
(TILE_AMPLITUDES). The campaign's route (_plan), chosen once, is a source of
a stack's tiles, each built in one call (from a graph stack's blocks, or by
a reference sampler on the tile's streams) and solved in one
(eigendecompose, eigenphases or nothing). Every route's tiles go to one
_stack_record, where each analysis kind takes a tile in one call that
returns a (T, ...) array of its T draws' values; a kind that needs only U|0>
takes the stack's (B, N) states in one call after its last tile instead. A
stack's record holds each kind's (B, ...) array, and a kind's summary reads
the concatenation of its stacks' arrays. Every matrix and per-draw value
equals its per-draw computation bit for bit, so no size changes a report.

A phases-only campaign on a disconnected graph never forms its N x N
matrices: it takes each stack's tensor factors, one per connected component
(tensor.evolution_factors, which certifies or measures each factor's
unitarity and bounds their product's), solves each factor stack with one
eigenphases call and sums the phases (spectral.product_eigenphases). A draw
whose summed phases fail the product's trace identities is solved from its
full matrix. The stack's phases are its one tile, with no U. These reports
match the full-matrix solve to ~1e-13.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import entropy as ent
from . import spectral
from .graph import InteractionGraph, _integer, graph_hash, is_connected
from .rand import _U64, RandomStream, haar_unitary, random_phases_diagonal, sample_composed
from .spectral import DEFAULT_SPACING_EDGES, Histogram, SpectralData
from .tensor import (DEFAULT_DIM_CAP, _check_cap, _folded_blocks, evolution_factors,
                     evolution_unitary)

REFERENCE_KINDS = ("cue", "composed", "diagonal")

PHASE_BINS = 32

# A stack of max(1, STACK_AMPLITUDES // N**2) draws goes to one worker (a graph's
# is also seeded, sampled and folded at once, and holds only its blocks); its N x N work
# runs in tiles of max(1, TILE_AMPLITUDES // N**2) draws, whose (T, N, N) arrays
# of at most 128 KiB (up to N = 90) stay on the allocator's heap (512 KiB tiles
# were trimmed and re-faulted every tile under glibc's default thresholds).
# N = 64: 32-draw stacks and 2-draw tiles; N = 256: 2-draw stacks, 1-draw tiles.
STACK_AMPLITUDES = 2**17
TILE_AMPLITUDES = 2**13


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
        object.__setattr__(self, "dim", _integer(self.dim, "reference dimension", 1))


def _items(value, expected: str) -> tuple:
    """``value``'s items; a str (whose items are its characters) or a
    non-iterable raises ValueError: ``expected``, got ``value``."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ValueError(f"{expected}, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Analysis:
    """One requested statistic; ``arg`` carries its parameters
    (bipartition particles, projected particle, or max trace power)."""

    kind: str
    arg: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ANALYSES:
            raise ValueError(f"unknown analysis {self.kind!r}")
        expected = f"analysis {self.kind!r}: parameters are integers in a sequence"
        try:
            arg = tuple(_integer(p, "parameter") for p in _items(self.arg, expected))
        except ValueError:
            raise ValueError(f"{expected}, got {self.arg!r}") from None
        object.__setattr__(self, "arg", arg)

    @classmethod
    def parse(cls, text: str) -> "Analysis":
        kind, _, rest = text.partition(":")
        try:
            arg = tuple(int(v) for v in rest.split(",") if v)
        except ValueError:
            raise ValueError(f"analysis {text!r}: parameters are integers") from None
        return cls(kind.strip(), arg)


@dataclass(frozen=True)
class EnsembleSpec:
    """``draws`` draws of ``source`` from ``master_seed``, each analysed by each of
    ``analyses``; a bad value raises here, before any draw (a source over ``dim_cap``
    DimensionCapExceeded, any other ValueError)."""

    source: InteractionGraph | ReferenceEnsemble
    draws: int
    master_seed: int
    analyses: tuple[Analysis, ...]
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        object.__setattr__(self, "analyses", _items(
            self.analyses, "analyses must be a sequence of Analysis values"))
        object.__setattr__(self, "draws", _integer(self.draws, "draws", 1))
        object.__setattr__(self, "dim_cap", _integer(self.dim_cap, "dim_cap", 1))
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed", 0, _U64))
        if not isinstance(self.source, (InteractionGraph, ReferenceEnsemble)):
            raise ValueError("source must be an InteractionGraph or a ReferenceEnsemble, "
                             f"got {self.source!r}")
        for analysis in self.analyses:
            if not isinstance(analysis, Analysis):
                raise ValueError(f"analyses must be Analysis values, got {analysis!r}")
        kinds = [a.kind for a in self.analyses]
        if len(set(kinds)) != len(kinds):
            raise ValueError("each analysis kind may be requested once")
        if not self.analyses:
            raise ValueError("at least one analysis is required")
        for analysis in self.analyses:
            kind = ANALYSES[analysis.kind]
            if kind.graph and not isinstance(self.source, InteractionGraph):
                raise IncompatibleAnalysis(
                    f"{analysis.kind} needs a graph source (reference ensembles "
                    "carry no particle structure)")
            message = kind.check(self, analysis)
            if message:
                raise IncompatibleAnalysis(message)
        _check_cap(self.dim, self.dim_cap)

    @property
    def dim(self) -> int:
        return _dim(self.source)

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

def _dim(source: InteractionGraph | ReferenceEnsemble) -> int:
    return source.total_dim if isinstance(source, InteractionGraph) else source.dim


def _draw_matrices(source: InteractionGraph | ReferenceEnsemble,
                   streams: list[RandomStream], dim_cap: int) -> Iterator[np.ndarray]:
    """The checked (T, N, N) tiles of ``source``'s draws from ``streams``, in
    draw order, max(1, TILE_AMPLITUDES // N**2) draws each. A graph's blocks
    are drawn and folded once for the stack, and a tile is built from its
    slice of them by one evolution_unitary call; a reference source's sampler
    is called once on each tile's slice of the streams. A graph over ``dim_cap``
    raises; a reference source is checked by its EnsembleSpec."""
    if isinstance(source, InteractionGraph):
        draws = _folded_blocks(source, streams, dim_cap)
        build = partial(evolution_unitary, source)
    else:
        draws = streams
        build = partial({"cue": haar_unitary, "composed": sample_composed,
                         "diagonal": random_phases_diagonal}[source.kind], source.dim)
    tile = max(1, TILE_AMPLITUDES // _dim(source)**2)
    for first in range(0, len(streams), tile):
        yield build(draws[first:first + tile])


def _stacks(master_seed: int, source: InteractionGraph | ReferenceEnsemble,
            draws: int) -> list[list[RandomStream]]:
    """The streams of draws 0..draws-1, RandomStream(master_seed, t), in
    stacks of max(1, STACK_AMPLITUDES // N**2) consecutive draws."""
    size = max(1, STACK_AMPLITUDES // _dim(source)**2)
    return [[RandomStream(master_seed, t) for t in range(first, min(first + size, draws))]
            for first in range(0, draws, size)]


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
    through ``_draw_matrices`` over the stacks and tiles of draws campaigns
    use. A graph over ``dim_cap`` raises DimensionCapExceeded on the first
    stack; a bad seed or cap is refused before any draw, when the first
    stack's streams are made and checked against the cap."""
    draws = _integer(draws, "draws", 1)
    dim = graph.total_dim
    seconds = []
    for source in (graph, ReferenceEnsemble("cue", dim)):
        stacks = _stacks(master_seed, source, draws)
        start = time.perf_counter()
        for streams in stacks:
            deque(_draw_matrices(source, streams, dim_cap), maxlen=0)  # drop each tile
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


def _projection_stats(vectors: np.ndarray, dims, particle: int) -> np.ndarray:
    """(T, 5): per draw of a (T, N, M) stack of eigenvector columns, the entropy
    and purity of the first remaining particle over the columns' slices at
    ``particle``'s basis states, averaged with the slices' weights (columns 0, 1),
    the count of null slices (weight <= 1e-14; column 2), and the same entropy and
    purity averaged uniformly over the non-null slices (columns 3, 4). A null
    slice is made the first basis state and weighs 0 in both means."""
    rest_dims = [d for p, d in enumerate(dims, start=1) if p != particle]
    psi = np.swapaxes(vectors, -1, -2).reshape((len(vectors), -1) + tuple(dims))
    slices = np.moveaxis(psi, particle + 1, 2).reshape(len(vectors), -1, prod(rest_dims))
    weights = (np.abs(slices) ** 2).sum(axis=-1)
    null = ~(weights > 1e-14)
    # new arrays: slices may be a view of the vectors, which other kinds read
    normed = np.where(null[..., None], np.eye(1, slices.shape[-1]),
                      slices / np.sqrt(np.where(null, 1.0, weights))[..., None])
    weights[null] = 0.0
    values = np.stack(ent.reduced_entropies(normed.reshape(-1, slices.shape[-1]), rest_dims, [0]))
    weighted, uniform = ((w * values.reshape((2,) + w.shape)).sum(axis=-1) / w.sum(axis=-1)
                         for w in (weights, (~null).astype(float)))
    return np.column_stack([*weighted, null.sum(axis=1), *uniform])


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
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), se


def _scalar_summary(values: np.ndarray) -> dict:
    """Summary of one number per draw, a (D,) array."""
    mean, se = _mean_se(values)
    return {"draws": len(values), "mean": mean, "se": se,
            "variance": float(values.var(ddof=1)) if len(values) > 1 else 0.0}


def _pair_summary(values: np.ndarray) -> dict:
    """Summary of a (D, >= 2) array: each draw's entropy, purity, ..."""
    ent_mean, ent_se = _mean_se(values[:, 0])
    pur_mean, pur_se = _mean_se(values[:, 1])
    return {"draws": len(values), "mean_entropy": ent_mean, "entropy_se": ent_se,
            "mean_purity": pur_mean, "purity_se": pur_se}


def _page_references(dim_a: int, dim_b: int) -> dict:
    """Page mean entropy and mean purity of random pure states on
    C^dim_a (x) C^dim_b."""
    return {"page_reference": ent.page_mean_entropy(min(dim_a, dim_b),
                                                    max(dim_a, dim_b)),
            "purity_reference": ent.mean_purity(dim_a, dim_b)}


def _element_entropy_summary(spec: EnsembleSpec, analysis: Analysis,
                             values: np.ndarray) -> dict:
    center = np.log(spec.dim)
    edges = np.linspace(max(0.0, center - 2.5), center + 0.5, 121)
    return {**_scalar_summary(values), "histogram": Histogram.from_samples(values, edges)}


def _spacing_stats(values: np.ndarray, cdfs: dict, order: np.ndarray) -> dict:
    """The pooled count, mean, SE of the draws' means, variance, KS distances to
    Wigner and Poisson, and histogram of a (D, M) array of M spacings per draw.
    ``cdfs`` holds each law's reference CDF at a flat array of spacings, and
    ``order`` indexes this array's values in it, in ascending order of value."""
    pooled = values.ravel()
    _, mean_se = _mean_se(values.mean(axis=1))
    return {"count": int(pooled.size), "mean": float(pooled.mean()), "mean_se": mean_se,
            "variance": float(pooled.var(ddof=1)) if pooled.size > 1 else 0.0,
            **{f"ks_{law}": spectral._ks_distance(cdf[order]) for law, cdf in cdfs.items()},
            "histogram": Histogram.from_samples(pooled, DEFAULT_SPACING_EDGES)}


def _spacing_summary(spec: EnsembleSpec, analysis: Analysis, values: np.ndarray) -> dict:
    """_spacing_stats of the (D, N) wrap-inclusive spacings (mean exactly 1), then,
    prefixed ``interior_``, of the paper's N-1 interior gaps: the first N-1 columns.
    One sort and one CDF pass per law serve both: the interior values in sorted
    order are the sorted values without those of the last column."""
    cdfs = {law: spectral.reference_cdf(law, values).ravel() for law in ("wigner", "poisson")}
    order = np.argsort(values, axis=None)
    interior = order[order % values.shape[1] != values.shape[1] - 1]
    return {**_spacing_stats(values, cdfs, order),
            **{f"interior_{key}": value
               for key, value in _spacing_stats(values[:, :-1], cdfs, interior).items()}}


def _phase_density_summary(spec: EnsembleSpec, analysis: Analysis,
                           values: np.ndarray) -> dict:
    pooled = values.ravel()
    if len(pooled) >= 10 * PHASE_BINS:
        statistic, p_value = spectral.phase_uniformity(pooled, bins=PHASE_BINS)
    else:
        # too little data for the chi-square contract; keep the histogram
        statistic = p_value = None
    return {"count": int(pooled.size), "bins": PHASE_BINS,
            "chi_square": statistic, "p_value": p_value,
            "histogram": Histogram.from_samples(
                pooled, np.linspace(0.0, spectral.TWO_PI, PHASE_BINS + 1))}


def _entanglement_summary(spec: EnsembleSpec, analysis: Analysis, values: np.ndarray) -> dict:
    keep = _keep_set(spec, analysis)
    dim_a = prod(spec.source.dims[p - 1] for p in keep)
    dim_b = spec.dim // dim_a
    return {"keep": keep, "dim_a": dim_a, "dim_b": dim_b,
            **_pair_summary(values), **_page_references(dim_a, dim_b)}


def _projection_summary(spec: EnsembleSpec, analysis: Analysis, values: np.ndarray) -> dict:
    particle = analysis.arg[0]
    rest = [d for p, d in enumerate(spec.source.dims, start=1) if p != particle]
    dim_a, dim_c = rest[0], prod(rest[1:])
    return {"particle": particle, "dim_a": dim_a, "dim_c": dim_c,
            **_pair_summary(values), **_page_references(dim_a, dim_c),
            "skipped_slices": int(values[:, 2].sum()),
            **{f"unweighted_{key}": value
               for key, value in _pair_summary(values[:, 3:]).items() if key != "draws"}}


def _trace_moments_summary(spec: EnsembleSpec, analysis: Analysis,
                           values: np.ndarray) -> dict:
    n = len(values)
    means = values.mean(axis=0)
    se_re, se_im = (part.std(axis=0, ddof=1) / np.sqrt(n) if n > 1
                    else np.zeros(values.shape[1]) for part in (values.real, values.imag))
    return {"draws": n, "max_power": analysis.arg[0],
            "mean_real": means.real, "mean_imag": means.imag,
            "se_real": se_re, "se_imag": se_im}


def _state_sample_summary(spec: EnsembleSpec, analysis: Analysis, values: np.ndarray) -> dict:
    keep = _keep_set(spec, analysis)
    dim_a = prod(spec.source.dims[p - 1] for p in keep)
    return {"keep": keep, **_pair_summary(values),
            "histogram": Histogram.from_samples(
                values[:, 0], np.linspace(0.0, np.log(dim_a) + 0.1, 61))}


class AnalysisKind(NamedTuple):
    """One analysis kind. ``needs``: "state" (U|0>), "matrix" (U), "phases"
    (a tile's eigenphases, without eigenvectors), or "eigensystem" (a
    tile's eigenphases and eigenvectors, which serves "phases" too).
    ``check`` returns the IncompatibleAnalysis message for a bad request,
    else None. ``per_stack(spec, analysis, us, data)``, called only by
    _stack_record, takes a (T, N, N) tile of draws (None on the factored
    route, whose one tile is the whole stack) and its SpectralData, (T, N)
    phases and (T, N, N) eigenvector columns, in one call with no loop over
    draws, and returns one (T, ...) array; a "state" kind takes the stack's
    (B, N) states U|0> so, with data None, and returns one (B, ...) array.
    ``summary(spec, analysis, values)`` reads the campaign's (D, ...) array,
    the stacks' arrays joined in draw order."""

    needs: str
    graph: bool  # needs a graph source
    check: Callable[[EnsembleSpec, Analysis], str | None]
    per_stack: Callable
    summary: Callable


# rows call ent.* and spectral.* through their modules, so patching reaches them
ANALYSES = {
    "spacing": AnalysisKind(
        "phases", False, _spectrum_check,
        lambda spec, a, us, data: spectral.spacings(data.phases),
        _spacing_summary),
    "phase_density": AnalysisKind(
        "phases", False, _spectrum_check,
        lambda spec, a, us, data: data.phases,
        _phase_density_summary),
    "evec_entropy": AnalysisKind(
        "eigensystem", False, _no_parameter,
        lambda spec, a, us, data: ent.eigenvector_entropy(data),
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
        # each draw's mean over its N eigenvectors, all T N of them in one call
        lambda spec, a, us, data: np.column_stack([
            x.reshape(data.phases.shape).mean(axis=1) for x in _reduced(
                spec, a, np.swapaxes(data.vectors, -1, -2).reshape(-1, spec.dim))]),
        _entanglement_summary),
    "projection": AnalysisKind(
        "eigensystem", True, _projection_check,
        # all T M eigenvectors' slices in one call; both outcome weightings per draw
        lambda spec, a, us, data: _projection_stats(data.vectors, spec.source.dims, a.arg[0]),
        _projection_summary),
    "state_sample": AnalysisKind(
        "state", True, _state_sample_check,
        lambda spec, a, states, data: np.column_stack(_reduced(spec, a, states)),
        _state_sample_summary),
}


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def _plan(spec: EnsembleSpec) -> Callable[[list[RandomStream]], dict]:
    """The campaign's route, chosen once from its analyses' needs and its
    source: a stack's streams -> the _stack_record of its tiles. A phases-only
    campaign on a disconnected graph yields one tile, (None, its phases from
    tensor factors); every other yields (us, its solve) for each tile of
    _draw_matrices, each built after the last one's values are taken."""
    needs = {ANALYSES[a.kind].needs for a in spec.analyses}
    source, cap = spec.source, spec.dim_cap
    if needs == {"phases"} and isinstance(source, InteractionGraph) and not is_connected(source):
        def tiles(streams):
            factors = evolution_factors(source, streams, cap)
            phases, passed = spectral.product_eigenphases(factors)
            if not passed.all():
                redo = np.flatnonzero(~passed)
                phases[redo] = spectral.eigenphases(evolution_unitary(
                    source, [streams[j] for j in redo], dim_cap=cap))
            yield None, SpectralData(phases, None)
    else:
        def tiles(streams):
            for us in _draw_matrices(source, streams, cap):
                yield us, (spectral.eigendecompose(us) if "eigensystem" in needs
                           else SpectralData(spectral.eigenphases(us), None) if "phases" in needs
                           else None)
    return lambda streams: _stack_record(spec, tiles(streams))


def _stack_record(spec: EnsembleSpec, tiles: Iterable[tuple]) -> dict:
    """A stack's record, each kind's (B, ...) array of per-draw values, from
    its (us, data) tiles in draw order: one call per tile for each kind but
    a "state" kind, which takes the stack's U|0> in one call after them."""
    state = [a for a in spec.analyses if ANALYSES[a.kind].needs == "state"]
    tiled, states = {a: [] for a in spec.analyses if a not in state}, []
    for us, data in tiles:
        for a, values in tiled.items():
            values.append(ANALYSES[a.kind].per_stack(spec, a, us, data))
        if state:  # a copy, so that no tile outlives its turn
            states.append(us[:, :, 0].copy())
        del us, data  # nor its solve, while the next tile is built and solved
    record = {a.kind: np.concatenate(values) for a, values in tiled.items()}
    if state:
        states = np.concatenate(states)
        record.update({a.kind: ANALYSES[a.kind].per_stack(spec, a, states, None)
                       for a in state})
    return record


def _aggregate(spec: EnsembleSpec, records: list[dict]) -> dict:
    """Each kind's summary of its stacks' arrays, joined in draw order."""
    return {a.kind: ANALYSES[a.kind].summary(
        spec, a, np.concatenate([stack[a.kind] for stack in records]))
        for a in spec.analyses}


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleReport:
    """Run the campaign: draw, analyze, and merge in draw order.

    Draws are generated in stacks and built and analysed in tiles of
    consecutive draws (STACK_AMPLITUDES, TILE_AMPLITUDES); the report is
    bit-identical for any stack or tile size. A failed draw aborts the whole
    campaign so seed-indexed reproducibility stays exact. ``workers`` > 1
    runs stacks concurrently (the numerical results are identical to a
    serial run); the tiles of a stack run in draw order.
    """
    start = time.perf_counter()
    workers = _integer(workers, "workers", 1)
    run_stack = _plan(spec)
    stacks = _stacks(spec.master_seed, spec.source, spec.draws)
    if workers > 1:
        # imported here: concurrent.futures loads logging, ~12 ms of start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_stack, stacks))
    else:
        records = [run_stack(streams) for streams in stacks]
    analyses = _aggregate(spec, records)
    wall = time.perf_counter() - start
    return EnsembleReport(spec.source_description(), spec.draws,
                          spec.master_seed, analyses, wall)
