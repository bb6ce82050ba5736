"""Interaction graphs: layered clique partitions over a set of particles.

A graph is an ordered list of colored layers; each layer partitions the
particles into disjoint cliques, and each clique stands for one random
unitary block acting jointly on its members during that time step.
Particle indices are 1-based in the public API and in spec files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Sequence


class GraphSpecError(ValueError):
    """Base class for graph construction and spec-file errors."""


class MissingParticle(GraphSpecError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"particle {index} is not covered by any clique")


class DuplicateParticle(GraphSpecError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"particle {index} appears in more than one clique")


class IndexOutOfRange(GraphSpecError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"particle index {index} is out of range")


class OddParticleCount(GraphSpecError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"bond pairs require an even particle count, got {count}")


class InvalidPartition(GraphSpecError):
    pass


class InvalidDimension(GraphSpecError):
    pass


class SpecSyntaxError(GraphSpecError):
    """Malformed JSON in a graph spec file; carries the source location."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


SINGLETON_MODES = ("haar", "identity")


def _check_dim(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDimension(f"dimension must be an integer, got {value!r}")
    if value < 1:
        raise InvalidDimension(f"dimension must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ParticleSystem:
    """k particles with per-particle local Hilbert-space dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_check_dim(d) for d in self.dims)
        if not dims:
            raise GraphSpecError("a system needs at least one particle")
        object.__setattr__(self, "dims", dims)

    @property
    def num_particles(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        # Python ints are exact, so the product cannot silently wrap.
        return prod(self.dims)


@dataclass(frozen=True)
class Clique:
    """A non-empty set of particle indices, stored strictly increasing."""

    particles: tuple[int, ...]

    def __post_init__(self):
        raw = list(self.particles)
        if not raw:
            raise GraphSpecError("a clique must contain at least one particle")
        for p in raw:
            if isinstance(p, bool) or not isinstance(p, int):
                raise GraphSpecError(f"particle index must be an integer, got {p!r}")
            if p < 1:
                raise IndexOutOfRange(p)
        ordered = sorted(raw)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise DuplicateParticle(a)
        object.__setattr__(self, "particles", tuple(ordered))

    def __iter__(self):
        return iter(self.particles)

    def __len__(self) -> int:
        return len(self.particles)


def _as_clique(spec) -> Clique:
    return spec if isinstance(spec, Clique) else Clique(tuple(spec))


@dataclass(frozen=True)
class Layer:
    """One time step: a clique partition of the particles, with a color label.

    ``singletons`` selects whether one-particle cliques draw a Haar unitary
    of the local dimension ("haar", default) or stay identity ("identity").
    """

    color: str
    cliques: tuple[Clique, ...]
    singletons: str = "haar"

    def __post_init__(self):
        cliques = tuple(sorted((_as_clique(c) for c in self.cliques),
                               key=lambda c: c.particles))
        if not cliques:
            raise InvalidPartition("a layer needs at least one clique")
        if self.singletons not in SINGLETON_MODES:
            raise GraphSpecError(
                f"singletons must be one of {SINGLETON_MODES}, got {self.singletons!r}")
        object.__setattr__(self, "cliques", cliques)


def validate_layer(layer: Layer, num_particles: int) -> None:
    """Check that the layer's cliques partition {1..k}; raise identifying the
    smallest violating particle (out of range, duplicated, or missing)."""
    seen: set[int] = set()
    duplicated: set[int] = set()
    for clique in layer.cliques:
        for p in clique:
            if p < 1 or p > num_particles:
                raise IndexOutOfRange(p)
            if p in seen:
                duplicated.add(p)
            seen.add(p)
    if duplicated:
        raise DuplicateParticle(min(duplicated))
    for p in range(1, num_particles + 1):
        if p not in seen:
            raise MissingParticle(p)


@dataclass(frozen=True)
class InteractionGraph:
    """A particle system plus ordered layers; layers[0] acts first."""

    system: ParticleSystem
    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise GraphSpecError("a graph needs at least one layer")
        for layer in layers:
            validate_layer(layer, self.system.num_particles)
        object.__setattr__(self, "layers", layers)

    @property
    def num_particles(self) -> int:
        return self.system.num_particles

    @property
    def dims(self) -> tuple[int, ...]:
        return self.system.dims

    @property
    def total_dim(self) -> int:
        return self.system.total_dim

    @cached_property
    def _sha256(self) -> str:
        # cached in the instance dict, which a frozen dataclass leaves writable
        return hashlib.sha256(serialize_graph(self).encode()).hexdigest()


def components(graph: InteractionGraph) -> list[tuple[int, ...]]:
    """The connected components of the union over all layers of within-clique
    edges: increasing tuples of 1-based particles, ordered by their first
    particle. A particle that only ever sits in singleton cliques is a
    component of its own."""
    part_of = {p: (p,) for p in range(1, graph.num_particles + 1)}
    for layer in graph.layers:
        for clique in layer.cliques:
            merged = tuple(sorted({q for p in clique for q in part_of[p]}))
            part_of.update((p, merged) for p in merged)
    return sorted(set(part_of.values()))


def is_connected(graph: InteractionGraph) -> bool:
    """True iff the union over all layers of within-clique edges links every
    particle to every other."""
    return len(components(graph)) == 1


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def from_bond_vertex_graph(bond_pairs: Sequence[Iterable[int]],
                           vertex_groups: Sequence[Iterable[int]],
                           n: int) -> InteractionGraph:
    """Convert a bond/vertex description into a two-layer graph.

    The vertex groups act first (one block per vertex), the bond pairs act
    second (one block per bond). Local dimension is uniform ``n``; the
    particle count is inferred from the bond pairs and must be even.
    """
    _check_dim(n)
    bonds = [_as_clique(b) for b in bond_pairs]
    count = sum(len(b) for b in bonds)
    if count % 2 != 0:
        raise OddParticleCount(count)
    for b in bonds:
        if len(b) != 2:
            raise InvalidPartition(f"bond {b.particles} does not join exactly two subsystems")
    vertex_layer = Layer("red", tuple(_as_clique(g) for g in vertex_groups))
    bond_layer = Layer("black", tuple(bonds))
    system = ParticleSystem((n,) * count)
    return InteractionGraph(system, (vertex_layer, bond_layer))


def ring_graph(k: int, n: int) -> InteractionGraph:
    """Two-color ring of k particles: even-bond matching first, then the odd
    matching that closes the ring ({2,3}, {4,5}, ..., {k,1})."""
    if k < 2:
        raise GraphSpecError(f"a ring needs at least two particles, got {k}")
    if k % 2 != 0:
        raise OddParticleCount(k)
    _check_dim(n)
    even = Layer("red", tuple(Clique((i, i + 1)) for i in range(1, k, 2)))
    odd = Layer("black", tuple(Clique((i, i % k + 1)) for i in range(2, k + 1, 2)))
    return InteractionGraph(ParticleSystem((n,) * k), (even, odd))


def chain_graph(k: int, n: int) -> InteractionGraph:
    """Stepwise chain: layer i couples particles (i, i+1), all others idle
    as sampled singleton blocks. k-1 layers in total."""
    if k < 2:
        raise GraphSpecError(f"a chain needs at least two particles, got {k}")
    _check_dim(n)
    layers = []
    for i in range(1, k):
        cliques = [Clique((i, i + 1))]
        cliques += [Clique((j,)) for j in range(1, k + 1) if j not in (i, i + 1)]
        layers.append(Layer(f"step{i}", tuple(cliques)))
    return InteractionGraph(ParticleSystem((n,) * k), tuple(layers))


# ---------------------------------------------------------------------------
# Spec files (JSON)
# ---------------------------------------------------------------------------

_TOP_KEYS = {"dims", "n", "k", "layers"}
_LAYER_KEYS = {"color", "cliques", "singletons"}


def parse_graph_spec(text: str) -> InteractionGraph:
    """Parse and fully validate a JSON graph spec (see serialize_graph for
    the schema). Unknown keys are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise GraphSpecError("graph spec must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise GraphSpecError(f"unknown keys in graph spec: {sorted(unknown)}")

    if "dims" in doc:
        if "n" in doc or "k" in doc:
            raise GraphSpecError("give either dims or the n/k shorthand, not both")
        dims = doc["dims"]
        if not isinstance(dims, list):
            raise InvalidDimension("dims must be a list of integers")
        system = ParticleSystem(tuple(dims))
    elif "n" in doc and "k" in doc:
        system, n, k = None, _check_dim(doc["n"]), _check_dim(doc["k"])
    else:
        raise GraphSpecError("graph spec needs dims, or both n and k")

    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise GraphSpecError("graph spec needs a non-empty layers list")
    layers = []
    for i, entry in enumerate(raw_layers):
        if not isinstance(entry, dict):
            raise GraphSpecError(f"layer {i + 1} must be a JSON object")
        unknown = set(entry) - _LAYER_KEYS
        if unknown:
            raise GraphSpecError(f"unknown keys in layer {i + 1}: {sorted(unknown)}")
        if "cliques" not in entry or not isinstance(entry["cliques"], list):
            raise GraphSpecError(f"layer {i + 1} needs a cliques list")
        for clique in entry["cliques"]:
            if not isinstance(clique, list):
                raise GraphSpecError(
                    f"layer {i + 1}: clique {clique!r} is not a list of particles")
        color = entry.get("color", f"layer{i + 1}")
        if not isinstance(color, str):
            raise GraphSpecError(f"layer {i + 1}: color must be a string")
        layers.append(Layer(color,
                            tuple(Clique(tuple(c)) for c in entry["cliques"]),
                            entry.get("singletons", "haar")))
    if system is None:
        # every layer lists each particle once: refuse a k past the first
        # layer's count before anything of size k is built
        listed = sum(len(clique.particles) for clique in layers[0].cliques)
        if k > listed:
            raise GraphSpecError(f"k = {k} exceeds the particle count of layer 1 ({listed})")
        system = ParticleSystem((n,) * k)
    return InteractionGraph(system, tuple(layers))


def serialize_graph(graph: InteractionGraph) -> str:
    """Canonical JSON for a graph; parse_graph_spec round-trips it."""
    doc = {
        "dims": list(graph.dims),
        "layers": [
            {
                "color": layer.color,
                "cliques": [list(c.particles) for c in layer.cliques],
                "singletons": layer.singletons,
            }
            for layer in graph.layers
        ],
    }
    return json.dumps(doc, indent=2)


def graph_hash(graph: InteractionGraph) -> str:
    """Stable hex digest of the canonical serialization, for provenance;
    computed once per graph object."""
    return graph._sha256


def load_graph_spec(path) -> InteractionGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph_spec(handle.read())
