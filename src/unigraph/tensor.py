"""Assembly of layer and evolution unitaries by contraction on tensor legs.

Index convention: the global basis index is row-major over the per-particle
dims, with particle 1 the most significant digit. Reshaping the N = prod(dims)
rows of an operand to ``dims`` therefore gives one axis (leg) per particle.

A block on a clique acts on the clique's legs in increasing particle order and
as identity on every other leg. ``apply_block`` moves the clique's legs next
to each other (``np.moveaxis``; legs that are already adjacent are only
reshaped), and multiplies the block into them as one batched ``np.matmul``
over the legs in front, at O(N * M * b) for an N x M operand and a block of
order b. Each layer's blocks are applied to the running operator in clique
order (``layer_unitary``), so neither a lifted block nor a layer matrix is
ever formed.

``evolution_unitary`` draws all blocks first, clique c of layer i from
substream(i, c), one ``haar_unitary`` call per block order. Their generators
come from one key array per stack, the keys (t, i, c) of every stream and
block built by broadcasting (``rand._generators``): no substream object is
made, and one spot check covers the stack. A Haar singleton V on particle p
commutes with every block off p, so it is folded into a small block product:
singletons since p's last multi-particle clique right-multiply the block W of
p's next one, W (V on p's leg); later ones left-multiply p's last one; a
particle in no such clique gets one block, the product of its singletons
(later ones on the left), where its first singleton is. The result differs
from the clique-by-clique product by rounding alone, and not at all without
Haar singletons.

Given a sequence of B streams in place of one, ``evolution_unitary`` builds
B independent draws as one (B, N, N) stack: each (B, b, b) block stack is
applied to the operand stack in one ``apply_block`` call, the first layer's
to a broadcast identity. Matrix j of the stack is bit-identical to the draw
from streams[j] alone, whatever B is. A campaign draws and folds a stack's
blocks once (``_folded_blocks``) and builds the stack in tiles of
consecutive draws, one ``evolution_unitary`` call per tile, from slices of
those blocks (``FoldedBlocks``).

Unitarity is certified, not measured, per draw. Every drawn block passed
``haar_unitary``'s check, so only rounding can spoil the product. Once per
stack, each folded block stack's defect is measured (b x b Gram products),
and those defects and the rounding of every block product bound each
draw's max|U^dagger U - I|, its certificate (``_product_bounds``, after
Higham 2002, section 3.6). One rule decides the check: a draw is measured
by ``require_unitary`` exactly when it has no certificate within
``unitarity_tolerance(n)``. A draw has none (NaN) where it is the stack's
first, a spot check for a broken assembly, which no rounding bound can
see, and where its blocks cost as much to measure as U (sum of b^3 >= N^3,
e.g. one block on all particles).

``evolution_factors`` builds a draw's tensor factors instead, one per
connected component on its own legs, from the same one draw and fold of all
blocks; a component skips the layers with no block on it, and each is
checked by the same rule as a part of its own. Each draw's certificates or
measured defects d bound its Kronecker product's defect by
prod (1 + d) - 1, which must meet the tolerance of the whole dimension.
The factors compose, by Kronecker product in component order, to the full
evolution, which is still built on all N legs, not from them.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .graph import InteractionGraph, _integer, components
from .rand import (RandomStream, UnitarityError, _generators, as_streams, haar_unitary,
                   require_unitary, unitarity_defects, unitarity_tolerance)

DEFAULT_DIM_CAP = 4096


class BlockDimMismatch(ValueError):
    pass


class DimensionCapExceeded(RuntimeError):
    def __init__(self, dim: int, cap: int):
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"total dimension {dim} exceeds the configured cap {cap}; "
            "raise the cap to proceed")


def apply_block(block: np.ndarray, clique: Iterable[int], dims: Sequence[int],
                operand: np.ndarray) -> np.ndarray:
    """(``block`` on the clique's legs, identity elsewhere) @ ``operand``.

    ``clique`` holds 1-based particle indices; ``operand`` is a vector or a
    matrix with prod(dims) rows. A (B, b, b) stack of blocks acts on a
    (B, prod(dims), ...) stack of operands, block j on operand j.
    """
    legs = sorted(p - 1 for p in clique)
    block_dim = prod(dims[p] for p in legs)
    if block.shape[-2:] != (block_dim, block_dim):
        raise BlockDimMismatch(
            f"block of shape {block.shape} does not fit clique dims {block_dim}")
    batch = block.shape[:-2]
    block = block[..., None, :, :]  # broadcast over the legs in front
    first = legs[0]
    lead = prod(dims[:first])
    if legs[-1] - first == len(legs) - 1:  # adjacent legs: a view, no moves
        out = np.matmul(block, operand.reshape(batch + (lead, block_dim, -1)))
        return out.reshape(operand.shape)
    axes = [len(batch) + p for p in legs]
    together = range(axes[0], axes[0] + len(legs))
    tensor = np.moveaxis(
        operand.reshape(batch + tuple(dims) + operand.shape[len(batch) + 1:]),
        axes, together)
    out = np.matmul(block, tensor.reshape(batch + (lead, block_dim, -1)))
    return np.moveaxis(out.reshape(tensor.shape), together, axes).reshape(operand.shape)


def layer_unitary(blocks: Sequence[tuple[Sequence[int], np.ndarray]],
                  dims: Sequence[int], operand: np.ndarray) -> np.ndarray:
    """(one layer's unitary) @ ``operand`` from its (clique, block) pairs in
    clique order: 1-based legs of ``dims`` and a block, or a (B, b, b) block
    stack for a (B, N, ...) operand stack. The cliques are disjoint, so the
    blocks commute; the clique order fixes the rounding."""
    for clique, block in blocks:
        operand = apply_block(block, clique, dims, operand)
    return operand


class FoldedBlocks:
    """A stack's blocks, every one drawn and every Haar singleton folded
    (``_folded_blocks``): per layer, the (particles, (B, b, b) block stack)
    pairs, and the parts the evolution is built on (unions of components),
    each with its (B,) unitarity certificates, NaN for a draw that has none
    (``_certificates``). Slicing takes the blocks and certificates of
    consecutive draws, as slicing takes their streams."""

    def __init__(self, layers: list[list[tuple[tuple[int, ...], np.ndarray]]], draws: int,
                 parts: Sequence[Sequence[int]], certificates: list[np.ndarray]):
        self.layers = layers
        self.draws = draws
        self.parts = parts
        self.certificates = certificates

    def __getitem__(self, index: slice) -> "FoldedBlocks":
        return FoldedBlocks([[(clique, block[index]) for clique, block in layer]
                             for layer in self.layers], len(range(self.draws)[index]),
                            self.parts, [c[index] for c in self.certificates])


def _check_cap(dim: int, dim_cap: int) -> None:
    """Refuse a ``dim_cap`` that is not an integer >= 1, then a ``dim`` over it."""
    dim_cap = _integer(dim_cap, "dim_cap", 1)
    if dim > dim_cap:
        raise DimensionCapExceeded(dim, dim_cap)


def _rounding(order: int) -> float:
    """sqrt(2) gamma_{order + 2}, gamma_k = k u / (1 - k u) with u = 2**-53: a
    complex inner product of length ``order`` is computed with an error of
    at most this times |x|^T |y|, in any summation order (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, section 3.6)."""
    k = (order + 2) * 2.0**-53
    return np.sqrt(2.0) * k / (1.0 - k)


def _product_bounds(blocks: Sequence[np.ndarray], draws: int) -> tuple[np.ndarray, float]:
    """(p, s) for the product of ``blocks``, (draws, b, b) stacks: p, a
    (draws,) array, bounds ||U^dagger U - I||_2 of the exact product U of the
    stored blocks, and s bounds each column's rounding error in the U that
    ``_evolutions`` computes, relative to the column norm sqrt(1 + p); so
    that U's max|U^dagger U - I| is at most p + (1 + p) s (2 + s).

    Each block order's stacks are measured in one ``unitarity_defects``
    call: d, the max-norm of B^dagger B - I as computed. With c =
    _rounding(b), ||B^dagger B - I||_2 is at most b d (1 + c) (the computed
    Gram defect; c covers the rounding of its moduli) plus b c (1 + that
    norm) (the rounding of the Gram product, whose |B|^T |B| has 2-norm at
    most ||B||_F^2), so e = b (d + c (1 + d)) / (1 - b c) bounds it,
    n = sqrt(1 + e) bounds ||B||_2 and sqrt(b) n bounds || |B| ||_2, which
    is at most ||B||_F. Walking the blocks in applied order from f = 0,
    g = P = 1, each sets f <- n f + c sqrt(b) n (g + f) (its inner products
    have length b), g <- n g and P <- P (1 + e): f bounds a column's error,
    g its exact norm and P - 1 the product's ||U^dagger U - I||_2, and the
    computed U's defect is at most (P - 1) + 2 g f + f^2. The walk solves in
    closed form, whatever the order: P = prod (1 + e) = 1 + p, g = sqrt(P)
    and f = g s with 1 + s = prod (1 + c sqrt(b)), so the bound is
    P (1 + s)^2 - 1. Products are taken as sums of log1p, so p and s keep
    their relative precision."""
    orders = [block.shape[-1] for block in blocks]
    log_p = np.zeros(draws)
    for b in dict.fromkeys(orders):
        d = unitarity_defects(np.stack([x for x, o in zip(blocks, orders) if o == b]))
        c = _rounding(b)
        log_p += np.log1p(b * (d + c * (1.0 + d)) / (1.0 - b * c)).sum(axis=0)
    log_s = sum(np.log1p(_rounding(b) * np.sqrt(b)) for b in orders)
    return np.expm1(log_p), float(np.expm1(log_s))


def _certificates(graph: InteractionGraph, layers: list, parts: Sequence[Sequence[int]],
                  draws: int) -> list[np.ndarray]:
    """Per part, each draw's certificate, p + (1 + p) s (2 + s) of its blocks'
    ``_product_bounds``: a bound on the max-norm of U^dagger U - I for the
    U that ``_evolutions`` computes. NaN, no certificate, marks a draw that
    is measured instead: the stack's first, a spot check for a broken
    assembly, and every draw of a part whose blocks cost as much to measure
    as U (sum of b^3 >= n^3)."""
    out = []
    for part in parts:
        members = set(part)
        applied = [block for layer in layers for clique, block in layer if clique[0] in members]
        if sum(block.shape[-1]**3 for block in applied) >= prod(
                graph.dims[p - 1] for p in part)**3:
            certificate = np.full(draws, np.nan)
        else:
            p, s = _product_bounds(applied, draws)
            certificate = p + (1.0 + p) * s * (2.0 + s)
        certificate[0] = np.nan
        out.append(certificate)
    return out


def _folded_blocks(graph: InteractionGraph, streams: Sequence[RandomStream], dim_cap: int,
                   parts: Sequence[Sequence[int]] | None = None) -> FoldedBlocks:
    """The blocks of the evolutions drawn from ``streams``: every block drawn
    up front, then every Haar singleton folded (module docstring), with each
    draw's certificate on each of ``parts`` (default: all particles as one).
    A graph over ``dim_cap`` raises before any draw."""
    _check_cap(graph.total_dim, dim_cap)
    dims = graph.dims
    members = [(i, c) for i, layer in enumerate(graph.layers)
               for c, clique in enumerate(layer.cliques)
               if len(clique) > 1 or layer.singletons == "haar"]
    generators = _generators(streams, np.reshape(members, (-1, 2)))
    orders = [prod(dims[p - 1] for p in graph.layers[i].cliques[c]) for i, c in members]
    drawn = {}
    for order in dict.fromkeys(orders):
        ks = [k for k, o in enumerate(orders) if o == order]
        stack = haar_unitary(order, generators[:, ks].ravel())
        stack = stack.reshape(len(streams), len(ks), order, order)
        drawn.update((members[k], stack[:, n]) for n, k in enumerate(ks))
    # pending: particle -> its singletons' product since its last multi-particle
    # clique; last: particle -> that clique's place, else its first singleton's
    pending, last, folded = {}, {}, {}
    for i, c in sorted(drawn):
        clique, block = graph.layers[i].cliques[c].particles, drawn[i, c]
        if len(clique) == 1:
            p = clique[0]
            pending[p] = block @ pending[p] if p in pending else block
            last.setdefault(p, (i, c))
            continue
        for leg, p in enumerate(clique, start=1):
            if p in pending:  # W (V on p's leg) = ((V^T on p's leg) W^T)^T
                block = apply_block(pending.pop(p).transpose(0, 2, 1), [leg],
                                    [dims[q - 1] for q in clique],
                                    block.transpose(0, 2, 1)).transpose(0, 2, 1)
            last[p] = (i, c)
        folded[i, c] = clique, block
    for p, product in pending.items():
        clique, block = folded.get(last[p], ((p,), None))
        if block is not None:  # singletons after p's last multi-particle clique
            product = apply_block(product, [clique.index(p) + 1],
                                  [dims[q - 1] for q in clique], block)
        folded[last[p]] = clique, product
    layers = [[] for _ in graph.layers]
    for i, c in sorted(folded):
        layers[i].append(folded[i, c])
    parts = parts or [range(1, graph.num_particles + 1)]
    return FoldedBlocks(layers, len(streams), parts,
                        _certificates(graph, layers, parts, len(streams)))


def _evolutions(graph: InteractionGraph, blocks: FoldedBlocks) -> list[np.ndarray]:
    """The checked (B, n, n) evolution stack on each of the blocks' parts. A
    layer with no block on a part is skipped; the first layer multiplies
    into a broadcast identity.

    A draw is measured by ``require_unitary`` exactly when its certificate
    is not within ``unitarity_tolerance(n)``, NaN included; a tile with no
    certified draw is measured as it is. Each draw's defect bound is its
    certificate or its measured defect, and the product of the parts,
    prod (1 + d) - 1, taken as a + b + a b so that one part's is its d,
    must meet the tolerance of the whole dimension, else UnitarityError;
    for one part it can fail only on a NaN."""
    stacks, defects = [], []
    for part, certificate in zip(blocks.parts, blocks.certificates):
        legs = {p: k for k, p in enumerate(part, start=1)}
        dims = [graph.dims[p - 1] for p in part]
        n = prod(dims)
        u = np.broadcast_to(np.eye(n, dtype=complex), (blocks.draws, n, n))
        for layer in blocks.layers:
            applied = [([legs[p] for p in clique], block)
                       for clique, block in layer if clique[0] in legs]
            if applied:
                u = layer_unitary(applied, dims, u)
        # a part without blocks is still the read-only broadcast identity
        u = np.require(u, requirements="W")
        measured = ~(certificate <= unitarity_tolerance(n))
        d = certificate.copy()
        if measured.any():
            d[measured] = require_unitary(u if measured.all() else u[measured])
        stacks.append(u)
        defects.append(d)
    bound = float(reduce(lambda a, b: a + b + a * b, defects).max())
    tol = unitarity_tolerance(graph.total_dim)
    if not bound <= tol:
        raise UnitarityError(bound, tol)
    return stacks


def evolution_unitary(graph: InteractionGraph,
                      stream: RandomStream | Sequence[RandomStream] | FoldedBlocks,
                      dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Full evolution operator: layers[0] acts first, later layers multiply
    from the left. Clique c of layer i draws from stream.substream(i, c), Haar
    singletons are folded (module docstring); a layer with blocks is one layer_unitary.

    Given a sequence of B streams, return the (B, N, N) stack whose j-th
    matrix is the evolution drawn from streams[j] alone; an empty sequence
    raises ValueError. Given a stack's FoldedBlocks, or a slice of them,
    build the stack of those draws from the blocks already drawn, whose
    ``_folded_blocks`` call checked the cap.
    """
    if isinstance(stream, FoldedBlocks):
        single, blocks = False, stream
    else:
        single, streams = as_streams(stream)
        blocks = _folded_blocks(graph, streams, dim_cap)
    u, = _evolutions(graph, blocks)
    return u[0] if single else u


def evolution_factors(graph: InteractionGraph, streams: Sequence[RandomStream],
                      dim_cap: int = DEFAULT_DIM_CAP) -> list[np.ndarray]:
    """The tensor factors of the evolution stack drawn from ``streams``: one
    (B, n_c, n_c) stack per connected component, in components(graph) order,
    each checked as a part of ``_evolutions``, which also bounds their
    Kronecker product's defect by the tolerance of the whole dimension."""
    return _evolutions(graph, _folded_blocks(graph, streams, dim_cap, components(graph)))
