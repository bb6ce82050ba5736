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
to a broadcast identity, and the finished stack gets one unitarity check
against the per-matrix tolerance. Matrix j of the stack is bit-identical to
the draw from streams[j] alone, whatever B is. A campaign draws and folds a
stack's blocks once (``_folded_blocks``) and builds the stack in tiles of
consecutive draws, one ``evolution_unitary`` call and one check per tile,
from slices of those blocks (``FoldedBlocks``).

``evolution_factors`` builds a draw's tensor factors instead, one per
connected component on its own legs, from the same one draw and fold of all
blocks; a component skips the layers with no block on it. The factors
compose, by Kronecker product in component order, to the full evolution,
which is still built on all N legs, not from them.
"""

from __future__ import annotations

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
    pairs. Slicing takes the blocks of consecutive draws, as slicing takes
    their streams."""

    def __init__(self, layers: list[list[tuple[tuple[int, ...], np.ndarray]]], draws: int):
        self.layers = layers
        self.draws = draws

    def __getitem__(self, index: slice) -> "FoldedBlocks":
        return FoldedBlocks([[(clique, block[index]) for clique, block in layer]
                             for layer in self.layers], len(range(self.draws)[index]))


def _check_cap(dim: int, dim_cap: int) -> None:
    """Refuse a ``dim_cap`` that is not an integer >= 1, then a ``dim`` over it."""
    dim_cap = _integer(dim_cap, "dim_cap", 1)
    if dim > dim_cap:
        raise DimensionCapExceeded(dim, dim_cap)


def _folded_blocks(graph: InteractionGraph, streams: Sequence[RandomStream],
                   dim_cap: int) -> FoldedBlocks:
    """The blocks of the evolutions drawn from ``streams``: every block drawn
    up front, then every Haar singleton folded (module docstring). A graph
    over ``dim_cap`` raises before any draw."""
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
    return FoldedBlocks(layers, len(streams))


def _evolutions(graph: InteractionGraph, blocks: FoldedBlocks,
                parts: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """The checked (B, n, n) evolution stack on each union of components in
    ``parts``, from one stack's blocks; a layer with no block on a part is
    skipped. The first layer multiplies into a broadcast identity."""
    stacks = []
    for part in parts:
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
        stacks.append(require_unitary(np.require(u, requirements="W")))
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
    u, = _evolutions(graph, blocks, [range(1, graph.num_particles + 1)])
    return u[0] if single else u


def evolution_factors(graph: InteractionGraph, streams: Sequence[RandomStream],
                      dim_cap: int = DEFAULT_DIM_CAP) -> list[np.ndarray]:
    """The tensor factors of the evolution stack drawn from ``streams``: one
    (B, n_c, n_c) stack per connected component, in components(graph) order.
    Each factor passes require_unitary, and their Kronecker product's defect
    bound, prod_c (1 + defect_c) - 1, must meet the tolerance of the whole
    dimension, else UnitarityError."""
    factors = _evolutions(graph, _folded_blocks(graph, streams, dim_cap),
                          components(graph))
    bound = float((np.prod([1.0 + unitarity_defects(u) for u in factors], axis=0)
                   - 1.0).max())
    tol = unitarity_tolerance(graph.total_dim)
    if bound > tol:
        raise UnitarityError(bound, tol)
    return factors
