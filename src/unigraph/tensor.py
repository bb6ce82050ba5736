"""Assembly of layer and evolution unitaries by contraction on tensor legs.

Index convention: the global basis index is row-major over the per-particle
dims, with particle 1 the most significant digit. Reshaping the N = prod(dims)
rows of an operand to ``dims`` therefore gives one axis (leg) per particle.

A block on a clique acts on the clique's legs in increasing particle order and
as identity on every other leg. ``apply_block`` moves the clique's legs next
to each other (``np.moveaxis``; legs that are already adjacent are only
reshaped), and multiplies the block into them as one batched ``np.matmul``
over the legs in front, at O(N * M * b) for an N x M operand and a block of
order b. Layers are applied to the running operator clique by clique, so
neither a lifted block nor a layer matrix is ever formed.

Given a sequence of B streams in place of one, ``layer_unitary`` and
``evolution_unitary`` build B independent draws as one (B, N, N) stack: each
block order is sampled by one ``haar_unitary`` call for all draws, each
clique's (B, b, b) block stack is applied to the operand stack in one
``apply_block`` call, and the finished stack gets one unitarity check
against the per-matrix tolerance. Matrix j of the stack is bit-identical to
the draw from streams[j] alone, whatever B is.

Given ``particles``, a union of connected components of the graph, both
build only the evolution's tensor factor on those particles' legs. Clique c
of layer i still draws from substream(i, c), c its index in the whole
layer, so the factors of a disconnected graph's draw compose, by Kronecker
product in component order, to that draw's full evolution.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .graph import InteractionGraph, Layer
from .rand import RandomStream, as_streams, haar_unitary, require_unitary

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


def layer_unitary(layer: Layer, dims: Sequence[int],
                  stream: RandomStream | Sequence[RandomStream],
                  operand: np.ndarray,
                  particles: Sequence[int] | None = None) -> np.ndarray:
    """Sample one block per clique and return (layer unitary) @ ``operand``.

    The cliques are disjoint, so their blocks commute; clique c draws from
    stream.substream(c). Identity singletons are skipped. Blocks of one
    order are drawn as one stack, then applied in clique order, which fixes
    the rounding. Given B streams, ``operand`` is a (B, N, ...) stack and
    operand j gets the layer drawn from streams[j].

    Given ``particles``, increasing 1-based indices that no clique straddles,
    only the cliques inside them act, on an operand over those particles'
    legs alone; clique c still draws from substream(c), c its index in the
    whole layer.
    """
    single, streams = as_streams(stream)
    batch = () if single else (len(streams),)
    legs = {p: k for k, p in enumerate(particles or range(1, len(dims) + 1), start=1)}
    groups: dict[int, list[int]] = {}
    for c, clique in enumerate(layer.cliques):
        if clique.particles[0] not in legs or (
                len(clique) == 1 and layer.singletons == "identity"):
            continue
        groups.setdefault(prod(dims[p - 1] for p in clique), []).append(c)
    blocks = {}
    for order, members in groups.items():
        stack = haar_unitary(order, [s.substream(c) for s in streams for c in members])
        stack = stack.reshape(batch + (len(members), order, order))
        blocks.update((c, stack[..., k, :, :]) for k, c in enumerate(members))
    leg_dims = [dims[p - 1] for p in legs]
    for c in sorted(blocks):
        operand = apply_block(blocks[c], [legs[p] for p in layer.cliques[c]],
                              leg_dims, operand)
    return operand


def evolution_unitary(graph: InteractionGraph,
                      stream: RandomStream | Sequence[RandomStream],
                      dim_cap: int = DEFAULT_DIM_CAP,
                      particles: Sequence[int] | None = None) -> np.ndarray:
    """Full evolution operator: layers[0] acts first, later layers multiply
    from the left. Layer i consumes stream.substream(i).

    Given a sequence of B streams, return the (B, N, N) stack whose j-th
    matrix is the evolution drawn from streams[j] alone; an empty sequence
    raises ValueError. Given ``particles``, a union of connected components
    (graph.components), return the evolution's factor on them alone, drawn
    from the same substreams; the cap still applies to the whole graph.
    """
    total = graph.total_dim
    if total > dim_cap:
        raise DimensionCapExceeded(total, dim_cap)
    single, streams = as_streams(stream)
    dim = prod(graph.dims[p - 1] for p in particles) if particles else total
    u = np.tile(np.eye(dim, dtype=complex), (len(streams), 1, 1))
    for i, layer in enumerate(graph.layers):
        u = layer_unitary(layer, graph.dims, [s.substream(i) for s in streams], u,
                          particles)
    u = require_unitary(u)
    return u[0] if single else u
