"""Assembly of layer and evolution unitaries by contraction on tensor legs.

Index convention: the global basis index is row-major over the per-particle
dims, with particle 1 the most significant digit. Reshaping the N = prod(dims)
rows of an operand to ``dims`` therefore gives one axis (leg) per particle.

A block on a clique acts on the clique's legs in increasing particle order and
as identity on every other leg. ``apply_block`` moves the clique's legs next
to each other (``np.moveaxis``), which copies nothing when they are already
adjacent, and multiplies the block into them as one batched ``np.matmul``
over the legs in front, at O(N * M * b) for an N x M operand and a block of
order b. Layers are applied to the running operator clique by clique, so
neither a lifted block nor a layer matrix is ever formed.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .graph import InteractionGraph, Layer
from .rand import RandomStream, haar_unitary, require_unitary

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
    matrix with prod(dims) rows.
    """
    legs = sorted(p - 1 for p in clique)
    block_dim = prod(dims[p] for p in legs)
    if block.shape != (block_dim, block_dim):
        raise BlockDimMismatch(
            f"block of shape {block.shape} does not fit clique dims {block_dim}")
    first = legs[0]
    together = range(first, first + len(legs))
    tensor = np.moveaxis(operand.reshape(tuple(dims) + operand.shape[1:]), legs, together)
    out = np.matmul(block, tensor.reshape(prod(dims[:first]), block_dim, -1))
    return np.moveaxis(out.reshape(tensor.shape), together, legs).reshape(operand.shape)


def layer_unitary(layer: Layer, dims: Sequence[int], stream: RandomStream,
                  operand: np.ndarray) -> np.ndarray:
    """Sample one block per clique and return (layer unitary) @ ``operand``.

    The cliques are disjoint, so their blocks commute; clique c draws from
    stream.substream(c). Identity singletons are skipped.
    """
    for c, clique in enumerate(layer.cliques):
        if len(clique) == 1 and layer.singletons == "identity":
            continue
        block = haar_unitary(prod(dims[p - 1] for p in clique), stream.substream(c))
        operand = apply_block(block, clique, dims, operand)
    return operand


def evolution_unitary(graph: InteractionGraph, stream: RandomStream,
                      dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Full evolution operator: layers[0] acts first, later layers multiply
    from the left. Layer i consumes stream.substream(i)."""
    total = graph.total_dim
    if dim_cap is not None and total > dim_cap:
        raise DimensionCapExceeded(total, dim_cap)
    u = np.eye(total, dtype=complex)
    for i, layer in enumerate(graph.layers):
        u = layer_unitary(layer, graph.dims, stream.substream(i), u)
    return require_unitary(u)
