"""Random unitary ensembles structured by interaction graphs.

Builds evolution operators from colored layers of cliques over k
subsystems, and measures whether their spectral, eigenvector, and
element statistics follow CUE or Poisson predictions.
"""

__version__ = "0.1.0"

from .ensemble import (Analysis, BenchmarkResult, EnsembleReport, EnsembleSpec,
                       ReferenceEnsemble, benchmark_generation, run_ensemble)
from .entropy import (element_entropy, eigenvector_entropy, mean_purity,
                      mean_random_vector_entropy, page_mean_entropy, partial_trace,
                      purity, von_neumann_entropy)
from .graph import (Clique, InteractionGraph, Layer, ParticleSystem, chain_graph,
                    from_bond_vertex_graph, graph_hash, is_connected,
                    load_graph_spec, parse_graph_spec, ring_graph, serialize_graph,
                    validate_layer)
from .rand import (DEFAULT_SEED, RandomStream, haar_unitary, random_phases_diagonal,
                   sample_composed, unitarity_defect)
from .spectral import (Histogram, SpectralData, eigendecompose, eigenphases,
                       ks_statistic, phase_uniformity, reference_cdf, spacings)
from .tensor import DEFAULT_DIM_CAP, evolution_unitary, layer_unitary
