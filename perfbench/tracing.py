"""In-memory spans around calls into unigraph's public functions.

Each wrapped function is replaced on the module where its caller looks the
name up, so the package itself is never edited. Spans keep a parent link;
a span's self time is its duration minus its direct children's durations,
so the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

ENTROPY_FUNCTIONS = ("eigenvector_entropy", "element_entropy", "partial_trace",
                     "von_neumann_entropy", "purity", "mean_random_vector_entropy",
                     "page_mean_entropy", "mean_purity")

# (module, attribute, span): the attribute is patched on the module whose code
# calls it, e.g. tensor.layer_unitary calls haar_unitary from tensor's globals.
WRAPS = (
    ("unigraph.cli", "main", "cli"),
    ("unigraph.cli", "load_graph_spec", "graph.parse"),
    ("unigraph.cli", "graph_hash", "graph.hash"),
    ("unigraph.cli", "run_ensemble", "ensemble"),
    ("unigraph.ensemble", "run_ensemble", "ensemble"),
    ("unigraph.ensemble", "graph_hash", "graph.hash"),
    ("unigraph.ensemble", "evolution_unitary", "tensor.evolution"),
    ("unigraph.ensemble", "haar_unitary", "rand.haar"),
    ("unigraph.tensor", "layer_unitary", "tensor.layer"),
    ("unigraph.tensor", "haar_unitary", "rand.haar"),
    ("unigraph.tensor", "require_unitary", "tensor.final_check"),
    ("unigraph.spectral", "eigendecompose", "spectral.eigen"),
    ("unigraph.spectral", "reference_cdf", "spectral.cdf"),
    ("unigraph.spectral", "ks_statistic", "spectral.ks"),
) + tuple(("unigraph.entropy", name, "entropy") for name in ENTROPY_FUNCTIONS)

# span -> number of work items in one call, from the call's arguments
ITEMS = {"spectral.ks": lambda sample, *args, **kwargs: len(sample)}

# (metric, unit, span, field); field is calls, self, items or failures
LAYER_METRICS = (
    ("graph.parse_s", "s/campaign", "graph.parse", "self"),
    ("graph.hash_s", "s/campaign", "graph.hash", "self"),
    ("rand.haar_calls", "count/campaign", "rand.haar", "calls"),
    ("rand.haar_s", "s/campaign", "rand.haar", "self"),
    ("tensor.layer_calls", "count/campaign", "tensor.layer", "calls"),
    ("tensor.layer_self_s", "s/campaign", "tensor.layer", "self"),
    ("tensor.final_check_s", "s/campaign", "tensor.final_check", "self"),
    ("tensor.evolution_self_s", "s/campaign", "tensor.evolution", "self"),
    ("spectral.eigen_calls", "count/campaign", "spectral.eigen", "calls"),
    ("spectral.eigen_s", "s/campaign", "spectral.eigen", "self"),
    ("spectral.eigen_failures", "count/campaign", "spectral.eigen", "failures"),
    ("spectral.cdf_calls", "count/campaign", "spectral.cdf", "calls"),
    ("spectral.cdf_s", "s/campaign", "spectral.cdf", "self"),
    ("spectral.ks_points", "count/campaign", "spectral.ks", "items"),
    ("spectral.ks_self_s", "s/campaign", "spectral.ks", "self"),
    ("entropy.calls", "count/campaign", "entropy", "calls"),
    ("entropy.s", "s/campaign", "entropy", "self"),
    ("ensemble.self_s", "s/campaign", "ensemble", "self"),
    ("cli.self_s", "s/campaign", "cli", "self"),
)


class Tracer:
    """Records spans as [name, parent index, start, end, items, failed]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: set[str] = set()

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        items = ITEMS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0,
                    items(*args, **kwargs) if items else 0, False]
            spans.append(span)
            open_.append(index)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[3] = clock()
                open_.pop()
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block. A name that
        no longer exists is recorded in ``missing`` and skipped."""
        saved = []
        try:
            for module_name, attr, span in WRAPS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(span)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time, items and failures."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end, items, failed), below in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "self": 0.0, "items": 0,
                                          "failures": 0})
            entry["calls"] += 1
            entry["self"] += end - start - below
            entry["items"] += items
            entry["failures"] += int(failed)
        return out

    def layer_metrics(self, campaigns: int) -> dict[str, dict]:
        """Per-campaign layer metrics; a metric whose span could not be
        installed is left out rather than reported as zero."""
        totals = self.totals()
        empty = {"calls": 0, "self": 0.0, "items": 0, "failures": 0}
        metrics = {}
        for metric, unit, span, field in LAYER_METRICS:
            if span in self.missing:
                continue
            value = totals.get(span, empty)[field]
            metrics[metric] = {"value": value / campaigns, "unit": unit}
        return metrics

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], parent, start, end, items, failed]
                for name, parent, start, end, items, failed in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names,
                       "columns": ["name", "parent", "start", "end", "items", "failed"],
                       "spans": rows}, handle)
