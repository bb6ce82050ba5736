"""Campaign benchmark for unigraph.

Runs one workload closed-loop (one client, serial campaigns, workers=1,
BLAS pinned to one thread) for a fixed time, checks every campaign's output
and prints one JSON result as the last line of standard output:

    python3 perfbench/run.py --workload vectors_ring8 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds of the same campaigns and reports per-layer metrics from spans
recorded around calls into unigraph's public functions (see tracing.py).
The package is imported from ``src/`` next to this directory; the benchmark
exits non-zero without a result when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2  # extra cold set-ups in child processes; setup_s is the median

RING8_DRAWS = 30
RING8_ANALYSES = ("spacing", "evec_entropy", "entanglement:1,2,3,4", "projection:1")
CHAIN6_DRAWS = 600
SCAN_DRAWS = 20
SCAN_LAYERS = 3
# six size classes (N = 16, 24, 36, 54, 64, 64), each used connected and
# disconnected, with and without an identity-singleton layer: 24 campaigns.
# The seed places the dimension-3 particles and draws every clique.
SCAN_DIMS = ((2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 3), (2,) * 6, (2,) * 6)


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no package to import)."""


# ---------------------------------------------------------------------------
# Campaigns and their output checks
# ---------------------------------------------------------------------------

def _histogram_rows(csv_text: str) -> tuple[list[tuple[float, int]], int]:
    """(bin_left, count) rows and the overflow count of a histogram CSV."""
    rows, overflow = [], 0
    for line in csv_text.strip().splitlines()[1:]:
        left, _, count, _ = line.split(",")
        if left == "overflow":
            overflow = int(count)
        else:
            rows.append((float(left), int(count)))
    return rows, overflow


def check_vectors(doc: dict) -> list[str]:
    """Acceptance-suite tolerances for a connected graph's eigen-statistics."""
    a = doc["analyses"]
    problems = []
    if abs(a["spacing"]["mean"] - 1.0) > 1e-12:
        problems.append(f"spacing mean {a['spacing']['mean']!r} is not 1")
    if abs(a["spacing"]["variance"] - 0.178) > 0.02:
        problems.append(f"spacing variance {a['spacing']['variance']:.4f} not 0.178 +/- 0.02")
    ev = a["evec_entropy"]
    if abs(ev["mean"] - ev["reference_mean"]) > 0.01 * ev["reference_mean"]:
        problems.append(f"evec_entropy {ev['mean']:.4f} not within 1% of {ev['reference_mean']:.4f}")
    en = a["entanglement"]
    if abs(en["mean_entropy"] - en["page_reference"]) > 0.02 * en["page_reference"]:
        problems.append(f"entanglement {en['mean_entropy']:.4f} not within 2% "
                        f"of {en['page_reference']:.4f}")
    if a["projection"]["skipped_slices"] != 0:
        problems.append(f"{a['projection']['skipped_slices']} projection slices skipped")
    return problems


def check_generate(doc: dict, dim: int, dim_a: int, draws: int) -> list[str]:
    """Entropies in [0, ln dim_a] and purities in [1/dim_a, 1]; per-draw values
    are checked to the resolution of the report's histograms."""
    a = doc["analyses"]
    el, st = a["element_entropy"], a["state_sample"]
    problems = []
    if el["draws"] != draws or st["draws"] != draws:
        problems.append(f"expected {draws} draws, got {el['draws']} and {st['draws']}")
    if not 0.0 <= el["mean"] <= math.log(dim):
        problems.append(f"element entropy mean {el['mean']} outside [0, ln {dim}]")
    rows, _ = _histogram_rows(el["histogram"])
    if any(count for left, count in rows if left > math.log(dim)):
        problems.append(f"an element entropy exceeds ln {dim}")
    if not 0.0 <= st["mean_entropy"] <= math.log(dim_a):
        problems.append(f"state entropy mean {st['mean_entropy']} outside [0, ln {dim_a}]")
    if not 1.0 / dim_a <= st["mean_purity"] <= 1.0:
        problems.append(f"state purity mean {st['mean_purity']} outside [1/{dim_a}, 1]")
    rows, overflow = _histogram_rows(st["histogram"])
    if overflow or any(count for left, count in rows if left > math.log(dim_a)):
        problems.append(f"a state entropy lies outside [0, ln {dim_a}]")
    return problems


def check_scan(doc: dict, draws: int, dim: int) -> list[str]:
    a = doc["analyses"]
    problems = []
    if abs(a["spacing"]["mean"] - 1.0) > 1e-12:
        problems.append(f"spacing mean {a['spacing']['mean']!r} is not 1")
    for name in ("spacing", "phase_density"):
        if a[name]["count"] != draws * dim:
            problems.append(f"{name} count {a[name]['count']} != {draws} x {dim}")
    return problems


class LibraryCampaign:
    """One run_ensemble call; the report without timing is its output."""

    def __init__(self, ug, spec, check):
        self.ensemble = ug.ensemble
        self.spec = spec
        self.check = check
        self.draws = spec.draws

    def run(self):
        # looked up on every call so that a traced round sees the wrapper
        return self.ensemble.run_ensemble(self.spec, workers=1)

    def inspect(self, report) -> tuple[dict, list[str]]:
        doc = report.to_dict(include_timing=False)
        return doc, self.check(doc)


class CliCampaign:
    """One in-process ``unigraph run`` on a spec file; report.json is its output."""

    def __init__(self, ug, spec_path: Path, out_dir: Path, seed: int, dim: int):
        self.cli = ug.cli
        self.report_path = out_dir / "report.json"
        self.draws = SCAN_DRAWS
        self.dim = dim
        self.argv = ["run", "--graph", str(spec_path), "--analyses", "spacing,phase_density",
                     "--draws", str(SCAN_DRAWS), "--seed", str(seed),
                     "--format", "json", "--out", str(out_dir)]

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv)

    def inspect(self, code) -> tuple[dict | None, list[str]]:
        if code != 0:
            return None, [f"unigraph run exited {code}"]
        with open(self.report_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc.pop("wall_seconds")
        return doc, check_scan(doc, self.draws, self.dim)


# ---------------------------------------------------------------------------
# Workloads: each builds its campaigns from the seed
# ---------------------------------------------------------------------------

def build_vectors_ring8(ug, seed: int, work: Path):
    analyses = tuple(ug.Analysis.parse(text) for text in RING8_ANALYSES)
    spec = ug.EnsembleSpec(source=ug.ring_graph(8, 2), draws=RING8_DRAWS,
                           master_seed=seed, analyses=analyses)
    return [LibraryCampaign(ug, spec, check_vectors)], {"dim": spec.dim, "draws": spec.draws}


def build_generate_chain6(ug, seed: int, work: Path):
    spec = ug.EnsembleSpec(source=ug.chain_graph(6, 2), draws=CHAIN6_DRAWS,
                           master_seed=seed,
                           analyses=(ug.Analysis("element_entropy"),
                                     ug.Analysis("state_sample")))
    dim_a = 8  # state_sample's default keep set is particles 1..3 of six qubits

    def check(doc):
        return check_generate(doc, spec.dim, dim_a, CHAIN6_DRAWS)
    return [LibraryCampaign(ug, spec, check)], {"dim": spec.dim, "draws": spec.draws}


def scan_graph(ug, rng: random.Random, dims, connected: bool, identity: bool):
    """A random layered graph over ``dims``: cliques of one to three particles,
    kept inside two particle groups when ``connected`` is false; with
    ``identity`` the first layer has an idle (identity) singleton."""
    k = len(dims)
    while True:
        order = rng.sample(range(1, k + 1), k)
        cut = k if connected else rng.randint(1, k - 1)
        groups = [order[:cut], order[cut:]] if cut < k else [order]
        layers = []
        for i in range(SCAN_LAYERS):
            cliques = []
            for group in groups:
                rest = rng.sample(group, len(group))
                while rest:
                    size = rng.randint(1, min(3, len(rest)))
                    cliques.append(tuple(rest[:size]))
                    rest = rest[size:]
            mode = "identity" if identity and i == 0 else "haar"
            layers.append(ug.Layer(f"c{i}", tuple(cliques), mode))
        graph = ug.InteractionGraph(ug.ParticleSystem(tuple(dims)), tuple(layers))
        idle = any(len(c) == 1 for c in graph.layers[0].cliques)
        if ug.is_connected(graph) == connected and idle >= identity:
            return graph


def build_scan_small(ug, seed: int, work: Path):
    rng = random.Random(seed)
    slots = [(SCAN_DIMS[i % 6], (i // 6) % 2 == 0, i >= 12) for i in range(24)]
    rng.shuffle(slots)
    campaigns, disconnected, idle_layers, layers = [], 0, 0, 0
    for i, (dims, connected, identity) in enumerate(slots):
        graph = scan_graph(ug, rng, rng.sample(dims, len(dims)), connected, identity)
        spec_path = work / f"graph{i:02d}.json"
        spec_path.write_text(ug.serialize_graph(graph), encoding="utf-8")
        out_dir = work / f"out{i:02d}"
        out_dir.mkdir()
        campaigns.append(CliCampaign(ug, spec_path, out_dir, seed, graph.total_dim))
        disconnected += not ug.is_connected(graph)
        layers += len(graph.layers)
        idle_layers += sum(layer.singletons == "identity"
                           and any(len(c) == 1 for c in layer.cliques)
                           for layer in graph.layers)
    info = {"campaigns": len(campaigns),
            "dims": sorted(c.dim for c in campaigns),
            "disconnected_share": disconnected / len(campaigns),
            "identity_singleton_layer_share": idle_layers / layers}
    return campaigns, info


WORKLOADS = {
    "vectors_ring8": build_vectors_ring8,
    "generate_chain6": build_generate_chain6,
    "scan_small": build_scan_small,
}


# ---------------------------------------------------------------------------
# Running campaigns
# ---------------------------------------------------------------------------

class Runner:
    """Runs campaigns by index, checks each, and counts attempts and failures.
    A repeated campaign must give the same report as its first run."""

    def __init__(self, campaigns):
        self.campaigns = campaigns
        self.reference: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0

    def run_one(self, index: int) -> tuple[float, bool]:
        """(seconds spent in the campaign call, output correct)."""
        campaign = self.campaigns[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = campaign.run()
        except Exception as exc:  # a campaign that raises is a failed attempt
            elapsed = time.perf_counter() - start
            problems = [f"raised {exc!r}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                doc, problems = campaign.inspect(result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                doc, problems = None, [f"unreadable output: {exc!r}"]
            if doc is not None and self.reference.setdefault(index, doc) != doc:
                problems.append("report differs from an earlier run of the same campaign")
        if problems:
            self.failed += 1
            print(f"campaign {index} failed: " + "; ".join(problems), file=sys.stderr)
        return elapsed, not problems


def import_unigraph():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import unigraph
        import unigraph.cli
    except ImportError as exc:
        raise BenchError(f"cannot import unigraph from {src}: {exc}") from exc
    if not Path(unigraph.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported unigraph from {unigraph.__file__}, not from {src}")
    return unigraph


def setup(workload: str, seed: int, work: Path):
    """Import, build the campaigns (and spec files), run one warm-up campaign."""
    start = time.perf_counter()
    ug = import_unigraph()
    campaigns, info = WORKLOADS[workload](ug, seed, work)
    runner = Runner(campaigns)
    runner.run_one(0)
    return runner, info, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float | None:
    """Set-up time of a fresh process, or None if that process failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> tuple[list[float], int]:
    """Closed loop over the campaigns until ``seconds`` have passed."""
    times, draws = [], 0
    start = time.perf_counter()
    index = 0
    while not times or time.perf_counter() - start < seconds:
        i = index % len(runner.campaigns)
        elapsed, ok = runner.run_one(i)
        times.append(elapsed)
        draws += runner.campaigns[i].draws if ok else 0
        index += 1
    return times, draws


def measure_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced rounds (one pass over every campaign)
    until ``seconds`` have passed; per-layer metrics are per traced campaign."""
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced += [runner.run_one(i)[0] for i in range(len(runner.campaigns))]
        with tracer.patched():
            traced += [runner.run_one(i)[0] for i in range(len(runner.campaigns))]
    metrics = tracer.layer_metrics(len(traced))
    self_sum = sum(v["self"] for v in tracer.totals().values())
    untraced_mean = statistics.fmean(untraced)
    metrics["trace.self_sum_s"] = {"value": self_sum / len(traced), "unit": "s/campaign"}
    metrics["trace.untraced_s"] = {"value": untraced_mean, "unit": "s/campaign"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.fmean(traced) / untraced_mean - 1.0, "unit": "ratio"}
    for span in sorted(tracer.missing):
        print(f"span {span} could not be installed; its metrics are missing",
              file=sys.stderr)
    tracer.write(trace_path)
    print(f"spans written to {trace_path}", file=sys.stderr)
    return metrics


def environment() -> dict:
    import platform

    import numpy
    import scipy

    env = {"threads": {var: os.environ.get(var) for var in THREAD_VARS},
           "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
           "cpu": platform.processor() or platform.machine(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        if models:
            env["cpu"] = models[0]
    with contextlib.suppress(Exception):  # show_config's layout varies by version
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    return env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a non-negative 64-bit integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        runner, info, own_setup = setup(args.workload, args.seed, work)
        if args.probe_setup:
            print(own_setup)
            return 1 if runner.failed else 0
        if args.trace:
            metrics = measure_traced(runner, args.seconds,
                                     state / f"trace-{args.workload}.json")
        else:
            setups = [own_setup]
            for _ in range(SETUP_PROBES):
                probe = probe_setup(args.workload, args.seed)
                if probe is None:
                    runner.attempted += 1
                    runner.failed += 1
                else:
                    setups.append(probe)
            times, draws = measure(runner, args.seconds)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "draws_per_s": {"value": draws / sum(times), "unit": "draws/s"},
                "campaign_s_p50": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
                "ok_ratio": {"value": 1.0 - runner.failed / runner.attempted,
                             "unit": "ratio"},
            }
            info = {**info, "measured_campaigns": len(times), "setup_samples_s": setups}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "inputs": info}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
