"""Command-line surface: gen, run, bench, validate.

``gen`` writes its unitary exactly (``unitary.npy`` and a ``unitary.json``),
``run`` plot-ready CSV/JSON. Provenance (command line, seed, graph hash) in each
JSON and CSV lets the printed command reproduce every file, timing aside.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shlex
import sys

import numpy as np

from . import __version__
from .ensemble import (REFERENCE_KINDS, Analysis, BenchmarkResult, EnsembleSpec,
                       IncompatibleAnalysis, ReferenceEnsemble, benchmark_generation,
                       run_ensemble)
from .entropy import nats_to_bits
from .graph import (GraphSpecError, InteractionGraph, chain_graph,
                    from_bond_vertex_graph, graph_hash, is_connected,
                    load_graph_spec, ring_graph, serialize_graph)
from .rand import DEFAULT_SEED, RandomStream
from .tensor import DEFAULT_DIM_CAP, DimensionCapExceeded, evolution_unitary

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_CAP_EXCEEDED = 3

# report values that are entropies in nats; each is shown in nats and in bits
_ENTROPY_KEYS = {
    "evec_entropy": ("mean",),
    "element_entropy": ("mean",),
    "entanglement": ("mean_entropy",),
    "projection": ("mean_entropy",),
    "state_sample": ("mean_entropy",),
}


def _add_source_args(parser: argparse.ArgumentParser, references: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="PATH", help="graph spec JSON file")
    group.add_argument("--ring", type=int, metavar="K", help="two-color ring of K particles")
    group.add_argument("--chain", type=int, metavar="K", help="stepwise chain of K particles")
    group.add_argument("--bond-vertex", metavar="BONDS/VERTICES",
                       help="bond/vertex builder, e.g. '1,2;3,4/2,3;1,4' "
                            "(cliques ';'-separated, particles ','-separated)")
    if references:
        group.add_argument("--cue", type=int, metavar="N", help="direct CUE matrices of size N")
        group.add_argument("--composed", type=int, metavar="N",
                           help="composed ensemble P1 X P2 X^dagger of size N")
        group.add_argument("--diagonal", type=int, metavar="N",
                           help="random-phase diagonal matrices of size N")
    parser.add_argument("--n", type=int, default=None, metavar="DIM",
                        help="local dimension for --ring, --chain and --bond-vertex "
                             "(default 2)")


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", default=None, metavar="INT|random",
                        help=f"master seed (default {DEFAULT_SEED:#x}; 'random' draws one)")
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument("--dim-cap", type=int, default=None, metavar="N",
                        help="total-dimension cap (default 4096)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="unigraph",
        description="Random unitary ensembles structured by interaction graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample one evolution unitary and write it")
    _add_source_args(gen, references=False)
    _add_common_args(gen)

    run = sub.add_parser("run", help="run a Monte Carlo campaign and write a report")
    _add_source_args(run, references=True)
    _add_common_args(run)
    run.add_argument("--draws", type=int, required=True, metavar="T")
    run.add_argument("--analyses", required=True, metavar="LIST",
                     help="comma list, e.g. spacing,evec_entropy,entanglement:1,2 "
                          "(analysis parameters follow a colon)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="csv: sibling histogram files; json: embed in report")

    bench = sub.add_parser("bench", help="time structured vs CUE generation")
    _add_source_args(bench, references=False)
    _add_common_args(bench)
    bench.set_defaults(out=None)  # no --out, no bench.json
    bench.add_argument("--draws", type=int, required=True, metavar="T")

    val = sub.add_parser("validate", help="validate a graph spec and report on it")
    _add_source_args(val, references=False)
    return parser


def _parse_analyses(text: str) -> tuple[Analysis, ...]:
    # bare-integer tokens extend the previous analysis, so
    # "spacing,entanglement:1,2" reads as spacing + entanglement:(1,2)
    items: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if token.isdigit() and items:
            items[-1] += "," + token
        else:
            items.append(token)
    return tuple(Analysis.parse(item) for item in items)


def _resolve_seed(raw: str | None) -> int:
    if raw is None:
        return DEFAULT_SEED
    if raw == "random":
        return int(np.random.SeedSequence().entropy % (1 << 64))
    try:
        seed = int(raw, 0)
    except ValueError:
        seed = -1  # refused below
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"--seed must be an integer in [0, 2**64) or 'random', got {raw!r}")
    return seed


def _parse_groups(text: str) -> list[tuple[int, ...]]:
    try:
        return [tuple(int(p) for p in group.split(",")) for group in text.split(";")]
    except ValueError as exc:
        raise GraphSpecError(f"cannot parse particle groups from {text!r}") from exc


def _source(args) -> tuple[InteractionGraph | ReferenceEnsemble, str]:
    """The source the flags select, and its spec hash for provenance. --n
    (default 2) is the builders' local dimension; any other source fixes
    its own dimensions and refuses it."""
    n = 2 if args.n is None else args.n
    if args.ring is not None:
        graph = ring_graph(args.ring, n)
    elif args.chain is not None:
        graph = chain_graph(args.chain, n)
    elif args.bond_vertex is not None:
        bonds, _, vertices = args.bond_vertex.partition("/")
        if not vertices:
            raise GraphSpecError(
                "--bond-vertex needs BONDS/VERTICES, e.g. '1,2;3,4/2,3;1,4'")
        graph = from_bond_vertex_graph(_parse_groups(bonds), _parse_groups(vertices), n=n)
    else:
        kind = "graph" if args.graph is not None else next(
            k for k in REFERENCE_KINDS if getattr(args, k) is not None)
        if args.n is not None:
            raise GraphSpecError(f"--n does not apply to --{kind}, which sets its own "
                                 "dimensions; --n is for --ring, --chain and --bond-vertex")
        if kind != "graph":
            source = ReferenceEnsemble(kind, getattr(args, kind))
            return source, f"{kind}:{source.dim}"
        graph = load_graph_spec(args.graph)
    return graph, graph_hash(graph)


def _command(args, seed: int) -> str:
    """The shell-quoted command line that reproduces this output: every given
    flag in parser order, with the resolved seed and without --out. Each flag
    is ``--`` + its dest with ``_`` -> ``-``."""
    given = {**vars(args), "seed": seed}
    words = ["unigraph", given.pop("command")]
    del given["out"]
    for dest, value in given.items():
        if value is None or value is False:
            continue
        words.append("--" + dest.replace("_", "-"))
        if value is not True:
            words.append(str(value))
    return shlex.join(words)


def _provenance(command: str, seed: int, spec_hash: str) -> dict:
    return {
        "command": command,
        "seed": seed,
        "spec_hash": spec_hash,
        "versions": {
            "unigraph": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def _provenance_comment(prov: dict) -> str:
    lines = [f"# command: {prov['command']}",
             f"# seed: {prov['seed']}",
             f"# spec_hash: {prov['spec_hash']}"]
    versions = ", ".join(f"{k} {v}" for k, v in prov["versions"].items())
    lines.append(f"# versions: {versions}")
    return "\n".join(lines) + "\n"


def _check_out(out: str | None) -> None:
    """Refuse an ``out`` that _write could not make: one that is, or lies
    under, an existing path that is not a directory."""
    if out is None:
        return
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"--out {out}: {path} is not a directory")


def _write(out: str | None, files: list[tuple[str, object]]) -> list[str]:
    """Write each (name, content) pair under ``out`` and return the paths:
    an array as .npy, a dict as JSON, a str as text. The only code that makes
    ``out`` or opens an output file, so a refused command writes nothing."""
    if out is None:
        return []
    os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, name) for name, _ in files]
    for path, (_, content) in zip(paths, files):
        if isinstance(content, np.ndarray):
            np.save(path, content)
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(content, indent=1) + "\n"
                         if isinstance(content, dict) else content)
    return paths


def _cmd_gen(args, graph: InteractionGraph, seed: int, dim_cap: int, prov: dict) -> list:
    u = evolution_unitary(graph, RandomStream(seed, 0), dim_cap=dim_cap)
    return [("unitary.npy", u),
            ("unitary.json", {"provenance": prov, "dim": int(u.shape[0]),
                              "matrix": "unitary.npy"})]


def _cmd_run(args, source, seed: int, dim_cap: int, prov: dict) -> list:
    spec = EnsembleSpec(
        source=source, draws=args.draws, master_seed=seed,
        analyses=_parse_analyses(args.analyses), dim_cap=dim_cap)
    doc = {**run_ensemble(spec).to_dict(), "provenance": prov}
    files = []
    if args.format == "csv":
        # each histogram's text, made once by to_dict, moves to <kind>[_<prefix>].csv
        for name, entry in doc["analyses"].items():
            for key in [key for key in entry if key.endswith("histogram")]:
                filename = "_".join([name, *key.split("_")[:-1]]) + ".csv"
                files.append((filename, _provenance_comment(prov) + entry[key]))
                entry[key] = filename
    files.append(("report.json", doc))

    for name, result in doc["analyses"].items():
        entropy_keys = _ENTROPY_KEYS.get(name, ())
        summary = []
        for key in ("mean", "mean_entropy", "variance", "ks_wigner", "ks_poisson",
                    "p_value", "mean_purity"):
            if key in result:
                if result[key] is None:  # e.g. chi-square skipped on too few phases
                    summary.append(f"{key}=n/a")
                elif key in entropy_keys:
                    summary.append(f"{key}={result[key]:.6f} nats "
                                   f"({nats_to_bits(result[key]):.6f} bits)")
                else:
                    summary.append(f"{key}={result[key]:.6g}")
        if name == "trace_moments":
            summary.append(f"mean_tr_u={result['mean_real'][0]:.4g}"
                           f"{result['mean_imag'][0]:+.4g}j")
        print(f"{name}: " + ", ".join(summary))
    return files


def _cmd_bench(args, graph: InteractionGraph, seed: int, dim_cap: int, prov: dict) -> list:
    result = benchmark_generation(graph, args.draws, master_seed=seed, dim_cap=dim_cap)
    _print_bench_table(result, len(graph.layers))
    return [("bench.json", {"provenance": prov, "dim": result.dim, "draws": result.draws,
                            "structured_seconds": result.structured_seconds,
                            "cue_seconds": result.cue_seconds, "ratio": result.ratio})]


def _print_bench_table(result: BenchmarkResult, num_layers: int) -> None:
    rows = [
        (f"CUE, N={result.dim}", result.draws, result.cue_seconds, 100.0),
        (f"graph ({num_layers} layers), N={result.dim}", result.draws,
         result.structured_seconds, 100.0 * result.ratio),
    ]
    print(f"{'matrix type':<28} {'# matrices':>10} {'time [s]':>10} {'rel. time [%]':>14}")
    for name, count, seconds, rel in rows:
        print(f"{name:<28} {count:>10} {seconds:>10.3f} {rel:>14.1f}")


def _cmd_validate(args) -> int:
    graph, spec_hash = _source(args)
    print(f"particles: {graph.num_particles}")
    print(f"dims: {list(graph.dims)}")
    print(f"total dimension: {graph.total_dim}")
    print(f"layers: {len(graph.layers)}")
    print(f"connected: {is_connected(graph)}")
    print(f"hash: {spec_hash}")
    sys.stdout.write(serialize_graph(graph) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        # gen, run and bench: the seed is printed before any work can fail, and
        # only _write, after the body's last refusal, touches --out
        seed = _resolve_seed(args.seed)
        print(f"seed: {seed}")
        _check_out(args.out)
        source, spec_hash = _source(args)
        command = _command(args, seed)
        body = {"gen": _cmd_gen, "run": _cmd_run, "bench": _cmd_bench}[args.command]
        dim_cap = DEFAULT_DIM_CAP if args.dim_cap is None else args.dim_cap
        files = body(args, source, seed, dim_cap, _provenance(command, seed, spec_hash))
        for path in _write(args.out, files):
            print(f"wrote {path}")
        print(f"re-run: {command}")
        return EXIT_OK
    except DimensionCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (GraphSpecError, IncompatibleAnalysis, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
