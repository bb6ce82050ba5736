"""Command-line surface: gen, run, bench, validate.

Emits plot-ready CSV/JSON only; every output embeds provenance (the
reconstructed command line, seed, and graph hash) so that re-running the
printed command reproduces the file, timing fields aside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import sys

import numpy as np
import scipy  # bare scipy only, for the version that provenance records

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

# report values that are entropies in nats; converted for display under --bits
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
    group.add_argument("--square", action="store_true", help="square graph (ring of 4)")
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
                        help="local dimension for --ring, --chain, --square and "
                             "--bond-vertex (default 2)")


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", default=None, metavar="INT|random",
                        help=f"master seed (default {DEFAULT_SEED:#x}; 'random' draws one)")
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument("--dim-cap", type=int, default=None, metavar="N",
                        help="total-dimension cap (default 4096, or UNIGRAPH_DIM_CAP)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unigraph",
        description="Random unitary ensembles structured by interaction graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample one evolution unitary and write it")
    _add_source_args(gen, references=False)
    _add_common_args(gen)
    gen.add_argument("--format", choices=("csv", "json"), default="csv")

    run = sub.add_parser("run", help="run a Monte Carlo campaign and write a report")
    _add_source_args(run, references=True)
    _add_common_args(run)
    run.add_argument("--draws", type=int, required=True, metavar="T")
    run.add_argument("--analyses", required=True, metavar="LIST",
                     help="comma list, e.g. spacing,evec_entropy,entanglement:1,2 "
                          "(analysis parameters follow a colon)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="csv: sibling histogram files; json: embed in report")
    run.add_argument("--bits", action="store_true",
                     help="display entropies in bits (files stay in nats)")
    run.add_argument("--strict-paper-spacing", action="store_true",
                     help="drop the circular wrap gap (N-1 spacings per draw)")
    run.add_argument("--unweighted-projection", action="store_true",
                     help="average projection outcomes uniformly instead of "
                          "weighting by outcome probability")

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
    return int(raw, 0)


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
    elif args.square:
        graph = ring_graph(4, n)
    else:
        kind = "graph" if args.graph is not None else next(
            k for k in REFERENCE_KINDS if getattr(args, k) is not None)
        if args.n is not None:
            raise GraphSpecError(f"--n does not apply to --{kind}, which sets its own "
                                 "dimensions; --n is for --ring, --chain, --square "
                                 "and --bond-vertex")
        if kind != "graph":
            source = ReferenceEnsemble(kind, getattr(args, kind))
            return source, f"{kind}:{source.dim}"
        graph = load_graph_spec(args.graph)
    return graph, graph_hash(graph)


def _dim_cap(args) -> int:
    """--dim-cap (which main fills in from UNIGRAPH_DIM_CAP), else the default."""
    return DEFAULT_DIM_CAP if args.dim_cap is None else args.dim_cap


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
            "scipy": scipy.__version__,
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


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return path


def _cmd_gen(args, graph: InteractionGraph, seed: int, prov: dict) -> list[str]:
    u = evolution_unitary(graph, RandomStream(seed, 0), dim_cap=_dim_cap(args))
    if args.format == "json":
        doc = {"provenance": prov, "dim": int(u.shape[0]),
               "re": u.real.tolist(), "im": u.imag.tolist()}
        return [_write_json(os.path.join(args.out, "unitary.json"), doc)]
    path = os.path.join(args.out, "unitary.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_provenance_comment(prov))
        handle.write(f"# dim: {u.shape[0]}\n")
        handle.write("row,col,re,im\n")
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                handle.write(
                    f"{i},{j},{float(u[i, j].real)!r},{float(u[i, j].imag)!r}\n")
    return [path]


def _display(value: float, bits: bool) -> str:
    if bits:
        return f"{nats_to_bits(value):.6f} bits"
    return f"{value:.6f} nats"


def _cmd_run(args, source, seed: int, prov: dict) -> list[str]:
    spec = EnsembleSpec(
        source=source, draws=args.draws, master_seed=seed,
        analyses=_parse_analyses(args.analyses), dim_cap=_dim_cap(args),
        include_wrap=not args.strict_paper_spacing,
        weighted_projection=not args.unweighted_projection)
    report = run_ensemble(spec)

    doc = report.to_dict()
    doc["provenance"] = prov
    paths = []
    if args.format == "csv":
        for name, result in report.analyses.items():
            hist = result.get("histogram")
            if hist is None:
                continue
            paths.append(os.path.join(args.out, f"{name}.csv"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(_provenance_comment(prov))
                handle.write(hist.to_csv())
            doc["analyses"][name]["histogram"] = f"{name}.csv"
    paths.append(_write_json(os.path.join(args.out, "report.json"), doc))

    for name, result in report.analyses.items():
        entropy_keys = _ENTROPY_KEYS.get(name, ())
        summary = []
        for key in ("mean", "mean_entropy", "variance", "ks_wigner", "ks_poisson",
                    "p_value", "mean_purity"):
            if key in result:
                if result[key] is None:  # e.g. chi-square skipped on too few phases
                    summary.append(f"{key}=n/a")
                elif key in entropy_keys:
                    summary.append(f"{key}={_display(result[key], args.bits)}")
                else:
                    summary.append(f"{key}={result[key]:.6g}")
        if name == "trace_moments":
            summary.append(f"mean_tr_u={result['mean_real'][0]:.4g}"
                           f"{result['mean_imag'][0]:+.4g}j")
        print(f"{name}: " + ", ".join(summary))
    return paths


def _cmd_bench(args, graph: InteractionGraph, seed: int, prov: dict) -> list[str]:
    result = benchmark_generation(graph, args.draws, master_seed=seed,
                                  dim_cap=_dim_cap(args))
    _print_bench_table(result, len(graph.layers))
    if args.out is None:
        return []
    doc = {"provenance": prov, "dim": result.dim, "draws": result.draws,
           "structured_seconds": result.structured_seconds,
           "cue_seconds": result.cue_seconds, "ratio": result.ratio}
    return [_write_json(os.path.join(args.out, "bench.json"), doc)]


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
        # gen, run and bench: the seed is printed before any work can fail
        seed = _resolve_seed(args.seed)
        print(f"seed: {seed}")
        env_cap = os.environ.get("UNIGRAPH_DIM_CAP")
        if args.dim_cap is None and env_cap:
            args.dim_cap = int(env_cap)
        source, spec_hash = _source(args)
        command = _command(args, seed)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
        body = {"gen": _cmd_gen, "run": _cmd_run, "bench": _cmd_bench}[args.command]
        for path in body(args, source, seed, _provenance(command, seed, spec_hash)):
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
