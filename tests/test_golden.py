"""Golden campaign table: the reports of a fixed set of campaigns must not move.

tests/golden/campaigns.jsonl holds one campaign per line: its full spec (the
graph's serialize_graph JSON or the reference kind and N, the draws, seed and
analyses) beside its report, to_dict(include_timing=False) with
each histogram stored as its edges, counts and overflow. The test reruns
every spec and compares:

- keys, key order, strings, booleans, None, integers and histogram counts
  exactly;
- floats to 1e-12 * max(1, |value|).

It prints the largest deviation per key, |got - stored| / max(1, |stored|).

The set: every campaign of the three benchmark workloads at seeds 1 and 23;
cue, composed and diagonal at N = 16, 54 and 64 with five analyses (each
spacing report holds both the wrap-inclusive and the interior statistics); a
disconnected graph with eigenvector analyses; and a state_sample campaign
with an explicit keep set. The test runs at one and at two workers, whose
reports must also be equal bit for bit. After a change that moves
reports on purpose, one command rebuilds the set, prints the summary against
the stored table (campaigns matched by name) and rewrites it, keeping each
stored value that still passes, so that the table moves only where a value
fails or a key is added or removed:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from unigraph.ensemble import Analysis, EnsembleSpec, ReferenceEnsemble, run_ensemble
from unigraph.graph import parse_graph_spec, ring_graph, serialize_graph
from unigraph.spectral import Histogram

TABLE = Path(__file__).resolve().parent / "golden" / "campaigns.jsonl"
REL_TOL = 1e-12

REFERENCE_ANALYSES = ("spacing", "phase_density", "evec_entropy", "element_entropy",
                      "trace_moments:3")
# two connected components, (1, 3) and (2, 4), of dims 2 x 2 and 3 x 3
TWO_COMPONENTS = {"dims": [2, 3, 2, 3], "layers": [
    {"color": "a", "cliques": [[1, 3], [2, 4]], "singletons": "haar"},
    {"color": "b", "cliques": [[1], [2, 4], [3]], "singletons": "haar"}]}


def analysis_text(analysis: Analysis) -> str:
    args = ",".join(map(str, analysis.arg))
    return f"{analysis.kind}:{args}" if args else analysis.kind


def spec_entry(name: str, spec: EnsembleSpec) -> dict:
    """A campaign's full spec as JSON data."""
    source = spec.source
    return {"name": name,
            "source": ({"kind": source.kind, "dim": source.dim}
                       if isinstance(source, ReferenceEnsemble)
                       else {"graph": json.loads(serialize_graph(source))}),
            "draws": spec.draws, "seed": spec.master_seed,
            "analyses": [analysis_text(a) for a in spec.analyses]}


def spec_of(entry: dict) -> EnsembleSpec:
    source = entry["source"]
    return EnsembleSpec(
        source=(parse_graph_spec(json.dumps(source["graph"])) if "graph" in source
                else ReferenceEnsemble(source["kind"], source["dim"])),
        draws=entry["draws"], master_seed=entry["seed"],
        analyses=tuple(Analysis.parse(text) for text in entry["analyses"]))


def report_of(entry: dict, workers: int = 1) -> dict:
    """The campaign's report on the current code, as stored JSON data."""
    report = run_ensemble(spec_of(entry), workers=workers)
    doc = report.to_dict(include_timing=False)
    for name, result in report.analyses.items():
        for key, value in result.items():
            if isinstance(value, Histogram):
                doc["analyses"][name][key] = {"edges": value.edges.tolist(),
                                              "counts": value.counts.tolist(),
                                              "overflow": value.overflow}
    return json.loads(json.dumps(doc))


def compare(got, stored, path: list, worst: dict, problems: list) -> None:
    """Record the largest deviation per key (over all campaigns) in
    ``worst``, inf where an exact value differs, and each mismatch in
    ``problems``."""
    key = ".".join(p for p in path[1:] if not isinstance(p, int) and p != "analyses")
    where = "/".join(map(str, path))
    if type(got) is not type(stored) and not {type(got), type(stored)} <= {int, float}:
        problems.append(f"{where}: {got!r} is not of the stored type ({stored!r})")
    elif isinstance(stored, dict):
        if list(got) != list(stored):
            problems.append(f"{where}: keys {list(got)} != stored {list(stored)}")
        for k in stored:  # the shared keys' deviations are reported either way
            if k in got:
                compare(got[k], stored[k], path + [k], worst, problems)
    elif isinstance(stored, list):
        if len(got) != len(stored):
            problems.append(f"{where}: length {len(got)} != stored {len(stored)}")
        else:
            for k, (a, b) in enumerate(zip(got, stored)):
                compare(a, b, path + [k], worst, problems)
    elif isinstance(stored, float):
        deviation = abs(got - stored) / max(1.0, abs(stored))
        worst[key] = max(worst.get(key, 0.0), deviation)
        if not deviation <= REL_TOL:
            problems.append(f"{where}: {got!r} != stored {stored!r}")
    else:
        equal = got == stored and type(got) is type(stored)
        worst[key] = max(worst.get(key, 0.0), 0.0 if equal else float("inf"))
        if not equal:
            problems.append(f"{where}: {got!r} != stored {stored!r}")


def summary(worst: dict, campaigns: int, problems: list) -> str:
    width = max(map(len, worst), default=3)
    lines = [f"{'key':<{width}}  largest deviation"]
    lines += [f"{key:<{width}}  {worst[key]:.3g}" for key in sorted(worst)]
    lines.append(f"{campaigns} campaigns, {len(problems)} mismatches")
    return "\n".join(lines)


def load_table() -> list[dict]:
    with open(TABLE, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def check(entries: list[dict], stored: list[dict]) -> tuple[dict, list]:
    worst, problems = {}, []
    for entry, old in zip(entries, stored):
        compare(entry["report"], old["report"], [entry["name"]], worst, problems)
    return worst, problems


_REPORTS: dict[int, list[dict]] = {}


def reports(workers: int) -> list[dict]:
    """The table's campaigns' reports at ``workers``, computed once per run."""
    if workers not in _REPORTS:
        _REPORTS[workers] = [report_of(old, workers) for old in load_table()]
    return _REPORTS[workers]


@pytest.mark.parametrize("workers", [1, 2])
def test_reports_match_the_golden_table(workers):
    # a stack's record is the unit that workers take: the reports of either
    # worker count match the table, and the two give the same bits
    stored = load_table()
    entries = [{**old, "report": report} for old, report in zip(stored, reports(workers))]
    worst, problems = check(entries, stored)
    print(summary(worst, len(stored), problems))
    assert not problems, "\n".join(problems[:20])
    assert reports(workers) == reports(1)


# ---------------------------------------------------------------------------
# Regeneration: only here is the benchmark's workload code imported
# ---------------------------------------------------------------------------

def campaign_set() -> list[dict]:
    """The specs of the set, in table order."""
    import importlib.util
    import tempfile

    import unigraph
    import unigraph.cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(bench)

    entries = []
    for seed in (1, 23):
        for workload in ("vectors_ring8", "generate_chain6", "scan_small"):
            with tempfile.TemporaryDirectory() as work:
                campaigns, _ = bench.WORKLOADS[workload](unigraph, seed, Path(work))
                for k, campaign in enumerate(campaigns):
                    name = f"{workload}[{k}]@{seed}"
                    if hasattr(campaign, "spec"):
                        entries.append(spec_entry(name, campaign.spec))
                        continue
                    argv = campaign.argv  # a unigraph run on a spec file
                    value = {flag: argv[argv.index(flag) + 1]
                             for flag in ("--graph", "--analyses", "--draws", "--seed")}
                    spec = EnsembleSpec(
                        source=unigraph.load_graph_spec(value["--graph"]),
                        draws=int(value["--draws"]), master_seed=int(value["--seed"]),
                        analyses=unigraph.cli._parse_analyses(value["--analyses"]))
                    entries.append(spec_entry(name, spec))
    for kind in ("cue", "composed", "diagonal"):
        for dim in (16, 54, 64):
            entries.append(spec_entry(f"{kind}{dim}", EnsembleSpec(
                source=ReferenceEnsemble(kind, dim), draws=100, master_seed=1,
                analyses=tuple(map(Analysis.parse, REFERENCE_ANALYSES)))))
    entries.append(spec_entry("two-components-eigensystem", EnsembleSpec(
        source=parse_graph_spec(json.dumps(TWO_COMPONENTS)), draws=40, master_seed=1,
        analyses=tuple(map(Analysis.parse, ("spacing", "evec_entropy", "entanglement:1,3",
                                            "projection:2"))))))
    entries.append(spec_entry("ring6-state-sample-keep-2-5", EnsembleSpec(
        source=ring_graph(6, 2), draws=60, master_seed=1,
        analyses=(Analysis("state_sample", (2, 5)), Analysis("element_entropy")))))
    return entries


def keep_passing(got, stored):
    """``got`` with every value that passes ``compare`` against ``stored``
    replaced by the stored one, so that a rewritten table moves only where a
    value fails or a key is new; a key not in ``got`` is dropped."""
    if isinstance(got, dict) and isinstance(stored, dict):
        return {k: keep_passing(v, stored[k]) if k in stored else v for k, v in got.items()}
    if isinstance(got, list) and isinstance(stored, list) and len(got) == len(stored):
        return [keep_passing(a, b) for a, b in zip(got, stored)]
    problems = []
    compare(got, stored, [], {}, problems)
    return got if problems else stored


def regenerate() -> None:
    """Rerun the set, match its campaigns to the stored table by name, print
    the summary and each mismatch, the spec changes and the added and
    removed campaigns, and rewrite the table with keep_passing reports."""
    entries = [{**entry, "report": report_of(entry)} for entry in campaign_set()]
    stored = {old["name"]: old for old in load_table()} if TABLE.exists() else {}
    known = [entry for entry in entries if entry["name"] in stored]
    worst, problems = check(known, [stored[entry["name"]] for entry in known])
    print(summary(worst, len(known), problems))
    for line in problems:
        print(line)
    changed: dict[str, list[str]] = {}
    for entry in known:
        old = stored[entry["name"]]
        fields = [k for k in {**old, **entry} if k != "report" and old.get(k) != entry.get(k)]
        if fields:
            changed.setdefault(", ".join(fields), []).append(entry["name"])
        entry["report"] = keep_passing(entry["report"], old["report"])
    for fields, names in changed.items():
        print(f"spec {fields} changed in {len(names)} campaigns: {' '.join(names)}")
    names = {entry["name"] for entry in entries}
    for name in [entry["name"] for entry in entries if entry["name"] not in stored]:
        print(f"{name}: added")
    for name in [name for name in stored if name not in names]:
        print(f"{name}: removed")
    TABLE.parent.mkdir(exist_ok=True)
    with open(TABLE, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(entry) + "\n" for entry in entries)
    print(f"wrote {TABLE} ({TABLE.stat().st_size} bytes)")


if __name__ == "__main__":
    regenerate()
