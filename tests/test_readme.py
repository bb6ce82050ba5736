"""The README's code blocks stay runnable against the package."""

import re
import shlex
from math import pi
from pathlib import Path

from unigraph.cli import main
from unigraph.ensemble import ANALYSES
from unigraph.graph import parse_graph_spec

WIGNER_VARIANCE = 3.0 * pi / 8.0 - 1.0  # spacing variance of the Wigner surmise
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def test_python_quick_start_runs():
    (quick_start,) = code_blocks("python")
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    assert abs(namespace["s"].mean() - 1.0) < 1e-12  # "mean exactly 1"
    variance = namespace["report"].analyses["spacing"]["variance"]
    assert abs(variance - WIGNER_VARIANCE) < 0.01  # "~0.178 for connected graphs"


def test_graph_spec_example_parses():
    (spec,) = code_blocks("json")
    graph = parse_graph_spec(spec)
    assert graph.dims == (2, 2, 2, 2)
    assert [layer.color for layer in graph.layers] == ["red", "black"]


def test_cli_examples_run(tmp_path, monkeypatch):
    (spec,) = code_blocks("json")
    (tmp_path / "examples.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line for block in code_blocks("sh") for line in block.splitlines()
             if line.startswith("unigraph ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_analyses_paragraph_lists_the_table():
    sentence = re.search(r"^Analyses: (.*?)\.\s", README, flags=re.S | re.M).group(1)
    everywhere, graph_only = sentence.split("(graph sources only)")
    kinds = [re.findall(r"`([a-z_]+)", part) for part in (everywhere, graph_only)]
    assert sorted(kinds[0] + kinds[1]) == sorted(ANALYSES)
    assert set(kinds[1]) == {kind for kind, row in ANALYSES.items() if row.graph}
