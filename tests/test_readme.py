"""The README's code blocks stay runnable against the package."""

import re
from pathlib import Path

from unigraph.graph import parse_graph_spec
from unigraph.spectral import WIGNER_VARIANCE

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
