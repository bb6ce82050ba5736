import json
import os
import shlex
import subprocess
import sys

import pytest

from unigraph.cli import build_parser, main
from unigraph.graph import ring_graph, serialize_graph


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class TestGen:
    def test_ring_writes_unitary_and_provenance(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["gen", "--ring", "4", "--n", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        text = read(out / "unitary.csv")
        assert text.startswith("# command: unigraph gen --ring 4 --n 2 --seed 7")
        assert "# seed: 7" in text
        assert "# spec_hash: " in text
        assert "# versions: " in text
        assert "row,col,re,im" in text
        # 16x16 entries follow the header comment block
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 16 * 16
        assert "seed: 7" in capsys.readouterr().out

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--ring", "4", "--n", "2", "--seed", "9", "--out", str(a)])
        main(["gen", "--ring", "4", "--n", "2", "--seed", "9", "--out", str(b)])
        assert read(a / "unitary.csv") == read(b / "unitary.csv")

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2,2], "layers": [{"cliques": [[1]]}]}')
        assert main(["gen", "--graph", str(bad), "--out", str(tmp_path)]) == 2
        assert "particle 2" in capsys.readouterr().err

    def test_shorthand_k_past_the_listed_particles_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "k": 1000000000000, "layers": [{"cliques": [[1]]}]}')
        assert main(["validate", "--graph", str(bad)]) == 2
        assert "exceeds the particle count of layer 1" in capsys.readouterr().err

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        assert main(["gen", "--ring", "10", "--n", "2", "--dim-cap", "512",
                     "--out", str(tmp_path)]) == 3
        assert "1024" in capsys.readouterr().err

    def test_ring_ten_at_default_cap(self, tmp_path):
        out = tmp_path / "o"
        assert main(["gen", "--ring", "10", "--n", "2", "--seed", "1",
                     "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(read(out / "unitary.json"))
        assert doc["dim"] == 1024
        assert len(doc["re"]) == 1024

    def test_env_var_overrides_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("UNIGRAPH_DIM_CAP", "8")
        assert main(["gen", "--ring", "4", "--n", "2", "--out", str(tmp_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv, written", [
        (["gen", "--ring", "4", "--n", "2", "--format", "json"], "unitary.json"),
        (["run", "--ring", "4", "--n", "2", "--draws", "2", "--analyses", "spacing"],
         "report.json"),
        (["bench", "--ring", "4", "--n", "2", "--draws", "1"], "bench.json"),
    ])
    def test_raised_dim_cap_is_replayed(self, tmp_path, monkeypatch, capsys, argv, written):
        # a cap of 16 given as a flag, or only by the environment, is in the
        # command, so it replays where UNIGRAPH_DIM_CAP=8 would refuse N=16
        for case, env_cap, flags in (("flag", "8", ["--dim-cap", "16"]),
                                     ("environment", "16", [])):
            monkeypatch.setenv("UNIGRAPH_DIM_CAP", env_cap)
            first, again = tmp_path / case / "a", tmp_path / case / "b"
            assert main(argv + ["--seed", "7", *flags, "--out", str(first)]) == 0
            command = json.loads(read(first / written))["provenance"]["command"]
            assert "--dim-cap 16" in command
            printed = [l for l in capsys.readouterr().out.splitlines()
                       if l.startswith("re-run: ")]
            assert printed in ([], [f"re-run: {command}"])
            monkeypatch.setenv("UNIGRAPH_DIM_CAP", "8")
            assert main(shlex.split(command)[1:] + ["--out", str(again)]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("flags, env_cap, named", [
        (["--dim-cap", "0"], None, "--dim-cap"),
        (["--dim-cap", "-5"], None, "--dim-cap"),
        ([], "abc", "UNIGRAPH_DIM_CAP"),
        ([], "0", "UNIGRAPH_DIM_CAP"),
    ], ids=["flag_0", "flag_-5", "env_abc", "env_0"])
    def test_cap_below_one_or_not_an_integer_exits_2(self, tmp_path, monkeypatch, capsys,
                                                     flags, env_cap, named):
        if env_cap is None:
            monkeypatch.delenv("UNIGRAPH_DIM_CAP", raising=False)
        else:
            monkeypatch.setenv("UNIGRAPH_DIM_CAP", env_cap)
        assert main(["run", "--cue", "8", "--draws", "2", "--analyses", "spacing",
                     *flags, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("seed: ")
        assert f"{named} must be an integer >= 1" in err
        assert not os.path.exists(tmp_path / "report.json")

    def test_failed_gen_still_prints_its_seed(self, tmp_path, capsys):
        assert main(["gen", "--ring", "10", "--dim-cap", "512", "--seed", "random",
                     "--out", str(tmp_path)]) == 3
        assert any(l.startswith("seed: ") for l in capsys.readouterr().out.splitlines())

    def test_random_seed_is_drawn_and_printed(self, tmp_path, capsys):
        assert main(["gen", "--ring", "2", "--n", "2", "--seed", "random",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("seed: "))
        assert int(line.split()[1]) >= 0


class TestRun:
    def test_ring_of_no_particles_exits_2(self, tmp_path, capsys):
        assert main(["run", "--ring", "0", "--draws", "2", "--analyses", "spacing",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "a ring needs at least two particles, got 0" in err
        assert "even particle count" not in err

    def test_cue_evec_entropy_report(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--cue", "16", "--draws", "60", "--analyses",
                     "spacing,evec_entropy", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(read(out / "report.json"))
        mean = doc["analyses"]["evec_entropy"]["mean"]
        reference = doc["analyses"]["evec_entropy"]["reference_mean"]
        assert abs(reference - 2.380728993228994) < 1e-12
        assert abs(mean - reference) / reference < 0.05
        assert os.path.exists(out / "spacing.csv")
        assert doc["analyses"]["spacing"]["histogram"] == "spacing.csv"
        assert doc["provenance"]["seed"] == 3

    def test_json_format_embeds_histograms(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--cue", "8", "--draws", "5", "--analyses", "spacing",
                     "--seed", "4", "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["spacing"]["histogram"].startswith(
            "bin_left,bin_right,count,density")
        assert not os.path.exists(out / "spacing.csv")

    def test_incompatible_analysis_exits_2(self, tmp_path, capsys):
        assert main(["run", "--cue", "8", "--draws", "2", "--analyses",
                     "entanglement:1", "--out", str(tmp_path)]) == 2
        assert "graph source" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis", ["spacing:5", "evec_entropy:7",
                                          "element_entropy:1,2", "phase_density:3"])
    def test_parameter_on_parameterless_kind_exits_2(self, tmp_path, capsys, analysis):
        assert main(["run", "--ring", "4", "--draws", "2", "--analyses", analysis,
                     "--out", str(tmp_path)]) == 2
        assert "takes no parameter" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.json")

    def test_analyses_with_multi_particle_args(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--square", "--n", "2", "--draws", "5", "--analyses",
                     "spacing,entanglement:1,2,trace_moments:3", "--seed", "8",
                     "--out", str(out)]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["entanglement"]["keep"] == [1, 2]
        assert doc["analyses"]["trace_moments"]["max_power"] == 3

    def test_disconnected_phases_only_run_over_cap_exits_3(self, tmp_path, capsys):
        # components (1, 2) and (3, 4): solved one at a time, capped as N = 16
        assert main(["run", "--bond-vertex", "1,2;3,4/1,2;3,4", "--draws", "2",
                     "--analyses", "spacing,phase_density,trace_moments:2",
                     "--dim-cap", "8", "--out", str(tmp_path)]) == 3
        assert "total dimension 16" in capsys.readouterr().err

    def test_graph_run_with_chain(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--chain", "3", "--n", "2", "--draws", "10",
                     "--analyses", "spacing,projection:2", "--seed", "5",
                     "--out", str(out)]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["projection"]["particle"] == 2
        assert doc["analyses"]["projection"]["weighted"] is True
        assert doc["draws"] == 10

    def test_phase_density_without_chi_square(self, tmp_path, capsys):
        # 2 draws x 16 phases are too few for the chi-square test
        out = tmp_path / "r"
        assert main(["run", "--ring", "4", "--n", "2", "--draws", "2", "--analyses",
                     "phase_density", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["phase_density"]["p_value"] is None
        assert doc["analyses"]["phase_density"]["count"] == 32
        assert "p_value=n/a" in capsys.readouterr().out

    def test_reports_reproduce_modulo_timing(self, tmp_path):
        args = ["run", "--square", "--n", "2", "--draws", "4", "--analyses",
                "spacing,element_entropy", "--seed", "6"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        da = json.loads(read(tmp_path / "a" / "report.json"))
        db = json.loads(read(tmp_path / "b" / "report.json"))
        da.pop("wall_seconds"), db.pop("wall_seconds")
        assert da == db

    def test_unweighted_projection_and_strict_spacing_replay(self, tmp_path, capsys):
        out, again = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--chain", "3", "--n", "2", "--draws", "4", "--analyses",
                     "spacing,projection:2", "--seed", "5", "--out", str(out),
                     "--unweighted-projection", "--strict-paper-spacing"]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["projection"]["weighted"] is False
        assert doc["analyses"]["spacing"]["count"] == (8 - 1) * 4
        command = next(l for l in capsys.readouterr().out.splitlines()
                       if l.startswith("re-run: "))[len("re-run: "):]
        assert "--unweighted-projection" in command
        assert "--strict-paper-spacing" in command
        assert main(shlex.split(command)[1:] + ["--out", str(again)]) == 0
        replayed = json.loads(read(again / "report.json"))
        doc.pop("wall_seconds"), replayed.pop("wall_seconds")
        assert replayed == doc
        capsys.readouterr()

    def test_bits_flag_changes_display_only(self, tmp_path, capsys):
        out = tmp_path / "r"
        main(["run", "--cue", "8", "--draws", "4", "--analyses", "evec_entropy",
              "--seed", "7", "--out", str(out), "--bits"])
        assert "bits" in capsys.readouterr().out
        doc = json.loads(read(out / "report.json"))
        # file keeps nats: reference is the harmonic sum for N=8
        assert abs(doc["analyses"]["evec_entropy"]["reference_mean"]
                   - sum(1 / j for j in range(2, 9))) < 1e-12

    def test_one_parser_per_process_keeps_no_state(self, tmp_path, capsys):
        # flags of one call must not reach the next: each report and its
        # display equal what a freshly built parser gives
        assert build_parser() is build_parser()
        base = ["run", "--chain", "3", "--n", "2", "--draws", "4", "--seed", "5",
                "--analyses", "spacing,evec_entropy"]
        runs = (base + ["--bits", "--strict-paper-spacing"], base)

        def outputs(fresh: bool, name: str) -> list:
            got = []
            for k, argv in enumerate(runs):
                if fresh:
                    build_parser.cache_clear()
                out = tmp_path / f"{name}{k}"
                assert main(argv + ["--out", str(out)]) == 0
                doc = json.loads(read(out / "report.json"))
                doc.pop("wall_seconds")
                shown = [l for l in capsys.readouterr().out.splitlines()
                         if not l.startswith("wrote ")]
                got.append((doc, shown))
            return got
        shared = outputs(False, "shared")
        assert shared == outputs(True, "fresh")
        assert shared[0] != shared[1]


def rerun_command(out: str) -> list[str]:
    """The arguments of the printed ``re-run:`` command, without ``unigraph``."""
    line = next(l for l in out.splitlines() if l.startswith("re-run: "))
    return shlex.split(line[len("re-run: "):])[1:]


def shell_words(command: str) -> list[str]:
    """The words a POSIX shell reads from ``command``; an unquoted ``;``,
    ``|``, ``&``, ``<``, ``>`` or parenthesis is a word of its own."""
    lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    return list(lexer)


# every optional flag at a value other than its default
EVERY_FLAG = {
    "gen": ["--format", "json"],
    "run": ["--draws", "2", "--analyses", "spacing,projection:2", "--format", "json",
            "--bits", "--strict-paper-spacing", "--unweighted-projection"],
    "bench": ["--draws", "1"],
}


GRAPH_SOURCES = [["--ring", "4", "--n", "2"], ["--chain", "3", "--n", "2"],
                 ["--square", "--n", "2"],
                 ["--bond-vertex", "1,2;3,4/2,3;1,4", "--n", "2"], ["--graph", "{spec}"]]
REFERENCE_SOURCES = [["--cue", "8"], ["--composed", "8"], ["--diagonal", "8"]]


class TestSourceReplay:
    @pytest.mark.parametrize("source", GRAPH_SOURCES + REFERENCE_SOURCES,
                             ids=lambda source: source[0])
    def test_every_source_flag_replays(self, tmp_path, capsys, source):
        spec = tmp_path / "g.json"
        spec.write_text(serialize_graph(ring_graph(4, 2)))
        reference = source in REFERENCE_SOURCES
        source = [str(spec) if arg == "{spec}" else arg for arg in source]
        analyses = "spacing,evec_entropy" if reference else "spacing,entanglement:1,2"
        first, again = tmp_path / "a", tmp_path / "b"
        assert main(["run", *source, "--draws", "3", "--analyses", analyses,
                     "--seed", "11", "--out", str(first)]) == 0
        assert main(rerun_command(capsys.readouterr().out) + ["--out", str(again)]) == 0
        capsys.readouterr()
        docs = [json.loads(read(d / "report.json")) for d in (first, again)]
        for doc in docs:
            doc.pop("wall_seconds")
        assert docs[0] == docs[1]
        if reference:
            return

        # gen replays byte for byte, and the replayed flags name the same graph
        assert main(["gen", *source, "--seed", "11", "--out", str(first)]) == 0
        replay = rerun_command(capsys.readouterr().out)
        assert main(replay + ["--out", str(again)]) == 0
        capsys.readouterr()
        assert read(first / "unitary.csv") == read(again / "unitary.csv")
        replayed_source = replay[1:replay.index("--seed")]
        outputs = []
        for flags in (source, replayed_source):
            assert main(["validate", *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize("source", [["--bond-vertex", "1,2;3,4/2,3;1,4"],
                                        ["--graph", "{spec}"]], ids=["semicolon", "space"])
    def test_rerun_line_survives_a_shell(self, tmp_path, capsys, source):
        spec = tmp_path / "a graph.json"
        spec.write_text(serialize_graph(ring_graph(4, 2)))
        source = [str(spec) if arg == "{spec}" else arg for arg in source]
        first, again = tmp_path / "a", tmp_path / "b"
        assert main(["gen", *source, "--seed", "5", "--out", str(first)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("re-run: "))
        words = shell_words(line[len("re-run: "):])
        assert words[:2 + len(source)] == ["unigraph", "gen", *source]
        assert main(words[1:] + ["--out", str(again)]) == 0
        capsys.readouterr()
        assert read(first / "unitary.csv") == read(again / "unitary.csv")

    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_every_flag_replays(self, tmp_path, capsys, command):
        argv = [command, "--ring", "4", "--n", "3", "--seed", "random",
                "--dim-cap", "100", *EVERY_FLAG[command], "--out", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        seed = next(l for l in out.splitlines() if l.startswith("seed: ")).split()[1]
        original = build_parser().parse_args(argv)
        replayed = build_parser().parse_args(rerun_command(out))
        assert replayed.seed == seed
        original.seed, original.out, replayed.out = seed, None, None
        assert vars(replayed) == vars(original)


class TestBenchAndValidate:
    def test_bench_prints_table(self, capsys):
        assert main(["bench", "--ring", "4", "--n", "2", "--draws", "3"]) == 0
        out = capsys.readouterr().out
        assert "matrix type" in out
        assert "CUE, N=16" in out
        assert "rel. time [%]" in out

    def test_bench_out_writes_json_and_prints_rerun(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["bench", "--ring", "4", "--n", "2", "--draws", "1"]
        assert main(argv) == 0
        assert os.listdir(tmp_path) == []  # no --out, no file
        capsys.readouterr()
        assert main(argv + ["--out", "."]) == 0
        doc = json.loads(read(tmp_path / "bench.json"))
        assert f"re-run: {doc['provenance']['command']}" in capsys.readouterr().out.splitlines()

    def test_bench_single_draw(self, capsys):
        assert main(["bench", "--square", "--n", "2", "--draws", "1"]) == 0
        capsys.readouterr()

    def test_validate_good_spec(self, tmp_path, capsys):
        spec = tmp_path / "g.json"
        spec.write_text(serialize_graph(ring_graph(6, 2)))
        assert main(["validate", "--graph", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "connected: True" in out
        assert "total dimension: 64" in out

    def test_validate_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "g.json"
        spec.write_text('{"dims": [2,2,2], "layers": [{"cliques": [[1,2],[2,3]]}]}')
        assert main(["validate", "--graph", str(spec)]) == 2
        assert "particle 2" in capsys.readouterr().err

    @pytest.mark.parametrize("clique", ["1", "null"])
    def test_validate_clique_that_is_not_a_list(self, tmp_path, capsys, clique):
        spec = tmp_path / "g.json"
        spec.write_text(f'{{"dims": [2,2], "layers": [{{"cliques": [{clique}, 2]}}]}}')
        assert main(["validate", "--graph", str(spec)]) == 2
        assert "layer 1" in capsys.readouterr().err

    def test_validate_bond_vertex_builder(self, capsys):
        assert main(["validate", "--bond-vertex", "1,2;3,4/2,3;1,4", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "total dimension: 81" in out
        assert "connected: True" in out

    def test_bond_vertex_parse_error(self, capsys):
        assert main(["validate", "--bond-vertex", "1,2;3,4", "--n", "2"]) == 2
        assert "BONDS/VERTICES" in capsys.readouterr().err


class TestLocalDimension:
    """--n is the builders' local dimension and is refused elsewhere."""

    @pytest.mark.parametrize("source", [["--cue", "8", "--n", "5"],
                                        ["--graph", "{spec}", "--n", "3"]],
                             ids=["cue", "graph"])
    def test_n_with_a_source_that_sets_its_dims_exits_2(self, tmp_path, capsys, source):
        spec = tmp_path / "g.json"
        spec.write_text(serialize_graph(ring_graph(4, 2)))
        source = [str(spec) if arg == "{spec}" else arg for arg in source]
        assert main(["run", *source, "--draws", "2", "--analyses", "spacing",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "--n" in err and source[0] in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_validate_graph_with_n_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "g.json"
        spec.write_text(serialize_graph(ring_graph(4, 2)))
        assert main(["validate", "--graph", str(spec), "--n", "3"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, dim", [([], 16), (["--n", "3"], 81)])
    def test_builder_n_defaults_to_two_and_is_replayed_only_if_given(
            self, tmp_path, capsys, flags, dim):
        assert main(["gen", "--ring", "4", *flags, "--seed", "1", "--format", "json",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads(read(tmp_path / "unitary.json"))
        assert doc["dim"] == dim
        assert doc["provenance"]["command"] == shlex.join(
            ["unigraph", "gen", "--ring", "4", *flags, "--seed", "1", "--format", "json"])
        capsys.readouterr()

    def test_reference_rerun_line_has_no_n(self, tmp_path, capsys):
        assert main(["run", "--cue", "8", "--draws", "2", "--analyses", "spacing",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("re-run: "))
        assert line == ("re-run: unigraph run --cue 8 --seed 3 --draws 2 --analyses spacing"
                        " --format csv")


COLD_START_PROBES = """
import contextlib, io, json, sys

import numpy as np

SCIPY = ("scipy.linalg", "scipy.special", "scipy.stats")
loaded = lambda: [name for name in SCIPY if name in sys.modules]
quiet = lambda: contextlib.redirect_stdout(io.StringIO())
probes = {}

from unigraph.cli import main
probes["import"] = loaded()

with quiet():
    main(["run", "--chain", "4", "--draws", "5", "--analyses",
          "spacing,evec_entropy,element_entropy,trace_moments:2,entanglement:1,2,"
          "projection:1,state_sample", "--out", sys.argv[1] + "/all"])
probes["run"] = loaded()

# 20 draws at N=16 pool 320 phases: enough for the chi-square p-value
with quiet():
    main(["run", "--cue", "16", "--draws", "20", "--analyses", "phase_density",
          "--out", sys.argv[1] + "/phases"])
probes["phase_density"] = loaded()

from unigraph import spectral
from unigraph.rand import RandomStream, haar_unitary

u = haar_unitary(12, RandomStream(5, 0))
spectral._cayley_eigen = lambda us, alphas, with_vectors: (
    np.full(us.shape[:-1], np.nan),
    np.full(us.shape, np.nan, dtype=complex) if with_vectors else None)
data = spectral.eigendecompose(u)
probes["schur"] = loaded()
phases, vectors = spectral._schur(u)
probes["schur_vectors_equal"] = bool(np.array_equal(data.vectors, vectors))
probes["schur_phases_equal"] = bool(
    np.array_equal(data.phases, phases)
    and np.array_equal(spectral.eigenphases(u[None])[0], phases))
print(json.dumps(probes))
"""


def test_scipy_is_loaded_only_where_used(tmp_path):
    # scipy.stats costs about a second of start-up, and scipy.linalg with
    # scipy.special over a third of a second: a fresh interpreter loads none
    # of them for any analysis, the phase_density p-value included, and
    # scipy.linalg only for the Schur fallback, which still returns its
    # checked result
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", COLD_START_PROBES, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    probes = json.loads(out.stdout)
    assert probes["import"] == []
    assert probes["run"] == []
    assert probes["phase_density"] == []
    # what importing scipy.linalg brings with it depends on the scipy
    # release, so the fallback may load exactly what a bare import loads
    bare = ("import json, sys, scipy.linalg; print(json.dumps([name for name in"
            " ('scipy.linalg', 'scipy.special', 'scipy.stats') if name in sys.modules]))")
    linalg = subprocess.run([sys.executable, "-c", bare], capture_output=True,
                            text=True, check=True, env=env)
    assert "scipy.linalg" in probes["schur"]
    assert probes["schur"] == json.loads(linalg.stdout)
    assert probes["schur_vectors_equal"] and probes["schur_phases_equal"]
