import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from unigraph import cli
from unigraph.cli import _parse_analyses, _provenance_comment, _write, build_parser, main
from unigraph.ensemble import EnsembleSpec, run_ensemble
from unigraph.graph import chain_graph, ring_graph, serialize_graph
from unigraph.rand import DEFAULT_SEED, RandomStream
from unigraph.tensor import evolution_unitary


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


GEN_FILES = ("unitary.json", "unitary.npy")


def gen_bytes(out) -> list[bytes]:
    """The bytes of the two files ``gen`` writes to ``out``, which holds no other."""
    assert sorted(p.name for p in out.iterdir()) == list(GEN_FILES)
    return [(out / name).read_bytes() for name in GEN_FILES]


class TestGen:
    def test_ring_writes_unitary_and_provenance(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["gen", "--ring", "4", "--n", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        gen_bytes(out)
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "seed: 7"
        assert [l for l in printed if l.startswith("wrote ")] == [
            f"wrote {out / 'unitary.npy'}", f"wrote {out / 'unitary.json'}"]
        prov = json.loads(read(out / "unitary.json"))["provenance"]
        assert prov["command"] == "unigraph gen --ring 4 --n 2 --seed 7"
        assert prov["seed"] == 7
        assert prov["spec_hash"] and prov["versions"]["numpy"] == np.__version__

    def test_matrix_is_the_evolution_unitary_bit_for_bit(self, tmp_path, capsys):
        assert main(["gen", "--chain", "3", "--n", "3", "--seed", "12",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        u = np.load(tmp_path / "unitary.npy")
        expected = evolution_unitary(chain_graph(3, 3), RandomStream(12, 0))
        assert u.dtype == np.complex128 and u.shape == (27, 27)
        assert u.tobytes() == expected.tobytes()
        doc = json.loads(read(tmp_path / "unitary.json"))
        assert doc["dim"] == 27
        assert doc["matrix"] == "unitary.npy"
        assert doc["provenance"]["command"] == "unigraph gen --chain 3 --n 3 --seed 12"

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--ring", "4", "--n", "2", "--seed", "9", "--out", str(a)])
        main(["gen", "--ring", "4", "--n", "2", "--seed", "9", "--out", str(b)])
        assert gen_bytes(a) == gen_bytes(b)

    def test_removed_format_flag_exits_2(self, tmp_path, capsys):
        # gen writes one exact binary matrix, so no flag picks a text format
        with pytest.raises(SystemExit) as exit_:
            main(["gen", "--ring", "4", "--n", "2", "--format", "json",
                  "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["1.5", "abc", "0x", "-1", str(2**64)])
    def test_bad_seed_exits_2_naming_the_flag(self, tmp_path, capsys, seed):
        # refused before --out is made, naming the flag, not the library's master_seed
        assert main(["gen", "--ring", "4", "--n", "2", "--seed", seed,
                     "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert err == ("error: --seed must be an integer in [0, 2**64) or 'random', "
                       f"got {seed!r}\n")
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2,2], "layers": [{"cliques": [[1]]}]}')
        assert main(["gen", "--graph", str(bad), "--out", str(tmp_path)]) == 2
        assert "particle 2" in capsys.readouterr().err

    def test_shorthand_spec_exits_2(self, tmp_path, capsys):
        # a spec file gives its dimensions as a dims list only
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "k": 4, "layers": [{"cliques": [[1, 2], [3, 4]]}]}')
        for argv in (["validate", "--graph", str(bad)],
                     ["gen", "--graph", str(bad), "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: unknown keys in graph spec: ['k', 'n']\n"
        assert not (tmp_path / "o").exists()

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        assert main(["gen", "--ring", "10", "--n", "2", "--dim-cap", "512",
                     "--out", str(tmp_path)]) == 3
        assert "1024" in capsys.readouterr().err

    def test_ring_ten_at_default_cap(self, tmp_path):
        out = tmp_path / "o"
        assert main(["gen", "--ring", "10", "--n", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        assert json.loads(read(out / "unitary.json"))["dim"] == 1024
        assert np.load(out / "unitary.npy").shape == (1024, 1024)

    def test_dim_cap_env_var_is_not_read(self, tmp_path, monkeypatch, capsys):
        # the cap is --dim-cap or the default: an N = 16 graph runs under the
        # default cap, and the re-run line has no --dim-cap
        monkeypatch.setenv("UNIGRAPH_DIM_CAP", "8")
        assert main(["gen", "--ring", "4", "--out", str(tmp_path)]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("re-run: ")]
        assert line == f"re-run: unigraph gen --ring 4 --seed {DEFAULT_SEED}"

    @pytest.mark.parametrize("argv, written", [
        (["gen", "--ring", "4", "--n", "2"], "unitary.json"),
        (["run", "--ring", "4", "--n", "2", "--draws", "2", "--analyses", "spacing"],
         "report.json"),
        (["bench", "--ring", "4", "--n", "2", "--draws", "1"], "bench.json"),
    ])
    def test_raised_dim_cap_is_replayed(self, tmp_path, capsys, argv, written):
        # a cap of 16 given as a flag is in the command, so the replay of an
        # N = 16 graph runs under it
        first, again = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--seed", "7", "--dim-cap", "16", "--out", str(first)]) == 0
        command = json.loads(read(first / written))["provenance"]["command"]
        assert "--dim-cap 16" in command
        printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("re-run: ")]
        assert printed in ([], [f"re-run: {command}"])
        assert main(shlex.split(command)[1:] + ["--out", str(again)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("cap", ["0", "-5"], ids=["flag_0", "flag_-5"])
    def test_cap_below_one_or_not_an_integer_exits_2(self, tmp_path, capsys, cap):
        # the library refuses the cap, before any draw; argparse refuses a
        # --dim-cap that is not an integer
        assert main(["run", "--cue", "8", "--draws", "2", "--analyses", "spacing",
                     "--dim-cap", cap, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == (f"seed: {DEFAULT_SEED}\n",
                                       f"error: dim_cap must be >= 1, got {cap}\n")
        assert not os.path.exists(tmp_path / "report.json")
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--cue", "8", "--draws", "2", "--analyses", "spacing",
                  "--dim-cap", "abc", "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert "--dim-cap: invalid int value: 'abc'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    def test_csv_histogram_files_are_the_report_text(self, tmp_path):
        # each sibling file is the provenance comment, then the histogram's
        # to_csv(), byte for byte; the json format embeds the same text
        analyses = "spacing,phase_density,element_entropy,state_sample"
        argv = ["run", "--chain", "3", "--n", "2", "--draws", "6", "--seed", "5",
                "--analyses", analyses]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        assert main(argv + ["--out", str(tmp_path / "j"), "--format", "json"]) == 0
        doc = json.loads(read(tmp_path / "c" / "report.json"))
        embedded = json.loads(read(tmp_path / "j" / "report.json"))["analyses"]
        report = run_ensemble(EnsembleSpec(chain_graph(3, 2), 6, 5, _parse_analyses(analyses)))
        files = []
        for name, result in report.analyses.items():
            # spacing's interior_histogram goes to spacing_interior.csv
            for key, filename in [("histogram", f"{name}.csv"),
                                  ("interior_histogram", f"{name}_interior.csv")]:
                if key not in result:
                    continue
                text = result[key].to_csv()
                assert doc["analyses"][name][key] == filename
                assert (tmp_path / "c" / filename).read_bytes() \
                    == (_provenance_comment(doc["provenance"]) + text).encode()
                assert embedded[name][key] == text
                files.append(filename)
        assert "spacing_interior.csv" in files
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) \
            == sorted(files + ["report.json"])

    def test_removed_strict_spacing_flag_exits_2(self, tmp_path, capsys):
        # a spacing report carries both the wrap-inclusive and the interior keys
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--cue", "8", "--draws", "2", "--analyses", "spacing",
                  "--out", str(tmp_path), "--strict-paper-spacing"])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_removed_projection_flag_exits_2(self, tmp_path, capsys):
        # a projection report carries both weightings, so no flag picks one
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--chain", "3", "--n", "2", "--draws", "2", "--analyses",
                  "projection:2", "--out", str(tmp_path), "--unweighted-projection"])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
        assert main(["run", "--ring", "4", "--n", "2", "--draws", "5", "--analyses",
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
        projection = doc["analyses"]["projection"]
        assert "weighted" not in projection
        assert list(projection)[-5:] == [
            "skipped_slices", "unweighted_mean_entropy", "unweighted_entropy_se",
            "unweighted_mean_purity", "unweighted_purity_se"]
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
        args = ["run", "--ring", "4", "--n", "2", "--draws", "4", "--analyses",
                "spacing,element_entropy", "--seed", "6"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        da = json.loads(read(tmp_path / "a" / "report.json"))
        db = json.loads(read(tmp_path / "b" / "report.json"))
        da.pop("wall_seconds"), db.pop("wall_seconds")
        assert da == db

    def test_strict_spacing_replay(self, tmp_path, capsys):
        # the paper's interior gaps, N-1 per draw, and their histogram file replay
        out, again = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--chain", "3", "--n", "2", "--draws", "4", "--analyses",
                     "spacing,projection:2", "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["spacing"]["interior_count"] == (8 - 1) * 4
        assert doc["analyses"]["spacing"]["interior_histogram"] == "spacing_interior.csv"
        command = next(l for l in capsys.readouterr().out.splitlines()
                       if l.startswith("re-run: "))[len("re-run: "):]
        assert main(shlex.split(command)[1:] + ["--out", str(again)]) == 0
        replayed = json.loads(read(again / "report.json"))
        doc.pop("wall_seconds"), replayed.pop("wall_seconds")
        assert replayed == doc
        for name in ("spacing.csv", "spacing_interior.csv"):
            assert read(again / name) == read(out / name)
        capsys.readouterr()

    def test_entropy_lines_show_nats_and_bits(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--chain", "3", "--draws", "4", "--seed", "7", "--analyses",
                     "spacing,evec_entropy,entanglement:1,projection:2", "--out", str(out)]) == 0
        shown = dict(l.partition(": ")[::2] for l in capsys.readouterr().out.splitlines())
        doc = json.loads(read(out / "report.json"))["analyses"]
        for name, key in [("evec_entropy", "mean"), ("entanglement", "mean_entropy"),
                          ("projection", "mean_entropy")]:
            nats = doc[name][key]  # the file keeps nats
            assert f"{key}={nats:.6f} nats ({nats / np.log(2):.6f} bits)" in shown[name]
        assert "bits" not in shown["spacing"]
        # reference for the file: the harmonic sum for N = 8, in nats
        assert abs(doc["evec_entropy"]["reference_mean"]
                   - sum(1 / j for j in range(2, 9))) < 1e-12

    def test_removed_bits_flag_exits_2(self, tmp_path, capsys):
        # every entropy line shows both units, so no flag picks one
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--cue", "8", "--draws", "2", "--analyses", "evec_entropy",
                  "--out", str(tmp_path / "o"), "--bits"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --bits" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_parser_per_process_keeps_no_state(self, tmp_path, capsys):
        # flags of one call must not reach the next: each report and its
        # display equal what a freshly built parser gives
        assert build_parser() is build_parser()
        base = ["run", "--chain", "3", "--n", "2", "--draws", "4", "--seed", "5",
                "--analyses", "spacing,evec_entropy"]
        runs = (base + ["--format", "json"], base)

        def outputs(fresh: bool, name: str) -> list:
            got = []
            for k, argv in enumerate(runs):
                if fresh:
                    build_parser.cache_clear()
                out = tmp_path / f"{name}{k}"
                assert main(argv + ["--out", str(out)]) == 0
                doc = json.loads(read(out / "report.json"))
                doc.pop("wall_seconds")
                assert doc["analyses"]["spacing"]["interior_count"] == (8 - 1) * 4
                shown = [l for l in capsys.readouterr().out.splitlines()
                         if not l.startswith("wrote ")]
                got.append((doc, shown))
            return got
        shared = outputs(False, "shared")
        assert shared == outputs(True, "fresh")
        assert shared[0] != shared[1]


class TestRefusalWritesNothing:
    """A command refused after parsing keeps its exit code and message, and
    no --out is made: every file goes through the one writer, after the last
    refusal."""

    @pytest.mark.parametrize("argv, code, message", [
        (["run", "--cue", "8", "--draws", "2", "--analyses", "entanglement:1"], 2,
         "entanglement needs a graph source (reference ensembles carry no particle "
         "structure)"),
        (["gen", "--ring", "14"], 3,
         "total dimension 16384 exceeds the configured cap 4096; raise the cap to proceed"),
        (["bench", "--ring", "4", "--draws", "0"], 2, "draws must be >= 1, got 0"),
        (["run", "--cue", "8", "--draws", "2", "--analyses", "spacing", "--dim-cap", "0"],
         2, "dim_cap must be >= 1, got 0"),
        (["gen", "--graph", "{spec}"], 2, "particle 2 is not covered by any clique"),
    ], ids=["run", "gen", "bench", "dim_cap", "spec"])
    def test_refused_command_makes_no_out(self, tmp_path, capsys, argv, code, message):
        spec = tmp_path / "bad.json"
        spec.write_text('{"dims": [2,2], "layers": [{"cliques": [[1]]}]}')
        argv = [str(spec) if arg == "{spec}" else arg for arg in argv]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr() == (f"seed: {DEFAULT_SEED}\n", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, body", [
        (["run", "--cue", "64", "--draws", "400", "--analyses", "spacing"], "run_ensemble"),
        (["gen", "--ring", "4"], "evolution_unitary"),
    ], ids=["run", "gen"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_draw(
            self, tmp_path, monkeypatch, capsys, argv, body, under):
        # an --out that is, or lies under, an existing file is refused before
        # the body runs, not after the campaign
        def refuse(*args, **kwargs):
            raise AssertionError(f"{body} was called")
        monkeypatch.setattr(cli, body, refuse)
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == (
            f"seed: {DEFAULT_SEED}\n", f"error: --out {out}: {blocker} is not a directory\n")
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    def test_removed_square_flag_exits_2(self, tmp_path, capsys):
        # each graph has one flag: the square graph is --ring 4
        with pytest.raises(SystemExit) as exit_:
            main(["gen", "--square", "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_write_round_trips_each_kind(self, tmp_path):
        u = np.exp(1j * np.arange(12.0)).reshape(3, 4) / 3.0
        doc = {"a": [1, 2.5, None], "b": {"c": "d"}}
        names = ["m.npy", "doc.json", "t.csv"]
        out = tmp_path / "new" / "dir"
        paths = _write(str(out), list(zip(names, [u, doc, "x,y\n1,2\n"])))
        assert paths == [str(out / name) for name in names]
        loaded = np.load(out / "m.npy")
        assert loaded.dtype == u.dtype and loaded.tobytes() == u.tobytes()
        assert read(out / "doc.json") == json.dumps(doc, indent=1) + "\n"
        assert json.loads(read(out / "doc.json")) == doc
        assert read(out / "t.csv") == "x,y\n1,2\n"
        assert _write(None, [("never.json", doc)]) == []


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
    "gen": [],
    "run": ["--draws", "2", "--analyses", "spacing,projection:2", "--format", "json"],
    "bench": ["--draws", "1"],
}


GRAPH_SOURCES = [["--ring", "4", "--n", "2"], ["--chain", "3", "--n", "2"],
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
        first, again = tmp_path / "gen-a", tmp_path / "gen-b"
        assert main(["gen", *source, "--seed", "11", "--out", str(first)]) == 0
        replay = rerun_command(capsys.readouterr().out)
        assert main(replay + ["--out", str(again)]) == 0
        capsys.readouterr()
        assert gen_bytes(first) == gen_bytes(again)
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
        assert gen_bytes(first) == gen_bytes(again)

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
        assert main(["bench", "--ring", "4", "--n", "2", "--draws", "1"]) == 0
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
        assert main(["gen", "--ring", "4", *flags, "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads(read(tmp_path / "unitary.json"))
        assert doc["dim"] == dim
        assert doc["provenance"]["command"] == shlex.join(
            ["unigraph", "gen", "--ring", "4", *flags, "--seed", "1"])
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

sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError

import numpy as np

from unigraph import spectral
from unigraph.cli import main
from unigraph.rand import RandomStream, haar_unitary

out = sys.argv[1]
for argv in (
        ["gen", "--chain", "4", "--out", out + "/gen"],
        ["run", "--chain", "4", "--draws", "5", "--analyses",
         "spacing,phase_density,evec_entropy,element_entropy,trace_moments:2,"
         "entanglement:1,2,projection:1,state_sample", "--out", out + "/all"],
        # 20 draws at N=16 pool 320 phases: enough for the chi-square p-value
        ["run", "--cue", "16", "--draws", "20", "--analyses", "phase_density",
         "--format", "json", "--out", out + "/phases"],
        ["bench", "--chain", "4", "--draws", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
with open(out + "/phases/report.json", encoding="utf-8") as handle:
    probes = {"p_value": json.load(handle)["analyses"]["phase_density"]["p_value"]}

# every Cayley attempt refused: the solve raises, with no other solver to try
spectral._cayley_eigen = lambda us, alphas, with_vectors: (
    np.full(us.shape[:-1], np.nan),
    np.full(us.shape, np.nan, dtype=complex) if with_vectors else None)
try:
    spectral.eigendecompose(haar_unitary(12, RandomStream(5, 0)))
except spectral.ConvergenceFailure as exc:
    probes["failure"] = str(exc)
probes["scipy"] = [name for name, module in sys.modules.items()
                   if name.startswith("scipy") and module is not None]
print(json.dumps(probes))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter in which
    # scipy cannot be imported runs gen, every analysis (the phase_density
    # p-value included) and bench, and a matrix refused on every Cayley
    # attempt raises ConvergenceFailure
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", COLD_START_PROBES, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    probes = json.loads(out.stdout)
    assert 0.0 < probes["p_value"] <= 1.0
    assert probes["failure"] == "stack rows [0] are refused on all three Cayley attempts"
    assert probes["scipy"] == []
