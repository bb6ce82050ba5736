import json
import os

import pytest

from unigraph.cli import main
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
        monkeypatch.setenv("UNIGRAPH_DIM_CAP", "8")
        first, again = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--seed", "7", "--dim-cap", "16", "--out", str(first)]) == 0
        command = json.loads(read(first / written))["provenance"]["command"]
        assert "--dim-cap 16" in command
        printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("re-run: ")]
        assert printed in ([], [f"re-run: {command}"])
        assert main(command.split()[1:] + ["--out", str(again)]) == 0
        capsys.readouterr()

    def test_random_seed_is_drawn_and_printed(self, tmp_path, capsys):
        assert main(["gen", "--ring", "2", "--n", "2", "--seed", "random",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("seed: "))
        assert int(line.split()[1]) >= 0


class TestRun:
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

    def test_analyses_with_multi_particle_args(self, tmp_path):
        out = tmp_path / "r"
        assert main(["run", "--square", "--n", "2", "--draws", "5", "--analyses",
                     "spacing,entanglement:1,2,trace_moments:3", "--seed", "8",
                     "--out", str(out)]) == 0
        doc = json.loads(read(out / "report.json"))
        assert doc["analyses"]["entanglement"]["keep"] == [1, 2]
        assert doc["analyses"]["trace_moments"]["max_power"] == 3

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
        assert main(command.split()[1:] + ["--out", str(again)]) == 0
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


class TestBenchAndValidate:
    def test_bench_prints_table(self, capsys):
        assert main(["bench", "--ring", "4", "--n", "2", "--draws", "3"]) == 0
        out = capsys.readouterr().out
        assert "matrix type" in out
        assert "CUE, N=16" in out
        assert "rel. time [%]" in out

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

    def test_validate_bond_vertex_builder(self, capsys):
        assert main(["validate", "--bond-vertex", "1,2;3,4/2,3;1,4", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "total dimension: 81" in out
        assert "connected: True" in out

    def test_bond_vertex_parse_error(self, capsys):
        assert main(["validate", "--bond-vertex", "1,2;3,4", "--n", "2"]) == 2
        assert "BONDS/VERTICES" in capsys.readouterr().err
