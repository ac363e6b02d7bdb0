"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.io import load_attributed_graph, load_graph_json, write_edge_list
from repro.datasets.synthetic import lastfm_like


@pytest.fixture
def small_edge_file(tmp_path):
    graph = lastfm_like(scale=0.05, seed=0)
    path = tmp_path / "edges.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_arguments(self):
        args = build_parser().parse_args(
            ["synthesize", "--dataset", "lastfm", "--epsilon", "0.5",
             "--output", "out.json"]
        )
        assert args.command == "synthesize"
        assert args.epsilon == 0.5

    @pytest.mark.parametrize("backend", ["tricycle", "fcl"])
    def test_backend_choices(self, backend):
        args = build_parser().parse_args(
            ["synthesize", "--backend", backend, "--output", "out.json"]
        )
        assert args.backend == backend

    def test_unknown_backend_is_refused(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synthesize", "--backend", "ergm", "--output", "out.json"]
            )
        assert "invalid choice: 'ergm'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["datasets", "--scale", "0"],
        ["datasets", "--scale", "-1"],
        ["datasets", "--scale", "nan"],
        ["datasets", "--scale", "inf"],
        ["evaluate", "--scale", "0"],
        ["figure", "1", "--scale", "0"],
        ["synthesize", "--output", "x.json", "--scale", "0"],
    ])
    def test_scale_must_be_finite_and_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --scale: must be a finite positive number" in \
            capsys.readouterr().err

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--workers", "2"]
        )
        assert args.command == "serve"
        assert args.port == 9000
        assert args.workers == 2


class TestCommands:
    def test_synthesize_json_output(self, tmp_path, capsys):
        output = tmp_path / "synthetic.json"
        code = main([
            "synthesize", "--dataset", "petster", "--scale", "0.05",
            "--epsilon", "1.0", "--output", str(output), "--seed", "1",
        ])
        assert code == 0
        graph = load_graph_json(output)
        assert graph.num_nodes > 20
        assert "wrote synthetic graph" in capsys.readouterr().out

    def test_synthesize_edge_list_output(self, tmp_path):
        output = tmp_path / "synthetic.txt"
        code = main([
            "synthesize", "--dataset", "petster", "--scale", "0.05",
            "--epsilon", "1.0", "--output", str(output), "--seed", "1",
        ])
        assert code == 0
        graph, _mapping = load_attributed_graph(output)
        assert graph.num_edges > 0

    def test_synthesize_from_edge_file(self, tmp_path, small_edge_file):
        output = tmp_path / "out.json"
        code = main([
            "synthesize", "--edges", str(small_edge_file), "--epsilon", "2.0",
            "--output", str(output),
        ])
        assert code == 0

    @pytest.mark.slow
    def test_evaluate_prints_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "1")
        code = main([
            "evaluate", "--dataset", "petster", "--scale", "0.05",
            "--epsilon", "1.0", "--trials", "1", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AGMDP-TriCL" in out
        assert "ThetaF" in out

    @pytest.mark.slow
    def test_datasets_command(self, capsys):
        code = main(["datasets", "--scale", "0.05", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lastfm" in out
        assert "n (paper)" in out

    def test_run_command_writes_manifest_and_report(self, tmp_path, capsys):
        config = {
            "dataset": "petster", "scale": 0.05, "seed": 3,
            "epsilon": 1.0, "backend": "fcl",
            "trials": 2, "workers": 2, "num_iterations": 1,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        output = tmp_path / "result.json"
        code = main(["run", "--config", str(config_path),
                     "--output", str(output)])
        assert code == 0
        result = json.loads(output.read_text())
        assert result["model"] == "AGMDP-FCL"
        assert result["trials"] == 2
        assert sum(result["spends"].values()) == pytest.approx(1.0)
        assert result["manifest"]["stages"] == [
            "estimate", "fit", "generate", "evaluate"
        ]
        assert "ThetaF" in result["report"]

    def test_run_command_overrides_and_stdout(self, tmp_path, capsys):
        config = {"dataset": "petster", "scale": 0.05, "seed": 1,
                  "epsilon": 0.5, "backend": "tricycle",
                  "trials": 4, "num_iterations": 1}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_path), "--trials", "1"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["trials"] == 1
        assert result["model"] == "AGMDP-TriCL"
        assert result["manifest"]["spends"]["structural.triangles"] == \
            pytest.approx(0.125)

    def test_run_command_budget_split_from_config(self, tmp_path, capsys):
        config = {
            "dataset": "petster", "scale": 0.05, "seed": 1, "epsilon": 1.0,
            "backend": "fcl", "trials": 1, "num_iterations": 1,
            "budget_split": {"attributes": 0.2, "correlations": 0.3,
                             "structural": 0.5},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["spends"]["correlations"] == pytest.approx(0.3)

    def test_run_flags_beat_config_values(self, tmp_path, capsys):
        """Regression: --trials/--workers/--output must override the config.

        The merge lives in ReleaseSpec.with_overrides (shared with the
        service), not in the command body.
        """
        config = {
            "spec_version": 1,
            "dataset": "petster", "scale": 0.05, "seed": 1, "epsilon": 1.0,
            "backend": "fcl", "trials": 4, "workers": 4, "num_iterations": 1,
            "output": str(tmp_path / "config_says_here.json"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        flag_output = tmp_path / "flag_says_here.json"
        code = main(["run", "--config", str(config_path),
                     "--trials", "1", "--workers", "1",
                     "--output", str(flag_output)])
        assert code == 0
        assert flag_output.exists()
        assert not (tmp_path / "config_says_here.json").exists()
        result = json.loads(flag_output.read_text())
        assert result["trials"] == 1
        assert result["workers"] == 1

    def test_run_rejects_bad_config_with_field_name(self, tmp_path, capsys):
        config = {"spec_version": 1, "dataset": "petster", "epsilon": -1.0}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_path)])
        assert code == 2
        assert "epsilon:" in capsys.readouterr().err

    def test_figure_command_outputs_json(self, capsys):
        code = main([
            "figure", "5", "--dataset", "petster", "--scale", "0.05",
            "--trials", "1", "--seed", "0",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["method"] == "EdgeTruncation" for row in rows)
