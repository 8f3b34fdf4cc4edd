"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURE_RUNNERS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.system == "GCSM"
        assert args.dataset == "FR"
        assert args.query == "Q1"

    def test_invalid_choices_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "TPU"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_all_figures_registered(self):
        # every Table/Figure of the paper has a runner
        expected = {"table1", "fig7", "fig8", "fig9", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "table2", "table3", "um"}
        assert expected == set(FIGURE_RUNNERS)


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("AZ", "PA", "CA", "LJ", "FR", "SF3K", "SF10K"):
            assert name in out

    def test_list_queries(self, capsys):
        assert main(["list-queries"]) == 0
        out = capsys.readouterr().out
        for name in ("Q1", "Q6"):
            assert name in out

    def test_run_with_json_export(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        code = main([
            "run", "--system", "ZC", "--dataset", "AZ", "--query", "Q1",
            "--batch-size", "32", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ΔM total" in out
        payload = json.loads(path.read_text())
        assert payload[0]["system"] == "ZC"
        assert payload[0]["dataset"] == "AZ"

    def test_compare(self, capsys):
        code = main([
            "compare", "--systems", "GCSM,ZC", "--dataset", "AZ",
            "--query", "Q1", "--batch-size", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GCSM vs ZC" in out

    def test_figure_fig7(self, capsys):
        assert main(["figure", "fig7"]) == 0
        assert "Fig. 7" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code = main([
            "verify", "--systems", "GCSM,ZC", "--dataset", "AZ",
            "--query", "Q1", "--batch-size", "16", "--batches", "2",
        ])
        assert code == 0
        assert "systems agree" in capsys.readouterr().out

    def test_default_verify_compares_real_matches(self, capsys, monkeypatch):
        """With no arguments every batch changes the match count, so the
        systems agreeing (and ``--oracle`` agreeing with them) means
        something."""
        import repro.testing.validation as validation

        real, reports = validation.verify_stream, []

        def recording(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(validation, "verify_stream", recording)
        assert main(["verify"]) == 0
        (report,) = reports
        assert report.num_batches == 2
        assert all(d != 0 for d in report.delta_per_batch), report.delta_per_batch
        assert "systems agree" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--systems", "GCSM,Bogus"], "unknown system spec 'Bogus'"),
        (["--systems", " , "], "--systems names no system"),
        (["--batches", "0"], "num_batches must be positive"),
        (["--fuzz", "0"], "--fuzz needs at least one case"),
    ])
    def test_bad_input_is_a_usage_error(self, capsys, argv, message):
        """Bad input exits 2 with one line on stderr, as ``run`` / ``matrix``
        / ``serve`` do; exit 1 stays the code of a real ΔM disagreement."""
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro verify: error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_verify_fuzz(self, capsys):
        code = main(["verify", "--fuzz", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adversarial cases" in out
        assert "agree with the oracle" in out

    def test_verify_fuzz_with_conflict_mode(self, capsys):
        code = main(["verify", "--fuzz", "1", "--conflict-mode", "ignore"])
        assert code == 0
        assert "mode=ignore" in capsys.readouterr().out

    def test_run_conflict_mode_in_json(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        code = main([
            "run", "--system", "CPU", "--dataset", "AZ", "--query", "Q1",
            "--batch-size", "16", "--conflict-mode", "strict",
            "--json", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload[0]["conflict_mode"] == "strict"

    def test_bad_conflict_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--conflict-mode", "merge"])


class TestRulebookCommand:
    def test_inline_rulebook_runs_shared(self, capsys, tmp_path):
        path = tmp_path / "rb.json"
        code = main([
            "run", "--rulebook", "Q1,Q2", "--dataset", "AZ",
            "--batch-size", "32", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 queries, shared=True" in out
        payload = json.loads(path.read_text())
        assert payload[0]["shared"] is True
        assert payload[0]["rulebook_size"] == 2
        assert payload[0]["query"] == "rulebook[2]"

    def test_rulebook_file_and_no_shared(self, capsys, tmp_path):
        book = tmp_path / "book.txt"
        book.write_text("Q1  # house\nQ3\n")
        path = tmp_path / "rb.json"
        code = main([
            "run", "--rulebook", str(book), "--no-shared", "--dataset", "AZ",
            "--batch-size", "32", "--json", str(path),
        ])
        assert code == 0
        assert "shared=False" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload[0]["shared"] is False

    def test_rulebook_json_file_with_inline_pattern(self, capsys, tmp_path):
        book = tmp_path / "book.json"
        book.write_text(json.dumps({
            "queries": [
                "Q1",
                {"name": "wedge", "edges": [[0, 1], [1, 2]], "labels": [0, 1, 0]},
            ]
        }))
        code = main([
            "run", "--rulebook", str(book), "--dataset", "AZ",
            "--batch-size", "32",
        ])
        assert code == 0
        assert "2 queries" in capsys.readouterr().out

    def test_unknown_rulebook_entry_rejected(self, capsys):
        assert main(["run", "--rulebook", "Q1,QX", "--dataset", "AZ"]) == 2
        assert "unknown rulebook entry" in capsys.readouterr().err

    def test_rulebook_excludes_other_systems(self, capsys):
        """Only the candidate-indexed system refuses a rulebook, and the
        message is the engine's; every other system / fleet composes."""
        assert main(["run", "--rulebook", "Q1", "--system", "RapidFlow"]) == 2
        assert "placement='indexed'" in capsys.readouterr().err
        for extra in (["--system", "CPU"], ["--devices", "2"],
                      ["--system", "Pipelined", "--devices", "2"]):
            assert main(["run", "--rulebook", "Q1,Q3", "--dataset", "AZ",
                         "--batch-size", "32", *extra]) == 0
        assert "2 queries, shared=True" in capsys.readouterr().out


class TestUserErrorsExitTwo:
    """A run the input cannot make prints one ``repro <cmd>: error: …`` line
    and exits 2 — no traceback — from a fresh interpreter, as a user runs it.
    VSGM's capacity error names the query's k-hop radius, and advises a
    smaller batch only when one update's working set would fit."""

    @pytest.mark.parametrize("argv, message, absent", [
        (["run", "--system", "VSGM"],
         "2-hop working set", "first update alone"),
        (["compare", "--systems", "VSGM,ZC"],
         "2-hop working set", "first update alone"),
        (["compare", "--systems", "FOO,ZC"],
         "unknown system 'FOO'", "working set"),
        (["run", "--system", "VSGM", "--batch-size", "1", "--batches", "1"],
         "the batch's first update alone needs", "use a smaller batch"),
    ])
    def test_one_line_and_exit_two(self, argv, message, absent):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"repro {argv[0]}: error: ")
        assert message in lines[0] and absent not in lines[0]
