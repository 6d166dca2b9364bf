"""The cepheus-repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("experiments", "demo", "sweep", "info"):
            args = parser.parse_args([cmd] if cmd != "sweep"
                                     else [cmd, "--sizes", "64"])
            assert callable(args.fn)

    def test_bench_subcommands_registered(self):
        parser = build_parser()
        emit = parser.parse_args(["bench", "emit", "--jobs", "4"])
        assert callable(emit.fn) and emit.jobs == 4
        cmp_args = parser.parse_args(["bench", "compare", "a.json",
                                      "b.json"])
        assert callable(cmp_args.fn)
        assert cmp_args.current == "a.json" and cmp_args.baseline == "b.json"

    def test_experiments_jobs_flag(self, capsys):
        assert main(["experiments", "--only", "fig7b", "--jobs", "2",
                     "--no-cache"]) == 0
        assert "MFT memory" in capsys.readouterr().out

    def test_bench_compare_gate_flags(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "compare", "a.json", "b.json",
                                  "--check-events"])
        assert args.check_events is True
        defaults = parser.parse_args(["bench", "compare", "a.json", "b.json"])
        assert defaults.check_events is False


class TestCommands:
    def test_info_prints_constants(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "100 Gbps" in out
        assert "CALIBRATION" in out

    def test_demo_runs(self, capsys):
        assert main(["demo", "--size", "65536"]) == 0
        out = capsys.readouterr().out
        assert "cepheus" in out and "chain" in out
        assert "1.00x" in out

    def test_sweep_runs(self, capsys):
        assert main(["sweep", "--sizes", "4096", "--groups", "4",
                     "--algorithms", "cepheus"]) == 0
        out = capsys.readouterr().out
        assert "cepheus_jct" in out

    def test_experiments_selection(self, capsys):
        assert main(["experiments", "--only", "fig7b", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "MFT memory" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--only", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

