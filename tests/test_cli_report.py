"""The CLI and report formatting."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.harness.report import format_table, ktx, ms


class TestReportHelpers:
    def test_format_table_alignment(self):
        table = format_table("title", ["a", "bb"], [["1", "2"], ["333", "4"]])
        assert "title" in table
        lines = table.splitlines()
        assert any("333" in line for line in lines)

    def test_ktx(self):
        assert ktx(12345.0) == "12.35"

    def test_ms(self):
        assert ms(0.1234) == "123.4"


class TestCliParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["point", "--protocol", "marlin", "--clients", "100"],
            ["curve", "--f", "2"],
            ["peak"],
            ["viewchange", "--unhappy"],
            ["rotate", "--crashed", "1"],
            ["table1"],
            ["fuzz", "--seed", "5"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["point", "--protocol", "raft"])


class TestCliExecution:
    def test_point_runs(self, capsys):
        assert main(["point", "--clients", "64", "--sim-time", "6", "--warmup", "2"]) == 0
        out = capsys.readouterr().out
        assert "marlin f=1" in out

    def test_viewchange_runs(self, capsys):
        assert main(["viewchange", "--sim-time", "10"]) == 0
        assert "view change latency" in capsys.readouterr().out

    def test_table1_runs(self, capsys):
        assert main(["table1", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table I (measured)" in out
        assert "fast-hotstuff" in out

    def test_fuzz_runs(self, capsys):
        assert main(["fuzz", "--seed", "1", "--sim-time", "8"]) == 0
        assert "safety           : OK" in capsys.readouterr().out

    def test_explore_runs(self, capsys):
        assert main(["explore", "--schedules", "5"]) == 0
        assert "5 adversarial schedules of marlin: all safe." in capsys.readouterr().out
