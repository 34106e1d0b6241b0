"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import main


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "LCP('101001') = 5" in out
        assert "hidden nodes" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "P=  4" in out
        assert "best fit" in out
        # O(log P): the reported best law must not be linear
        assert "best fit: linear" not in out

    def test_skew(self, capsys):
        assert main(["skew", "--p", "8"]) == 0
        out = capsys.readouterr().out
        assert "pim-trie" in out
        assert "range-partition" in out
        assert "flood" in out

    @pytest.mark.parametrize("command", ["table1", "bench-all"])
    def test_table1_rows(self, capsys, command):
        assert main(["--p", "4", command]) == 0
        out = capsys.readouterr().out
        assert "Table 1 (LCP column), P=4" in out
        rows = [line.split() for line in out.splitlines()]
        # one pim-trie row per key length: (l, name, rounds, words/op)
        assert [
            r[0] for r in rows if r[1:2] == ["pim-trie"] and r[0].isdigit()
        ] == ["32", "64", "128", "256"]

    def test_trace_smoke(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "TRACE.json"
        assert main(["trace", "--smoke", "--out", str(out)]) == 0
        assert (
            "span deltas sum exactly to the run's metrics delta: True"
            in capsys.readouterr().out
        )
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_ordered_smoke(self, capsys, tmp_path):
        out = tmp_path / "BENCH_ordered.json"
        assert main(["bench", "ordered", "--smoke", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "all_digests_match=True" in text
        assert "span_sums_exact=True" in text
        assert out.exists()
        # the committed full-profile report guards the same gates, so
        # the smoke report must satisfy its own floor
        assert main(["bench", "ordered", "--smoke", "--out", str(out),
                     "--check-floor", str(out)]) == 0

    def test_check_floor_needs_a_recorded_comparison(self, capsys, tmp_path):
        assert main(["bench", "faults", "--smoke", "--check-floor",
                     str(tmp_path / "x.json")]) == 2
        assert "no recorded report" in capsys.readouterr().err
