"""Report formatting helpers."""

import pytest

from repro.harness.report import (ExperimentResult, fmt_size, fmt_time,
                                  format_table, ratio)


class TestFormatters:
    def test_fmt_size(self):
        assert fmt_size(64) == "64B"
        assert fmt_size(1 << 10) == "1KB"
        assert fmt_size(1 << 20) == "1MB"
        assert fmt_size(512 << 20) == "512MB"
        assert fmt_size(1 << 30) == "1GB"
        assert fmt_size(1500) == "1500B"

    def test_fmt_time(self):
        assert fmt_time(2.5) == "2.500s"
        assert fmt_time(3.2e-3) == "3.20ms"
        assert fmt_time(4.5e-6) == "4.5us"

    def test_ratio(self):
        assert ratio(10.0, 2.0) == 5.0
        with pytest.raises(ValueError):
            ratio(1.0, 0.0)


class TestExperimentResult:
    def _result(self):
        res = ExperimentResult(
            exp_id="figX", title="demo", headers=["size", "jct"],
            paper_claim="should be fast", notes="quick mode",
        )
        res.rows.append({"size": "64B", "jct": 1.234567})
        res.rows.append({"size": "1MB", "jct": 89.0})
        return res

    def test_column_extraction(self):
        assert self._result().column("size") == ["64B", "1MB"]

    def test_table_contains_everything(self):
        text = format_table(self._result())
        assert "figX" in text and "demo" in text
        assert "should be fast" in text
        assert "quick mode" in text
        assert "64B" in text and "1MB" in text

    def test_table_aligns_columns(self):
        lines = format_table(self._result()).splitlines()
        header = next(l for l in lines if l.startswith("size"))
        sep = lines[lines.index(header) + 1]
        assert len(sep) == len(header)

    def test_empty_rows_ok(self):
        res = ExperimentResult("e", "t", ["a"])
        assert "e" in format_table(res)


class TestRunnerRegistry:
    def test_all_paper_artifacts_covered(self):
        from repro.harness.runner import ALL_EXPERIMENTS
        for exp in ("fig7b", "fig8", "fig9", "rdmc", "tab1", "fig10",
                    "fig11", "fig12", "fig13", "fig14"):
            assert exp in ALL_EXPERIMENTS

    def test_ablations_registered(self):
        from repro.harness.runner import ALL_EXPERIMENTS
        assert {"abl-ack", "abl-nack", "abl-cnp", "abl-retx",
                "abl-mem"} <= set(ALL_EXPERIMENTS)


class TestCheapExperiments:
    """Smoke the cheap experiment functions end-to-end."""

    @staticmethod
    def _run(exp_id):
        import io

        from repro.harness.runner import run_experiments
        return run_experiments([exp_id], stream=io.StringIO()).results[0]

    def test_fig7b(self):
        res = self._run("fig7b")
        row = res.rows[0]
        assert row["total_MB"] < 0.8
        assert row["bytes_per_group"] == 724

    def test_ablation_memory(self):
        res = self._run("abl-mem")
        ratios = res.column("ratio")
        assert ratios == sorted(ratios)
        assert ratios[-1] > 50  # 4096-member group vs port-bounded state


class TestExports:
    def _result(self):
        from repro.harness.report import ExperimentResult
        res = ExperimentResult("figX", "demo", ["size", "jct"])
        res.rows.append({"size": "64B", "jct": 1.5})
        res.rows.append({"size": "1MB", "jct": 89.0, "extra": "ignored"})
        return res

    def test_csv_roundtrip(self):
        import csv
        import io
        text = self._result().to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0] == {"size": "64B", "jct": "1.5"}
        assert rows[1]["size"] == "1MB"
        assert "extra" not in rows[1]

    def test_json_roundtrip(self):
        import json
        doc = json.loads(self._result().to_json())
        assert doc["exp_id"] == "figX"
        assert doc["rows"][0]["jct"] == 1.5
        assert doc["headers"] == ["size", "jct"]

    def test_missing_cells_empty_in_csv(self):
        from repro.harness.report import ExperimentResult
        res = ExperimentResult("e", "t", ["a", "b"])
        res.rows.append({"a": 1})
        assert ",\r\n" in res.to_csv() or ",\n" in res.to_csv()


class TestJsonRoundTrip:
    """to_json/from_json must be lossless and byte-deterministic."""

    def _result(self):
        from repro.harness.report import ExperimentResult
        res = ExperimentResult(
            "figX", "demo — en-dash", ["size", "jct"],
            paper_claim="±5 %", notes="unicode ✓ ümlaut — quick",
            mode="quick")
        res.rows.append({"size": "64B", "jct": 1.5})
        res.rows.append({"size": "1MB", "jct": 89.0})
        return res

    def test_roundtrip_equality(self):
        from repro.harness.report import ExperimentResult
        res = self._result()
        back = ExperimentResult.from_json(res.to_json())
        assert back == res

    def test_roundtrip_nonfinite_and_unicode(self):
        import math
        from repro.harness.report import ExperimentResult
        res = self._result()
        res.rows.append({"size": "nan", "jct": float("nan")})
        res.rows.append({"size": "inf", "jct": float("inf")})
        res.rows.append({"size": "-inf", "jct": float("-inf")})
        back = ExperimentResult.from_json(res.to_json())
        assert math.isnan(back.rows[2]["jct"])
        assert back.rows[3]["jct"] == float("inf")
        assert back.rows[4]["jct"] == float("-inf")
        assert back.notes == "unicode ✓ ümlaut — quick"

    def test_json_is_strict(self):
        """Non-finite floats must not leak as bare NaN/Infinity tokens
        (invalid JSON that breaks jq and the bench gate)."""
        res = self._result()
        res.rows.append({"size": "nan", "jct": float("nan")})
        text = res.to_json()
        assert "NaN" not in text and "Infinity" not in text
        assert '"__nonfinite__": "nan"' in text

    def test_volatile_fields_excluded(self):
        """Wall-time provenance must not change the payload — the
        serial-vs-parallel determinism guarantee depends on it."""
        a, b = self._result(), self._result()
        b.wall_time_s = 123.4
        assert a.to_json() == b.to_json()

    def test_byte_determinism(self):
        assert self._result().to_json() == self._result().to_json()

    def test_genuine_string_nan_survives(self):
        """A *string* cell 'nan' must not be confused with float NaN."""
        from repro.harness.report import ExperimentResult
        res = ExperimentResult("e", "t", ["a"])
        res.rows.append({"a": "nan"})
        back = ExperimentResult.from_json(res.to_json())
        assert back.rows[0]["a"] == "nan"
        assert isinstance(back.rows[0]["a"], str)

    def test_provenance_line_in_table(self):
        from repro.harness.report import format_table
        res = self._result()
        res.wall_time_s = 2.0
        text = format_table(res)
        assert text.endswith("run: wall 2.0s (quick)")


class TestAsciiChart:
    def test_empty(self):
        from repro.harness.report import ascii_chart
        assert "empty" in ascii_chart({})
        assert "empty" in ascii_chart({"a": []})

    def test_marks_unique_even_with_name_collisions(self):
        from repro.harness.report import ascii_chart
        out = ascii_chart({"f1": [1.0], "f2": [2.0], "f3": [3.0]},
                          width=4, height=4)
        legend = out.splitlines()[-1]
        assert "1=f1" in legend and "2=f2" in legend and "3=f3" in legend

    def test_peak_row_hit(self):
        from repro.harness.report import ascii_chart
        out = ascii_chart({"x": [0.0, 10.0]}, width=2, height=5)
        top_row = out.splitlines()[0]
        assert "10.0" in top_row
        assert top_row.strip().endswith("x") or "x" in top_row

    def test_overlap_marker(self):
        from repro.harness.report import ascii_chart
        out = ascii_chart({"a": [5.0, 5.0], "b": [5.0, 5.0]},
                          width=2, height=3)
        assert "*" in out

    def test_downsampling_long_series(self):
        from repro.harness.report import ascii_chart
        out = ascii_chart({"s": list(range(1000))}, width=10, height=4)
        body = out.splitlines()[0]
        assert len(body) < 140  # downsampled, not one col per sample
