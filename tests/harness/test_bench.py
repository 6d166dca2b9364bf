"""BENCH documents and the exact compare gate."""

import json
import math

import pytest

from repro.harness import bench
from repro.harness.report import ExperimentResult

ROWS = ({"size": "64B", "jct_us": 1.5}, {"size": "1KB", "jct_us": 2.25})


def _entry(rows=ROWS, events=1000, exp_id="fig8"):
    res = ExperimentResult(exp_id, exp_id, ["size", "jct_us"], mode="quick")
    res.rows.extend(dict(row) for row in rows)
    return bench.make_entry(res, wall_s=0.1, events=events)


def _doc(entries):
    return {"schema": bench.SCHEMA, "experiments": dict(entries)}


class TestCompare:
    def test_identical_documents_pass(self):
        doc = _doc({"fig8": _entry(), "fig13": _entry(exp_id="fig13")})
        comp = bench.compare(doc, doc)
        assert comp.ok and comp.compared == 2
        assert comp.format() == "compared 2 experiment(s): 0 failing, 0 new"

    def test_provenance_is_not_compared(self):
        base = _doc({"fig8": _entry()})
        cur = _doc({"fig8": _entry()})
        cur["experiments"]["fig8"].update(wall_s=9.0, events_per_sec=1.0)
        assert bench.compare(cur, base).ok

    def test_one_ulp_in_one_cell_fails_and_names_row_and_column(self):
        base = _doc({"fig8": _entry()})
        bumped = math.nextafter(2.25, math.inf)
        cur = _doc({"fig8": _entry(rows=(ROWS[0], {"size": "1KB",
                                                   "jct_us": bumped}))})
        comp = bench.compare(cur, base)
        assert not comp.ok and comp.failing == ["fig8"]
        assert comp.failures == [
            ("fig8", f"row 1 column 'jct_us': baseline 2.25 -> current "
                     f"{bumped!r}")]
        assert "FAIL fig8: row 1 column 'jct_us'" in comp.format()

    def test_int_and_float_cells_differ(self):
        base = _doc({"fig8": _entry(rows=({"size": "64B", "jct_us": 2},))})
        cur = _doc({"fig8": _entry(rows=({"size": "64B", "jct_us": 2.0},))})
        assert not bench.compare(cur, base).ok

    def test_row_count_and_metadata_changes_fail(self):
        base = _doc({"fig8": _entry()})
        short = _doc({"fig8": _entry(rows=ROWS[:1])})
        assert bench.compare(short, base).failures == [
            ("fig8", "row 1 column 'size': baseline '1KB' -> current "
                     "<absent>")]
        renamed = _doc({"fig8": _entry()})
        renamed["experiments"]["fig8"]["result"]["notes"] = "changed"
        assert bench.compare(renamed, base).failures == [
            ("fig8", "notes: baseline '' -> current 'changed'")]

    @pytest.mark.parametrize("exp_id", ["fig8", "fig13", "fig14"])
    def test_event_count_change_fails(self, exp_id):
        """Exact for every id, fig13 and fig14 included."""
        base = _doc({exp_id: _entry(exp_id=exp_id, events=1000)})
        cur = _doc({exp_id: _entry(exp_id=exp_id, events=1001)})
        comp = bench.compare(cur, base)
        assert comp.failures == [
            (exp_id, "events: baseline 1000 -> current 1001")]

    def test_missing_experiment_fails(self):
        base = _doc({"fig8": _entry(), "fig9": _entry(exp_id="fig9")})
        comp = bench.compare(_doc({"fig8": _entry()}), base)
        assert not comp.ok and comp.compared == 1
        assert comp.failures == [
            ("fig9", "experiment missing from current run")]
        assert "FAIL fig9: experiment missing from current run" in \
            comp.format()

    def test_new_experiment_is_a_note_not_a_failure(self):
        cur = _doc({"fig8": _entry(), "fig99": _entry(exp_id="fig99")})
        comp = bench.compare(cur, _doc({"fig8": _entry()}))
        assert comp.ok and comp.added_experiments == ["fig99"]
        assert "note fig99: new experiment (no baseline)" in comp.format()

    def test_nonfinite_cells_compare_equal_through_the_encoding(self):
        rows = ({"size": "a", "jct_us": math.nan},
                {"size": "b", "jct_us": math.inf},
                {"size": "c", "jct_us": -math.inf})
        doc = _doc({"fig8": _entry(rows=rows)})
        round_tripped = json.loads(json.dumps(doc, allow_nan=False))
        assert bench.compare(_doc({"fig8": _entry(rows=rows)}), doc).ok
        assert bench.compare(round_tripped, doc).ok
        other = _doc({"fig8": _entry(
            rows=({"size": "a", "jct_us": math.inf},) + rows[1:])})
        assert bench.compare(other, doc).failures == [
            ("fig8", "row 0 column 'jct_us': baseline "
                     "{'__nonfinite__': 'nan'} -> current "
                     "{'__nonfinite__': 'inf'}")]

    def test_v2_document_rejected_with_its_schema_named(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "cepheus-bench/v2",
                                    "experiments": {}}))
        with pytest.raises(ValueError, match="'cepheus-bench/v2'"):
            bench.load_document(str(path))

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ValueError):
            bench.load_document(str(path))


class TestThroughputFields:
    def _result(self):
        res = ExperimentResult("e", "t", ["x"])
        res.rows.append({"x": 1.0})
        return res

    def test_make_entry_computes_rate(self):
        entry = bench.make_entry(self._result(), wall_s=2.0, events=1000)
        assert entry["events_per_sec"] == 500.0

    def test_document_aggregates_all_entries(self):
        a = bench.make_entry(self._result(), wall_s=2.0, events=1000)
        b = bench.make_entry(self._result(), wall_s=0.5, events=4000)
        analytic = bench.make_entry(self._result(), wall_s=1.5, events=0)
        assert analytic["events_per_sec"] is None
        doc = bench.make_document({"a": a, "b": b, "c": analytic},
                                  mode="quick", jobs=1,
                                  fingerprint="f" * 64, total_wall_s=4.0)
        assert doc["schema"] == bench.SCHEMA == "cepheus-bench/v3"
        # 5,000 events over 4 s of experiment wall time, analytic included
        assert doc["events_per_sec"] == 1250.0


class TestBenchCli:
    def _emit(self, tmp_path, name="A.json"):
        from repro.cli import main
        out = tmp_path / name
        assert main(["bench", "emit", "--only", "fig7b,abl-mem",
                     "--out", str(out)]) == 0
        return out

    def test_emit_then_compare_self_passes(self, tmp_path, capsys):
        out = self._emit(tmp_path)
        from repro.cli import main
        assert main(["bench", "compare", str(out), str(out)]) == 0
        captured = capsys.readouterr()
        assert "behaviour identical" in captured.err
        assert "compared 2 experiment(s): 0 failing, 0 new" in captured.out

    def test_compare_detects_drift(self, tmp_path, capsys):
        out = self._emit(tmp_path)
        doc = json.loads(out.read_text())
        doc["experiments"]["fig7b"]["result"]["rows"][0]["total_MB"] *= 2
        drifted = tmp_path / "B.json"
        drifted.write_text(json.dumps(doc))
        from repro.cli import main
        assert main(["bench", "compare", str(drifted), str(out)]) == 1
        assert "FAIL fig7b: row 0 column 'total_MB'" in capsys.readouterr().out

    def test_compare_missing_file_errors(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["bench", "compare", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 2

    def test_emit_unknown_experiment_errors(self, tmp_path):
        from repro.cli import main
        assert main(["bench", "emit", "--only", "fig99",
                     "--out", str(tmp_path / "x.json")]) == 2
