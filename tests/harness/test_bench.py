"""BENCH documents, headline metrics, and the compare gate."""

import json

import pytest

from repro.harness import bench
from repro.harness.report import ExperimentResult


def _doc(metrics_by_exp):
    return {
        "schema": bench.SCHEMA,
        "mode": "quick",
        "jobs": 1,
        "code_fingerprint": "f" * 64,
        "total_wall_s": 1.0,
        "experiments": {
            exp: {"wall_s": 0.1, "events": 10, "cached": False,
                  "rows": 1, "metrics": dict(metrics),
                  "result": {"exp_id": exp, "title": exp, "paper_claim": "",
                             "notes": "", "mode": "quick", "headers": [],
                             "rows": []}}
            for exp, metrics in metrics_by_exp.items()
        },
    }


class TestHeadlineMetrics:
    def test_numeric_columns_get_means(self):
        res = ExperimentResult("e", "t", ["size", "jct", "speedup"])
        res.rows.append({"size": "64B", "jct": 1.0, "speedup": 2.0})
        res.rows.append({"size": "1MB", "jct": 3.0, "speedup": 4.0})
        m = bench.headline_metrics(res)
        assert m == {"rows": 2.0, "mean_jct": 2.0, "mean_speedup": 3.0}

    def test_non_numeric_and_bool_columns_skipped(self):
        res = ExperimentResult("e", "t", ["name", "flag", "x"])
        res.rows.append({"name": "a", "flag": True, "x": 1})
        m = bench.headline_metrics(res)
        assert set(m) == {"rows", "mean_x"}

    def test_nonfinite_mean_dropped(self):
        res = ExperimentResult("e", "t", ["x"])
        res.rows.append({"x": float("nan")})
        assert set(bench.headline_metrics(res)) == {"rows"}

    def test_empty_table(self):
        assert bench.headline_metrics(
            ExperimentResult("e", "t", ["x"])) == {"rows": 0.0}


class TestCompare:
    def test_identical_documents_pass(self):
        doc = _doc({"fig8": {"mean_speedup": 2.5, "rows": 4.0}})
        comp = bench.compare(doc, doc)
        assert comp.ok and not comp.regressions

    def test_within_tolerance_passes(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        cur = _doc({"fig8": {"mean_speedup": 2.55}})  # 2% drift, 8% default
        assert bench.compare(cur, base).ok

    def test_beyond_tolerance_fails(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        cur = _doc({"fig8": {"mean_speedup": 3.0}})  # 20% drift
        comp = bench.compare(cur, base)
        assert not comp.ok
        (delta,) = comp.regressions
        assert delta.name == "fig8.mean_speedup"
        assert delta.status == "regressed"
        assert "FAIL fig8.mean_speedup" in comp.format()

    def test_per_metric_tolerance_override(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        cur = _doc({"fig8": {"mean_speedup": 3.0}})
        tol = {"default_rel_tol": 0.08, "default_abs_tol": 1e-9,
               "metrics": {"fig8.*": 0.5}}
        assert bench.compare(cur, base, tol).ok
        tight = {"default_rel_tol": 0.5, "default_abs_tol": 1e-9,
                 "metrics": {"fig8.mean_speedup": 0.01, "fig8.*": 0.9}}
        # Longest (most specific) pattern wins over the glob.
        assert not bench.compare(cur, base, tight).ok

    def test_missing_experiment_fails(self):
        base = _doc({"fig8": {"mean_speedup": 2.5},
                     "fig9": {"mean_speedup": 2.0}})
        cur = _doc({"fig8": {"mean_speedup": 2.5}})
        comp = bench.compare(cur, base)
        assert not comp.ok
        assert comp.missing_experiments == ["fig9"]
        assert "fig9: experiment missing" in comp.format()

    def test_missing_metric_fails(self):
        base = _doc({"fig8": {"mean_speedup": 2.5, "mean_jct": 1.0}})
        cur = _doc({"fig8": {"mean_speedup": 2.5}})
        comp = bench.compare(cur, base)
        assert not comp.ok
        assert comp.regressions[0].status == "missing"

    def test_new_experiment_and_metric_are_notes_not_failures(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        cur = _doc({"fig8": {"mean_speedup": 2.5, "mean_new": 1.0},
                    "fig99": {"mean_x": 1.0}})
        comp = bench.compare(cur, base)
        assert comp.ok
        assert comp.added_experiments == ["fig99"]

    def test_zero_baseline_uses_absolute_floor(self):
        base = _doc({"fig8": {"mean_residual": 0.0}})
        assert bench.compare(_doc({"fig8": {"mean_residual": 0.0}}),
                             base).ok
        assert not bench.compare(_doc({"fig8": {"mean_residual": 0.5}}),
                                 base).ok

    def test_events_not_compared_by_default(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        cur = _doc({"fig8": {"mean_speedup": 2.5}})
        cur["experiments"]["fig8"]["events"] = 99999
        assert bench.compare(cur, base).ok

    def test_check_events_requires_exact_match(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        same = _doc({"fig8": {"mean_speedup": 2.5}})
        assert bench.compare(same, base, check_events=True).ok
        drift = _doc({"fig8": {"mean_speedup": 2.5}})
        drift["experiments"]["fig8"]["events"] = 11  # baseline is 10
        comp = bench.compare(drift, base, check_events=True)
        assert not comp.ok
        (delta,) = comp.regressions
        assert delta.name == "fig8.events"

    def test_check_events_honors_tolerance_pattern(self):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        drift = _doc({"fig8": {"mean_speedup": 2.5}})
        drift["experiments"]["fig8"]["events"] = 11
        tol = {"metrics": {"fig8.events": 0.2}}
        assert bench.compare(drift, base, tol, check_events=True).ok

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ValueError):
            bench.load_document(str(path))

    def test_v1_documents_still_load(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "cepheus-bench/v1",
                                    "experiments": {}}))
        assert bench.load_document(str(path))["schema"] == "cepheus-bench/v1"

    def test_events_per_sec_is_informational(self, capsys):
        base = _doc({"fig8": {"mean_speedup": 2.5}})
        base["events_per_sec"] = 1000.0
        cur = _doc({"fig8": {"mean_speedup": 2.5}})
        cur["events_per_sec"] = 500.0  # 2x slower: still not a failure
        comp = bench.compare(cur, base)
        assert comp.ok
        assert any("events_per_sec" in n for n in comp.throughput_notes)
        assert "informational" in comp.format()


class TestThroughputFields:
    def _result(self, cached=False):
        res = ExperimentResult("e", "t", ["x"])
        res.rows.append({"x": 1.0})
        res.cached = cached
        return res

    def test_make_entry_computes_rate(self):
        entry = bench.make_entry(self._result(), wall_s=2.0, events=1000)
        assert entry["events_per_sec"] == 500.0

    def test_cached_entry_has_no_rate(self):
        entry = bench.make_entry(self._result(cached=True),
                                 wall_s=0.001, events=1000)
        assert entry["events_per_sec"] is None

    def test_document_aggregates_uncached_only(self):
        live = bench.make_entry(self._result(), wall_s=2.0, events=1000)
        hot = bench.make_entry(self._result(cached=True),
                               wall_s=0.001, events=9999)
        doc = bench.make_document({"a": live, "b": hot}, mode="quick",
                                  jobs=1, fingerprint="f" * 64,
                                  total_wall_s=2.0)
        assert doc["schema"] == bench.SCHEMA == "cepheus-bench/v2"
        assert doc["events_per_sec"] == 500.0


class TestBenchCli:
    def _emit(self, tmp_path, name="A.json"):
        from repro.cli import main
        out = tmp_path / name
        assert main(["bench", "emit", "--only", "fig7b,abl-mem",
                     "--no-cache", "--out", str(out)]) == 0
        return out

    def test_emit_then_compare_self_passes(self, tmp_path, capsys):
        out = self._emit(tmp_path)
        from repro.cli import main
        assert main(["bench", "compare", str(out), str(out)]) == 0
        assert "no regressions" in capsys.readouterr().err

    def test_compare_detects_drift(self, tmp_path, capsys):
        out = self._emit(tmp_path)
        doc = json.loads(out.read_text())
        doc["experiments"]["fig7b"]["metrics"]["mean_total_MB"] *= 2
        drifted = tmp_path / "B.json"
        drifted.write_text(json.dumps(doc))
        from repro.cli import main
        assert main(["bench", "compare", str(drifted), str(out)]) == 1
        assert "FAIL fig7b.mean_total_MB" in capsys.readouterr().out

    def test_compare_missing_file_errors(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["bench", "compare", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 2

    def test_emit_unknown_experiment_errors(self, tmp_path):
        from repro.cli import main
        assert main(["bench", "emit", "--only", "fig99",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_emit_uses_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.cli import main
        assert main(["bench", "emit", "--only", "fig7b",
                     "--cache-dir", str(tmp_path / "c"),
                     "--out", str(tmp_path / "a.json")]) == 0
        assert main(["bench", "emit", "--only", "fig7b",
                     "--cache-dir", str(tmp_path / "c"),
                     "--out", str(tmp_path / "b.json")]) == 0
        assert "1 cached" in capsys.readouterr().err
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["experiments"]["fig7b"]["result"] == \
            b["experiments"]["fig7b"]["result"]
        assert b["experiments"]["fig7b"]["cached"] is True

    def test_tolerances_file_respected(self, tmp_path, capsys):
        out = self._emit(tmp_path)
        doc = json.loads(out.read_text())
        doc["experiments"]["fig7b"]["metrics"]["mean_total_MB"] *= 1.2
        drifted = tmp_path / "B.json"
        drifted.write_text(json.dumps(doc))
        lax = tmp_path / "tol.json"
        lax.write_text(json.dumps({"default_rel_tol": 0.5}))
        from repro.cli import main
        assert main(["bench", "compare", str(drifted), str(out),
                     "--tolerances", str(lax)]) == 0
