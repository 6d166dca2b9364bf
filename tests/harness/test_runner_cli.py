"""The CLI harness entry point."""

import io
import json

import pytest

from repro import cli
from repro.harness.runner import (ALL_EXPERIMENTS, main, run_experiments,
                                  select)


class TestRunExperiments:
    def test_streams_tables(self):
        out = io.StringIO()
        results = run_experiments(["fig7b", "abl-mem"], quick=True,
                                  stream=out)
        text = out.getvalue()
        assert len(results) == 2
        assert "fig7b" in text and "abl-mem" in text
        assert results[0].wall_time_s > 0
        assert "run:" in text and "wall" in text

    def test_quick_tag_recorded(self):
        out = io.StringIO()
        (res,) = run_experiments(["fig7b"], quick=True, stream=out)
        assert res.mode == "quick"
        assert "(quick)" in out.getvalue()

    def test_parallel_jobs(self):
        out = io.StringIO()
        results = run_experiments(["fig7b", "abl-mem"], quick=True,
                                  stream=out, jobs=2)
        assert [r.exp_id for r in results] == ["fig7b", "abl-mem"]

    def test_cache_dir_roundtrip(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_experiments(["fig7b"], quick=True, stream=io.StringIO(),
                                cache_dir=str(cache))
        warm = run_experiments(["fig7b"], quick=True, stream=io.StringIO(),
                               cache_dir=str(cache))
        assert warm[0].cached and not first[0].cached
        assert warm[0].to_json() == first[0].to_json()


class TestMainCli:
    def test_only_selection(self, capsys):
        assert main(["--only", "fig7b", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "MFT memory" in captured.out

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig7b", "--jobs", "0"])

    def test_emit_writes_bench_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_quick.json"
        assert main(["--only", "fig7b", "--no-cache",
                     "--emit", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "cepheus-bench/v2"
        assert doc["mode"] == "quick"
        entry = doc["experiments"]["fig7b"]
        assert entry["events"] >= 0 and entry["wall_s"] >= 0
        assert "mean_total_MB" in entry["metrics"]

    def test_cache_dir_option(self, tmp_path, capsys):
        cache = tmp_path / "c"
        assert main(["--only", "fig7b", "--cache-dir", str(cache)]) == 0
        assert main(["--only", "fig7b", "--cache-dir", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "1 cached" in err

    def test_registry_complete(self):
        assert len(ALL_EXPERIMENTS) >= 15


def test_select_drops_repeats_in_request_order():
    assert select("fig8, fig7b,fig8,") == ["fig8", "fig7b"]
    assert select("") == list(ALL_EXPERIMENTS)


#: The three front-ends of ``runner.run_cli``: argv -> exit code, given
#: selection flags and a path for the BENCH document.
ENTRY_POINTS = {
    "runner": lambda argv, out: main(argv + ["--emit", out]),
    "experiments": lambda argv, out: cli.main(
        ["experiments"] + argv + ["--emit", out]),
    "bench-emit": lambda argv, out: cli.main(
        ["bench", "emit"] + argv + ["--out", out]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_share_one_selection(entry, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "doc.json")

    def run(*argv):
        try:
            code = ENTRY_POINTS[entry](list(argv), out)
        except SystemExit as exc:       # the runner reports via argparse
            code = exc.code
        return code, capsys.readouterr().err

    # a repeated id runs once
    code, err = run("--only", "fig7b,abl-mem,fig7b")
    assert code == 0 and "2 experiment(s)" in err
    assert "(2 executed, 0 cached" in err
    with open(out, encoding="utf-8") as fh:
        assert sorted(json.load(fh)["experiments"]) == ["abl-mem", "fig7b"]
    # the cache is on by default (.bench_cache in the cwd) ...
    code, err = run("--only", "fig7b,abl-mem")
    assert code == 0 and "(0 executed, 2 cached" in err
    assert (tmp_path / ".bench_cache").is_dir()
    # ... and --no-cache bypasses it
    code, err = run("--only", "fig7b", "--no-cache")
    assert code == 0 and "(1 executed, 0 cached" in err
    # bad input: exit code 2 everywhere, nothing run
    code, err = run("--only", "fig7b,fig99")
    assert code == 2 and "unknown experiments: ['fig99']" in err
    code, err = run("--only", "fig7b", "--jobs", "0")
    assert code == 2 and "--jobs must be >= 1" in err
