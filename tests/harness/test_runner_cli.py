"""The registry runner and its two CLI front-ends.

An experiment is a pure function of (id, quick), so serial and parallel
runs must be indistinguishable at the ``ExperimentResult.to_json()``
byte level, in request order.
"""

import io
import json

import pytest

from repro import cli
from repro.harness.cache import code_fingerprint
from repro.harness.runner import (ALL_EXPERIMENTS, execute_one,
                                  run_experiments, select)

#: Cheap experiments (< ~0.5 s each) exercising both the analytic and
#: packet-level paths — enough to prove the fan-out without tier-2 cost.
SUBSET = ["fig7b", "fig8", "abl-mem", "fig10"]


def _payloads(run):
    return [r.to_json() for r in run.results]


class TestDeterminism:
    def test_serial_matches_parallel(self):
        serial = run_experiments(SUBSET, jobs=1, stream=io.StringIO())
        for jobs in (2, 4):
            par = run_experiments(SUBSET, jobs=jobs, stream=io.StringIO())
            assert _payloads(par) == _payloads(serial), \
                f"jobs={jobs} diverged from serial"

    def test_request_order_preserved(self):
        run = run_experiments(list(reversed(SUBSET)), jobs=2,
                              stream=io.StringIO())
        assert [r.exp_id for r in run.results] == list(reversed(SUBSET))
        assert list(run.entries) == list(reversed(SUBSET))

    def test_event_counts_recorded(self):
        run = run_experiments(["fig8"], stream=io.StringIO())
        assert run.entries["fig8"]["events"] > 0

    def test_document_shape(self):
        run = run_experiments(["fig7b"], stream=io.StringIO())
        doc = run.document()
        assert doc["schema"] == "cepheus-bench/v3"
        assert doc["mode"] == "quick"
        assert doc["code_fingerprint"] == code_fingerprint()
        entry = doc["experiments"]["fig7b"]
        assert set(entry) == {"wall_s", "events", "events_per_sec",
                              "result"}
        # fig7b is analytic (0 simulator events): no throughput figure
        assert entry["events_per_sec"] is None
        # The whole document must be strict JSON.
        json.loads(json.dumps(doc, allow_nan=False))

    def test_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_execute_one_sets_provenance(self):
        entry = execute_one("fig7b", True)
        assert entry["result"]["mode"] == "quick"
        assert entry["wall_s"] >= 0


class TestRunExperiments:
    def test_streams_tables(self):
        out = io.StringIO()
        run = run_experiments(["fig7b", "abl-mem"], stream=out)
        text = out.getvalue()
        assert len(run.results) == 2
        assert "fig7b" in text and "abl-mem" in text
        assert run.results[0].wall_time_s > 0
        assert "run:" in text and "wall" in text

    def test_quick_tag_recorded(self):
        out = io.StringIO()
        (res,) = run_experiments(["fig7b"], quick=True, stream=out).results
        assert res.mode == "quick"
        assert "(quick)" in out.getvalue()

    def test_parallel_jobs(self):
        run = run_experiments(["fig7b", "abl-mem"], jobs=2,
                              stream=io.StringIO())
        assert [r.exp_id for r in run.results] == ["fig7b", "abl-mem"]


class TestMainCli:
    def test_only_selection(self, capsys):
        assert cli.main(["experiments", "--only", "fig7b"]) == 0
        captured = capsys.readouterr()
        assert "MFT memory" in captured.out

    def test_unknown_experiment_errors(self, capsys):
        assert cli.main(["experiments", "--only", "fig99"]) == 2
        assert "unknown experiments: ['fig99']" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        assert cli.main(["experiments", "--only", "fig7b",
                         "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_emit_writes_bench_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_quick.json"
        assert cli.main(["bench", "emit", "--only", "fig7b",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "cepheus-bench/v3"
        assert doc["mode"] == "quick"
        entry = doc["experiments"]["fig7b"]
        assert entry["events"] >= 0 and entry["wall_s"] >= 0
        assert entry["result"]["rows"][0]["total_MB"] > 0

    def test_registry_complete(self):
        assert len(ALL_EXPERIMENTS) >= 15


def test_select_drops_repeats_in_request_order():
    assert select("fig8, fig7b,fig8,") == ["fig8", "fig7b"]
    assert select("") == list(ALL_EXPERIMENTS)


#: The two front-ends of ``runner.run_cli``: argv -> exit code, given
#: selection flags and a path for the BENCH document.
ENTRY_POINTS = {
    "experiments": lambda argv, out: cli.main(
        ["experiments"] + argv + ["--emit", out]),
    "bench-emit": lambda argv, out: cli.main(
        ["bench", "emit"] + argv + ["--out", out]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_share_one_selection(entry, tmp_path, capsys):
    out = str(tmp_path / "doc.json")

    def run(*argv):
        code = ENTRY_POINTS[entry](list(argv), out)
        return code, capsys.readouterr().err

    # a repeated id runs once
    code, err = run("--only", "fig7b,abl-mem,fig7b")
    assert code == 0 and "2 experiment(s)" in err
    with open(out, encoding="utf-8") as fh:
        assert sorted(json.load(fh)["experiments"]) == ["abl-mem", "fig7b"]
    # bad input: exit code 2 everywhere, nothing run
    code, err = run("--only", "fig7b,fig99")
    assert code == 2 and "unknown experiments: ['fig99']" in err
    code, err = run("--only", "fig7b", "--jobs", "0")
    assert code == 2 and "--jobs must be >= 1" in err


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_experiments_own_error_propagates(entry, tmp_path, monkeypatch):
    """Only the selection and ``--jobs`` are bad input (exit 2); a
    ``ValueError`` raised inside an experiment escapes with its
    traceback."""
    def broken(quick):
        raise ValueError("raised inside the simulation")

    monkeypatch.setitem(ALL_EXPERIMENTS, "fig7b", broken)
    with pytest.raises(ValueError, match="raised inside the simulation"):
        ENTRY_POINTS[entry](["--only", "fig7b"], str(tmp_path / "doc.json"))
