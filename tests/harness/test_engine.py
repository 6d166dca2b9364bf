"""The parallel experiment engine: determinism, fan-out, caching.

These tests are the specification of the tentpole guarantee: an
experiment is a pure function of (id, config, code), so serial runs,
parallel runs and cache replays must be indistinguishable at the
``ExperimentResult.to_json()`` byte level.
"""

import io
import json

import pytest

from repro.harness.cache import (ResultCache, canonical_config, code_fingerprint,
                                 config_hash)
from repro.harness.engine import execute_one, experiment_config, run_engine
from repro.harness.runner import ALL_EXPERIMENTS

#: Cheap experiments (< ~0.5 s each) exercising both the analytic and
#: packet-level paths — enough to prove the engine without tier-2 cost.
SUBSET = ["fig7b", "fig8", "abl-mem", "fig10"]


def _payloads(run):
    return [r.to_json() for r in run.results]


class TestDeterminism:
    def test_serial_matches_parallel(self):
        serial = run_engine(SUBSET, quick=True, jobs=1, stream=io.StringIO())
        for jobs in (2, 4):
            par = run_engine(SUBSET, quick=True, jobs=jobs,
                             stream=io.StringIO())
            assert _payloads(par) == _payloads(serial), \
                f"jobs={jobs} diverged from serial"

    def test_request_order_preserved(self):
        run = run_engine(list(reversed(SUBSET)), quick=True, jobs=2,
                         stream=io.StringIO())
        assert [r.exp_id for r in run.results] == list(reversed(SUBSET))
        assert list(run.entries) == list(reversed(SUBSET))

    def test_event_counts_recorded(self):
        run = run_engine(["fig8"], quick=True, jobs=1, stream=io.StringIO())
        assert run.entries["fig8"]["events"] > 0

    def test_document_shape(self):
        run = run_engine(["fig7b"], quick=True, jobs=1, stream=io.StringIO())
        doc = run.document()
        assert doc["schema"] == "cepheus-bench/v3"
        assert doc["mode"] == "quick"
        assert doc["code_fingerprint"] == code_fingerprint()
        entry = doc["experiments"]["fig7b"]
        assert set(entry) == {"wall_s", "events", "events_per_sec",
                              "cached", "result"}
        # fig7b is analytic (0 simulator events): no throughput figure
        assert entry["events_per_sec"] is None
        # The whole document must be strict JSON.
        json.loads(json.dumps(doc, allow_nan=False))


class TestCache:
    def test_warm_cache_executes_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        calls = []
        real = ALL_EXPERIMENTS["fig7b"]
        monkeypatch.setitem(ALL_EXPERIMENTS, "fig7b",
                            lambda quick: (calls.append(1), real(quick))[1])
        cold = run_engine(["fig7b"], quick=True, jobs=1, cache=cache,
                          stream=io.StringIO())
        assert cold.executed == 1 and calls == [1]
        warm = run_engine(["fig7b"], quick=True, jobs=1, cache=cache,
                          stream=io.StringIO())
        assert warm.executed == 0 and warm.cache_hits == 1
        assert calls == [1], "warm cache must not re-run the experiment"
        assert _payloads(warm) == _payloads(cold)
        assert warm.results[0].cached and not cold.results[0].cached

    def test_cache_hit_carries_no_throughput_figure(self, tmp_path):
        # fig8 executes simulator events, so the cold entry stores a
        # real rate; the hit must null it — its wall time measured the
        # cache, not the simulator.
        cold = run_engine(["fig8"], quick=True, cache=ResultCache(tmp_path),
                          stream=io.StringIO())
        assert cold.entries["fig8"]["events_per_sec"] > 0
        warm = run_engine(["fig8"], quick=True, cache=ResultCache(tmp_path),
                          stream=io.StringIO())
        assert warm.cache_hits == 1
        assert warm.entries["fig8"]["events_per_sec"] is None

    def test_quick_and_full_have_distinct_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key("fig8", experiment_config("fig8", True)) != \
            cache.key("fig8", experiment_config("fig8", False))

    def test_code_fingerprint_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_engine(["fig7b"], quick=True, jobs=1, cache=cache,
                   stream=io.StringIO())
        stale = ResultCache(tmp_path, fingerprint="different-code")
        rerun = run_engine(["fig7b"], quick=True, jobs=1, cache=stale,
                           stream=io.StringIO())
        assert rerun.executed == 1 and rerun.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("fig7b", experiment_config("fig7b", True))
        cache.root.mkdir(parents=True, exist_ok=True)
        (cache.root / f"{key}.json").write_text("{not json")
        run = run_engine(["fig7b"], quick=True, jobs=1, cache=cache,
                         stream=io.StringIO())
        assert run.executed == 1

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_engine(["fig7b", "abl-mem"], quick=True, jobs=2, cache=cache,
                   stream=io.StringIO())
        warm = run_engine(["fig7b", "abl-mem"], quick=True, jobs=2,
                          cache=ResultCache(tmp_path), stream=io.StringIO())
        assert warm.executed == 0 and warm.cache_hits == 2


class TestCanonicalization:
    def test_canonical_config_is_order_insensitive(self):
        assert canonical_config({"b": 1, "a": 2}) == \
            canonical_config({"a": 2, "b": 1})
        assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})

    def test_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_execute_one_sets_provenance(self):
        entry = execute_one("fig7b", True)
        assert entry["result"]["mode"] == "quick"
        assert entry["wall_s"] >= 0
        assert entry["cached"] is False
