"""Parallel experiment-execution engine.

The entries of :data:`repro.harness.runner.ALL_EXPERIMENTS` are
independent pure functions of ``(experiment id, quick)`` — every
experiment builds its own cluster and simulator, and all randomness is
seeded from the topology.  The engine exploits that twice:

* **fan-out** — a :class:`concurrent.futures.ProcessPoolExecutor`
  runs experiments on ``--jobs`` workers; results are collected and
  printed in request order, so serial and parallel runs emit
  byte-identical ``ExperimentResult.to_json()`` payloads (tables can
  differ only in the wall-clock provenance line);
* **memoization** — a content-addressed
  :class:`~repro.harness.cache.ResultCache` keyed by (experiment id,
  canonical config hash, code fingerprint) skips experiments whose
  inputs have not changed since the last run.

The engine is the machinery behind ``python -m repro.harness.runner
--jobs N`` and ``cepheus-repro bench emit``.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness import bench
from repro.harness.cache import ResultCache
from repro.harness.report import ExperimentResult, format_table

__all__ = ["EngineRun", "experiment_config", "execute_one", "run_engine"]


def experiment_config(name: str, quick: bool) -> Dict[str, Any]:
    """The canonical config document an experiment is a function of."""
    return {"experiment": name, "quick": bool(quick)}


def execute_one(name: str, quick: bool) -> Dict[str, Any]:
    """Run one registry experiment; returns its bench entry.

    Module-level (picklable) so it can serve as the process-pool
    worker; the registry lookup happens here, inside the worker, so
    the parent never has to ship the experiment callable itself.
    """
    from repro.harness import runner
    from repro.net.simulator import Simulator

    fn = runner.ALL_EXPERIMENTS[name]
    events_before = Simulator.lifetime_events
    t0 = time.perf_counter()
    result = fn(quick)
    wall = time.perf_counter() - t0
    result.mode = "quick" if quick else "full"
    result.wall_time_s = wall
    return bench.make_entry(result, wall_s=wall,
                            events=Simulator.lifetime_events - events_before)


@dataclass
class EngineRun:
    """Outcome of one engine invocation."""

    names: List[str]
    mode: str
    jobs: int
    entries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    results: List[ExperimentResult] = field(default_factory=list)
    total_wall_s: float = 0.0
    executed: int = 0           # experiment functions actually run
    cache_hits: int = 0
    fingerprint: str = ""

    def document(self) -> Dict[str, Any]:
        """The consolidated BENCH document for this run."""
        return bench.make_document(
            self.entries, mode=self.mode, jobs=self.jobs,
            fingerprint=self.fingerprint, total_wall_s=self.total_wall_s)


def _result_from_entry(entry: Dict[str, Any]) -> ExperimentResult:
    result = ExperimentResult.from_dict(entry["result"])
    result.wall_time_s = entry.get("wall_s", 0.0)
    result.cached = entry.get("cached", False)
    return result


def run_engine(names: List[str], *, quick: bool = True, jobs: int = 1,
               cache: Optional[ResultCache] = None,
               stream=None) -> EngineRun:
    """Execute ``names`` (registry ids), fanning cache misses across
    ``jobs`` workers; tables print to ``stream`` in request order."""
    out = stream if stream is not None else sys.stdout
    mode = "quick" if quick else "full"
    run = EngineRun(names=list(names), mode=mode, jobs=jobs)
    t_start = time.perf_counter()

    keys: Dict[str, str] = {}
    if cache is not None:
        run.fingerprint = cache.fingerprint
        for name in names:
            keys[name] = cache.key(name, experiment_config(name, quick))
            entry = cache.get(keys[name])
            if entry is not None:
                # A hit measured the cache, not the simulator: the stored
                # throughput figure does not describe this run.
                entry = dict(entry, cached=True, events_per_sec=None)
                run.entries[name] = entry
                run.cache_hits += 1
    else:
        from repro.harness.cache import code_fingerprint
        run.fingerprint = code_fingerprint()

    pending = [n for n in names if n not in run.entries]
    emitted = 0

    def emit_ready() -> None:
        """Print finished tables, preserving request order."""
        nonlocal emitted
        while emitted < len(names) and names[emitted] in run.entries:
            name = names[emitted]
            result = _result_from_entry(run.entries[name])
            print(format_table(result), file=out)
            print(file=out)
            emitted += 1

    emit_ready()
    if pending:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {name: pool.submit(execute_one, name, quick)
                           for name in pending}
                for name in pending:
                    run.entries[name] = futures[name].result()
                    run.executed += 1
                    if cache is not None:
                        cache.put(keys[name], run.entries[name])
                    emit_ready()
        else:
            for name in pending:
                run.entries[name] = execute_one(name, quick)
                run.executed += 1
                if cache is not None:
                    cache.put(keys[name], run.entries[name])
                emit_ready()

    run.total_wall_s = time.perf_counter() - t_start
    # Re-key into request order so the BENCH document is deterministic.
    run.entries = {name: run.entries[name] for name in names}
    run.results = [_result_from_entry(run.entries[name]) for name in names]
    return run
