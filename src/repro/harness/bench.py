"""Machine-readable benchmark documents and the regression gate.

A ``BENCH_*.json`` document is the consolidated trajectory record of
one harness run::

    {
      "schema": "cepheus-bench/v2",
      "mode": "quick",
      "jobs": 4,
      "code_fingerprint": "sha256...",
      "total_wall_s": 37.2,
      "events_per_sec": 812345.6,  # aggregate over uncached entries
      "experiments": {
        "fig8": {
          "wall_s": 0.01,          # volatile, never compared
          "events": 123456,        # simulator events executed
          "events_per_sec": 654321.0,  # null when cached
          "cached": false,
          "rows": 4,
          "metrics": {"mean_speedup_vs_bt": 2.71, ...},
          "result": {...}          # canonical ExperimentResult payload
        }, ...
      }
    }

``headline_metrics`` distils each experiment table into scalar
metrics (the per-column means plus the row count); ``compare`` diffs
two documents metric-by-metric against per-metric relative tolerances
and is the machinery behind ``cepheus-repro bench compare``.
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness.report import ExperimentResult

__all__ = ["SCHEMA", "COMPAT_SCHEMAS", "headline_metrics", "make_entry",
           "make_document",
           "load_document", "MetricDelta", "Comparison", "compare",
           "load_tolerances", "tolerance_for", "DEFAULT_REL_TOL",
           "DEFAULT_ABS_TOL"]

SCHEMA = "cepheus-bench/v2"

#: Documents this reader still accepts (v1 lacks the events/sec
#: throughput fields; compare simply has nothing to note for them).
COMPAT_SCHEMAS = ("cepheus-bench/v1", SCHEMA)

#: Fallback tolerances when a metric has no override: 8 % relative
#: drift, with a small absolute floor for metrics whose baseline is 0.
DEFAULT_REL_TOL = 0.08
DEFAULT_ABS_TOL = 1e-9


def headline_metrics(result: ExperimentResult) -> Dict[str, float]:
    """Scalar summary of a result table.

    For every column whose cells are all numeric (booleans excluded),
    report the column mean as ``mean_<column>``; always report
    ``rows``.  A non-finite mean is dropped rather than emitted — the
    document stays strict JSON, and the compare gate then reports the
    metric as *missing*, which fails loudly instead of silently
    passing a NaN==anything comparison.
    """
    metrics: Dict[str, float] = {"rows": float(len(result.rows))}
    for header in result.headers:
        values = [row.get(header) for row in result.rows]
        if not values or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values):
            continue
        mean = math.fsum(values) / len(values)
        if math.isfinite(mean):
            metrics[f"mean_{header}"] = mean
    return metrics


def make_entry(result: ExperimentResult, *, wall_s: float,
               events: int) -> Dict[str, Any]:
    """One ``experiments`` entry: canonical payload + provenance.

    ``events_per_sec`` is the headline simulator-throughput figure
    (ROADMAP item 1's perf trajectory); it is None for cached entries —
    a cache hit's wall time measures the cache, not the simulator.
    """
    eps: Optional[float] = None
    if not result.cached and wall_s > 0 and events:
        eps = round(events / wall_s, 1)
    return {
        "wall_s": round(wall_s, 6),
        "events": events,
        "events_per_sec": eps,
        "cached": result.cached,
        "rows": len(result.rows),
        "metrics": headline_metrics(result),
        "result": result.to_dict(),
    }


def make_document(entries: Dict[str, Dict[str, Any]], *, mode: str,
                  jobs: int, fingerprint: str,
                  total_wall_s: float) -> Dict[str, Any]:
    # Aggregate throughput over the *uncached* entries only (same
    # reasoning as per-entry events_per_sec).
    live = [(e.get("events", 0), e.get("wall_s", 0.0))
            for e in entries.values() if not e.get("cached")]
    events = sum(ev for ev, _ in live)
    wall = math.fsum(w for _, w in live)
    return {
        "schema": SCHEMA,
        "mode": mode,
        "jobs": jobs,
        "code_fingerprint": fingerprint,
        "total_wall_s": round(total_wall_s, 3),
        "events_per_sec": round(events / wall, 1) if wall > 0 and events else None,
        "experiments": entries,
    }


def load_document(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") not in COMPAT_SCHEMAS:
        raise ValueError(
            f"{path}: not a {SCHEMA} document "
            f"(schema={doc.get('schema')!r})")
    return doc


# ---------------------------------------------------------------------------
# Tolerances and comparison
# ---------------------------------------------------------------------------

def load_tolerances(path: str) -> Dict[str, Any]:
    """Load a tolerance file: ``default_rel_tol``, ``default_abs_tol``
    and a ``metrics`` map of ``"<exp_id>.<metric>"`` glob patterns to
    relative tolerances."""
    with open(path, "r", encoding="utf-8") as fh:
        tol = json.load(fh)
    tol.setdefault("default_rel_tol", DEFAULT_REL_TOL)
    tol.setdefault("default_abs_tol", DEFAULT_ABS_TOL)
    tol.setdefault("metrics", {})
    return tol


def _pattern_tolerance(name: str,
                       tolerances: Optional[Dict[str, Any]]) -> Optional[float]:
    """The most-specific (longest) matching ``metrics`` pattern, if any."""
    if not tolerances:
        return None
    best: Optional[float] = None
    best_len = -1
    for pattern, rel in tolerances.get("metrics", {}).items():
        if fnmatch.fnmatchcase(name, pattern) and len(pattern) > best_len:
            best, best_len = float(rel), len(pattern)
    return best


def tolerance_for(name: str, tolerances: Optional[Dict[str, Any]]) -> float:
    best = _pattern_tolerance(name, tolerances)
    if best is not None:
        return best
    if not tolerances:
        return DEFAULT_REL_TOL
    return float(tolerances.get("default_rel_tol", DEFAULT_REL_TOL))


@dataclass
class MetricDelta:
    """Outcome for one ``exp_id.metric`` pair."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    rel_tol: float
    status: str = "ok"          # ok | regressed | missing | added

    @property
    def rel_delta(self) -> float:
        if self.baseline is None or self.current is None:
            return math.inf
        if self.baseline == self.current:     # covers NaN==NaN via repr below
            return 0.0
        if (isinstance(self.baseline, float) and math.isnan(self.baseline)
                and isinstance(self.current, float)
                and math.isnan(self.current)):
            return 0.0
        denom = abs(self.baseline)
        if denom < DEFAULT_ABS_TOL:
            return (0.0 if abs(self.current - self.baseline) < DEFAULT_ABS_TOL
                    else math.inf)
        return abs(self.current - self.baseline) / denom


@dataclass
class Comparison:
    """Full diff of two BENCH documents."""

    deltas: List[MetricDelta] = field(default_factory=list)
    missing_experiments: List[str] = field(default_factory=list)
    added_experiments: List[str] = field(default_factory=list)
    #: Informational throughput lines (events/sec drift); never failing —
    #: wall-clock rate is machine-dependent provenance, not a gated metric.
    throughput_notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status in ("regressed", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_experiments

    def format(self, *, verbose: bool = False) -> str:
        lines: List[str] = []
        fails = self.regressions
        for d in sorted(self.deltas, key=lambda d: d.name):
            if d.status == "ok" and not verbose:
                continue
            if d.status == "missing":
                lines.append(f"FAIL {d.name}: metric missing from current run "
                             f"(baseline {d.baseline:.6g})")
            elif d.status == "added":
                lines.append(f"note {d.name}: new metric "
                             f"(current {d.current:.6g}, no baseline)")
            else:
                tag = "FAIL" if d.status == "regressed" else "  ok"
                lines.append(
                    f"{tag} {d.name}: baseline {d.baseline:.6g} -> current "
                    f"{d.current:.6g} (drift {d.rel_delta:.2%}, "
                    f"tol {d.rel_tol:.2%})")
        for exp in self.missing_experiments:
            lines.append(f"FAIL {exp}: experiment missing from current run")
        for exp in self.added_experiments:
            lines.append(f"note {exp}: new experiment (no baseline)")
        lines.extend(self.throughput_notes)
        n_ok = len(self.deltas) - len([d for d in self.deltas
                                       if d.status != "ok"])
        lines.append(f"compared {len(self.deltas)} metric(s): "
                     f"{n_ok} ok, {len(fails)} failing, "
                     f"{len(self.added_experiments)} new experiment(s)")
        return "\n".join(lines)


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            tolerances: Optional[Dict[str, Any]] = None, *,
            check_events: bool = False) -> Comparison:
    """Diff ``current`` against ``baseline`` metric-by-metric.

    Every baseline metric must exist in ``current`` and sit within its
    relative tolerance; experiments/metrics only present in ``current``
    are reported but never fail (the trajectory is allowed to grow).
    Wall times, event counts and cache flags are provenance and not
    compared by default.  Host time never is — ``perfbench/check.py``'s
    paired ratios are the one judge of it — and one opt-in gate
    tightens the rest:

    * ``check_events`` — per-experiment simulator event counts must
      match the baseline exactly (the simulations are deterministic; a
      drifting event count means the datapath's scheduling behaviour
      changed).  A ``"<exp_id>.events"`` tolerance pattern can relax
      individual experiments.
    """
    comp = Comparison()
    cur_exps = current.get("experiments", {})
    base_exps = baseline.get("experiments", {})
    comp.missing_experiments = sorted(set(base_exps) - set(cur_exps))
    comp.added_experiments = sorted(set(cur_exps) - set(base_exps))
    for exp_id in sorted(set(base_exps) & set(cur_exps)):
        base_metrics = base_exps[exp_id].get("metrics", {})
        cur_metrics = cur_exps[exp_id].get("metrics", {})
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            name = f"{exp_id}.{metric}"
            base = base_metrics.get(metric)
            cur = cur_metrics.get(metric)
            delta = MetricDelta(name=name, baseline=base, current=cur,
                                rel_tol=tolerance_for(name, tolerances))
            if base is None:
                delta.status = "added"
            elif cur is None:
                delta.status = "missing"
            elif delta.rel_delta > delta.rel_tol:
                delta.status = "regressed"
            comp.deltas.append(delta)
        if check_events:
            name = f"{exp_id}.events"
            base = base_exps[exp_id].get("events")
            cur = cur_exps[exp_id].get("events")
            if base is not None:
                rel_tol = _pattern_tolerance(name, tolerances) or 0.0
                delta = MetricDelta(name=name, baseline=float(base),
                                    current=None if cur is None
                                    else float(cur), rel_tol=rel_tol)
                if cur is None:
                    delta.status = "missing"
                elif delta.rel_delta > delta.rel_tol:
                    delta.status = "regressed"
                comp.deltas.append(delta)
    base_eps = baseline.get("events_per_sec")
    cur_eps = current.get("events_per_sec")
    if base_eps and cur_eps:
        drift = cur_eps / base_eps - 1.0
        comp.throughput_notes.append(
            f"note events_per_sec: baseline {base_eps:.6g} -> current "
            f"{cur_eps:.6g} ({drift:+.1%}, informational)")
    elif cur_eps:
        comp.throughput_notes.append(
            f"note events_per_sec: current {cur_eps:.6g} "
            f"(no baseline, informational)")
    return comp
