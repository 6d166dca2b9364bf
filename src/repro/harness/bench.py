"""Machine-readable benchmark documents and the behaviour gate.

A ``BENCH_*.json`` document is the consolidated record of one harness
run::

    {
      "schema": "cepheus-bench/v3",
      "mode": "quick",
      "jobs": 4,
      "code_fingerprint": "sha256...",
      "total_wall_s": 37.2,
      "events_per_sec": 812345.6,  # aggregate over all entries
      "experiments": {
        "fig8": {
          "wall_s": 0.01,          # provenance, never compared
          "events": 123456,        # simulator events executed
          "events_per_sec": 654321.0,  # provenance; null with no events
          "result": {...}          # canonical ExperimentResult payload
        }, ...
      }
    }

``compare`` is an equality check and the machinery behind
``cepheus-repro bench compare``: every experiment of the committed
baseline must come back with the same canonical ``result`` and the same
``events``, so the baseline is the suite's one behaviour record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.report import ExperimentResult

__all__ = ["SCHEMA", "make_entry", "make_document", "load_document",
           "Comparison", "compare"]

SCHEMA = "cepheus-bench/v3"


def make_entry(result: ExperimentResult, *, wall_s: float,
               events: int) -> Dict[str, Any]:
    """One ``experiments`` entry: canonical payload + provenance."""
    return {
        "wall_s": round(wall_s, 6),
        "events": events,
        "events_per_sec": _rate(events, wall_s),
        "result": result.to_dict(),
    }


def _rate(events: int, wall_s: float) -> Optional[float]:
    return round(events / wall_s, 1) if wall_s > 0 and events else None


def make_document(entries: Dict[str, Dict[str, Any]], *, mode: str,
                  jobs: int, fingerprint: str,
                  total_wall_s: float) -> Dict[str, Any]:
    events = sum(e["events"] for e in entries.values())
    wall = math.fsum(e["wall_s"] for e in entries.values())
    return {
        "schema": SCHEMA,
        "mode": mode,
        "jobs": jobs,
        "code_fingerprint": fingerprint,
        "total_wall_s": round(total_wall_s, 3),
        "events_per_sec": _rate(events, wall),
        "experiments": entries,
    }


def load_document(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} document "
            f"(schema={doc.get('schema')!r})")
    return doc


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _canonical(value: Any) -> str:
    """The encoding ``ExperimentResult.to_json`` uses: two values are
    equal exactly when these strings are (non-finite cells are already
    tagged by ``to_dict``)."""
    return json.dumps(value, sort_keys=True, allow_nan=False,
                      ensure_ascii=False)


def _cells(result: Dict[str, Any]) -> Dict[str, Any]:
    """Every field and row cell of a canonical result payload, named
    in document order."""
    cells = {key: value for key, value in sorted(result.items())
             if key != "rows"}
    for i, row in enumerate(result.get("rows", ())):
        for col, value in row.items():
            cells[f"row {i} column {col!r}"] = value
    return cells


def _first_divergence(current: Dict[str, Any],
                      baseline: Dict[str, Any]) -> Optional[str]:
    """Where two canonical ``result`` payloads first differ, or None."""
    cur, base = _cells(current), _cells(baseline)
    for name in list(base) + [n for n in cur if n not in base]:
        if (name not in cur or name not in base
                or _canonical(cur[name]) != _canonical(base[name])):
            shown = [repr(c[name]) if name in c else "<absent>"
                     for c in (base, cur)]
            return f"{name}: baseline {shown[0]} -> current {shown[1]}"
    return None


@dataclass
class Comparison:
    """Outcome of comparing two BENCH documents."""

    compared: int = 0
    #: ``(exp_id, what differs)``; a baseline experiment missing from
    #: the current document is one too.
    failures: List[Tuple[str, str]] = field(default_factory=list)
    added_experiments: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failing(self) -> List[str]:
        return sorted({exp for exp, _ in self.failures})

    def format(self) -> str:
        lines = [f"FAIL {exp}: {what}" for exp, what in self.failures]
        lines += [f"note {exp}: new experiment (no baseline)"
                  for exp in self.added_experiments]
        lines.append(f"compared {self.compared} experiment(s): "
                     f"{len(self.failing)} failing, "
                     f"{len(self.added_experiments)} new")
        return "\n".join(lines)


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> Comparison:
    """Check ``current`` against ``baseline``, experiment by experiment.

    Every baseline experiment must be present in ``current`` with an
    identical canonical ``result`` and the same ``events`` count: the
    simulations are deterministic, so any difference is a behaviour
    change (re-emit the baseline if it is intended).  An experiment
    only ``current`` has is a note, never a failure.  Wall time and
    throughput are provenance; host time is judged by
    ``perfbench/check.py`` alone.
    """
    cur_exps = current.get("experiments", {})
    base_exps = baseline.get("experiments", {})
    comp = Comparison(added_experiments=sorted(set(cur_exps) - set(base_exps)))
    for exp_id, base in sorted(base_exps.items()):
        cur = cur_exps.get(exp_id)
        if cur is None:
            comp.failures.append(
                (exp_id, "experiment missing from current run"))
            continue
        comp.compared += 1
        where = _first_divergence(cur["result"], base["result"])
        if where is not None:
            comp.failures.append((exp_id, where))
        if cur["events"] != base["events"]:
            comp.failures.append(
                (exp_id, f"events: baseline {base['events']!r} -> "
                         f"current {cur['events']!r}"))
    return comp
