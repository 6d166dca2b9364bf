"""Paper-style reporting: aligned tables, ratios, size labels, and
machine-readable exports (CSV/JSON) for downstream analysis."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["ExperimentResult", "format_table", "fmt_size", "fmt_time",
           "ratio", "ascii_chart"]


def _encode_cell(value: Any) -> Any:
    """Map non-finite floats to portable JSON markers.

    ``json.dumps`` would happily emit ``NaN``/``Infinity``, but those
    are not valid JSON and break strict parsers (jq, browsers, the
    bench-compare gate).  A tagged object survives any spec-compliant
    round trip instead.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return {"__nonfinite__": repr(value)}  # 'nan', 'inf', '-inf'
    return value


def _decode_cell(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__nonfinite__"}:
        return float(value["__nonfinite__"])
    return value


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows + provenance.

    ``wall_time_s`` is *run provenance* set by the harness runner, not
    part of the result's identity: two runs of the same experiment
    differ only in it, so it is excluded from :meth:`to_json` (which
    must be byte-stable for the serial-vs-parallel determinism
    guarantee) and reported separately in the BENCH_*.json documents.
    """

    exp_id: str
    title: str
    headers: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper_claim: str = ""
    notes: str = ""
    mode: str = ""              # "quick" | "full" | "" (unset)
    wall_time_s: float = 0.0    # volatile, excluded from to_json

    def column(self, key: str) -> List[Any]:
        return [row.get(key) for row in self.rows]

    def to_csv(self) -> str:
        """Headers + rows as CSV (missing cells are empty)."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.headers,
                                extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({h: row.get(h, "") for h in self.headers})
        return buf.getvalue()

    def to_dict(self) -> Dict[str, Any]:
        """The canonical (deterministic, JSON-native) payload."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "notes": self.notes,
            "mode": self.mode,
            "headers": list(self.headers),
            "rows": [{k: _encode_cell(v) for k, v in row.items()}
                     for row in self.rows],
        }

    def to_json(self) -> str:
        """Full result (metadata + rows) as a JSON document.

        The encoding is canonical — fixed key order, sorted keys,
        strict (RFC 8259) floats — so byte-equality of two documents
        is equivalent to equality of the results.  Non-finite floats
        are tagged (see :func:`_encode_cell`); everything else must be
        JSON-native, guaranteeing ``from_json(to_json(r)) == r``.
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False, ensure_ascii=False)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            exp_id=doc["exp_id"],
            title=doc["title"],
            headers=list(doc["headers"]),
            rows=[{k: _decode_cell(v) for k, v in row.items()}
                  for row in doc["rows"]],
            paper_claim=doc.get("paper_claim", ""),
            notes=doc.get("notes", ""),
            mode=doc.get("mode", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json` (wall time is run-local
        provenance and intentionally reset)."""
        return cls.from_dict(json.loads(text))


def fmt_size(nbytes: int) -> str:
    """64 -> '64B', 1048576 -> '1MB'."""
    if nbytes >= 1 << 30 and nbytes % (1 << 30) == 0:
        return f"{nbytes >> 30}GB"
    if nbytes >= 1 << 20 and nbytes % (1 << 20) == 0:
        return f"{nbytes >> 20}MB"
    if nbytes >= 1 << 10 and nbytes % (1 << 10) == 0:
        return f"{nbytes >> 10}KB"
    return f"{nbytes}B"


def fmt_time(seconds: float) -> str:
    """Scale-aware duration formatting."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def ratio(baseline: float, improved: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    if improved <= 0:
        raise ValueError("improved time must be positive")
    return baseline / improved


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def ascii_chart(series: Dict[str, List[float]], *, width: int = 60,
                height: int = 12, unit: str = "") -> str:
    """Dependency-free line chart for time series (one char per sample,
    one letter per series), used to render Fig. 14-style dynamics in a
    terminal.

    >>> print(ascii_chart({"f1": [0, 5, 10]}, width=3, height=3, unit="G"))
    ... # doctest: +SKIP
    """
    if not series or all(not v for v in series.values()):
        return "(empty series)"
    peak = max(max(v) for v in series.values() if v)
    if peak <= 0:
        peak = 1.0
    n = max(len(v) for v in series.values())
    step = max(1, n // width)
    cols = range(0, n, step)
    grid = [[" "] * len(list(cols)) for _ in range(height)]
    labels = {}
    for idx, (name, values) in enumerate(sorted(series.items())):
        mark = name[-1] if name and name[-1].isalnum() else None
        if not mark or mark in labels:
            mark = next(c for c in "123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        if c not in labels)
        labels[mark] = name
        for ci, start in enumerate(cols):
            window = values[start:start + step]
            if not window:
                continue
            level = sum(window) / len(window)
            row = height - 1 - min(height - 1,
                                   int(level / peak * (height - 1) + 0.5))
            if grid[row][ci] == " ":
                grid[row][ci] = mark
            else:
                grid[row][ci] = "*"  # overlap
    lines = []
    for r, row in enumerate(grid):
        level = peak * (height - 1 - r) / (height - 1)
        lines.append(f"{level:8.1f}{unit} |" + "".join(row))
    lines.append(" " * 10 + "+" + "-" * len(list(cols)))
    legend = "  ".join(f"{m}={name}" for m, name in sorted(labels.items()))
    lines.append(" " * 11 + legend + "  (*=overlap)")
    return "\n".join(lines)


def format_table(result: ExperimentResult) -> str:
    """Render an ExperimentResult as an aligned text table."""
    headers = result.headers
    body = [[_cell(row.get(h, "")) for h in headers] for row in result.rows]
    widths = [
        max(len(h), *(len(r[i]) for r in body)) if body else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [f"== {result.exp_id}: {result.title} =="]
    if result.paper_claim:
        lines.append(f"paper: {result.paper_claim}")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    if result.notes:
        lines.append(f"note: {result.notes}")
    if result.mode or result.wall_time_s:
        prov = []
        if result.wall_time_s:
            prov.append(f"wall {result.wall_time_s:.1f}s")
        if result.mode:
            prov.append(f"({result.mode})")
        lines.append("run: " + " ".join(prov))
    return "\n".join(lines)
