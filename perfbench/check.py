#!/usr/bin/env python3
"""Compare two perfbench result documents: ``check.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two A/A runs),
``B`` the candidate.  For every (workload, end-to-end metric) pair the
verdict is one of

* ``ok`` — B's value is not worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``regressed`` — it is;
* ``unresolved`` — the run cannot tell: either document was taken on a
  busy machine (``noisy``), or the repeat-by-repeat ratios spread wider
  than the bound while some repeats of B read better and some worse.

Both documents run the same seeded inputs repeat by repeat, so repeats
are compared in pairs: a loss pattern that costs more in A costs more
in B too, and only the noise is left in the ratio.

Every ratio is printed with its base.  A changed ``sim_digest`` is
flagged as "simulated behaviour changed".  Exit status is non-zero on
any regression or any rise in the failed fraction.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _spread(values: List[float]) -> float:
    """Inter-quartile range over the median (range, below 4 values)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float, noisy: bool) -> Dict[str, Any]:
    """Judge one metric of one workload; ``a`` and ``b`` are the
    documents' summaries (value + per-repeat samples)."""
    base, new = a["value"], b["value"]
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    # Repeat i of both runs drew the same inputs.
    ratios = [y / x for x, y in zip(a["samples"], b["samples"])]
    spread = _spread(ratios)
    mixed = bool(ratios) and min(ratios) < 1.0 < max(ratios)
    if noisy or (spread > bound and mixed):
        name = "unresolved"
    elif worse_by > bound:
        name = "regressed"
    else:
        name = "ok"
    return {"verdict": name, "base": base, "new": new,
            "ratio": new / base, "pair_spread": spread}


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    """Print one row per (workload, metric); return the exit status."""
    prov_a, prov_b = doc_a["provenance"], doc_b["provenance"]
    noisy = bool(prov_a.get("noisy") or prov_b.get("noisy"))
    if noisy:
        print("note: a document was taken under load (noisy): host-time "
              "metrics are unresolved")
    if prov_a["seed"] != prov_b["seed"]:
        print(f"note: seeds differ ({prov_a['seed']} vs {prov_b['seed']}): "
              "repeats are not paired and simulated results may differ")
    status = 0
    print(f"{'workload':14s} {'metric':20s} {'base':>13s} {'new':>13s} "
          f"{'new/base':>9s} {'bound':>6s} {'pair-spread':>11s}  verdict")
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:14s} missing from a document")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            v = verdict(wa["end_to_end"][metric["name"]],
                        wb["end_to_end"][metric["name"]],
                        metric["better"], metric["bound"], noisy)
            print(f"{name:14s} {metric['name']:20s} {v['base']:13.6g} "
                  f"{v['new']:13.6g} {v['ratio']:9.4f} "
                  f"{metric['bound']:6.2f} {v['pair_spread']:10.4f}   "
                  f"{v['verdict']}")
            if v["verdict"] == "regressed":
                status = 1
        frac_a = wa["failed"] / wa["attempted"]
        frac_b = wb["failed"] / wb["attempted"]
        rose = frac_b > frac_a
        print(f"{name:14s} {'failed_frac':20s} {frac_a:13.6g} {frac_b:13.6g}"
              f" {'':9s} {0:6.2f} {'':11s}  "
              f"{'regressed' if rose else 'ok'}")
        if rose:
            status = 1
        if wa["sim_digest"] != wb["sim_digest"]:
            print(f"{name:14s} simulated behaviour changed: sim_digest "
                  f"{wa['sim_digest']} -> {wb['sim_digest']}")
        layers_b = wb.get("per_layer", {})
        for metric, entry in wa.get("per_layer", {}).items():
            if (metric.startswith("model.") and metric in layers_b
                    and layers_b[metric]["value"] != entry["value"]):
                new = layers_b[metric]["value"]
                print(f"{name:14s} {metric:20s} {entry['value']:13.6g}"
                      f" {new:13.6g} {new / entry['value']:9.4f}"
                      "  (simulated; compared exactly)")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return compare(_load(args[0]), _load(args[1]),
                   _load(str(ROOT / "BENCHMARK.json")))


if __name__ == "__main__":
    sys.exit(main())
