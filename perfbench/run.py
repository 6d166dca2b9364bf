#!/usr/bin/env python3
"""perfbench entry point.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
measures one workload in this process and prints one JSON object as its
last line: every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` it runs all of them, each in a fresh child
process, prints every metric by name with its unit and writes the
result document (``--out``) that ``perfbench/check.py`` compares.

Host time (``wall_s``, ``deliveries_per_sec``, ``setup_s``,
``peak_rss_mb``, every ``*.self_s`` and ``micro.*``) is what the
simulator costs to run.  Simulated time (``model.*``) is what the
modelled hardware would take; it is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.harness.cache import code_fingerprint  # noqa: E402

from perfbench.layers import LAYERS, run_micro  # noqa: E402
from perfbench.trace import (captured_clusters, profile_layers,  # noqa: E402
                             read_counters)
from perfbench.workloads import (BY_NAME, WORKLOADS, Outcome,  # noqa: E402
                                 digest)

SCHEMA = "cepheus-perfbench/v1"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are written down."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

class Repeat(NamedTuple):
    """Host timings and the simulated outcome of one repeat."""

    setup_s: float
    wall_s: float
    outcome: Outcome


def one_repeat(workload, sub_seed: int,
               sabotage: Optional[Callable[[Any], None]] = None) -> Repeat:
    """Fresh cluster (timed as set-up), then the fixed work (timed).

    ``sabotage(state)`` runs between the two; the tests use it to break
    a run and see the failure counted."""
    inputs = workload.inputs(sub_seed)
    t0 = time.perf_counter()
    state = workload.setup(inputs)
    setup_s = time.perf_counter() - t0
    if sabotage is not None:
        sabotage(state)
    gc.collect()
    t0 = time.perf_counter()
    outcome = workload.run(state)
    return Repeat(setup_s, time.perf_counter() - t0, outcome)


def _summary(samples: List[float], patterns: int,
             better: str = "lower") -> Dict[str, Any]:
    """Repeat ``i`` ran input pattern ``i % patterns``.  The value is
    the median over the patterns of each pattern's best repeat: on a
    shared machine interference only ever adds time, so the best of
    several identical repeats is the steady estimate of one pattern's
    cost, and the median over patterns averages what the inputs add."""
    best = min if better == "lower" else max
    per_pattern = [best(samples[p::patterns])
                   for p in range(min(patterns, len(samples)))]
    return {"value": statistics.median(per_pattern),
            "median": statistics.median(samples),
            "min": min(samples), "max": max(samples), "n": len(samples),
            "samples": samples}


# ---------------------------------------------------------------------------
# the untraced measurement: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float,
            sabotage: Optional[Callable[[Any], None]] = None
            ) -> Dict[str, Any]:
    """Repeat the workload for ``seconds``, each repeat on a fresh
    cluster.

    The seed yields ``workload.patterns`` input patterns (loss RNG
    seeds, pub/sub schedules), visited round-robin: repeat ``i`` draws
    its inputs from ``seed * 1000 + i % patterns``.  Every revisit of a
    pattern must reproduce its simulated outcome exactly, or the run
    is incorrect."""
    patterns = workload.patterns
    begin = time.perf_counter()
    repeats: List[Repeat] = []
    while (len(repeats) <= patterns       # at least one revisit
           or time.perf_counter() - begin < seconds):
        sub_seed = seed * 1000 + len(repeats) % patterns
        repeats.append(one_repeat(workload, sub_seed, sabotage))
    deterministic = all(
        r.outcome.digest == repeats[i % patterns].outcome.digest
        for i, r in enumerate(repeats))

    attempted = sum(r.outcome.attempted for r in repeats)
    failed = sum(r.outcome.failed for r in repeats)
    rate = [(r.outcome.attempted - r.outcome.failed) / r.wall_s
            for r in repeats]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": workload.name, "seed": seed, "sizes": workload.sizes(),
        "patterns": patterns,
        "attempted": attempted, "failed": failed,
        "deterministic": deterministic,
        "correct": failed == 0 and deterministic,
        "sim_digest": digest([r.outcome.digest for r in repeats[:patterns]]),
        "end_to_end": {
            "wall_s": _summary([r.wall_s for r in repeats], patterns),
            "deliveries_per_sec": _summary(rate, patterns, "higher"),
            "setup_s": _summary([r.setup_s for r in repeats], patterns),
            "peak_rss_mb": _summary([rss_mb], patterns),
        },
    }


# ---------------------------------------------------------------------------
# the traced measurement: per-layer metrics
# ---------------------------------------------------------------------------

def trace(workload, seed: int) -> Dict[str, Any]:
    """One untraced and one profiled repeat of the same inputs, the
    layers' public counters, and the direct layer drivers."""
    micro = run_micro(seed)   # first, on a heap no cluster has churned
    sub_seed = seed * 1000
    plain = one_repeat(workload, sub_seed)

    with captured_clusters() as built_in_setup:
        state = workload.setup(workload.inputs(sub_seed))
    gc.collect()
    with captured_clusters() as built_in_run:
        outcome, traced_wall, rows = profile_layers(
            lambda: workload.run(state))
    counters = read_counters(built_in_run or built_in_setup)

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = rows[layer]["self_s"]
        values[f"{layer}.calls"] = rows[layer]["calls"]
    events = plain.outcome.events
    values["net.simulator.events"] = events
    values["net.simulator.events_per_sec"] = events / plain.wall_s
    values["net.simulator.ns_per_event"] = plain.wall_s * 1e9 / events
    values.update(counters)
    values["check.events_checked"] = outcome.events_checked
    values["model.sim_time_us"] = outcome.sim_time_us
    values["model.sim_p50_us"] = outcome.sim_p50_us
    values["model.sim_tail_us"] = outcome.sim_tail_us
    values["model.sim_tail_pct"] = outcome.sim_tail_pct
    values["model.analytic_err_frac"] = outcome.analytic_err_frac
    values["trace.overhead_x"] = traced_wall / plain.wall_s
    values["trace.attributed_frac"] = (
        sum(rows[layer]["self_s"] for layer in LAYERS) / traced_wall)
    values.update(micro)

    deterministic = outcome.digest == plain.outcome.digest
    failed = plain.outcome.failed + outcome.failed
    return {
        "workload": workload.name, "seed": seed, "sizes": workload.sizes(),
        "attempted": plain.outcome.attempted + outcome.attempted,
        "failed": failed, "deterministic": deterministic,
        "correct": failed == 0 and deterministic,
        "sim_digest": outcome.digest,
        "traced_wall_s": traced_wall, "untraced_wall_s": plain.wall_s,
        "latency_samples": outcome.latency_samples,
        "layers": rows,
        "per_layer": {name: {"value": v} for name, v in values.items()},
    }


# ---------------------------------------------------------------------------
# one workload, in this process (the benchmark contract)
# ---------------------------------------------------------------------------

def contract_metrics(declared: List[Dict[str, Any]],
                     measured: Dict[str, Dict[str, Any]]
                     ) -> Dict[str, Dict[str, Any]]:
    """Exactly the metrics ``BENCHMARK.json`` declares, with its units."""
    if set(measured) != {m["name"] for m in declared}:
        raise KeyError("measured and declared metrics differ: "
                       f"{set(measured) ^ {m['name'] for m in declared}}")
    return {m["name"]: {"value": measured[m["name"]]["value"],
                        "unit": m["unit"]} for m in declared}


def report(detail: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> int:
    """Print every metric, then the result object as the last line;
    the exit status is non-zero when an operation failed or a revisit
    of the same inputs gave a different simulated outcome."""
    for name, metric in metrics.items():
        print(f"{detail['workload']:14s} {name:44s} "
              f"{metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": detail["correct"],
                      "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": metrics}))
    return 0 if detail["correct"] else 1


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    workload = BY_NAME[args.workload]
    if args.trace:
        detail = trace(workload, args.seed)
        metrics = contract_metrics(spec["per_layer"], detail["per_layer"])
        detail["per_layer"] = metrics
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace_{workload.name}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
    else:
        detail = measure(workload, args.seed, args.seconds)
        metrics = contract_metrics(spec["end_to_end"], detail["end_to_end"])
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh)
    return report(detail, metrics)


# ---------------------------------------------------------------------------
# every workload, each in a fresh child (the result document)
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _runnable_others(samples: int = 5, gap: float = 0.1) -> float:
    """Median number of runnable tasks besides this one, sampled from
    ``/proc/loadavg``.  Unlike the 1-minute average it forgets a
    previous run of this benchmark the moment that run ends."""
    counts = []
    for _ in range(samples):
        try:
            with open("/proc/loadavg", encoding="ascii") as fh:
                counts.append(int(fh.read().split()[3].split("/")[0]) - 1)
        except (OSError, ValueError, IndexError):
            return os.getloadavg()[0]
        time.sleep(gap)
    return statistics.median(counts)


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _child(workload: str, args: argparse.Namespace, traced: int,
           detail_path: Path) -> int:
    """One workload in a fresh single-threaded process; children run
    one at a time, so there is never more than one busy process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(traced), "--detail", str(detail_path)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          timeout=600).returncode


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    nproc = os.cpu_count() or 1
    busy_others = _runnable_others()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "provenance": {
            "git_commit": _git_commit(),
            "code_fingerprint": code_fingerprint(),
            "python": platform.python_version(),
            "nproc": nproc, "cpu_model": _cpu_model(),
            "seed": args.seed, "seconds": args.seconds,
            "load1_start": os.getloadavg()[0],
            "runnable_others_start": busy_others,
            # The benchmark needs a core to itself; with more than
            # nproc - 1 other runnable tasks it shares one, and host
            # times from this run cannot pass or fail a comparison.
            "noisy": busy_others > nproc - 1,
        },
        "workloads": {},
    }
    status = 0
    for workload in WORKLOADS:
        detail_path = out_dir / f"detail_{workload.name}.json"
        code = _child(workload.name, args, 0, detail_path)
        with open(detail_path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if args.trace:
            code |= _child(workload.name, args, 1, detail_path)
            with open(detail_path, encoding="utf-8") as fh:
                traced = json.load(fh)
            entry["per_layer"] = traced["per_layer"]
            entry["correct"] = entry["correct"] and traced["correct"]
        detail_path.unlink()
        doc["workloads"][workload.name] = entry
        status |= code
        print(f"== {workload.name}: attempted {entry['attempted']} "
              f"failed {entry['failed']} "
              f"failed_frac {entry['failed'] / entry['attempted']:.6f} "
              f"sim_digest {entry['sim_digest']}"
              f"{'' if entry['correct'] else '  ** INCORRECT **'}")
        for m in spec["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            print(f"   {m['name']:44s} {s['value']:>14.6g} {m['unit']:6s}"
                  f" (min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")
        for m in spec["per_layer"] if args.trace else ():
            value = entry["per_layer"][m["name"]]["value"]
            print(f"   {m['name']:44s} {value:>14.6g} {m['unit']}")
    if args.trace:
        bulk = doc["workloads"]["mcast_bulk"]["per_layer"]
        chain = doc["workloads"]["amcast_chain"]["per_layer"]
        ratio = (chain["model.sim_time_us"]["value"]
                 / bulk["model.sim_time_us"]["value"])
        print(f"sim_speedup_vs_chain (informational): {ratio:.3f} = "
              f"{chain['model.sim_time_us']['value']:.1f} us / "
              f"{bulk['model.sim_time_us']['value']:.1f} us")
    doc["provenance"]["load1_end"] = os.getloadavg()[0]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 1 if status else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(BY_NAME),
                    help="measure this one in-process (default: all, "
                         "each in a child)")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float,
                    default=float(load_spec()["run_seconds"]))
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer metrics")
    ap.add_argument("--out", help="write the result document here")
    ap.add_argument("--detail", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same dict/set layout on every run: one less source of spread.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
