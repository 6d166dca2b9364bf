"""The evaluation registry and the one way to run it.

:data:`ALL_EXPERIMENTS` is the only way an evaluation table is
produced.  Its entries are independent pure functions of ``(id,
quick)``: every experiment builds its own cluster and simulator, and
all randomness is seeded from the topology.  :func:`run_experiments`
runs a selection serially or across ``jobs`` worker processes and
prints each table in request order, so serial and parallel runs emit
byte-identical ``ExperimentResult.to_json()`` payloads (tables can
differ only in the wall-clock provenance line).

``cepheus-repro experiments`` and ``cepheus-repro bench emit`` are the
two front-ends of :func:`run_cli`; ``bench emit`` always writes the
consolidated BENCH document (see ``repro.harness.bench``) and silences
the tables.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.harness import ablations, bench, experiments, extensions
from repro.harness.cache import code_fingerprint
from repro.harness.report import ExperimentResult, format_table
from repro.net.simulator import Simulator

__all__ = ["ALL_EXPERIMENTS", "select", "execute_one", "Run",
           "run_experiments", "add_arguments", "run_cli"]

ALL_EXPERIMENTS: Dict[str, Callable[[bool], ExperimentResult]] = {
    "fig7b": experiments.fig7b_memory,
    "fig8": experiments.fig8_bcast_small,
    "fig9": experiments.fig9_bcast_large,
    "rdmc": experiments.rdmc_comparison,
    "tab1": experiments.tab1_storage_iops,
    "fig10": experiments.fig10_storage_latency,
    "fig11": experiments.fig11_hpl,
    "fig12": experiments.fig12_large_scale,
    "fig13": experiments.fig13_loss,
    "fig14": experiments.fig14_fairness,
    "churn": experiments.churn_membership,
    "srmc_scaling": experiments.srmc_scaling,
    "brokerfabric": experiments.brokerfabric_slo,
    "mrc_fanin": experiments.mrc_fanin,
    "mrc_loss": experiments.mrc_loss,
    "abl-ack": ablations.ablation_ack_trigger,
    "abl-nack": ablations.ablation_nack_rule,
    "abl-cnp": ablations.ablation_cnp_filter,
    "abl-retx": ablations.ablation_retransmit_filter,
    "abl-deploy": ablations.ablation_deployment,
    "abl-mem": ablations.ablation_state_memory,
    "ext-allreduce": extensions.ext_allreduce,
    "ext-inreduce": extensions.ext_inreduce,
    "ext-irn": extensions.ext_irn,
    "ext-mixed": extensions.ext_mixed,
    "ext-reg": extensions.ext_reg,
    "ext-workload": extensions.ext_workload,
}


def select(only: str = "") -> List[str]:
    """Registry ids named by an ``--only`` value (all when empty), in
    request order with repeats dropped; ``ValueError`` on an unknown id."""
    names = list(dict.fromkeys(
        n.strip() for n in only.split(",") if n.strip()))
    names = names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}; "
                         f"available: {sorted(ALL_EXPERIMENTS)}")
    return names


def execute_one(name: str, quick: bool) -> Dict[str, Any]:
    """Run one registry experiment; returns its bench entry.

    Module-level (picklable) so it can serve as the process-pool
    worker; the registry lookup happens inside the worker, so the
    parent never ships the experiment callable itself.
    """
    events_before = Simulator.lifetime_events
    t0 = time.perf_counter()
    result = ALL_EXPERIMENTS[name](quick)
    wall = time.perf_counter() - t0
    result.mode = "quick" if quick else "full"
    return bench.make_entry(result, wall_s=wall,
                            events=Simulator.lifetime_events - events_before)


@dataclass
class Run:
    """What one :func:`run_experiments` call produced, in request order."""

    mode: str
    jobs: int
    entries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    results: List[ExperimentResult] = field(default_factory=list)
    total_wall_s: float = 0.0

    def document(self) -> Dict[str, Any]:
        """The consolidated BENCH document for this run."""
        return bench.make_document(
            self.entries, mode=self.mode, jobs=self.jobs,
            fingerprint=code_fingerprint(), total_wall_s=self.total_wall_s)


def run_experiments(names: List[str], *, quick: bool = True, jobs: int = 1,
                    stream=None) -> Run:
    """Run registry ids ``names`` on ``jobs`` worker processes (in this
    process when 1); each table prints to ``stream`` (stdout by
    default) once it and every table requested before it are done."""
    out = stream if stream is not None else sys.stdout
    run = Run(mode="quick" if quick else "full", jobs=jobs)
    t_start = time.perf_counter()
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
          else nullcontext()) as pool:
        entries = (pool.map if pool else map)(
            execute_one, names, itertools.repeat(quick))
        for name, entry in zip(names, entries):
            result = ExperimentResult.from_dict(entry["result"])
            result.wall_time_s = entry["wall_s"]
            run.entries[name] = entry
            run.results.append(result)
            print(format_table(result), file=out)
            print(file=out)
    run.total_wall_s = time.perf_counter() - t_start
    return run


def add_arguments(parser: argparse.ArgumentParser,
                  emit_flag: str = "--emit") -> None:
    """The flags both registry front-ends take (``bench emit`` spells
    the output flag ``--out``)."""
    parser.add_argument("--full", action="store_true",
                        help="paper-scale parameters (slow)")
    parser.add_argument("--only", default="",
                        help="comma-separated experiment ids")
    parser.add_argument("--jobs", type=int, default=1,
                        help="experiment worker processes (default 1)")
    parser.add_argument(emit_flag, dest="emit", default="",
                        help="write the consolidated BENCH JSON here")


def run_cli(args, *, stream=None) -> int:
    """Select, run and optionally emit: the body of ``cepheus-repro
    experiments`` and ``bench emit``.  Tables print to ``stream``.  An
    unknown id or ``--jobs < 1`` is reported on stderr and returns 2
    before any experiment runs; an experiment's own exception
    propagates."""
    try:
        names = select(args.only)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    run = run_experiments(names, quick=not args.full, jobs=args.jobs,
                          stream=stream)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(run.document(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{len(names)} experiment(s) in {run.total_wall_s:.1f}s "
          f"(jobs={args.jobs})" + (f" -> {args.emit}" if args.emit else ""),
          file=sys.stderr)
    return 0
