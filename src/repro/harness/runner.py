"""The evaluation registry and the one way to run it.

:data:`ALL_EXPERIMENTS` maps each id to its
:class:`~repro.harness.experiments.Experiment` declaration, a grid of
independent cells.  :func:`run_experiments` fans every selected cell
through one :func:`ordered_map` (serial, or across ``jobs`` worker
processes) and reassembles rows in grid order, so results and event
counts are equal at every ``jobs`` (tables differ only in the
wall-clock provenance line).

``cepheus-repro experiments`` and ``bench emit`` are the two front-ends
of :func:`run_cli` (``bench emit`` writes the BENCH document, see
``repro.harness.bench``, and silences the tables); ``cepheus-repro
sweep`` runs a user-declared grid.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, Union

from repro.harness import ablations, bench, experiments, extensions
from repro.harness.cache import code_fingerprint
from repro.harness.experiments import Experiment, Row
from repro.harness.report import ExperimentResult, format_table
from repro.net.simulator import Simulator

__all__ = ["ALL_EXPERIMENTS", "select", "ordered_map", "run_cell", "Run",
           "run_experiments", "add_arguments", "run_cli"]

#: id -> its declaration, given the suite's ``quick`` flag.
ALL_EXPERIMENTS: Dict[str, Callable[[bool], Experiment]] = {
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


def ordered_map(fn: Callable, items: Sequence, jobs: int = 1) -> Iterator:
    """``map(fn, items)``, on ``jobs`` worker processes when more than
    one and there are items to share (``fn`` and the items must then
    pickle).  Results come back in item order either way, each as soon
    as it and those before it are done."""
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items)


def run_cell(task: Tuple[Callable[[Any], Row], Any]) -> Tuple[Row, int, float]:
    """One ``(cell, point)``: its row, the simulator events it ran and
    its wall time, in whichever process runs it."""
    cell, point = task
    events, t0 = Simulator.lifetime_events, time.perf_counter()
    row = cell(point)
    return row, Simulator.lifetime_events - events, time.perf_counter() - t0


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


def run_experiments(experiments: Sequence[Union[str, Experiment]], *,
                    quick: bool = True, jobs: int = 1, stream=None) -> Run:
    """Run ``experiments`` (registry ids, or declared grids such as
    ``cepheus-repro sweep``'s): every cell through one
    :func:`ordered_map` on ``jobs`` processes, then each table's rows in
    grid order.  Each table prints to ``stream`` (stdout by default)
    once it and every table requested before it are done; its entry's
    ``events`` and ``wall_s`` sum its cells'."""
    out = stream if stream is not None else sys.stdout
    run = Run(mode="quick" if quick else "full", jobs=jobs)
    t_start = time.perf_counter()
    declared = [ALL_EXPERIMENTS[e](quick) if isinstance(e, str) else e
                for e in experiments]
    grids = [exp.points(quick) for exp in declared]
    cells = ordered_map(run_cell, [(exp.cell, point) for exp, grid
                                   in zip(declared, grids) for point in grid],
                        jobs)
    for exp, grid in zip(declared, grids):
        rows, events, walls = zip(*itertools.islice(cells, len(grid)))
        result = exp.result(list(rows))
        result.mode, result.wall_time_s = run.mode, sum(walls)
        run.entries[exp.exp_id] = bench.make_entry(
            result, wall_s=result.wall_time_s, events=sum(events))
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
                        help="cell worker processes (default 1)")
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
