"""Run the whole evaluation and emit paper-style text.

``python -m repro.harness.runner``            quick mode (minutes)
``python -m repro.harness.runner --full``     paper-scale parameters
``python -m repro.harness.runner --only fig8,fig12``
``python -m repro.harness.runner --jobs 4``   parallel fan-out
``python -m repro.harness.runner --jobs 4 --emit BENCH_quick.json``

:data:`ALL_EXPERIMENTS` is the only way an evaluation table is
produced; ``cepheus-repro experiments`` is this module's parser and
``cepheus-repro bench emit`` the same :func:`run_cli` with the tables
silenced.  Experiments are pure functions of (id, quick); ``--jobs``
fans them out across a process pool and ``--cache-dir`` (default
``.bench_cache``; ``--no-cache`` disables) memoizes results keyed by
(id, config hash, code fingerprint) so unchanged experiments are
skipped on re-runs.  ``--emit`` writes the consolidated machine-
readable BENCH document (see ``repro.harness.bench``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.harness import ablations, experiments, extensions
from repro.harness.report import ExperimentResult

__all__ = ["ALL_EXPERIMENTS", "select", "run_experiments",
           "add_arguments", "run_cli", "main"]

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


def run_experiments(names: List[str], quick: bool = True, stream=None,
                    jobs: int = 1,
                    cache_dir: Optional[str] = None) -> List[ExperimentResult]:
    """Run the named experiments; prints each table as it completes.

    ``jobs > 1`` fans independent experiments across a process pool;
    ``cache_dir`` enables the content-addressed result cache.  Both
    paths return byte-identical results (``ExperimentResult.to_json``)
    in request order.
    """
    from repro.harness.cache import ResultCache
    from repro.harness.engine import run_engine

    cache = ResultCache(cache_dir) if cache_dir else None
    run = run_engine(names, quick=quick, jobs=jobs, cache=cache,
                     stream=stream)
    return run.results


def add_arguments(parser: argparse.ArgumentParser,
                  emit_flag: str = "--emit") -> None:
    """The flags every registry entry point takes (``bench emit``
    spells the output flag ``--out``)."""
    parser.add_argument("--full", action="store_true",
                        help="paper-scale parameters (slow)")
    parser.add_argument("--only", default="",
                        help="comma-separated experiment ids")
    parser.add_argument("--jobs", type=int, default=1,
                        help="experiment worker processes (default 1)")
    parser.add_argument("--cache-dir", default="",
                        help="result-cache directory (default .bench_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument(emit_flag, dest="emit", default="",
                        help="write the consolidated BENCH JSON here")


def run_cli(args, *, stream=None) -> int:
    """Select, run and optionally emit: the body of ``experiments``,
    ``bench emit`` and ``python -m repro.harness.runner``.  Tables
    print to ``stream``; raises ``ValueError`` on an unknown id or
    ``--jobs < 1``."""
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.harness.engine import run_engine

    names = select(args.only)
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    run = run_engine(names, quick=not args.full, jobs=args.jobs,
                     cache=cache, stream=stream)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(run.document(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{len(names)} experiment(s) in {run.total_wall_s:.1f}s "
          f"({run.executed} executed, {run.cache_hits} cached, "
          f"jobs={args.jobs})" + (f" -> {args.emit}" if args.emit else ""),
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cepheus evaluation harness")
    add_arguments(parser)
    try:
        return run_cli(parser.parse_args(argv))
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
