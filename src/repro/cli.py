"""Command-line interface.

Installed as the ``cepheus-repro`` console script::

    cepheus-repro experiments --only fig8,tab1   # reproduce figures
    cepheus-repro experiments --full             # paper-scale params
    cepheus-repro demo                           # 60-second tour
    cepheus-repro sweep --sizes 64,1048576 --groups 4,8 \
                        --algorithms cepheus,chain
    cepheus-repro chaos run --seed 7 --trials 5  # invariant-checked chaos
    cepheus-repro chaos replay repro.json        # re-run a reproducer
    cepheus-repro churn run --seed 11 --trials 3 # membership-churn campaign
    cepheus-repro churn replay repro.json        # re-run a churn reproducer
    cepheus-repro broker run --seed 11 --trials 3 --coalesce-window 5e-4
    cepheus-repro broker replay repro.json       # re-run a broker reproducer
    cepheus-repro fuzz run --budget-trials 50 \
                  --corpus tests/harness/corpus  # coverage-guided fuzzing
    cepheus-repro fuzz replay tests/harness/corpus --jobs 4
    cepheus-repro fuzz corpus                    # list corpus inputs
    cepheus-repro bench emit --jobs 4            # parallel run -> BENCH_quick.json
    cepheus-repro bench compare BENCH_quick.json benchmarks/baselines/BENCH_quick.json
    cepheus-repro info                           # model constants
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import constants

__all__ = ["main"]


def _cmd_experiments(args, stream=None) -> int:
    from repro.harness.runner import run_cli

    try:
        return run_cli(args, stream=stream)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2


def _cmd_bench_emit(args) -> int:
    """``experiments`` with a document always written and the tables
    silenced."""
    import io

    args.emit = args.emit or ("BENCH_full.json" if args.full
                              else "BENCH_quick.json")
    return _cmd_experiments(args, None if args.verbose else io.StringIO())


def _cmd_demo(args) -> int:
    from repro.apps import Cluster
    from repro.collectives import (BinomialTreeBcast, CepheusBcast,
                                   ChainBcast)
    from repro.harness.report import fmt_size, fmt_time

    size = args.size
    print(f"1-to-3 broadcast of {fmt_size(size)} on a 100G testbed:\n")
    rows = []
    for cls, kw in ((CepheusBcast, {}), (ChainBcast, {"slices": 4}),
                    (BinomialTreeBcast, {})):
        cluster = Cluster.testbed(4)
        algo = cls(cluster, cluster.host_ips, **kw)
        rows.append((algo.name, algo.run(size).jct))
    base = rows[0][1]
    for name, jct in rows:
        print(f"  {name:<16} {fmt_time(jct):>10}   {jct / base:5.2f}x")
    print("\nThe in-network primitive sends each byte once; the overlays "
          "re-send per hop.\nRun 'cepheus-repro experiments' for the full "
          "paper reproduction.")
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.report import format_table
    from repro.harness.sweeps import BcastSweep

    sweep = BcastSweep(
        sizes=[int(s) for s in args.sizes.split(",")],
        group_sizes=[int(g) for g in args.groups.split(",")],
        algorithms=[a.strip() for a in args.algorithms.split(",")],
    )
    print(format_table(sweep.run()))
    return 0


# ---------------------------------------------------------------------------
# campaigns: {chaos, churn, broker, fuzz} x {run, replay}, from one table
# ---------------------------------------------------------------------------

#: Every ``run`` flag that sets a config field, declared once:
#: flag -> (config field, help).  The value type is the type of the
#: default a campaign lists the flag with.
_CONFIG_FLAGS = {
    "--topo": ("topo", "cluster topology"),
    "--hosts": ("hosts", "star size / fat-tree host limit"),
    "--k": ("k", "fat-tree arity (fat_tree topo only)"),
    "--members": ("initial_members", "initial group size"),
    "--messages": ("messages", "broadcasts per trial"),
    "--msg-packets": ("msg_packets", "packets per broadcast"),
    "--incidents": ("incidents", "failure incidents per trial"),
    "--incidents-max": ("incidents_max", "cap on incidents per schedule"),
    "--joins": ("joins", "JOIN events per trial"),
    "--leaves": ("leaves", "voluntary LEAVE events per trial"),
    "--crashes": ("crashes", "receiver crashes per trial"),
    "--joins-max": ("joins_max", "cap on JOIN ops per schedule"),
    "--leaves-max": ("leaves_max", "cap on LEAVE ops per schedule"),
    "--topics": ("topics", "topic count"),
    "--min-subs": ("min_subscribers",
                   "initial subscribers per topic, lower bound"),
    "--max-subs": ("max_subscribers",
                   "initial subscribers per topic, upper bound"),
    "--msg-size": ("msg_size", "publish payload bytes"),
    "--publish-rate": ("publish_rate",
                       "Poisson publish arrivals per second"),
    "--zipf-alpha": ("zipf_alpha", "topic popularity skew (0 = uniform)"),
    "--churn-rate": ("churn_rate", "subscription toggles per second"),
    "--cross-rate": ("cross_rate",
                     "background unicast transfers per second"),
    "--cross-size": ("cross_size", "bytes per cross-traffic transfer"),
    "--horizon": ("horizon", "virtual seconds of traffic per trial"),
    "--coalesce-window": ("coalesce_window",
                          "MRP delta coalescing window in seconds "
                          "(0 = one delta per membership op)"),
    "--loss-rate": ("loss_rate", "baseline random loss on every switch"),
    "--jct-slack": ("jct_slack", "throughput-oracle ceiling multiplier "
                                 "over the analytic JCT model"),
    "--deployment": ("deployment",
                     "accelerator deployment style under test"),
    "--mutate": ("mutate", "arm a deliberate protocol mutation to "
                           "self-test the campaign"),
}
_CHOICES = {"--topo": ("star", "fat_tree"),
            "--deployment": ("inline", "lookaside", "source_routed")}

class CampaignCLI(NamedTuple):
    """One campaign's row: what its ``run`` subcommand looks like.
    ``--seed``, ``--no-shrink``, ``--out``, ``--repro-dir`` and
    ``replay <file>`` are common to all and not listed."""

    module: str                 # holds the ``CAMPAIGN`` declaration
    help: str
    trials: Tuple[str, int]     # the trial-count flag and its default
    flags: Dict[str, object]    # config flag -> this campaign's default


CAMPAIGNS = {
    "chaos": CampaignCLI(
        "repro.harness.chaos",
        "deterministic invariant-checked chaos campaigns",
        ("--trials", 5),
        {"--topo": "star", "--hosts": 6, "--k": 4, "--messages": 3,
         "--msg-packets": 8, "--incidents": 2, "--horizon": 0.04,
         "--loss-rate": 0.0, "--deployment": "inline", "--mutate": ""}),
    "churn": CampaignCLI(
        "repro.harness.churn",
        "deterministic membership-churn campaigns (incremental MRP "
        "joins/leaves, failure pruning)",
        ("--trials", 5),
        {"--topo": "star", "--hosts": 8, "--k": 4, "--members": 5,
         "--messages": 4, "--msg-packets": 8, "--joins": 2, "--leaves": 1,
         "--crashes": 1, "--horizon": 0.04, "--loss-rate": 0.0,
         "--mutate": ""}),
    "broker": CampaignCLI(
        "repro.apps.brokerfabric",
        "open-loop broker-fabric pub/sub campaigns (SLO tails, delivery "
        "amplification, MRP delta coalescing)",
        ("--trials", 3),
        {"--topo": "fat_tree", "--hosts": 16, "--k": 4, "--topics": 6,
         "--min-subs": 3, "--max-subs": 8, "--msg-size": 65536,
         "--publish-rate": 60000.0, "--zipf-alpha": 0.9,
         "--churn-rate": 2000.0, "--cross-rate": 4000.0,
         "--cross-size": 131072, "--horizon": 0.02,
         "--coalesce-window": 0.0, "--loss-rate": 0.0}),
    "fuzz": CampaignCLI(
        "repro.harness.fuzz",
        "coverage-guided protocol fuzzing with differential deployment "
        "oracles (every trial runs all three deployments)",
        ("--budget-trials", 50),
        {"--topo": "star", "--hosts": 8, "--k": 4, "--members": 6,
         "--messages": 3, "--msg-packets": 6, "--incidents-max": 2,
         "--joins-max": 1, "--leaves-max": 1, "--horizon": 0.03,
         "--loss-rate": 0.0, "--jct-slack": 5.0}),
}


def load_campaign(name: str):
    """The :class:`repro.harness.campaign.Campaign` behind a CLI noun."""
    import importlib

    return importlib.import_module(CAMPAIGNS[name].module).CAMPAIGN


def _write_json(doc, path: str) -> None:
    import json

    blob = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def _cmd_campaign_run(args) -> int:
    import os

    name = args.campaign
    campaign = load_campaign(name)
    cfg_fields = campaign.config_cls.__dataclass_fields__
    values = {}
    for flag in CAMPAIGNS[name].flags:
        field = _CONFIG_FLAGS[flag][0]
        value = getattr(args, field)
        # "" / 0 on the command line mean "unset" for an optional field.
        values[field] = (value or None
                         if cfg_fields[field].default is None else value)
    cfg = campaign.config_cls(**values)
    if args.session:
        outcome = args.session(args, cfg)
        if outcome is None:          # unreadable input, already reported
            return 2
        doc, summary = outcome
    else:
        doc = campaign.run(cfg, seed=args.seed, trials=args.trials,
                           shrink=not args.no_shrink)
        summary = f"{args.trials} trial(s)"
    _write_json(doc, args.out)
    n_fail = len(doc["failing_trials"])
    print(f"{name}: {summary}, {n_fail} failing (seed={args.seed})",
          file=sys.stderr)
    if n_fail and args.repro_dir:
        os.makedirs(args.repro_dir, exist_ok=True)
        for rep in doc["reproducers"]:
            path = os.path.join(
                args.repro_dir, f"{name}-seed{args.seed}-t{rep['trial']}.json")
            _write_json(rep, path)
            print(f"{name}: reproducer written to {path}", file=sys.stderr)
    return 3 if n_fail else 0


def _cmd_campaign_replay(args) -> int:
    name = args.campaign
    try:
        record = load_campaign(name).replay(args.file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"{name}: cannot replay {args.file}: {exc}", file=sys.stderr)
        return 2
    _write_json(record, "")
    if record["failing"]:
        print(f"{name}: reproducer still failing", file=sys.stderr)
        return 3
    print(f"{name}: reproducer no longer fails (fixed?)", file=sys.stderr)
    return 0


def _read_corpus(dirpath: str):
    """The inputs of a fuzz corpus directory; ``None``, after a one-line
    message, when one of them is unreadable or malformed."""
    from repro.harness.fuzz import load_corpus

    try:
        return load_corpus(dirpath)
    except (OSError, ValueError) as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return None


def _fuzz_session(args, cfg):
    """The fuzz ``run`` body: a corpus-seeded coverage-guided session."""
    from repro.harness.fuzz import run_fuzz, save_corpus

    entries = _read_corpus(args.corpus) if args.corpus else []
    if entries is None:
        return None
    corpus_in = [s for _, s in entries]
    doc = run_fuzz(cfg, seed=args.seed, budget_trials=args.trials,
                   corpus=corpus_in, shrink=not args.no_shrink)
    corpus = doc.pop("_corpus")
    if args.corpus and not args.frozen_corpus:
        for path in save_corpus(args.corpus, cfg, corpus):
            print(f"fuzz: corpus input written to {path}", file=sys.stderr)
    return doc, (f"{args.trials} trial(s), corpus {len(corpus)}, "
                 f"{doc['coverage_keys']} coverage keys "
                 f"[{doc['coverage_signature'][:12]}]")


def _cmd_fuzz_replay(args) -> int:
    import os

    if not os.path.isdir(args.file):
        return _cmd_campaign_replay(args)
    from repro.harness.fuzz import replay_corpus

    try:
        doc = replay_corpus(args.file, jobs=args.jobs)
    except (OSError, ValueError) as exc:
        print(f"fuzz: cannot replay {args.file}: {exc}", file=sys.stderr)
        return 2
    _write_json(doc, args.out)
    print(f"fuzz: replayed {doc['inputs']} corpus input(s), "
          f"{doc['coverage_keys']} coverage keys "
          f"[{doc['coverage_signature'][:12]}], "
          f"{len(doc['failing'])} failing", file=sys.stderr)
    return 3 if doc["failing"] else 0


def _cmd_fuzz_corpus(args) -> int:
    entries = _read_corpus(args.corpus)
    if entries is None:
        return 2
    if not entries:
        print(f"fuzz: no corpus inputs under {args.corpus}", file=sys.stderr)
        return 2
    print(f"corpus {args.corpus}: {len(entries)} input(s)")
    for _, s in entries:
        print(f"  {s.content_hash()[:12]}  msgs={len(s.sources)} "
              f"incidents={len(s.incidents)} churn={len(s.churn)} "
              f"seed={s.trial_seed}")
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.harness import bench

    try:
        current = bench.load_document(args.current)
        baseline = bench.load_document(args.baseline)
        tolerances = (bench.load_tolerances(args.tolerances)
                      if args.tolerances else None)
    except (OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    comp = bench.compare(current, baseline, tolerances,
                         check_events=args.check_events)
    print(comp.format(verbose=args.verbose))
    if comp.ok:
        print("bench: no regressions", file=sys.stderr)
        return 0
    print(f"bench: {len(comp.regressions)} metric regression(s), "
          f"{len(comp.missing_experiments)} missing experiment(s)",
          file=sys.stderr)
    return 1


def _cmd_info(args) -> int:
    print("Cepheus reproduction — model constants (repro/constants.py)\n")
    entries = [
        ("link bandwidth", f"{constants.LINK_BANDWIDTH_BPS / 1e9:.0f} Gbps"),
        ("per-hop latency", f"{constants.LINK_PROPAGATION_S * 1e9:.0f} ns"),
        ("RoCE MTU", f"{constants.MTU_BYTES} B"),
        ("RC window", f"{constants.ROCE_MAX_OUTSTANDING_PKTS} packets"),
        ("RTO", f"{constants.ROCE_RTO_S * 1e3:.1f} ms"),
        ("ECN band", f"{constants.ECN_KMIN_BYTES // 1000}-"
                     f"{constants.ECN_KMAX_BYTES // 1000} KB"),
        ("PFC XOFF/XON", f"{constants.PFC_XOFF_BYTES // 1000}/"
                         f"{constants.PFC_XON_BYTES // 1000} KB"),
        ("accelerator delay", f"{constants.ACCELERATOR_DELAY_S * 1e9:.0f} ns"),
        ("MFT per group (64p)", f"{constants.MFT_BYTES_PER_GROUP_64P} B"),
        ("MRP records/packet", str(constants.MRP_NODES_PER_PACKET)),
        ("fallback threshold", f"{constants.FALLBACK_GOODPUT_THRESHOLD:.0%}"),
    ]
    width = max(len(k) for k, _ in entries)
    for key, value in entries:
        print(f"  {key:<{width}}  {value}")
    print("\nCalibration provenance: docs/CALIBRATION.md")
    return 0


def _add_campaign(sub, name: str):
    """Register ``<name> run`` and ``<name> replay`` from the table."""
    row = CAMPAIGNS[name]
    trials_flag, trials = row.trials
    campaign = load_campaign(name)
    p_camp = sub.add_parser(name, help=row.help)
    camp_sub = p_camp.add_subparsers(dest=f"{name}_command", required=True)

    p_run = camp_sub.add_parser(
        "run", help="run N seeded trials, shrink any failure")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument(trials_flag, dest="trials", type=int, default=trials)
    for flag, default in row.flags.items():
        field, help_text = _CONFIG_FLAGS[flag]
        choices = (campaign.mutations if flag == "--mutate"
                   else _CHOICES.get(flag))
        p_run.add_argument(flag, dest=field, type=type(default),
                           default=default, choices=choices, help=help_text)
    p_run.add_argument("--no-shrink", action="store_true",
                       help="skip reproducer minimization")
    p_run.add_argument("--out", default="",
                       help="write campaign JSON here instead of stdout")
    p_run.add_argument("--repro-dir", default="",
                       help="directory for per-failure reproducer files")
    p_run.set_defaults(fn=_cmd_campaign_run, campaign=name, session=None)

    p_replay = camp_sub.add_parser(
        "replay", help="re-execute a reproducer JSON file")
    p_replay.add_argument("file", help="reproducer JSON file")
    p_replay.set_defaults(fn=_cmd_campaign_replay, campaign=name)
    return p_run, p_replay, camp_sub


def build_parser() -> argparse.ArgumentParser:
    from repro.harness.runner import add_arguments

    parser = argparse.ArgumentParser(
        prog="cepheus-repro",
        description="Cepheus (HPCA 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments",
                           help="reproduce the paper's tables/figures")
    add_arguments(p_exp)
    p_exp.set_defaults(fn=_cmd_experiments)

    p_demo = sub.add_parser("demo", help="60-second broadcast comparison")
    p_demo.add_argument("--size", type=int, default=16 << 20,
                        help="message bytes (default 16 MiB)")
    p_demo.set_defaults(fn=_cmd_demo)

    p_sweep = sub.add_parser("sweep", help="custom broadcast sweep")
    p_sweep.add_argument("--sizes", default="65536,1048576")
    p_sweep.add_argument("--groups", default="4")
    p_sweep.add_argument("--algorithms", default="cepheus,binomial,chain")
    p_sweep.set_defaults(fn=_cmd_sweep)

    campaign_parsers = {name: _add_campaign(sub, name) for name in CAMPAIGNS}

    # fuzz alone has a corpus: it seeds `run`, and `replay` accepts one.
    p_frun, p_freplay, fuzz_sub = campaign_parsers["fuzz"]
    p_frun.add_argument("--corpus", default="",
                        help="corpus directory: seeds the session and "
                             "receives new coverage-reaching inputs")
    p_frun.add_argument("--frozen-corpus", action="store_true",
                        help="read the corpus but do not write new "
                             "entries back")
    p_frun.set_defaults(session=_fuzz_session)
    p_freplay.description = ("re-execute a corpus directory (deterministic "
                             "coverage signature) or one reproducer JSON file")
    p_freplay.add_argument("--jobs", type=int, default=1,
                           help="parallel replay workers (directory only; "
                                "the signature is jobs-independent)")
    p_freplay.add_argument("--out", default="",
                           help="write replay JSON here instead of stdout "
                                "(directory only)")
    p_freplay.set_defaults(fn=_cmd_fuzz_replay)
    p_fcorpus = fuzz_sub.add_parser(
        "corpus", help="list the inputs of a corpus directory")
    p_fcorpus.add_argument("--corpus", default="tests/harness/corpus",
                           help="corpus directory")
    p_fcorpus.set_defaults(fn=_cmd_fuzz_corpus)

    p_bench = sub.add_parser(
        "bench", help="machine-readable benchmark runs and regression diffs")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_emit = bench_sub.add_parser(
        "emit", help="run the suite (parallel, cached) and write BENCH JSON",
        description="Run the suite and write the BENCH document "
                    "(--out defaults to BENCH_<mode>.json).")
    add_arguments(p_emit, emit_flag="--out")
    p_emit.add_argument("--verbose", action="store_true",
                        help="also print the paper-style tables")
    p_emit.set_defaults(fn=_cmd_bench_emit)

    p_cmp = bench_sub.add_parser(
        "compare", help="diff two BENCH documents against tolerances")
    p_cmp.add_argument("current", help="BENCH JSON from the run under test")
    p_cmp.add_argument("baseline", help="committed baseline BENCH JSON")
    p_cmp.add_argument("--tolerances", default="",
                       help="tolerance JSON (default: built-in 8% rel)")
    p_cmp.add_argument("--check-events", action="store_true",
                       help="require per-experiment simulator event "
                            "counts to match the baseline exactly")
    p_cmp.add_argument("--verbose", action="store_true",
                       help="print passing metrics too")
    p_cmp.set_defaults(fn=_cmd_bench_compare)

    p_info = sub.add_parser("info", help="print the model constants")
    p_info.set_defaults(fn=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
