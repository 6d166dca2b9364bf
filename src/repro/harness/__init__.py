"""Experiment harness: one registry entry per paper table/figure,
ablation and extension study (`repro.harness.runner.ALL_EXPERIMENTS`),
the parallel cached experiment engine (`repro.harness.engine`), the
machine-readable bench documents + regression gate
(`repro.harness.bench`), plus the campaign kernel
(`repro.harness.campaign`: schedule -> `Trial` -> shrink -> reproducer,
one JSON codec, the timed `Incident` / `ChurnEvent` vocabulary)
and the harnesses declared against it — chaos (`repro.harness.chaos`),
membership churn (`repro.harness.churn`), coverage-guided fuzzing
(`repro.harness.fuzz`) and, in `repro.apps.brokerfabric`, the broker
fabric.  Each exposes a `CAMPAIGN` object: `CAMPAIGN.run(cfg, seed,
trials)`, `.shrink`, `.load`, `.replay`."""

from repro.harness.bench import compare, headline_metrics, load_document
from repro.harness.cache import ResultCache, code_fingerprint
from repro.harness.campaign import Campaign, ChurnEvent, Incident, Trial
from repro.harness.chaos import (ChaosConfig, Schedule, generate_schedule,
                                 run_trial)
from repro.harness.churn import (ChurnConfig, ChurnSchedule,
                                 generate_churn_schedule, run_churn_trial)
from repro.harness.engine import EngineRun, run_engine
from repro.harness.openloop import (ChurnOp, CrossOp, OpenLoopSchedule,
                                    PublishOp, ZipfSampler,
                                    generate_churn_stream,
                                    generate_cross_stream,
                                    generate_publish_stream, poisson_offsets,
                                    schedule_ops)
from repro.harness.report import (ExperimentResult, ascii_chart, fmt_size,
                                  fmt_time, format_table, ratio)
from repro.harness.runner import ALL_EXPERIMENTS, run_experiments
from repro.harness.sweeps import BcastSweep
from repro.harness.workloads import (DNN_UPDATES, MIXED, QUERY,
                                     STORAGE_REPLICATION, MulticastWorkload,
                                     PoissonArrivals, SizeDistribution)

__all__ = ["ExperimentResult", "fmt_size", "fmt_time", "format_table",
           "ratio", "ascii_chart", "ALL_EXPERIMENTS", "run_experiments",
           "BcastSweep",
           "EngineRun", "run_engine", "ResultCache", "code_fingerprint",
           "headline_metrics", "compare", "load_document",
           "Campaign", "Trial",
           "ChaosConfig", "Incident", "Schedule", "generate_schedule",
           "run_trial",
           "ChurnConfig", "ChurnEvent", "ChurnSchedule",
           "generate_churn_schedule", "run_churn_trial",
           "PublishOp", "ChurnOp", "CrossOp", "OpenLoopSchedule",
           "ZipfSampler", "poisson_offsets", "generate_publish_stream",
           "generate_churn_stream", "generate_cross_stream", "schedule_ops",
           "SizeDistribution", "PoissonArrivals", "MulticastWorkload",
           "QUERY", "STORAGE_REPLICATION", "DNN_UPDATES", "MIXED"]
