"""Experiment harness: one registry entry per paper table/figure,
ablation and extension study, and the one way to run them
(`repro.harness.runner`: `ALL_EXPERIMENTS`, `run_experiments`), the
machine-readable bench documents + regression gate
(`repro.harness.bench`), plus the campaign kernel
(`repro.harness.campaign`: schedule -> `Trial` -> shrink -> reproducer,
one JSON codec, the timed `Incident` / `ChurnEvent` vocabulary)
and the harnesses declared against it — chaos (`repro.harness.chaos`),
membership churn (`repro.harness.churn`), coverage-guided fuzzing
(`repro.harness.fuzz`) and, in `repro.apps.brokerfabric`, the broker
fabric.  Each exposes a `CAMPAIGN` object: `CAMPAIGN.run(cfg, seed,
trials)`, `.shrink`, `.load`, `.replay`."""
