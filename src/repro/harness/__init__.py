"""Experiment harness: one registry entry per paper table/figure,
ablation and extension study, each a grid of independent cells
(`repro.harness.experiments.Experiment`: grid + cell + quick sample),
and the one way to run them (`repro.harness.runner`: `ALL_EXPERIMENTS`,
`run_experiments`, whose `ordered_map` is the harness's one process
pool), the machine-readable bench documents + regression gate
(`repro.harness.bench`), plus the campaign kernel
(`repro.harness.campaign`: schedule -> `Trial` -> shrink -> reproducer,
one JSON codec, the timed `Incident` / `ChurnEvent` vocabulary)
and the two campaigns declared against it — the fuzz campaign
(`repro.harness.fuzz`, coverage-guided, with the blind-sampling `CHAOS`
and `CHURN` presets) and, in `repro.apps.brokerfabric`, the broker
fabric.  Each exposes a `CAMPAIGN` object: `CAMPAIGN.run(cfg, seed,
trials)`, `.shrink`, `.load`, `.replay`."""
