"""The registry suite: every experiment, once, against its paper
shape and the committed baseline.

Each ``runner.ALL_EXPERIMENTS`` id runs in quick mode once per session;
its table must satisfy its ``SHAPES`` check (``test_experiments.py``)
and ``bench.compare`` — the ``cepheus-repro bench compare`` CI gate
itself, with exact event counts — must pass against its entry in
``benchmarks/baselines/BENCH_quick.json`` under
``benchmarks/tolerances.json``, so a PR that moves a headline number
fails here first with the gate's own diff.

To *intentionally* move a headline (model change, new calibration),
re-emit the baseline and commit the diff (docs/TESTING.md)::

    PYTHONPATH=src python -m repro.cli bench emit --jobs 1 --no-cache \
        --out benchmarks/baselines/BENCH_quick.json

The cheap experiments run in tier 1; the rest carry the ``slow``
marker and run in tier 2 / CI-main only.
"""

import pathlib

import pytest

from repro.harness import bench
from repro.harness.runner import ALL_EXPERIMENTS
from tests.harness.test_experiments import SHAPES, quick_entry, quick_result

BENCHMARKS = pathlib.Path(__file__).parents[2] / "benchmarks"
BASELINE = bench.load_document(
    str(BENCHMARKS / "baselines" / "BENCH_quick.json"))["experiments"]
TOLERANCES = bench.load_tolerances(str(BENCHMARKS / "tolerances.json"))

#: Experiments cheap enough (< ~2 s) for tier 1; the rest are tier 2.
CHEAP = {"fig7b", "fig8", "fig10", "abl-ack", "abl-cnp", "abl-retx",
         "abl-deploy", "abl-mem", "churn", "srmc_scaling", "brokerfabric",
         "mrc_fanin", "mrc_loss", "ext-reg", "ext-workload", "ext-inreduce"}

PARAMS = [pytest.param(name, marks=() if name in CHEAP
                       else (pytest.mark.slow,))
          for name in ALL_EXPERIMENTS]


def test_every_experiment_has_a_baseline_entry_and_a_shape_check():
    assert set(ALL_EXPERIMENTS) <= set(BASELINE)
    assert set(SHAPES) == set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("name", PARAMS)
def test_golden(name):
    SHAPES[name](quick_result(name))
    comp = bench.compare({"experiments": {name: quick_entry(name)}},
                         {"experiments": {name: BASELINE[name]}},
                         TOLERANCES, check_events=True)
    assert comp.ok, (
        f"{comp.format()}\nIf intentional, re-emit "
        f"benchmarks/baselines/BENCH_quick.json (docs/TESTING.md)")
