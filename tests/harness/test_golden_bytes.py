"""Byte-identity goldens: one quick probe per deployment mode.

Unlike ``test_golden_results`` (tolerance bands on headline metrics),
these compare the canonical :meth:`ExperimentResult.to_json` output
*byte-for-byte* against committed fixtures.  The probe rows carry raw
(unrounded) virtual-time latencies plus the cumulative simulator event
count, so any perf refactor that perturbs results — a reordered
scheduler tie, a dropped or added event, a float that shifts in the
last ulp — fails here in seconds instead of in the CI bench job.

Regenerating after an *intentional* behavior change:

    GOLDEN_BYTES_REGEN=1 PYTHONPATH=src python -m pytest \
        tests/harness/test_golden_bytes.py

and commit the updated ``tests/harness/golden_bytes/*.json`` with an
explanation of why the bytes moved.
"""

import os
from pathlib import Path

import pytest

from repro.harness.experiments import deployment_golden

FIXTURE_DIR = Path(__file__).parent / "golden_bytes"
DEPLOYMENTS = ("inline", "lookaside", "source_routed")

REGEN = os.environ.get("GOLDEN_BYTES_REGEN") == "1"


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_deployment_bytes_identical(deployment):
    result = deployment_golden(deployment)
    got = result.to_json() + "\n"
    path = FIXTURE_DIR / f"{deployment}.json"

    if REGEN:
        path.write_text(got)
        pytest.skip(f"regenerated {path.name}")

    assert path.exists(), (
        f"missing fixture {path}; generate with GOLDEN_BYTES_REGEN=1")
    want = path.read_text()
    if got != want:
        # byte-level mismatch: show the first diverging line for triage
        for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
            if g != w:
                pytest.fail(
                    f"{deployment} golden bytes diverged at line {i + 1}:\n"
                    f"  fixture: {w!r}\n"
                    f"  current: {g!r}")
        pytest.fail(f"{deployment} golden bytes diverged in length "
                    f"({len(got)} vs {len(want)} chars)")


def test_fixtures_cover_every_deployment():
    """A new deployment mode must come with a fixture (or be added to
    DEPLOYMENTS here with one).  The store's one other file is the
    datapath's recorded transcripts, owned (and regenerated, through the
    same switch) by ``tests/core/test_datapath_transcripts.py``."""
    committed = {p.stem for p in FIXTURE_DIR.glob("*.json")}
    assert committed == set(DEPLOYMENTS) | {"datapath_transcripts"}
