"""Generic parameter sweeps for custom studies.

The per-figure experiments hard-code the paper's parameters; this
module provides the free-form counterpart: a cartesian sweep over
message sizes, group sizes and broadcast engines, each point on a fresh
cluster, collected into an :class:`~repro.harness.report.ExperimentResult`.

Sweep points are independent, so ``run(jobs=N)`` fans the
(group size, algorithm) units across a process pool — each unit keeps
the serial path's engine-reuse-across-sizes semantics, so parallel and
serial sweeps produce identical rows.

Example
-------
>>> from repro.harness.sweeps import BcastSweep
>>> sweep = BcastSweep(sizes=[4096, 1 << 20],
...                    group_sizes=[4],
...                    algorithms=["cepheus", "chain"])
>>> res = sweep.run()                        # doctest: +SKIP
>>> res = sweep.run(jobs=4)                  # doctest: +SKIP
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.cluster import Cluster
from repro.apps.mpi import ALGORITHMS
from repro.errors import ConfigurationError
from repro.harness.report import ExperimentResult, fmt_size

__all__ = ["BcastSweep"]


def _run_unit(payload: Tuple[int, str, List[int],
                             Optional[Callable[[int], Cluster]]]) -> List[float]:
    """One (group size, algorithm) unit: a fresh cluster, then every
    size in order on the same engine (module-level so it pickles for
    the process pool; a custom ``cluster_factory`` must be picklable
    too when ``jobs > 1``)."""
    n, alg, sizes, factory = payload
    cl = factory(n) if factory is not None else Cluster.testbed(n)
    members = cl.host_ips[:n]
    if len(members) < n:
        raise ConfigurationError(
            f"cluster provides {len(members)} hosts < group {n}")
    engine = ALGORITHMS[alg](cl, members)
    return [engine.run(size).jct for size in sizes]


@dataclass
class BcastSweep:
    """Cartesian sweep: sizes x group sizes x algorithms."""

    sizes: List[int]
    group_sizes: List[int]
    algorithms: List[str]
    cluster_factory: Optional[Callable[[int], Cluster]] = None
    title: str = "custom broadcast sweep"

    def __post_init__(self) -> None:
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigurationError(
                f"unknown algorithms {unknown}; have {sorted(ALGORITHMS)}")
        if not self.sizes or not self.group_sizes:
            raise ConfigurationError("sweep axes must be non-empty")

    def run(self, jobs: int = 1) -> ExperimentResult:
        """Execute every point; each (group size, algorithm) pair reuses
        one cluster across sizes (connection setup is untimed anyway).
        ``jobs > 1`` fans the pairs across a process pool."""
        res = ExperimentResult(
            exp_id="sweep", title=self.title,
            headers=["group", "size"] + [f"{a}_jct" for a in self.algorithms],
        )
        units = [(n, alg) for n in self.group_sizes
                 for alg in self.algorithms]
        payloads = [(n, alg, self.sizes, self.cluster_factory)
                    for n, alg in units]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                jcts = list(pool.map(_run_unit, payloads))
        else:
            jcts = [_run_unit(p) for p in payloads]
        by_unit = dict(zip(units, jcts))
        for n in self.group_sizes:
            for i, size in enumerate(self.sizes):
                row: Dict[str, object] = {"group": n, "size": fmt_size(size)}
                for alg in self.algorithms:
                    row[f"{alg}_jct"] = by_unit[(n, alg)][i]
                res.rows.append(row)
        return res
