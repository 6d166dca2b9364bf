"""User-declared sweeps: a grid of cells on the registry's runner."""

import io

import pytest

from repro.errors import ConfigurationError
from repro.harness.experiments import Experiment, broadcast_sweep
from repro.harness.runner import run_experiments


def _rows(exp, jobs=1):
    (res,) = run_experiments([exp], jobs=jobs, stream=io.StringIO()).results
    return res


def _fat_tree_cell(point):
    """A custom cell: its own cluster, here a k=4 fat-tree."""
    from repro.apps import Cluster
    from repro.collectives import CepheusBcast

    n, size = point
    cl = Cluster.fat_tree_cluster(4)
    return {"group": n, "cepheus_jct": CepheusBcast(
        cl, cl.host_ips[:n]).run(size).jct}


class TestSweepGrid:
    def test_full_grid_produced(self):
        res = _rows(broadcast_sweep(sizes=[4096, 1 << 16], groups=[3, 4],
                                    algorithms=["cepheus", "chain"]))
        assert len(res.rows) == 4  # 2 sizes x 2 group sizes
        assert set(res.headers) == {"group", "size", "cepheus_jct",
                                    "chain_jct"}
        assert [(r["group"], r["size"]) for r in res.rows] == [
            (3, "4KB"), (3, "64KB"), (4, "4KB"), (4, "64KB")]
        assert all(row["cepheus_jct"] > 0 for row in res.rows)

    def test_ordering_preserved_in_rows(self):
        res = _rows(broadcast_sweep(sizes=[64, 1 << 20], groups=[4],
                                    algorithms=["cepheus", "binomial"]))
        assert all(r["binomial_jct"] > r["cepheus_jct"] for r in res.rows)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            broadcast_sweep(sizes=[64], groups=[4], algorithms=["nope"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            broadcast_sweep(sizes=[], groups=[4], algorithms=["cepheus"])

    def test_parallel_matches_serial(self):
        exp = broadcast_sweep(sizes=[4096, 1 << 16], groups=[3, 4],
                              algorithms=["cepheus", "chain"])
        serial, parallel = _rows(exp), _rows(exp, jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.headers == serial.headers

    def test_custom_cluster_factory(self):
        """A sweep on another fabric is a grid with its own cell."""
        exp = Experiment("sweep", "fat-tree sweep", ["group", "cepheus_jct"],
                         grid=[(4, 4096)], cell=_fat_tree_cell)
        res = _rows(exp)
        assert len(res.rows) == 1 and res.rows[0]["cepheus_jct"] > 0
