"""The traced pass: per-layer self time, boundary crossings, counters.

One repeat runs under ``cProfile``.  Every profiled function is a span
whose self time is its ``tottime``; spans are bucketed by
:func:`perfbench.layers.layer_of`, and a call whose caller sits in
another layer is a boundary crossing (``<layer>.calls``).  The public
counters of each layer are read from the cluster after the repeat, at
the same boundary.  Nothing here touches ``src/``; spans recorded
inside the program are a later change.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro
from repro.apps.cluster import Cluster

from perfbench.layers import LAYERS, layer_of

_PKG_ROOT = Path(repro.__file__).resolve().parent


def _span_layer(filename: str, funcname: str) -> str:
    if filename == "~":       # a builtin; the heap is the scheduler's
        return "net.simulator" if "_heapq." in funcname else "other"
    try:
        rel = Path(filename).resolve().relative_to(_PKG_ROOT)
    except ValueError:
        return "other"        # stdlib, perfbench itself
    return layer_of(rel.as_posix())


def profile_layers(fn: Callable[[], Any], top: int = 10
                   ) -> Tuple[Any, float, Dict[str, Dict[str, Any]]]:
    """Run ``fn`` under the profiler.

    Returns its result, the traced wall-clock, and one row per layer:
    ``self_s``, ``calls`` (entries from another layer) and the ``top``
    functions by self time."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    result = prof.runcall(fn)
    wall = time.perf_counter() - t0
    rows: Dict[str, Dict[str, Any]] = {
        layer: {"self_s": 0.0, "calls": 0, "top": []} for layer in LAYERS}
    layer_cache: Dict[Tuple[str, str], str] = {}

    def layer(func) -> str:
        key = (func[0], func[2])
        if key not in layer_cache:
            layer_cache[key] = _span_layer(*key)
        return layer_cache[key]

    for func, (_cc, _nc, tottime, _ct, callers) in pstats.Stats(
            prof).stats.items():
        row = rows[layer(func)]
        row["self_s"] += tottime
        row["top"].append((tottime, f"{Path(func[0]).name}:{func[2]}"))
        for caller, (_c_cc, c_nc, _c_tt, _c_ct) in callers.items():
            if layer(caller) != layer(func):
                row["calls"] += c_nc
    for row in rows.values():
        row["top"] = [{"self_s": t, "function": name}
                      for t, name in sorted(row["top"], reverse=True)[:top]]
    return result, wall, rows


@contextmanager
def captured_clusters() -> Iterator[List[Cluster]]:
    """Collect every :class:`Cluster` built inside the block — for the
    workload whose public entry point builds its own."""
    built: List[Cluster] = []
    original = Cluster.__init__

    def recording_init(self, *args, **kwargs) -> None:
        original(self, *args, **kwargs)
        built.append(self)

    Cluster.__init__ = recording_init
    try:
        yield built
    finally:
        Cluster.__init__ = original


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def read_counters(clusters: List[Cluster]) -> Dict[str, float]:
    """The layers' public counters, summed over ``clusters``, under
    their per-layer metric names."""
    c: Counter = Counter()
    reused = created = 0
    for cluster in clusters:
        topo = cluster.topo
        ports = [p for sw in topo.switches for p in sw.ports]
        ports += [p for ip in topo.host_ips for p in topo.nic(ip).ports]
        for port in ports:
            c["net.port.tx_packets"] += port.stats.tx_packets
            c["net.port.ecn_marks"] += port.stats.ecn_marks
            c["net.port.drops"] += port.stats.drops
        for sw in topo.switches:
            c["net.switch.forwarded"] += sw.forwarded
            c["net.switch.random_drops"] += sw.random_drops
            c["net.switch.taildrops"] += sw.taildrops
        reused += cluster.sim.pools.pkt.reused
        created += cluster.sim.pools.pkt.created
        for ctx in cluster.ctxs.values():
            for qp in ctx.qps:
                c["transport.roce.tx_data_packets"] += qp.tx_data_packets
                c["transport.roce.retransmitted_packets"] += (
                    qp.retransmitted_packets)
                c["transport.roce.timeouts"] += qp.timeouts
                c["transport.roce.acks_sent"] += qp.acks_sent
                c["transport.roce.nacks_sent"] += qp.nacks_sent
                c["transport.roce.cnps_sent"] += qp.cnps_sent
                c["transport.cc.cnp_count"] += getattr(qp.cc, "cnp_count", 0)
        fabric = cluster.fabric
        for accel in fabric.accelerators.values():
            c["core.accelerator.data_in"] += accel.data_in
            c["core.accelerator.replicas_out"] += accel.replicas_out
            c["core.accelerator.retx_filtered"] += accel.retransmits_filtered
            c["core.accelerator.sr_header_hits"] += accel.sr_header_hits
            c["core.accelerator.sr_residual_hits"] += accel.sr_residual_hits
            c["core.control.mrp_records_installed"] += (
                accel.mrp_records_installed)
            for name in ("acks_in", "acks_out", "nacks_in", "nacks_out",
                         "cnps_in", "cnps_out"):
                c[f"core.feedback.{name}"] += getattr(accel.feedback, name)
        deltas = ops = 0          # Chain has no group at all
        for group in list(fabric.groups.values()):
            manager = fabric.membership(group)
            deltas += manager.mrp_deltas_sent
            ops += manager.membership_ops
        c["core.control.mrp_deltas_sent"] += deltas
        c["core.control.membership_ops"] += ops
    # No workload sprays over k > 1 paths yet; the rows exist so a later
    # lanes workload has names to report under.
    c["transport.spray.resprays"] = c["transport.spray.duplicate_segments"] = 0
    values: Dict[str, float] = dict(c)
    values["net.switch.pool_reuse_frac"] = _frac(reused, reused + created)
    acks_in = c["core.feedback.acks_in"]
    values["core.feedback.ack_absorb_frac"] = (
        1.0 - c["core.feedback.acks_out"] / acks_in if acks_in else 0.0)
    values["transport.roce.retx_frac"] = _frac(
        c["transport.roce.retransmitted_packets"],
        c["transport.roce.tx_data_packets"])
    values["core.control.deltas_per_op"] = _frac(
        c["core.control.mrp_deltas_sent"], c["core.control.membership_ops"])
    return values
