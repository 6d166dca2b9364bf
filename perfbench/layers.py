"""The layer map, and direct drivers for single layers.

``layer_of`` assigns every file under ``src/repro/`` to exactly one
layer; the traced run buckets profiler spans with it and
``perfbench/tests`` fails when a new module is not mapped.

The ``micro_*`` drivers time one layer through its public API with no
profiler attached.  They say what a layer costs per operation when
nothing else runs; the README names the end-to-end metric each predicts.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Callable, Dict

from repro.core.feedback import FeedbackEngine
from repro.core.mft import MftTable, PathEntry
from repro.core.source_routing import ScalingModel
from repro.net.packet import PacketType
from repro.net.pipeline import ObserverBus
from repro.net.pool import PacketPool
from repro.net.simulator import Simulator

LAYERS = (
    "net.simulator", "net.port", "net.switch",
    "core.accelerator", "core.feedback", "core.control",
    "transport.roce", "transport.cc", "transport.spray",
    "collectives", "apps", "check", "other",
)

# Files in the packages a packet crosses are mapped one by one, so a new
# module there must be given a layer before the tests pass.
_FILES: Dict[str, str] = {
    "net/simulator.py": "net.simulator",
    "net/port.py": "net.port", "net/link.py": "net.port",
    "net/nic.py": "net.port", "net/pfc.py": "net.port",
    "net/switch.py": "net.switch", "net/pipeline.py": "net.switch",
    "net/pool.py": "net.switch", "net/packet.py": "net.switch",
    "net/topology.py": "net.switch", "net/failures.py": "net.switch",
    "net/telemetry.py": "check", "net/trace.py": "check",
    "core/accelerator.py": "core.accelerator",
    "core/mft.py": "core.accelerator",
    "core/source_switch.py": "core.accelerator",
    "core/feedback.py": "core.feedback",
    "core/mrp.py": "core.control", "core/membership.py": "core.control",
    "core/fabric.py": "core.control", "core/group.py": "core.control",
    "core/fallback.py": "core.control",
    "core/source_routing.py": "core.control",
    "transport/roce.py": "transport.roce", "transport/qp.py": "transport.roce",
    "transport/verbs.py": "transport.roce",
    "transport/memory.py": "transport.roce",
    "transport/dcqcn.py": "transport.cc", "transport/gleam.py": "transport.cc",
    "transport/spray.py": "transport.spray",
    "harness/openloop.py": "apps",
    # No workload's datapath enters these.
    "cli.py": "other", "constants.py": "other", "errors.py": "other",
}

# Whole packages with one layer.
_PACKAGES: Dict[str, str] = {
    "collectives": "collectives", "apps": "apps", "check": "check",
    "analytic": "other", "ext": "other", "harness": "other",
}


def layer_of(rel_path: str) -> str:
    """Layer of a file given its path relative to ``src/repro``.

    Raises ``KeyError`` for a file the map does not know."""
    if rel_path in _FILES:
        return _FILES[rel_path]
    if rel_path.endswith("__init__.py"):
        return "other"
    package = rel_path.split("/", 1)[0]
    if "/" in rel_path and package in _PACKAGES:
        return _PACKAGES[package]
    raise KeyError(f"perfbench layer map has no entry for {rel_path}")


# ---------------------------------------------------------------------------
# direct layer drivers
# ---------------------------------------------------------------------------

def _median_ns_per_op(body: Callable[[], int], repeats: int = 3) -> float:
    """Median over ``repeats`` of (host ns for one ``body()``) / ops."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        ops = body()
        samples.append((time.perf_counter() - t0) * 1e9 / ops)
    return statistics.median(samples)


def _noop(*_args) -> None:
    pass


def micro_simulator_event(seed: int, n: int = 100_000) -> float:
    """ns per event: ``post`` n callbacks at seeded delays, then drain."""
    rng = random.Random(seed)
    delays = [rng.random() * 1e-3 for _ in range(n)]

    def body() -> int:
        sim = Simulator()
        for d in delays:
            sim.post(d, _noop)
        return sim.run()
    return _median_ns_per_op(body)


def micro_simulator_reschedule(seed: int, n: int = 30_000) -> float:
    """ns per timer operation in the RTO pattern: arm once, re-arm on
    each of three ACKs, cancel — with the tombstones drained at the end."""
    rng = random.Random(seed)
    rtos = [1e-4 + rng.random() * 1e-4 for _ in range(n)]

    def body() -> int:
        sim = Simulator()
        for rto in rtos:
            ev = sim.schedule(rto, _noop)
            sim.reschedule(ev, rto)
            sim.reschedule(ev, rto)
            sim.reschedule(ev, rto)
            ev.cancel()
        sim.run()
        return 5 * n
    return _median_ns_per_op(body)


def micro_pool_acquire_release(n: int = 100_000) -> float:
    """ns per feedback-packet acquire + release on an unobserved bus."""
    def body() -> int:
        pool = PacketPool(ObserverBus())
        for psn in range(n):
            pool.release(pool.acquire_fb(PacketType.ACK, 1, 2, 3, 4, psn, 0.0))
        return n
    return _median_ns_per_op(body)


def _full_mft(ports: int = 64):
    table = MftTable(ports)
    mft = table.get_or_create(0x10)
    for port in range(ports):
        mft.add_entry(PathEntry(port=port, is_host=True, dst_ip=port + 1,
                                dst_qp=1))
    return table, mft


def micro_mft_lookup(n: int = 10_000) -> float:
    """ns per MFT lookup + downstream walk of a 64-port entry."""
    table, _ = _full_mft()

    def body() -> int:
        for _ in range(n):
            for _entry in table.get(0x10).iter_downstream(0):
                pass
        return n
    return _median_ns_per_op(body)


def micro_feedback_ack(n: int = 100_000) -> float:
    """ns per ``FeedbackEngine.on_ack``, round-robin over 64 ports with
    the PSN advancing once per round (so one ACK in 64 is emitted)."""
    def body() -> int:
        _, mft = _full_mft()
        engine = FeedbackEngine()
        for i in range(n):
            engine.on_ack(mft, i & 63, i >> 6)
        return n
    return _median_ns_per_op(body)


def micro_source_routing_group(seed: int, n: int = 1500) -> float:
    """us per group: the analytic source-routing scaling model
    (``ScalingModel.run``), work BENCH_quick records as 0 events."""
    model = ScalingModel()

    def body() -> int:
        model.run(n, seed)
        return n
    return _median_ns_per_op(body) / 1e3


def run_micro(seed: int) -> Dict[str, float]:
    """Every direct driver, by per-layer metric name."""
    return {
        "micro.net.simulator.ns_per_event": micro_simulator_event(seed),
        "micro.net.simulator.ns_per_reschedule":
            micro_simulator_reschedule(seed),
        "micro.net.pool.ns_per_acquire_release": micro_pool_acquire_release(),
        "micro.core.mft.ns_per_lookup": micro_mft_lookup(),
        "micro.core.feedback.ns_per_ack": micro_feedback_ack(),
        "micro.core.source_routing.us_per_group":
            micro_source_routing_group(seed),
    }
