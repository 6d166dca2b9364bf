"""Recorded transcripts: the one datapath held to its retired reference.

`Switch.receive` and `CepheusAccelerator.process` used to exist twice — a
`Pipeline` of named stages beside the straight-line code every
experiment ran.  Before the staged twin was deleted, its leg of this
suite wrote one record per scenario x deployment into the golden store
(`tests/harness/golden_bytes/datapath_transcripts.json`): a SHA-256
over the full ordered transcript — packet for packet, pid for pid — of
every ``classify`` / ``drop`` / ``replicate`` / ``bridge`` / ``feedback``
/ ``emit`` publication and every pool release, with its row count, the
simulator's event count, the final clock and a digest of the counters.
The straight-line leg reproduced every record at that commit; the one
remaining path is held to them here.

A second, observer-free run under the debug pools (where packets really
are recycled) must end in the same state, so a wrong release fails
fast.  The last test attaches and detaches an observer mid-flight.

Regenerating after an *intentional* datapath change (say in the commit
why the transcripts moved):

    GOLDEN_BYTES_REGEN=1 PYTHONPATH=src python -m pytest \
        tests/core/test_datapath_transcripts.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import constants
from repro.apps import Cluster
from repro.collectives import CepheusBcast, InNetworkReduce
from repro.core.accelerator import DEPLOYMENTS, AcceleratorConfig
from repro.errors import ConfigurationError
from repro.net.packet import Packet, PacketType
from repro.net.pool import DebugPacketPool, PacketPool
from repro.net.switch import SwitchConfig

RECORDS = (Path(__file__).parents[1] / "harness" / "golden_bytes"
           / "datapath_transcripts.json")
REGEN = os.environ.get("GOLDEN_BYTES_REGEN") == "1"
#: The one scenario x deployment pair the fabric refuses at set-up.
REFUSED = ("reduce", "source_routed")

KB = 1 << 10
MEMBERS = [1, 2, 3, 5, 6, 9, 13]   # same edge, same pod, three other pods
ACCEL_COUNTERS = (
    "data_in", "replicas_out", "retransmits_filtered", "unregistered_drops",
    "source_switches_seen", "lookaside_detours", "sr_header_hits",
    "sr_residual_hits", "sr_prunes", "mrp_records_installed",
    "mrp_records_removed")
FEEDBACK_COUNTERS = ("acks_in", "acks_out", "nacks_in", "nacks_out",
                     "cnps_in", "cnps_out")
TRANSCRIPT_CHANNELS = ("classify", "drop", "replicate", "bridge",
                       "feedback", "emit")


class Transcript:
    """Ordered record of the datapath channels plus pool releases.
    Pids are relative to the run's first and rkeys ordinal (both
    counters are process-global), so the rows do not depend on what ran
    earlier in the process."""

    def __init__(self, cluster: Cluster, monkeypatch) -> None:
        self.sim = cluster.sim
        self.rows = []
        self.pid0 = Packet(PacketType.CTRL, 0, 0).pid + 1
        self.rkeys = {0: 0}   # rkeys are process-global too: use ordinals
        self.engine_home = {
            id(accel.feedback): name
            for name, accel in cluster.fabric.accelerators.items()}
        bus = cluster.sim.bus
        for channel in TRANSCRIPT_CHANNELS:
            bus.subscribe(channel, getattr(self, "_on_" + channel))
        release = PacketPool.release
        pool = cluster.sim.pools.pkt

        def recording_release(this, pkt):
            if this is pool:
                self._row("release", pkt.pid - self.pid0)
            release(this, pkt)

        monkeypatch.setattr(PacketPool, "release", recording_release)

    def _row(self, *row) -> None:
        self.rows.append((self.sim.now,) + row)

    def _pkt(self, pkt):
        return (pkt.pid - self.pid0, int(pkt.ptype), pkt.src_ip, pkt.dst_ip,
                pkt.dst_qp, pkt.psn, pkt.vaddr,
                self.rkeys.setdefault(pkt.rkey, len(self.rkeys)))

    def _on_classify(self, switch, pkt, in_port):
        self._row("classify", switch.name, self._pkt(pkt), in_port)

    def _on_drop(self, device, pkt, port, reason):
        self._row("drop", getattr(device, "name", type(device).__name__),
                  self._pkt(pkt), port, reason)

    def _on_replicate(self, accel, mft, pkt, in_port, targets):
        self._row("replicate", accel.switch.name, mft.mcst_id,
                  self._pkt(pkt), in_port, tuple(e.port for e in targets))

    def _on_bridge(self, accel, mft, replica, entry):
        self._row("bridge", accel.switch.name, mft.mcst_id,
                  self._pkt(replica), entry.port)

    def _on_feedback(self, engine, mft, kind, in_port, value, emits):
        self._row("feedback", self.engine_home[id(engine)], mft.mcst_id,
                  int(kind), in_port, value,
                  tuple((int(t), psn) for t, psn in emits))

    def _on_emit(self, switch, pkt, out_port, in_port):
        self._row("emit", switch.name, self._pkt(pkt), out_port, in_port)


def _counters(cluster: Cluster) -> dict:
    """Every counter perfbench's trace.py reads, per object (plus the
    accelerator's remaining instrumentation)."""
    topo = cluster.topo
    out = {}
    ports = [p for sw in topo.switches for p in sw.ports]
    ports += [p for ip in topo.host_ips for p in topo.nic(ip).ports]
    out["ports"] = [(p.stats.tx_packets, p.stats.ecn_marks, p.stats.drops)
                    for p in ports]
    out["switches"] = [(sw.name, sw.forwarded, sw.random_drops, sw.taildrops)
                       for sw in topo.switches]
    out["qps"] = [
        (ip, qp.qpn, qp.tx_data_packets, qp.retransmitted_packets,
         qp.timeouts, qp.acks_sent, qp.nacks_sent, qp.cnps_sent,
         getattr(qp.cc, "cnp_count", 0), qp.recv.bytes_delivered)
        for ip, ctx in sorted(cluster.ctxs.items()) for qp in ctx.qps]
    out["accels"] = {
        name: dict(
            {c: getattr(accel, c) for c in ACCEL_COUNTERS},
            **{c: getattr(accel.feedback, c) for c in FEEDBACK_COUNTERS})
        for name, accel in sorted(cluster.fabric.accelerators.items())}
    return out


def _total(outcome: dict, counter: str) -> int:
    return sum(row[counter] for row in outcome["counters"]["accels"].values())


# ---------------------------------------------------------------------------
# scenarios: each builds its traffic on ``cluster`` and returns the
# per-receiver deliveries it saw
# ---------------------------------------------------------------------------

def _bcast(cluster: Cluster, members=MEMBERS):
    algo = CepheusBcast(cluster, members)
    algo.prepare()
    assert not algo.fell_back, algo.fallback_reason
    deliveries = []
    algo.on_delivery = (lambda ip, handle, nbytes, now, meta:
                        deliveries.append((ip, nbytes, now)))
    return algo, deliveries


def scenario_lossless(cluster: Cluster):
    algo, deliveries = _bcast(cluster)
    for size in (64, 4 * KB, 96 * KB):
        algo.post(size)
        cluster.run()
    return deliveries


def scenario_pfc(cluster: Cluster):
    """XOFF two packets deep: every replicating switch pauses its
    upstream, so PAUSE/RESUME frames (whose pids are drawn inside
    ``emit``, between a packet's replicas) cross switch ingresses."""
    for sw in cluster.topo.switches:
        sw.pfc.xoff_bytes = 2 * constants.MTU_BYTES
        sw.pfc.xon_bytes = constants.MTU_BYTES
    algo, deliveries = _bcast(cluster)
    algo.post(128 * KB)
    cluster.run()
    return deliveries + [
        ("pause", sum(sw.pfc.pause_frames_sent
                      for sw in cluster.topo.switches))]


def scenario_lossy(cluster: Cluster):
    """1e-3 random loss in the fabric plus unicast cross-flows into two
    receivers' downlinks: NACK aggregation, the retransmission filter
    and the CNP filter all fire."""
    cluster.topo.set_loss_rate(1e-3, ("agg", "core"))
    algo, deliveries = _bcast(cluster)
    for src, dst in ((4, 5), (7, 9)):
        cluster.qp_to(src, dst).post_send(768 * KB)
    algo.post(1536 * KB)
    cluster.run()
    return deliveries


def scenario_write(cluster: Cluster):
    """Multicast WRITE: the leaf bridges vaddr/rkey per receiver."""
    members = [1, 2, 3, 9]
    mrs = {ip: cluster.ctx(ip).reg_mr(1 << 20) for ip in members[1:]}
    qps = {ip: cluster.ctx(ip).create_qp() for ip in members}
    group = cluster.fabric.create_group(
        qps, leader_ip=1,
        mr_info={ip: (mr.addr, mr.rkey) for ip, mr in mrs.items()})
    cluster.fabric.register_sync(group)
    qps[1].post_write(12 * constants.MTU_BYTES, vaddr=0, rkey=0)
    cluster.run()
    return [(ip, cluster.ctx(ip).mr_table.write_hits) for ip in members[1:]]


def scenario_churn(cluster: Cluster):
    """A member joins and another leaves while a message is in flight."""
    algo, deliveries = _bcast(cluster)
    sim = cluster.sim
    sim.schedule(8e-6, algo.start_join, 10)
    sim.schedule(14e-6, algo.start_leave, 6)
    algo.post(256 * KB)
    cluster.run()
    algo.post(32 * KB)
    cluster.run()
    return deliveries


def scenario_reduce(cluster: Cluster):
    """Many-to-one mode: contributions combine up, feedback fans down.
    (``source_routed`` has no reduce datapath: ``prepare`` refuses it,
    so that pair has no record.)"""
    red = InNetworkReduce(cluster, [1, 2, 3, 5, 9])
    red.prepare()
    done = []
    for ip in red.members[1:]:
        red.qps[ip].post_send(
            64 * KB, on_complete=lambda mid, now, ip=ip: done.append((ip, now)))
    cluster.run(until=cluster.sim.now + 300e-6)
    return done + [(red.root, red.qps[red.root].recv.bytes_delivered)]


def scenario_unregistered(cluster: Cluster):
    """DATA toward a McstID no switch knows: dropped at the first
    accelerator, every go-back-N retry included."""
    qp = cluster.ctx(1).create_qp()
    qp.connect(constants.MCSTID_BASE + 0x77, 0x100)
    qp.post_send(2 * constants.MTU_BYTES)
    cluster.run(until=2e-3)
    return []


def scenario_all_filtered(cluster: Cluster):
    """A retransmission every subtree already acknowledged: the
    replicate decision filters every target and the packet dies in the
    accelerator."""
    algo, deliveries = _bcast(cluster)
    algo.post(8 * KB)
    cluster.run()
    src = algo.qps[1]
    for psn in (0, 1):
        cluster.topo.nic(1).send(Packet(
            PacketType.DATA, 1, algo.group.mcst_id, src_qp=src.qpn,
            dst_qp=src.dst_qp, psn=psn, payload=constants.MTU_BYTES,
            retransmit=True, created_at=cluster.sim.now))
    cluster.run()
    return deliveries


SCENARIOS = {
    "lossless": scenario_lossless,
    "pfc": scenario_pfc,
    "lossy": scenario_lossy,
    "write": scenario_write,
    "churn": scenario_churn,
    "reduce": scenario_reduce,
    "unregistered": scenario_unregistered,
    "all_filtered": scenario_all_filtered,
}


def _run(scenario, deployment: str, monkeypatch, *, observed: bool) -> dict:
    """One run of ``scenario``.  ``observed=False`` is the bare run:
    no subscriber at all, debug pools armed, packets recycled."""
    with monkeypatch.context() as patch:
        if not observed:
            patch.setenv("CEPHEUS_POOL_DEBUG", "1")
        cluster = Cluster.fat_tree_cluster(
            4, switch_config=SwitchConfig(seed=3),
            accel_config=AcceleratorConfig(deployment=deployment))
        transcript = Transcript(cluster, patch) if observed else None
        deliveries = scenario(cluster)
        if not observed:
            pool = cluster.sim.pools.pkt
            assert isinstance(pool, DebugPacketPool) and pool.suppressed == 0
        return {
            "events": cluster.sim.events_run,
            "now": cluster.sim.now,
            "deliveries": deliveries,
            "counters": _counters(cluster),
            "transcript": transcript.rows if observed else None,
        }


def _record(outcome: dict) -> dict:
    """What the golden store keeps of one observed run."""
    digest = hashlib.sha256()
    for row in outcome["transcript"]:
        digest.update(repr(row).encode() + b"\n")
    counters = json.dumps(outcome["counters"], sort_keys=True).encode()
    return {"digest": digest.hexdigest(), "rows": len(outcome["transcript"]),
            "events": outcome["events"], "now": outcome["now"],
            "counters": hashlib.sha256(counters).hexdigest()}


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_matches_recorded_transcript(name, deployment, monkeypatch):
    scenario = SCENARIOS[name]
    if (name, deployment) == REFUSED:
        cluster = Cluster.fat_tree_cluster(
            4, accel_config=AcceleratorConfig(deployment=deployment))
        with pytest.raises(ConfigurationError, match="source_routed"):
            scenario(cluster)
        return
    seen = _run(scenario, deployment, monkeypatch, observed=True)
    bare = _run(scenario, deployment, monkeypatch, observed=False)

    assert seen["transcript"], "scenario published nothing"
    for key in ("events", "now", "deliveries", "counters"):
        assert bare[key] == seen[key], f"{key} (observer-free run)"

    # Each scenario must actually reach the branch it is named for.
    if name == "pfc":
        assert seen["deliveries"][-1][1] > 0, "no PAUSE frame was sent"
    elif name == "lossy":
        assert _total(seen, "retransmits_filtered") > 0
        assert _total(seen, "nacks_in") > 0 and _total(seen, "cnps_in") > 0
    elif name == "unregistered":
        assert _total(seen, "unregistered_drops") > 0
    elif name == "all_filtered":
        assert any(row[1] == "replicate" and row[-1] == ()
                   for row in seen["transcript"])
    elif name == "churn":
        assert _total(seen, "mrp_records_removed") > 0    # 6 left...
        assert any(ip == 10 for ip, _n, _t in seen["deliveries"])  # 10 is in
    elif name == "write":
        assert all(hits == 1 for _ip, hits in seen["deliveries"])
    elif name == "reduce":
        assert seen["deliveries"][-1] == (1, 64 * KB)
        assert len(seen["deliveries"]) == 5   # every contributor acked

    key = f"{name}/{deployment}"
    records = json.loads(RECORDS.read_text()) if RECORDS.exists() else {}
    if REGEN:
        records[key] = _record(seen)
        RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {key} in {RECORDS.name}")
    assert key in records, (
        f"no record for {key} in {RECORDS}; generate with GOLDEN_BYTES_REGEN=1")
    assert _record(seen) == records[key]


def test_store_holds_only_the_transcripts():
    """The golden store is this suite's alone — one record per scenario
    x deployment the fabric accepts.  The quick-suite tables have their
    one exact record in ``benchmarks/baselines/BENCH_quick.json``."""
    assert [p.name for p in RECORDS.parent.iterdir()] == [RECORDS.name]
    want = {f"{name}/{deployment}" for name in SCENARIOS
            for deployment in DEPLOYMENTS} - {"/".join(REFUSED)}
    assert set(json.loads(RECORDS.read_text())) == want


# ---------------------------------------------------------------------------
# an observer attached and detached mid-flight
# ---------------------------------------------------------------------------

def _noop_observer(switch, pkt, out_port, in_port):
    pass


def _midflight(deployment: str, monkeypatch, windows):
    """A 512 KB broadcast with an ``emit`` subscriber live during each
    ``(on, off)`` virtual-time window, under the debug pools."""
    monkeypatch.setenv("CEPHEUS_POOL_DEBUG", "1")
    cluster = Cluster.fat_tree_cluster(
        4, accel_config=AcceleratorConfig(deployment=deployment))
    algo, _ = _bcast(cluster)
    algo.on_delivery = None   # a bare bus outside the windows: pooling on
    bus, sim = cluster.sim.bus, cluster.sim
    t0 = sim.now
    for on, off in windows:
        sim.schedule(on, bus.subscribe, "emit", _noop_observer)
        sim.schedule(off, bus.unsubscribe, "emit", _noop_observer)
    acked = []
    algo.post(512 * KB, on_complete=lambda handle, now: acked.append(now - t0))
    cluster.run()
    want = 512 * KB
    received = {ip: algo.qps[ip].recv.bytes_delivered for ip in MEMBERS[1:]}
    return {
        # net of the subscribe/unsubscribe events scheduled above
        "events": sim.events_run - 2 * len(windows), "acked": acked,
        "received": received,
        "complete": all(n == want for n in received.values())
        and algo.send_idle,
        "recycled": cluster.sim.pools.pkt.reused,
    }


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_observer_attached_and_detached_mid_flight(deployment, monkeypatch):
    """Packets sit in admission, in the look-aside detour and in queues
    while the observer comes and goes: neither the run nor the pools
    may notice."""
    never = _midflight(deployment, monkeypatch, windows=())
    always = _midflight(deployment, monkeypatch, windows=[(0.0, 1.0)])
    flapping = _midflight(deployment, monkeypatch,
                          windows=[(5.1e-6, 9.3e-6), (20.2e-6, 31.7e-6)])

    assert never["complete"] and always["complete"] and flapping["complete"]
    assert flapping["received"] == never["received"]      # exactly once
    assert flapping["events"] == never["events"] == always["events"]
    assert flapping["acked"] == never["acked"] == always["acked"]
    assert len(never["acked"]) == 1
    assert never["recycled"] > 0
    assert flapping["recycled"] > 0      # pooling resumed between windows
