"""Differential test: the straight-line datapath vs its staged twin.

`Switch.receive` and `CepheusAccelerator.process` each exist twice: a
`Pipeline` of named stages that runs while the bus's ``stage`` channel
is tapped, and straight-line code that runs otherwise.  The byte goldens
pin the untapped path and the fuzz corpus the tapped one; nothing else
holds the two *equal*.  Every scenario here runs once with a no-op
``stage`` subscriber and once without, and must produce the same event
count, clock, deliveries, counters, and — packet for packet, pid for pid
— the same ordered transcript of every ``classify`` / ``drop`` /
``replicate`` / ``bridge`` / ``feedback`` / ``emit`` publication and
every pool release.

A third, observer-free run under the debug pools (where packets really
are recycled) must end in the same state, so a release the fast path
gets wrong fails fast.  The last tests attach and detach the tap while
packets sit in admission and in the look-aside detour.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import constants
from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.core.accelerator import DEPLOYMENTS, AcceleratorConfig
from repro.ext import InNetworkReduce
from repro.net.packet import Packet, PacketType
from repro.net.pipeline import DEFER
from repro.net.pool import DebugPacketPool, PacketPool
from repro.net.switch import SwitchConfig

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


def _noop_tap(pipeline, stage_name, verdict):
    pass


class Transcript:
    """Ordered record of the datapath channels plus pool releases,
    pids relative to the run's first so two runs in one process compare."""

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
            bus.subscribe(channel, getattr(self, "_on_" + channel),
                          propagate=True)
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
    (``source_routed`` has no reduce datapath and stalls in go-back-N
    until the horizon — on both paths alike, which is what is compared.)"""
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


def _run(scenario, deployment: str, monkeypatch, *, tap: bool,
         observed: bool = True) -> dict:
    """One run of ``scenario``.  ``observed=False`` is the bare run:
    no subscriber at all, debug pools armed, packets recycled."""
    with monkeypatch.context() as patch:
        if not observed:
            patch.setenv("CEPHEUS_POOL_DEBUG", "1")
        cluster = Cluster.fat_tree_cluster(
            4, switch_config=SwitchConfig(seed=3),
            accel_config=AcceleratorConfig(deployment=deployment))
        transcript = Transcript(cluster, patch) if observed else None
        if tap:
            cluster.sim.bus.subscribe("stage", _noop_tap)
        deliveries = scenario(cluster)
        if not observed:
            pool = cluster.sim.pools.pkt
            assert isinstance(pool, DebugPacketPool) and pool.suppressed == 0
        assert not cluster.sim.bus.errors
        return {
            "events": cluster.sim.events_run,
            "now": cluster.sim.now,
            "deliveries": deliveries,
            "counters": _counters(cluster),
            "transcript": transcript.rows if observed else None,
        }


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_untapped_path_equals_staged_pipeline(name, deployment, monkeypatch):
    scenario = SCENARIOS[name]
    staged = _run(scenario, deployment, monkeypatch, tap=True)
    fast = _run(scenario, deployment, monkeypatch, tap=False)
    bare = _run(scenario, deployment, monkeypatch, tap=False, observed=False)

    assert staged["transcript"], "scenario published nothing"
    for key in ("events", "now", "deliveries", "counters"):
        assert fast[key] == staged[key], key
        assert bare[key] == staged[key], f"{key} (observer-free run)"
    # Row by row, so a divergence reports the first differing publication.
    for i, (a, b) in enumerate(zip(staged["transcript"], fast["transcript"])):
        assert a == b, f"transcript row {i}"
    assert len(fast["transcript"]) == len(staged["transcript"])

    # Each scenario must actually reach the branch it is named for.
    if name == "pfc":
        assert staged["deliveries"][-1][1] > 0, "no PAUSE frame was sent"
    elif name == "lossy":
        assert _total(staged, "retransmits_filtered") > 0
        assert _total(staged, "nacks_in") > 0 and _total(staged, "cnps_in") > 0
    elif name == "unregistered":
        assert _total(staged, "unregistered_drops") > 0
    elif name == "all_filtered":
        assert any(row[1] == "replicate" and row[-1] == ()
                   for row in staged["transcript"])
    elif name == "churn":
        assert _total(staged, "mrp_records_removed") > 0    # 6 left...
        assert any(ip == 10 for ip, _n, _t in staged["deliveries"])  # 10 is in
    elif name == "write":
        assert all(hits == 1 for _ip, hits in staged["deliveries"])
    elif name == "reduce" and deployment != "source_routed":
        assert staged["deliveries"][-1] == (1, 64 * KB)
        assert len(staged["deliveries"]) == 5   # every contributor acked


# ---------------------------------------------------------------------------
# the tap attached and detached mid-flight
# ---------------------------------------------------------------------------

def _midflight(deployment: str, monkeypatch, windows):
    """A 512 KB broadcast with the ``stage`` tap live during each
    ``(on, off)`` virtual-time window, under the debug pools."""
    monkeypatch.setenv("CEPHEUS_POOL_DEBUG", "1")
    cluster = Cluster.fat_tree_cluster(
        4, accel_config=AcceleratorConfig(deployment=deployment))
    algo, _ = _bcast(cluster)
    algo.on_delivery = None   # a bare bus outside the windows: pooling on
    seen = []

    def tap(pipeline, stage_name, verdict):
        seen.append((pipeline.name, stage_name, verdict))

    bus, sim = cluster.sim.bus, cluster.sim
    t0 = sim.now
    for on, off in windows:
        sim.schedule(on, bus.subscribe, "stage", tap)
        sim.schedule(off, bus.unsubscribe, "stage", tap)
    acked = []
    algo.post(512 * KB, on_complete=lambda handle, now: acked.append(now - t0))
    cluster.run()
    assert not bus.errors
    want = 512 * KB
    received = {ip: algo.qps[ip].recv.bytes_delivered for ip in MEMBERS[1:]}
    return {
        # net of the subscribe/unsubscribe events scheduled above
        "events": sim.events_run - 2 * len(windows), "acked": acked,
        "received": received, "seen": seen,
        "complete": all(n == want for n in received.values())
        and algo.send_idle,
        "recycled": cluster.sim.pools.pkt.reused,
    }


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_tap_attached_and_detached_mid_flight(deployment, monkeypatch):
    never = _midflight(deployment, monkeypatch, windows=())
    always = _midflight(deployment, monkeypatch, windows=[(0.0, 1.0)])
    flapping = _midflight(deployment, monkeypatch,
                          windows=[(5.1e-6, 9.3e-6), (20.2e-6, 31.7e-6)])

    assert never["complete"] and always["complete"] and flapping["complete"]
    assert flapping["received"] == never["received"]      # exactly once
    assert flapping["events"] == never["events"] == always["events"]
    assert flapping["acked"] == never["acked"] == always["acked"]
    assert len(never["acked"]) == 1
    assert never["seen"] == [] and never["recycled"] > 0
    assert flapping["recycled"] > 0      # pooling resumed between windows

    # Stages that ran inside a window were published, with the triples
    # an always-tapped run publishes...
    assert flapping["seen"]
    assert set(flapping["seen"]) <= set(always["seen"])
    # ...including chains picked up past admission (and past the
    # detour): a packet admitted untapped continues under the tap.
    picked = _pickups(flapping["seen"])
    assert "mrp" in picked, picked
    if deployment == "lookaside":
        assert "lookaside_detour" in picked, picked
    assert _pickups(always["seen"]) == set()


def _pickups(seen) -> set:
    """Accelerator stages that some chain continued at under the tap
    although the stage that deferred it had run untapped: more published
    continuations than published deferrals."""
    deferred = Counter()
    picked = set()
    for pipeline, stage, verdict in seen:
        if ".accel[" not in pipeline:
            continue
        if verdict is DEFER:
            deferred[pipeline, stage] += 1
        if stage == "lookaside_detour":
            deferrer = "admit"
        elif stage == "mrp":
            deferrer = ("lookaside_detour" if "[lookaside]" in pipeline
                        else "admit")
        else:
            continue
        if deferred[pipeline, deferrer]:
            deferred[pipeline, deferrer] -= 1
        else:
            picked.add(stage)
    return picked
