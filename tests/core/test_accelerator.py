"""Accelerator: MDT construction, replication, bridging, filtering."""

import pytest

from repro import constants
from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.core.accelerator import AcceleratorConfig
from repro.net.packet import Packet, PacketType, RdmaOp
from repro.transport import RoceQP


def _registered_group(cluster, members=None, leader=None, mr_info=None):
    members = members or cluster.host_ips
    qps = {ip: cluster.ctx(ip).create_qp() for ip in members}
    group = cluster.fabric.create_group(qps, leader_ip=leader or members[0],
                                        mr_info=mr_info)
    cluster.fabric.register_sync(group)
    return group, qps


class TestClassify:
    def test_classifier_matrix(self, testbed):
        accel = testbed.fabric.accelerators["sw0"]
        gid = constants.MCSTID_BASE
        yes = [
            Packet(PacketType.MRP, 1, gid),
            Packet(PacketType.DATA, 1, gid),
            Packet(PacketType.ACK, 2, gid),
            Packet(PacketType.NACK, 2, gid),
            Packet(PacketType.CNP, 2, gid),
        ]
        no = [
            Packet(PacketType.DATA, 1, 2),
            Packet(PacketType.ACK, 1, 2),
            Packet(PacketType.MRP_CONFIRM, 2, 1),
            Packet(PacketType.CTRL, 1, 2),
        ]
        assert all(accel.classify(p) for p in yes)
        assert not any(accel.classify(p) for p in no)


class TestMdtConstruction:
    def test_star_mdt_single_switch(self, testbed):
        group, _ = _registered_group(testbed)
        mdt = list(testbed.fabric.mdt_switches(group.mcst_id))
        assert len(mdt) == 1

    def test_fat_tree_mdt_is_minimal_tree(self, fat_tree_cluster):
        """Members in two racks of one pod: the MDT must touch exactly
        both edges + one agg, not the cores."""
        cl = fat_tree_cluster
        group, _ = _registered_group(cl, members=[1, 2, 3, 4], leader=1)
        names = sorted(a.switch.name
                       for a in cl.fabric.mdt_switches(group.mcst_id))
        assert names[0].startswith("agg0")
        assert names[1:] == ["edge0_0", "edge0_1"]

    def test_mdt_reuses_ports_single_branch(self, fat_tree_cluster):
        """Paper Fig. 2 (A): nodes sharing a downstream path share one
        Path Table entry until the tree must branch."""
        cl = fat_tree_cluster
        group, _ = _registered_group(cl, members=[1, 3, 4], leader=1)
        edge0 = cl.fabric.accelerators["edge0_0"].mft_of(group.mcst_id)
        # hosts 3,4 are both behind the same uplink: exactly one uplink
        # entry + host 1's port (ingress) = 2 entries.
        assert len(edge0.entries()) == 2

    def test_group_level_load_balancing(self, fat_tree_cluster):
        """Different groups spread across ECMP uplinks (§III-C: 'the
        port with the lowest utilization')."""
        cl = fat_tree_cluster
        edge = cl.fabric.accelerators["edge0_0"]
        uplinks = set()
        for _ in range(6):
            group, _ = _registered_group(cl, members=[1, 5], leader=1)
            mft = edge.mft_of(group.mcst_id)
            uplinks.update(e.port for e in mft.entries()
                           if not edge.switch.is_host_port(e.port))
        assert len(uplinks) == 2  # both ECMP uplinks used across groups


class TestBridging:
    def test_receiver_sees_own_connection(self, testbed, monkeypatch):
        """Connection bridging (Fig. 4): dstIP/dstQP rewritten per
        receiver, srcIP becomes the McstID."""
        group, qps = _registered_group(testbed)
        # Snapshot header fields at interception time: the packet pool
        # recycles consumed packets, so retaining live Packet objects
        # across events would observe a later reincarnation.
        seen = {}
        spied = {qps[ip]: ip for ip in (2, 3, 4)}
        orig = RoceQP.handle_packet

        def spy(qp, pkt):
            ip = spied.get(qp)
            if ip is not None:
                seen.setdefault(ip, (pkt.dst_ip, pkt.dst_qp, pkt.src_ip))
            orig(qp, pkt)

        # RoceQP is slotted: patch the class, filter on the instance.
        monkeypatch.setattr(RoceQP, "handle_packet", spy)
        qps[1].post_send(100)
        testbed.run()
        for ip in (2, 3, 4):
            dst_ip, dst_qp, src_ip = seen[ip]
            assert dst_ip == ip
            assert dst_qp == qps[ip].qpn
            assert src_ip == group.mcst_id

    def test_write_reth_rewritten_per_receiver(self, testbed):
        mrs = {ip: testbed.ctx(ip).reg_mr(1 << 20) for ip in (2, 3, 4)}
        group, qps = _registered_group(
            testbed, mr_info={ip: (mr.addr, mr.rkey)
                              for ip, mr in mrs.items()})
        qps[1].post_write(8192, vaddr=0, rkey=0)
        testbed.run()
        for ip in (2, 3, 4):
            table = testbed.ctx(ip).mr_table
            assert table.write_hits == 1
            assert table.write_misses == 0

    def test_unregistered_group_dropped(self, testbed):
        accel = testbed.fabric.accelerators["sw0"]
        pkt = Packet(PacketType.DATA, 1, constants.MCSTID_BASE + 999,
                     payload=64)
        accel.process(pkt, 0)
        testbed.run()  # the admit stage models the accelerator delay
        assert accel.unregistered_drops == 1


class TestReplication:
    def test_ingress_pruned(self, testbed):
        """The sender never receives its own multicast."""
        group, qps = _registered_group(testbed)
        qps[1].post_send(4096)
        testbed.run()
        assert qps[1].recv.bytes_delivered == 0
        assert testbed.topo.nic(1).rx_unmatched == 0

    def test_replication_count(self, testbed):
        group, qps = _registered_group(testbed)
        accel = testbed.fabric.accelerators["sw0"]
        qps[1].post_send(constants.MTU_BYTES * 10)
        testbed.run()
        assert accel.replicas_out == 30  # 10 packets x 3 receivers

    def test_retransmit_filter_suppresses_duplicates(self):
        """Loss on one MDT branch only (middle switches of a fat-tree):
        the unaffected branch has already ACKed the retransmitted PSNs,
        so the replicating switch must not re-send them there."""
        cl = Cluster.fat_tree_cluster(4)
        cl.topo.set_loss_rate(5e-3)  # agg/core only; host 2 is same-rack
        group, qps = _registered_group(cl, members=[1, 2, 3], leader=1)
        delivered = {ip: 0 for ip in (2, 3)}
        for ip in (2, 3):
            qps[ip].on_message = (
                lambda mid, sz, now, meta, _ip=ip:
                delivered.__setitem__(_ip, delivered[_ip] + sz))
        size = constants.MTU_BYTES * 800
        qps[1].post_send(size)
        cl.run()
        filtered = sum(a.retransmits_filtered
                       for a in cl.fabric.accelerators.values())
        assert all(v == size for v in delivered.values())
        assert filtered > 0

    def test_filter_disabled_forwards_duplicates(self):
        cl = Cluster.fat_tree_cluster(
            4, accel_config=AcceleratorConfig(retransmit_filter=False))
        cl.topo.set_loss_rate(5e-3)
        group, qps = _registered_group(cl, members=[1, 2, 3], leader=1)
        size = constants.MTU_BYTES * 800
        qps[1].post_send(size)
        cl.run()
        filtered = sum(a.retransmits_filtered
                       for a in cl.fabric.accelerators.values())
        assert filtered == 0
        # delivery still exactly-once at the app: the RNIC discards dups
        for ip in (2, 3):
            assert qps[ip].recv.bytes_delivered == size


class TestFeedbackPath:
    def test_sender_receives_single_ack_stream(self, testbed):
        group, qps = _registered_group(testbed)
        qps[1].post_send(constants.MTU_BYTES * 100)
        testbed.run()
        sender = qps[1]
        total_recv_acks = sum(qps[ip].acks_sent for ip in (2, 3, 4))
        assert sender.acks_received < total_recv_acks  # aggregated
        assert sender.send_idle

    def test_sender_completion_implies_all_delivered(self, testbed):
        group, qps = _registered_group(testbed)
        events = []
        for ip in (2, 3, 4):
            qps[ip].on_message = (
                lambda mid, sz, now, meta, _ip=ip: events.append(("recv", _ip, now)))
        qps[1].post_send(
            1 << 20, on_complete=lambda mid, now: events.append(("done", 1, now)))
        testbed.run()
        done_t = [t for k, _, t in events if k == "done"][0]
        assert all(t <= done_t for k, _, t in events if k == "recv")

    def test_feedback_without_observed_source_dropped(self, testbed):
        """ACKs for a registered group with no data yet cannot be
        rewritten (no source recorded) and must not crash."""
        group, qps = _registered_group(testbed)
        accel = testbed.fabric.accelerators["sw0"]
        ack = Packet(PacketType.ACK, 2, group.mcst_id, psn=5)
        accel.process(ack, 1)
        testbed.run()
        assert qps[1].acks_received == 0
