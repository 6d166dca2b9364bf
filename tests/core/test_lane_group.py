"""k-lane group lifecycle: family allocation, teardown, ID recycling.

Regression coverage for the per-lane unregister path: a k-lane group
must retire *every* lane's MFT, every lane's residual source-routing
rules (each lane compiles its own header), and release the whole
McstID family — tearing down lane 0 alone leaks k-1 ids and their
switch state, which a register/unregister churn loop turns into
range exhaustion.
"""

import pytest

from repro.apps import Cluster
from repro.core.accelerator import AcceleratorConfig
from repro.errors import GroupError


def _cluster(deployment="inline", k=4):
    return Cluster.fat_tree_cluster(
        k, accel_config=AcceleratorConfig(deployment=deployment))


def _lane_group(cl, paths, nmembers=4, members=None):
    members = members or cl.topo.host_ips[:nmembers]
    lane_members = [{ip: cl.ctx(ip).create_qp() for ip in members}
                    for _ in range(paths)]
    return cl.fabric.create_group(lane_members[0], leader_ip=members[0],
                                  lane_members=lane_members)


class TestFamilyAllocation:
    def test_family_ids_are_unique(self):
        cl = _cluster()
        group = _lane_group(cl, 3)
        assert len(set(group.lane_ids)) == 3
        assert group.lane_ids[0] == group.mcst_id

    def test_every_lane_id_resolves_to_the_group(self):
        cl = _cluster()
        group = _lane_group(cl, 3)
        for lane_id in group.lane_ids:
            assert cl.fabric.groups[lane_id] is group


class TestFamilyTeardown:
    @pytest.mark.parametrize("deployment",
                             ("inline", "lookaside", "source_routed"))
    def test_unregister_retires_every_lane(self, deployment):
        cl = _cluster(deployment)
        fabric = cl.fabric
        group = _lane_group(cl, 3)
        fabric.register_sync(group)
        lane_ids = list(group.lane_ids)
        # every lane compiled an MFT on at least one switch
        assert any(accel.table.get(gid) is not None
                   for gid in lane_ids
                   for accel in fabric.accelerators.values())
        fabric.unregister(group)
        for gid in lane_ids:
            assert gid not in fabric.groups
            for accel in fabric.accelerators.values():
                assert accel.table.get(gid) is None
        assert fabric.alloc.live_count == 0

    def test_unregister_releases_per_lane_sr_state(self):
        """The regression: lanes 1..k-1 compiled their own headers, so
        their residual rules must be released too — not just lane 0's."""
        cl = _cluster("source_routed")
        fabric = cl.fabric
        group = _lane_group(cl, 3)
        fabric.register_sync(group)
        sr = fabric.source_routing
        assert set(group.lane_ids) <= set(sr._states)
        fabric.unregister(group)
        for gid in group.lane_ids:
            assert gid not in sr._states

    def test_mcst_id_family_recycles(self):
        """Register/unregister churn with k>1 must not leak ids."""
        cl = _cluster()
        fabric = cl.fabric
        first = None
        for _ in range(5):
            group = _lane_group(cl, 4)
            fabric.register_sync(group)
            ids = set(group.lane_ids)
            if first is None:
                first = ids
            else:
                assert ids == first  # recycled, not freshly allocated
            fabric.unregister(group)
            assert fabric.alloc.live_count == 0

    def test_double_release_is_rejected(self):
        cl = _cluster()
        group = _lane_group(cl, 2)
        cl.fabric.unregister(group)
        with pytest.raises(GroupError):
            cl.fabric.alloc.release(group.lane_ids[1])


class TestLaneTreesAgree:
    """One tree walk, one lane-port rule: the tree the sender compiles,
    the tree failure injection aims at and the tree the switches build
    hop by hop are the same per-lane trees."""

    MEMBERS = [1, 2, 7, 18, 35, 64, 97, 128]    # every pod of fat_tree(8)

    @pytest.mark.parametrize("paths", (1, 2, 4))
    def test_compiled_headers_match_the_predicted_trees(self, paths):
        cl = _cluster("source_routed", k=8)
        group = _lane_group(cl, paths, members=self.MEMBERS)
        cl.fabric.register_sync(group)
        trees = cl.topo.edge_disjoint_trees(1, self.MEMBERS, paths)
        for lane_id, tree in zip(group.lane_ids, trees):
            st = cl.fabric.source_routing._states[lane_id]
            assert {**st.header.rules, **st.spilled} == tree

    @pytest.mark.parametrize("paths", (1, 2, 4))
    def test_lane_uplinks_aim_at_exactly_one_lanes_tree(self, paths):
        cl = _cluster(k=8)
        trees = cl.topo.edge_disjoint_trees(1, self.MEMBERS, paths)
        uplinks = cl.topo.lane_uplinks(1, self.MEMBERS, paths)
        for lane, (sw, port) in enumerate(uplinks):
            owners = [l for l, tree in enumerate(trees)
                      if tree.get(sw.name, 0) >> port & 1]
            assert owners == [lane]

    @pytest.mark.parametrize("paths", (2, 4))
    def test_switches_install_the_predicted_trees(self, paths):
        cl = _cluster(k=8)
        group = _lane_group(cl, paths, members=self.MEMBERS)
        cl.fabric.register_sync(group)
        trees = cl.topo.edge_disjoint_trees(1, self.MEMBERS, paths)
        for lane_id, tree in zip(group.lane_ids, trees):
            installed = {}
            for name, accel in cl.fabric.accelerators.items():
                mft = accel.table.get(lane_id)
                if mft is not None:
                    installed[name] = sum(1 << e.port for e in mft.entries())
            assert installed == tree
