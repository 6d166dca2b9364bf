"""Network substrate: discrete-event simulator, packets, switches, topologies.

This package is the stand-in for the paper's physical fabric (Ethernet
switches + links) and for the ns-3 simulator used in §V-C.
"""

from repro.net.failures import FailureInjector
from repro.net.link import LinkInfo, connect
from repro.net.nic import Nic
from repro.net.packet import Packet, PacketType, RdmaOp, is_multicast_ip
from repro.net.pfc import PfcManager
from repro.net.pipeline import ObserverBus
from repro.net.port import Port
from repro.net.simulator import Event, Simulator
from repro.net.switch import Switch, SwitchConfig
from repro.net.telemetry import (DeliveryTap, LatencyStats, PacketLog,
                                 QueueDepthProbe)
from repro.net.topology import Topology, dumbbell, fat_tree, star
from repro.net.trace import RunStats, ThroughputSampler, collect_run_stats

__all__ = [
    "Simulator", "Event",
    "Packet", "PacketType", "RdmaOp", "is_multicast_ip",
    "Port", "PfcManager",
    "LinkInfo", "connect",
    "Switch", "SwitchConfig",
    "ObserverBus",
    "Nic",
    "Topology", "star", "fat_tree", "dumbbell",
    "ThroughputSampler", "RunStats", "collect_run_stats",
    "FailureInjector",
    "LatencyStats", "DeliveryTap", "QueueDepthProbe", "PacketLog",
]
