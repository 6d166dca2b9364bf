"""Cepheus core: the paper's contribution.

MFT + MRP registration + in-network replication/bridging + RoCE-capable
feedback handling + source switching + safeguard fallback, all executed
by accelerators attached to the simulated switches of a
:class:`~repro.core.fabric.CepheusFabric`.
"""

from repro.core.accelerator import (AcceleratorConfig, CepheusAccelerator,
                                    DEPLOYMENTS)
from repro.core.fabric import CepheusFabric
from repro.core.fallback import SafeguardMonitor
from repro.core.feedback import FeedbackConfig, FeedbackEngine
from repro.core.group import McstIdAllocator, MemberRecord, MulticastGroup
from repro.core.membership import MembershipManager
from repro.core.mft import Mft, MftTable, PathEntry
from repro.core.mrp import (HostControlAgent, MrpError, MrpPayload,
                            MrpTransaction, chunk_records)
from repro.core.source_routing import (BertAggregator, ScalingModel,
                                       SourceRoutingConfig,
                                       SourceRoutingManager, SrHeader,
                                       compute_tree, split_rules)
from repro.core.source_switch import SourceSwitchCoordinator, psn_consistent

__all__ = [
    "AcceleratorConfig", "CepheusAccelerator", "DEPLOYMENTS",
    "CepheusFabric",
    "SafeguardMonitor",
    "FeedbackConfig", "FeedbackEngine",
    "McstIdAllocator", "MemberRecord", "MulticastGroup",
    "MembershipManager",
    "Mft", "MftTable", "PathEntry",
    "HostControlAgent", "MrpError", "MrpPayload", "MrpTransaction",
    "chunk_records",
    "BertAggregator", "ScalingModel", "SourceRoutingConfig",
    "SourceRoutingManager", "SrHeader", "compute_tree", "split_rules",
    "SourceSwitchCoordinator", "psn_consistent",
]
