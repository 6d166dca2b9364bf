"""Shared modelling constants for the Cepheus reproduction.

All times are in seconds, all bandwidths in bits per second, and all
sizes in bytes unless a name says otherwise.  The values below are the
defaults used by the test-bed- and simulation-scale experiments; every
experiment can override them through the corresponding config objects
(:class:`repro.net.switch.SwitchConfig`, :class:`repro.transport.roce.RoceConfig`,
...).  Calibration notes refer to section V of the paper.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Link-level defaults (paper: 100 Gbps NICs and switch ports everywhere).
# --------------------------------------------------------------------------

LINK_BANDWIDTH_BPS: float = 100e9
"""Default link rate: 100 Gbps (ConnectX-5 NIC, 64x100G switch)."""

LINK_PROPAGATION_S: float = 600e-9
"""Per-hop propagation + fixed switching delay.

Datacenter cables are O(100ns); commodity switch pipelines add a few
hundred ns of cut-through/store-and-forward latency.  600 ns per hop
reproduces the few-microsecond base RTTs of RoCE test-beds.
"""

MTU_BYTES: int = 4096
"""RoCE path MTU (ConnectX-5 supports 4096-byte RoCE MTU)."""

HEADER_BYTES: int = 58
"""Per-packet wire overhead: Eth(14)+IPv4(20)+UDP(8)+BTH(12)+ICRC(4)."""

ACK_BYTES: int = 62
"""ACK/NACK packet wire size: headers + AETH(4)."""

CNP_BYTES: int = 74
"""CNP packet wire size (BTH + 16-byte reserved payload per RoCEv2 annex)."""

MRP_MTU_BYTES: int = 1500
"""The MRP control protocol is constrained to the standard Ethernet MTU."""

SR_BASE_BYTES: int = 8
"""Fixed part of the source-routing header extension: epoch(2) +
fallback rule key(4) + rule count(2).  The McstID rides in dstIP."""

SR_RULE_BUDGET_BYTES: int = 64
"""Per-packet budget for sp-rules carried in the header extension
(Elmo bounds the header; trees that overflow spill to residual state)."""

SR_RESIDUAL_RULE_CAP: int = 32
"""Residual-table entries per switch in the scaling model: overflow
groups beyond this degrade to the per-switch default rule (Elmo) or
union-merge into an existing shared rule (Bert)."""

MRP_NODES_PER_PACKET: int = 183
"""Max receiver records per MRP packet (paper, Fig. 5: 1500-byte MTU)."""

# --------------------------------------------------------------------------
# Switch defaults.
# --------------------------------------------------------------------------

SWITCH_PORT_COUNT: int = 64
"""Radix assumed by the scalability analysis (64x100G)."""

SWITCH_QUEUE_BYTES: int = 16_000_000
"""Per-egress-port buffer cap.

This approximates a *shared* switch buffer (tens of MB on commodity
64x100G silicon): only congested ports consume it, and PFC's per-ingress
XOFF watermark (512 KB) pauses senders long before any port reaches the
cap, so RoCE's lossless assumption holds under fan-in — exactly the
deployment the paper prescribes ('we recommend deploying Cepheus in a
lossless network with PFC enabled').  Loss experiments inject drops
explicitly instead of relying on overflow."""

ECN_KMIN_BYTES: int = 100_000
"""RED/ECN min threshold (DCQCN deployment guidance ~100 KB at 100G)."""

ECN_KMAX_BYTES: int = 400_000
"""RED/ECN max threshold."""

ECN_PMAX: float = 0.2
"""Marking probability at KMAX."""

PFC_XOFF_BYTES: int = 512_000
"""Ingress occupancy that triggers a PAUSE toward the upstream device."""

PFC_XON_BYTES: int = 256_000
"""Ingress occupancy below which a RESUME is sent."""

ACCELERATOR_DELAY_S: float = 300e-9
"""Extra per-packet processing delay in the Cepheus FPGA accelerator.

The prototype adds one switch->FPGA->switch traversal; the FPGA pipeline
runs at line rate so the cost is a small fixed latency.
"""

# --------------------------------------------------------------------------
# RoCE RC transport defaults.
# --------------------------------------------------------------------------

ROCE_ACK_COALESCE: int = 4
"""Receiver generates one ACK per this many in-order data packets
(plus always on the last packet of a message)."""

ROCE_RTO_S: float = 1e-3
"""Retransmission (safeguard) timeout.  CX-5 default is on the order of
milliseconds; the paper relies on it as the reliability backstop."""

ROCE_MAX_OUTSTANDING_PKTS: int = 256
"""Cap on unacknowledged packets in flight (IB RC window, ~1 BDP+)."""

PSN_SPACE: int = 1 << 24
"""The BTH carries a 24-bit PSN.  PSNs do not wrap in this model: a QP
refuses a message that would cross this bound (docs/PROTOCOL.md)."""

HOST_STACK_SEND_S: float = 1.2e-6
"""End-host software cost to post one message (verbs + MPI shim).

This is the per-traversal cost the paper blames for BT/Chain latency:
'messages ... go through the end-host stacks multiple times at every
node'.  Calibrated so a 64 B 1->3 BT broadcast lands in the few-10s-of-us
band of Fig. 8.
"""

HOST_STACK_RECV_S: float = 1.0e-6
"""End-host software cost to reap a completion and hand data to the app."""

HOST_STACK_RELAY_EXTRA_S: float = 3.0e-6
"""Extra cost when an *intermediate* node turns a receive into a send:
MPI progress-engine polling, matching, and the rendezvous round of the
relay path.  Cepheus never pays this (the message crosses end-host
stacks exactly once); AMcast relays pay it at every hop, which is what
widens the small-message gap in Fig. 8 to the paper's 2.5-5.2x band."""

# --------------------------------------------------------------------------
# DCQCN defaults (Zhu et al., SIGCOMM'15; CX-5-like).
# --------------------------------------------------------------------------

DCQCN_ALPHA_G: float = 1.0 / 16.0
"""g: weight of new congestion information in the alpha EWMA."""

DCQCN_ALPHA_TIMER_S: float = 55e-6
"""Alpha update timer when no CNP arrives."""

DCQCN_RATE_INCREASE_TIMER_S: float = 55e-6
"""Rate-increase timer period."""

DCQCN_BYTE_COUNTER: int = 10 * 1024 * 1024
"""Byte counter threshold for increase events (10 MB)."""

DCQCN_RAI_BPS: float = 5e9 / 10
"""Additive increase step R_AI (500 Mbps at 100G-scale networks)."""

DCQCN_RHAI_BPS: float = 5e9
"""Hyper increase step R_HAI."""

DCQCN_F: int = 5
"""Threshold of timer/byte-counter events before leaving fast recovery."""

DCQCN_MIN_RATE_BPS: float = 100e6
"""Rate floor."""

CNP_MIN_INTERVAL_S: float = 50e-6
"""NP-side minimum interval between CNPs per flow (CX-5: 50 us)."""

# --------------------------------------------------------------------------
# Cepheus control/feedback defaults.
# --------------------------------------------------------------------------

MCSTID_BASE: int = 0xE000_0000
"""McstIDs are allocated from this reserved 32-bit range; anything at or
above it is classified as multicast by switch ACLs."""

VIRTUAL_DST_QP: int = 0x1
"""The reserved dstQP installed in every member's virtual remote."""

CNP_AGING_WINDOW_S: float = 200e-6
"""Congestion-counter aging window of the CNP filter."""

MFT_BYTES_PER_GROUP_64P: int = 724
"""Model of MFT memory per group at 64 ports (paper: 1K groups ~ 0.69 MB).

Path Index: 64 x 1 B. Path Table: 64 entries x ~10 B (dstIP 4, dstQP 3,
AckPSN 3). Group state: ~20 B.  0.69 MB / 1024 groups ~= 707 B; we round
up to include the per-group WRITE MR records.
"""

FALLBACK_GOODPUT_THRESHOLD: float = 0.5
"""Safeguard fallback triggers when goodput drops below this fraction of
the expected no-loss goodput (paper: 'e.g., 50%')."""

# --------------------------------------------------------------------------
# Storage application defaults (calibrated to Table I / Fig. 10).
# --------------------------------------------------------------------------

STORAGE_STACK_PER_IO_S: float = 0.70e-6
"""Client-side storage-protocol-stack cost per submitted IO copy.

Calibrated so sustained 8 KB one-to-one writes saturate near the paper's
1.188 M IOPS (the paper states the bottleneck 'lies in the storage
protocol stack at end-host')."""

STORAGE_SERVER_PER_IO_S: float = 0.6e-6
"""Server-side cost to land one IO (NVMe submission path)."""

STORAGE_QUEUE_DEPTH: int = 32
"""Outstanding IOs the client keeps in flight for the IOPS experiment."""
