"""Queue-pair state containers.

The mutable protocol engine lives in :mod:`repro.transport.roce`; this
module holds the passive state types: the QP lifecycle states from the
IB spec (collapsed to the ones the simulation distinguishes), the
send-queue message records, and receive-side reassembly state.

PSNs are modelled as plain integers rather than 24-bit wrapping
counters: no experiment in the paper sends anywhere near 2^24 packets
per QP, and non-wrapping PSNs keep every min/ordering comparison in the
Cepheus feedback aggregation trivially correct.  (A production switch
implements the same comparisons with serial-number arithmetic.)  They
are bounded all the same: ``RoceQP.post_send`` refuses a message that
would pass :data:`repro.constants.PSN_SPACE`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.packet import RdmaOp

__all__ = ["QpStateName", "SendMessage", "RecvState", "psn_tx_hook"]

#: Test-only fault-injection hook.  When set to a callable
#: ``hook(qp, psn) -> int``, the RoCE engine stamps the returned value
#: as the wire PSN of every outgoing DATA packet (the QP's internal
#: sequencing state is untouched).  The mutation smoke tests use it to
#: deliberately skip a PSN and prove the InvariantMonitor flags the
#: violation — a guard against false negatives in the checker itself.
#: Production code must leave it as None.
psn_tx_hook: Optional[Callable[[Any, int], int]] = None


class QpStateName(enum.Enum):
    """QP lifecycle (RESET -> RTS covers everything the model needs)."""

    RESET = "reset"
    RTS = "rts"        # connected: ready to send and receive
    ERROR = "error"


@dataclass(slots=True)
class SendMessage:
    """One posted work request occupying PSNs [first_psn, last_psn]."""

    msg_id: int
    size: int
    op: RdmaOp
    first_psn: int
    last_psn: int
    vaddr: int = 0
    rkey: int = 0
    on_complete: Optional[Callable[[int, float], None]] = None
    on_sent: Optional[Callable[[int, float], None]] = None
    meta: Any = None
    sent_notified: bool = False


@dataclass(slots=True)
class RecvState:
    """Receive-side reassembly of the in-order byte stream."""

    cur_msg_id: Optional[int] = None
    cur_bytes: int = 0
    cur_write_valid: bool = True
    messages_delivered: int = 0
    bytes_delivered: int = 0
