"""Multicast source switching helpers (§III-E).

The mechanism has two halves:

* **in-network** — nothing to configure: the accelerator notices that
  multicast data enters a switch from a different tree port, re-points
  AckOutPort and resets the trigger port
  (:meth:`repro.core.accelerator.CepheusAccelerator._track_source`);
* **end-host** — the PSN Synchronization procedure between the old and
  new source, implemented by
  :meth:`repro.core.group.MulticastGroup.switch_source`.

This module adds the coordination wrapper the applications use (HPL
rotates the panel-broadcast source every iteration) plus invariant
checks the property tests rely on.  The paper notes DCT could replace
the synchronization; we keep the explicit procedure because it needs no
RNIC feature beyond plain RC.
"""

from __future__ import annotations

from typing import List

from repro.core.group import MulticastGroup
from repro.errors import GroupError

__all__ = ["SourceSwitchCoordinator", "psn_consistent"]


def psn_consistent(group: MulticastGroup) -> bool:
    """True when the current source's sqPSN equals every receiver's rqPSN.

    This is the §III-E invariant: if it holds, the first packet of the
    next transmission is accepted by every receiver; if it does not,
    receivers drop the stream as out-of-order (the Fig. 6 failure).
    """
    src_qp = group.qp_of(group.current_source)
    return all(
        group.qp_of(ip).rq_psn == src_qp.sq_psn for ip in group.receivers()
    )


class SourceSwitchCoordinator:
    """Round-robin (or explicit) source rotation inside one MG.

    The whole point of §III-E is that rotation reuses the *single*
    registered MFT — the coordinator therefore refuses to operate on an
    unregistered group, and records the number of switches so tests can
    assert no re-registration happened.
    """

    def __init__(self, group: MulticastGroup) -> None:
        self.group = group
        self.switch_count = 0
        self.history: List[int] = [group.current_source]

    def rotate(self) -> int:
        """Advance to the next member in IP order; returns the new source."""
        members = sorted(self.group.members)
        idx = members.index(self.group.current_source)
        return self.switch_to(members[(idx + 1) % len(members)])

    def switch_to(self, new_source_ip: int) -> int:
        if not self.group.registered:
            raise GroupError("source switching requires a registered group")
        if new_source_ip != self.group.current_source:
            self.group.switch_source(new_source_ip)
            self.switch_count += 1
            self.history.append(new_source_ip)
        return new_source_ip
