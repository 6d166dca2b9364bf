"""Exception hierarchy for the Cepheus reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An experiment or component was configured inconsistently."""


class TopologyError(ReproError):
    """A topology was malformed (unknown host, disconnected node...)."""


class RoutingError(ReproError):
    """No route exists for a destination, or a FIB entry is invalid."""


class TransportError(ReproError):
    """RoCE transport misuse (posting on a reset QP, PSN overflow...)."""


class PsnSpaceExhausted(TransportError):
    """A message would carry a PSN past the 24-bit space; PSNs do not
    wrap in this model, so the QP refuses it."""


class QPStateError(TransportError):
    """A verbs call was made against a QP in the wrong state."""


class MemoryRegionError(TransportError):
    """A one-sided operation referenced an unknown or mismatched MR."""


class RegistrationError(ReproError):
    """MFT registration failed (switch table full, member missing...)."""


class GroupError(ReproError):
    """Multicast-group management error (duplicate member, bad McstID)."""


class FallbackTriggered(ReproError):
    """Raised internally when the safeguard fallback decides to abandon
    the in-network path; callers catch it and re-run over AMcast."""
