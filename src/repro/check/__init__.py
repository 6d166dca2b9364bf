"""Online protocol-invariant checking for the Cepheus fabric.

`repro.check` is correctness tooling, not simulation machinery: the
:class:`~repro.check.invariants.InvariantMonitor` subscribes to the
simulation's :class:`~repro.net.pipeline.ObserverBus` channels and
asserts the paper's reliability invariants (§III-D, §V) on every event.
The fuzz campaign (:mod:`repro.harness.fuzz`, chaos and churn presets
included) and the property tests run everything under this monitor so
a regression in the feedback aggregation or failure-repair paths
surfaces as a named violation instead of a silently wrong benchmark
number.
"""

from repro.check.coverage import CoverageCollector, CoverageMap
from repro.check.invariants import (InvariantMonitor, InvariantViolationError,
                                    Violation)

__all__ = ["CoverageCollector", "CoverageMap", "InvariantMonitor",
           "InvariantViolationError", "Violation"]
