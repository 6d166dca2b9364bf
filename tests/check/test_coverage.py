"""CoverageMap / CoverageCollector unit tests.

The fuzzer's feedback signal must be *stable*: the same behavior must
always produce the same key, and a key set must digest identically no
matter what order (or in which process) the keys were observed.  These
tests pin the key grammar on a synthetic bus and the digest's
order-independence directly.
"""

import pytest

from repro.check import CoverageCollector, CoverageMap
from repro.check.coverage import TRANSITION_CHANNELS
from repro.net.packet import PacketType
from repro.net.pipeline import ObserverBus


# ---------------------------------------------------------------------------
# the map: set semantics + stable digest
# ---------------------------------------------------------------------------

class TestCoverageMap:
    def test_add_reports_novelty_once(self):
        cov = CoverageMap()
        assert cov.add("drop/inline/random-loss")
        assert not cov.add("drop/inline/random-loss")
        assert len(cov) == 1
        assert "drop/inline/random-loss" in cov

    def test_add_all_returns_only_fresh_keys_sorted(self):
        cov = CoverageMap(["b"])
        assert cov.add_all(["c", "a", "b", "c"]) == ["a", "c"]
        assert cov.to_list() == ["a", "b", "c"]

    def test_signature_is_order_independent(self):
        a = CoverageMap()
        b = CoverageMap()
        keys = [f"trans/inline/ch{i}->ch{i+1}" for i in range(20)]
        for k in keys:
            a.add(k)
        for k in reversed(keys):
            b.add(k)
        assert a.signature() == b.signature()

    def test_signature_is_injective_over_key_boundaries(self):
        # the newline separator keeps {"ab","c"} and {"a","bc"} apart
        assert (CoverageMap(["ab", "c"]).signature()
                != CoverageMap(["a", "bc"]).signature())

    def test_merge_unions_and_reports_fresh(self):
        a = CoverageMap(["x", "y"])
        b = CoverageMap(["y", "z"])
        assert a.merge(b) == ["z"]
        assert a.to_list() == ["x", "y", "z"]
        assert a.signature() == CoverageMap(["x", "y", "z"]).signature()

    def test_list_roundtrip_preserves_signature(self):
        cov = CoverageMap(["drop/inline/tail-drop", "viol/lookaside/psn-gap"])
        again = CoverageMap.from_list(cov.to_list())
        assert again.signature() == cov.signature()
        assert len(again) == 2


# ---------------------------------------------------------------------------
# the collector: key grammar from bus traffic
# ---------------------------------------------------------------------------

class TestCoverageCollector:
    def test_transition_pairs_exclude_stage_and_event(self):
        bus = ObserverBus()
        cov = CoverageMap()
        CoverageCollector(bus, "inline", cov)
        assert "stage" not in TRANSITION_CHANNELS
        assert "event" not in TRANSITION_CHANNELS
        bus.publish("classify", "sw", "pkt")
        bus.publish("event", object())  # must not perturb the pair stream
        bus.publish("replicate", "sw", "pkt", ())
        keys = cov.to_list()
        assert "trans/inline/classify->replicate" in keys
        assert not any("event" in k for k in keys)

    def test_feedback_key_names_kind_and_sorted_emits(self):
        bus = ObserverBus()
        cov = CoverageMap()
        CoverageCollector(bus, "lookaside", cov)
        emits = [(PacketType.NACK, 3), (PacketType.ACK, 7)]
        bus.publish("feedback", "engine", "mft", PacketType.ACK, 1, 7, emits)
        bus.publish("feedback", "engine", "mft", PacketType.CNP, 2, 0, [])
        assert "fb/lookaside/ACK/ACK,NACK" in cov
        assert "fb/lookaside/CNP/none" in cov

    def test_drop_key_carries_reason(self):
        bus = ObserverBus()
        cov = CoverageMap()
        CoverageCollector(bus, "inline", cov)
        bus.publish("drop", "sw", "pkt", 2, "sr-no-rule")
        assert "drop/inline/sr-no-rule" in cov

    def test_violations_fold_in_from_dicts_and_objects(self):
        class Violation:
            invariant = "psn-contiguity"

        cov = CoverageMap()
        collector = CoverageCollector(ObserverBus(), "inline", cov)
        collector.add_violations([{"invariant": "mft-consistency"},
                                  Violation()])
        assert "viol/inline/mft-consistency" in cov
        assert "viol/inline/psn-contiguity" in cov

    def test_detach_removes_every_subscription(self):
        bus = ObserverBus()
        before = bus.active_subscribers
        collector = CoverageCollector(bus, "inline", CoverageMap())
        assert bus.active_subscribers == before + len(TRANSITION_CHANNELS)
        collector.detach()
        assert bus.active_subscribers == before
        # publications after detach no longer accumulate coverage
        bus.publish("classify", "sw", "pkt")
        assert len(collector.coverage) == 0

    def test_shared_map_across_collectors_merges_deployments(self):
        cov = CoverageMap()
        for dep in ("inline", "lookaside"):
            bus = ObserverBus()
            CoverageCollector(bus, dep, cov)
            bus.publish("drop", "sw", "pkt", 0, "tail-drop")
        assert cov.to_list() == ["drop/inline/tail-drop",
                                 "drop/lookaside/tail-drop"]
