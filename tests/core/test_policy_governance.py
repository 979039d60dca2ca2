"""Policy engine v2: versioned documents, classification, fail-closed.

Every test here exercises the governance layer *without* the network:
document hashing and fail-closed deserialization, automatic change
classification by structural diff, the propose/approve/rollback
lifecycle with its declared-class gate, fail-closed evaluation under
injected faults, and snapshot/restore round trips.
"""

import json

import pytest

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.policy import (
    ADDITIVE,
    ALLOW,
    BREAKING,
    DENY,
    AuditRecord,
    GovernedPolicy,
    PolicyDocument,
    PolicyError,
    classify_change,
)
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.testing.faults import (
    InjectedFault,
    clear_fault_points,
    install_fault_point,
)

SOURCE = """\
blueprint governed
view v
  property uptodate default true
  when ckin do uptodate = true done
  when outofdate do uptodate = false done
endview
endblueprint
"""

CHAIN_SOURCE = """\
blueprint chainish
view a
  property uptodate default true
  when outofdate do uptodate = false done
endview
view b
  property uptodate default true
  link_from a propagates outofdate type derived
  when outofdate do uptodate = false done
endview
endblueprint
"""


@pytest.fixture(autouse=True)
def _disarm_faults():
    clear_fault_points()
    yield
    clear_fault_points()


@pytest.fixture
def db():
    db = MetaDatabase()
    return db


@pytest.fixture
def engine(db):
    return BlueprintEngine(db, Blueprint.from_source(SOURCE))


@pytest.fixture
def policy(engine):
    return GovernedPolicy(engine)


def make_document(source=SOURCE, rules=()):
    return PolicyDocument.initial(Blueprint.from_source(source), rules=rules)


class TestPolicyDocument:
    def test_content_hash_is_stable(self):
        doc = make_document()
        assert doc.content_hash == make_document().content_hash

    def test_content_hash_tracks_every_field(self):
        doc = make_document()
        variants = [
            PolicyDocument(2, doc.change_class, doc.blueprint_source, doc.rules),
            PolicyDocument(doc.version, BREAKING, doc.blueprint_source, doc.rules),
            PolicyDocument(doc.version, doc.change_class, doc.blueprint_source + "\n", doc.rules),
            PolicyDocument(doc.version, doc.change_class, doc.blueprint_source, (("t", "true", ""),)),
        ]
        hashes = {doc.content_hash} | {v.content_hash for v in variants}
        assert len(hashes) == 5

    def test_payload_round_trip(self):
        doc = make_document(rules=(("drc", "$uptodate == true", "v"),))
        assert PolicyDocument.from_payload(doc.to_payload()) == doc

    def test_save_load_round_trip(self, tmp_path):
        doc = make_document(rules=(("drc", "$uptodate == true", "v"),))
        path = tmp_path / "policy.json"
        doc.save(path)
        assert PolicyDocument.load(path) == doc

    # -- fail-closed deserialization matrix ---------------------------

    def test_non_dict_refused(self):
        with pytest.raises(PolicyError):
            PolicyDocument.from_payload(["not", "a", "dict"])

    def test_format_skew_refused(self):
        payload = make_document().to_payload()
        payload["format"] = 99
        with pytest.raises(PolicyError, match="unsupported policy document format"):
            PolicyDocument.from_payload(payload)

    @pytest.mark.parametrize("version", [0, -1, "2", 1.5, True, None])
    def test_bad_version_refused(self, version):
        payload = make_document().to_payload()
        payload["version"] = version
        with pytest.raises(PolicyError, match="bad policy version"):
            PolicyDocument.from_payload(payload)

    def test_unknown_change_class_refused(self):
        payload = make_document().to_payload()
        payload["change_class"] = "cosmetic"
        with pytest.raises(PolicyError, match="unknown change class"):
            PolicyDocument.from_payload(payload)

    def test_hand_edited_document_refused(self):
        # Flip one rule after hashing: the tamper must be detected.
        payload = make_document(rules=(("drc", "$uptodate == true", ""),)).to_payload()
        payload["rules"][0][1] = "$uptodate == false"
        with pytest.raises(PolicyError, match="hash mismatch"):
            PolicyDocument.from_payload(payload)

    def test_truncated_file_refused(self, tmp_path):
        path = tmp_path / "policy.json"
        make_document().save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PolicyError, match="not valid JSON"):
            PolicyDocument.load(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(PolicyError, match="cannot read"):
            PolicyDocument.load(tmp_path / "absent.json")

    def test_unparseable_blueprint_refused(self):
        doc = PolicyDocument(1, ADDITIVE, "blueprint broken (")
        with pytest.raises(PolicyError, match="does not parse"):
            PolicyDocument.from_payload(doc.to_payload())

    def test_unparseable_rule_refused(self):
        doc = PolicyDocument(1, ADDITIVE, SOURCE, (("drc", "((", ""),))
        with pytest.raises(PolicyError, match="does not parse"):
            PolicyDocument.from_payload(doc.to_payload())

    def test_bad_rule_shape_refused(self):
        payload = make_document().to_payload()
        payload["rules"] = [["tool-only"]]
        with pytest.raises(PolicyError, match="bad permission rule"):
            PolicyDocument.from_payload(payload)


class TestClassification:
    def doc(self, source, rules=(), version=2, change_class=ADDITIVE):
        return PolicyDocument(version, change_class, source, tuple(rules))

    def test_identical_documents_refused(self):
        old = make_document()
        with pytest.raises(PolicyError, match="changes nothing"):
            classify_change(old, self.doc(old.blueprint_source))

    def test_added_rule_is_additive(self):
        old = make_document()
        new = self.doc(old.blueprint_source, rules=(("drc", "true", ""),))
        computed, reasons = classify_change(old, new)
        assert computed == ADDITIVE
        assert any("added permission rule" in reason for reason in reasons)

    def test_dropped_rule_is_breaking(self):
        old = make_document(rules=(("drc", "true", ""),))
        new = self.doc(old.blueprint_source)
        computed, reasons = classify_change(old, new)
        assert computed == BREAKING
        assert any("dropped permission rule" in reason for reason in reasons)

    def test_trimmed_propagation_is_breaking(self):
        old = PolicyDocument.initial(Blueprint.from_source(CHAIN_SOURCE))
        loosened = CHAIN_SOURCE.replace(
            "link_from a propagates outofdate type derived",
            "link_from a type derived",
        )
        computed, reasons = classify_change(old, self.doc(loosened))
        assert computed == BREAKING
        assert any("stops propagating" in reason for reason in reasons)

    def test_added_view_is_additive(self):
        old = make_document()
        extended = SOURCE.replace(
            "endblueprint",
            "view extra\nendview\nendblueprint",
        )
        computed, _reasons = classify_change(old, self.doc(extended))
        assert computed == ADDITIVE

    def test_removed_view_is_breaking(self):
        old = PolicyDocument.initial(Blueprint.from_source(CHAIN_SOURCE))
        trimmed = CHAIN_SOURCE.replace(
            "view b\n  property uptodate default true\n"
            "  link_from a propagates outofdate type derived\n"
            "  when outofdate do uptodate = false done\nendview\n",
            "",
        )
        computed, reasons = classify_change(old, self.doc(trimmed))
        assert computed == BREAKING
        assert any("removed" in reason for reason in reasons)

    def test_when_rule_change_is_breaking(self):
        old = make_document()
        changed = SOURCE.replace("uptodate = false", "uptodate = true")
        computed, reasons = classify_change(old, self.doc(changed))
        assert computed == BREAKING
        assert any("unclassified change" in reason for reason in reasons)

    def test_breaking_wins_over_additive(self):
        old = make_document(rules=(("drc", "true", ""),))
        new = self.doc(
            old.blueprint_source, rules=(("lvs", "true", ""),)
        )  # one drop + one add
        computed, _ = classify_change(old, new)
        assert computed == BREAKING


class TestLifecycle:
    def propose(self, policy, change_class, op, *args):
        spec = {"change_class": change_class, "op": op, "args": list(args)}
        return policy.apply_lifecycle("policy_propose", spec)

    def test_additive_auto_activates(self, policy):
        record = self.propose(policy, ADDITIVE, "require", "drc", "true")
        assert record.verdict == ALLOW
        assert policy.version == 2
        assert policy.pending is None
        assert policy.previous is not None

    def test_breaking_parks_pending(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        self.propose(policy, BREAKING, "drop", "drc", "true")
        assert policy.version == 2  # still the old one
        assert policy.pending is not None
        assert policy.pending.document.version == 3

    def test_declared_class_mismatch_refused(self, policy):
        with pytest.raises(PolicyError, match="declared change class"):
            self.propose(policy, BREAKING, "require", "drc", "true")
        # the refusal itself is audited as a deny
        assert policy.audit_tail()[-1].verdict == DENY

    def test_second_proposal_while_pending_refused(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        self.propose(policy, BREAKING, "drop", "drc", "true")
        with pytest.raises(PolicyError, match="already[\\s\\S]*pending"):
            self.propose(policy, ADDITIVE, "require", "lvs", "true")

    def test_approve_wrong_version_refused(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        self.propose(policy, BREAKING, "drop", "drc", "true")
        with pytest.raises(PolicyError, match="pending proposal is v3"):
            policy.apply_lifecycle("policy_approve", {"version": 7})
        assert policy.version == 2

    def test_approve_activates(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        self.propose(policy, BREAKING, "drop", "drc", "true")
        record = policy.apply_lifecycle("policy_approve", {"version": 3})
        assert record.verdict == ALLOW
        assert policy.version == 3
        assert policy.pending is None
        assert policy.document.rules == ()

    def test_approve_nothing_pending_refused(self, policy):
        with pytest.raises(PolicyError, match="no proposal is pending"):
            policy.apply_lifecycle("policy_approve", {"version": 2})

    def test_rollback_restores_previous_content(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        record = policy.apply_lifecycle("policy_rollback", {})
        assert record.verdict == ALLOW
        assert policy.version == 3  # versions never go backwards
        assert policy.document.rules == ()  # but the content is v1's

    def test_rollback_discards_pending(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        self.propose(policy, BREAKING, "drop", "drc", "true")
        policy.apply_lifecycle("policy_rollback", {})
        assert policy.pending is None
        assert policy.version == 4  # pending v3 consumed the number

    def test_rollback_without_previous_refused(self, policy):
        with pytest.raises(PolicyError, match="no previous policy"):
            policy.apply_lifecycle("policy_rollback", {})

    def test_activation_swaps_engine_blueprint(self, engine):
        policy = GovernedPolicy(engine)
        before = engine.blueprint
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        assert engine.blueprint is not before

    def test_lifecycle_audited_with_subjects(self, policy):
        self.propose(policy, ADDITIVE, "require", "drc", "true")
        record = policy.audit_tail()[-1]
        assert record.kind == "policy"
        assert record.subject.startswith("propose additive require drc")


class TestFailClosedEvaluation:
    def event(self, name="ckin", target="a,v,1"):
        from repro.core.events import EventMessage
        from repro.metadb.links import Direction

        return EventMessage(
            name=name, direction=Direction.UP, target=OID.parse(target)
        )

    def test_allow_by_default(self, db, policy):
        db.create_object(OID("a", "v", 1))
        assert policy.evaluate(db, self.event()) == (ALLOW, "")

    def test_unknown_oid_denied_when_a_rule_must_evaluate(self, db, policy):
        policy.apply_lifecycle(
            "policy_propose",
            {
                "change_class": ADDITIVE,
                "op": "require",
                "args": ["event:*", "$uptodate == true"],
            },
        )
        verdict, reason = policy.evaluate(db, self.event(target="zz,v,9"))
        assert verdict == DENY
        assert "not in the meta-database" in reason

    def test_injected_eval_fault_denies_never_grants(self, db, policy):
        db.create_object(OID("a", "v", 1))
        install_fault_point("policy-eval")
        verdict, reason = policy.evaluate(db, self.event())
        assert verdict == DENY
        assert reason.startswith("policy_fault:")
        assert policy.policy_faults == 1
        # the fault point is spent; evaluation recovers
        assert policy.evaluate(db, self.event()) == (ALLOW, "")

    def test_persistent_fault_denies_every_time(self, db, policy):
        db.create_object(OID("a", "v", 1))
        install_fault_point("policy-eval", times=-1)
        for _ in range(3):
            verdict, _ = policy.evaluate(db, self.event())
            assert verdict == DENY
        assert policy.policy_faults == 3

    def test_marked_faulted_denies_everything(self, db, policy):
        db.create_object(OID("a", "v", 1))
        policy.mark_faulted("corrupt checkpoint")
        verdict, reason = policy.evaluate(db, self.event())
        assert verdict == DENY
        assert "corrupt checkpoint" in reason
        decision = policy.check_tool(db, "drc", [OID("a", "v", 1)])
        assert not decision.granted

    def test_activation_clears_fault(self, db, policy):
        policy.mark_faulted("corrupt checkpoint")
        policy.apply_lifecycle(
            "policy_propose",
            {"change_class": ADDITIVE, "op": "require", "args": ["drc", "true"]},
        )
        db.create_object(OID("a", "v", 1))
        assert policy.evaluate(db, self.event()) == (ALLOW, "")

    def test_tool_check_faults_closed(self, db, policy):
        db.create_object(OID("a", "v", 1))
        install_fault_point("policy-eval")
        decision = policy.check_tool(db, "drc", [OID("a", "v", 1)])
        assert not decision.granted
        assert any("policy_fault" in reason for reason in decision.reasons)
        assert policy.audit_tail()[-1].verdict == DENY

    def test_tool_check_audited_both_ways(self, db, policy):
        db.create_object(OID("a", "v", 1))
        assert policy.check_tool(db, "drc", [OID("a", "v", 1)]).granted
        assert policy.audit_tail()[-1].verdict == ALLOW

    def test_from_file_corrupt_starts_faulted(self, engine, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text("{ truncated")
        policy = GovernedPolicy.from_file(engine, path)
        assert policy.fault_reason is not None
        db = engine.db
        db.create_object(OID("a", "v", 1))
        verdict, _ = policy.evaluate(db, self.event())
        assert verdict == DENY

    def test_from_file_valid_document(self, engine, tmp_path):
        path = tmp_path / "policy.json"
        make_document(rules=(("drc", "true", ""),)).save(path)
        policy = GovernedPolicy.from_file(engine, path)
        assert policy.fault_reason is None
        assert policy.document.rules == (("drc", "true", ""),)

    def test_event_rule_gating(self, db, engine):
        policy = GovernedPolicy(engine)
        policy.apply_lifecycle(
            "policy_propose",
            {
                "change_class": ADDITIVE,
                "op": "require",
                "args": ["event:drc", "$uptodate == true"],
            },
        )
        obj = db.create_object(OID("a", "v", 1))
        assert policy.evaluate(db, self.event("drc")) == (ALLOW, "")
        obj.set("uptodate", False)
        verdict, reason = policy.evaluate(db, self.event("drc"))
        assert verdict == DENY
        assert "fails" in reason
        # the event: rule must not leak into plain tool checks
        assert policy.check_tool(db, "drc", [obj.oid]).granted


class TestToolCheckReasons:
    def test_governed_and_plain_policies_give_identical_reasons(self, db, engine):
        from repro.core.policy import PermissionPolicy

        rules = (
            ("drc", "$uptodate == true", ""),
            ("*", '$owner == "ana"', "v"),
            ("sim", "false", ""),
        )
        governed = GovernedPolicy(engine, document=make_document(rules=rules))
        plain = PermissionPolicy(rules=make_document(rules=rules).make_rules())
        db.create_object(OID("a", "v", 1), {"owner": "bob"}).set("uptodate", False)
        db.create_object(OID("b", "v", 1), {"owner": "ana"})
        inputs = ["a,v,1", OID("b", "v", 1), "zz,v,9"]
        expected = (
            "a,v,1 fails $uptodate == true",
            'a,v,1 fails $owner == "ana"',
            "zz,v,9 is not in the meta-database",
        )
        assert plain.check(db, "drc", inputs).reasons == expected
        assert governed.check_tool(db, "drc", inputs).reasons == expected
        assert governed.audit_tail()[-1].reason == "; ".join(expected)


class TestSnapshotRestore:
    def test_round_trip(self, engine):
        policy = GovernedPolicy(engine)
        policy.apply_lifecycle(
            "policy_propose",
            {"change_class": ADDITIVE, "op": "require", "args": ["drc", "true"]},
        )
        policy.apply_lifecycle(
            "policy_propose",
            {"change_class": BREAKING, "op": "drop", "args": ["drc", "true"]},
        )
        payload = json.loads(json.dumps(policy.snapshot_payload()))

        twin_engine = BlueprintEngine(
            MetaDatabase(), Blueprint.from_source(SOURCE)
        )
        twin = GovernedPolicy(twin_engine)
        assert twin.restore(payload)
        assert twin.version == policy.version
        assert twin.document == policy.document
        assert twin.pending is not None
        assert twin.pending.document == policy.pending.document
        assert twin.previous == policy.previous
        assert twin.audit_seq == policy.audit_seq

    def test_corrupt_snapshot_marks_faulted(self, engine):
        policy = GovernedPolicy(engine)
        assert not policy.restore({"format": 1, "document": "garbage"})
        assert policy.fault_reason is not None

    def test_tampered_document_in_snapshot_marks_faulted(self, engine):
        policy = GovernedPolicy(engine)
        payload = policy.snapshot_payload()
        payload["document"]["blueprint"] += "\n"
        twin = GovernedPolicy(
            BlueprintEngine(MetaDatabase(), Blueprint.from_source(SOURCE))
        )
        assert not twin.restore(payload)
        assert "corrupt policy checkpoint" in (twin.fault_reason or "")


class TestAuditRecord:
    def test_payload_round_trip(self):
        record = AuditRecord(3, "event", "ckin a,v,1", DENY, "why", 2)
        assert AuditRecord.from_payload(record.to_payload()) == record

    def test_wire_format(self):
        record = AuditRecord(3, "event", "ckin a,v,1", DENY, "why", 2)
        assert record.wire() == "#3 v2 DENY event ckin a,v,1 -- why"

    def test_bad_payload_refused(self):
        with pytest.raises(PolicyError):
            AuditRecord.from_payload({"seq": "x"})

    def test_audit_ring_bounded(self, engine):
        policy = GovernedPolicy(engine, audit_limit=5)
        db = engine.db
        db.create_object(OID("a", "v", 1))
        for index in range(12):
            policy.check_tool(db, f"tool{index}", [OID("a", "v", 1)])
        tail = policy.audit_tail()
        assert len(tail) == 5
        assert tail[-1].seq == 12  # seq keeps counting past the ring
        assert policy.audit_tail(limit=2)[0].seq == 11
