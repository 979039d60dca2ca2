"""Property bags: coercion, audit trail, observation."""

import pytest

from repro.metadb.properties import (
    PropertyBag,
    coerce_value,
    value_to_text,
)


class TestCoercion:
    def test_true_false_strings_become_bools(self):
        assert coerce_value("true") is True
        assert coerce_value("False") is False
        assert coerce_value("  TRUE ") is True

    def test_other_strings_stay_strings(self):
        assert coerce_value("good") == "good"
        assert coerce_value("4 errors") == "4 errors"

    def test_numbers_pass_through(self):
        assert coerce_value(4) == 4
        assert coerce_value(2.5) == 2.5

    def test_bools_pass_through(self):
        assert coerce_value(True) is True

    def test_rejects_containers(self):
        with pytest.raises(TypeError):
            coerce_value(["a"])

    def test_value_to_text_bools(self):
        assert value_to_text(True) == "true"
        assert value_to_text(False) == "false"

    def test_value_to_text_scalar(self):
        assert value_to_text("ok") == "ok"
        assert value_to_text(7) == "7"


class TestBagBasics:
    def test_set_get(self):
        bag = PropertyBag()
        bag.set("DRC", "ok")
        assert bag.get("DRC") == "ok"
        assert "DRC" in bag

    def test_setitem_coerces(self):
        bag = PropertyBag()
        bag["uptodate"] = "true"
        assert bag["uptodate"] is True

    def test_get_default(self):
        assert PropertyBag().get("missing", "dflt") == "dflt"

    def test_len_and_iter(self):
        bag = PropertyBag()
        bag.set("a", 1)
        bag.set("b", 2)
        assert len(bag) == 2
        assert sorted(bag) == ["a", "b"]

    def test_delete(self):
        bag = PropertyBag()
        bag.set("a", 1)
        bag.delete("a")
        assert "a" not in bag

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            PropertyBag().delete("nope")

    def test_update_many(self):
        bag = PropertyBag()
        bag.update({"a": "1", "b": "true"})
        assert bag["a"] == "1"
        assert bag["b"] is True

    def test_setdefault_only_sets_absent(self):
        bag = PropertyBag()
        assert bag.setdefault("a", "first") == "first"
        assert bag.setdefault("a", "second") == "first"

    def test_as_dict_is_snapshot(self):
        bag = PropertyBag()
        bag.set("a", 1)
        snapshot = bag.as_dict()
        bag.set("a", 2)
        assert snapshot == {"a": 1}

    def test_text_renders_blueprint_spelling(self):
        bag = PropertyBag()
        bag.set("flag", True)
        assert bag.text("flag") == "true"
        assert bag.text("missing", "dflt") == "dflt"

    def test_copy_into_all(self):
        source = PropertyBag()
        source.update({"a": 1, "b": 2})
        dest = PropertyBag()
        source.copy_into(dest)
        assert dest.as_dict() == {"a": 1, "b": 2}

    def test_copy_into_selected(self):
        source = PropertyBag()
        source.update({"a": 1, "b": 2})
        dest = PropertyBag()
        source.copy_into(dest, names=["b", "missing"])
        assert dest.as_dict() == {"b": 2}


class TestAuditTrail:
    def test_changes_record_old_and_new(self):
        bag = PropertyBag()
        seen = []
        bag.subscribe(seen.append)
        returned = [bag.set("x", "1"), bag.set("x", "2"), bag.delete("x")]
        assert [(c.name, c.old, c.new) for c in returned] == [
            ("x", None, "1"),
            ("x", "1", "2"),
            ("x", "2", None),
        ]
        assert seen == returned

    def test_creation_and_deletion_flags(self):
        bag = PropertyBag()
        created = bag.set("x", "1")
        assert created.is_creation and not created.is_deletion
        deleted = bag.delete("x")
        assert deleted.is_deletion and not deleted.is_creation

    def test_sequence_monotonic(self):
        bag = PropertyBag()
        seen = []
        bag.subscribe(seen.append)
        returned = [bag.set("x", index) for index in range(5)]
        returned.append(bag.delete("x"))
        assert [c.seq for c in returned] == [1, 2, 3, 4, 5, 6]
        assert [c.seq for c in seen] == [1, 2, 3, 4, 5, 6]

    def test_no_trail_is_kept(self):
        bag = PropertyBag()
        for index in range(50):
            bag.set("x", index)
        assert not hasattr(bag, "history")
        assert bag.as_dict() == {"x": 49}


class TestObservation:
    def test_observer_sees_changes(self):
        bag = PropertyBag()
        seen = []
        bag.subscribe(lambda change: seen.append((change.name, change.new)))
        bag.set("a", "x")
        bag.set("b", "y")
        assert seen == [("a", "x"), ("b", "y")]

    def test_unsubscribe(self):
        bag = PropertyBag()
        seen = []
        observer = lambda change: seen.append(change.name)  # noqa: E731
        bag.subscribe(observer)
        bag.set("a", 1)
        bag.unsubscribe(observer)
        bag.set("b", 2)
        assert seen == ["a"]
