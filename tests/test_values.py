"""Unit tests for the runtime value universe (repro.data.values)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.data.values import (
    NULL,
    BagValue,
    ListValue,
    NullValue,
    Record,
    SetValue,
    ensure_hashable,
    is_collection,
    is_null,
)

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestNull:
    def test_singleton(self):
        assert NullValue() is NULL

    def test_equality(self):
        assert NULL == NullValue()
        assert NULL != 0
        assert NULL != None  # noqa: E711 - NULL is not Python None

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(None)
        assert not is_null(0)
        assert not is_null(False)

    def test_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(NULL)

    def test_hashable(self):
        assert len({NULL, NullValue()}) == 1

    def test_repr(self):
        assert repr(NULL) == "NULL"


class TestRecord:
    def test_access(self):
        record = Record(name="Smith", age=40)
        assert record["name"] == "Smith"
        assert record["age"] == 40

    def test_missing_attribute_message(self):
        record = Record(name="Smith")
        with pytest.raises(KeyError, match="age"):
            record["age"]

    def test_structural_equality_ignores_order(self):
        assert Record(a=1, b=2) == Record(b=2, a=1)

    def test_inequality(self):
        assert Record(a=1) != Record(a=2)
        assert Record(a=1) != Record(a=1, b=2)

    def test_hash_consistency(self):
        assert hash(Record(a=1, b=2)) == hash(Record(b=2, a=1))
        assert len({Record(a=1), Record(a=1)}) == 1

    def test_immutable(self):
        record = Record(a=1)
        with pytest.raises(AttributeError):
            record.a = 2  # type: ignore[attr-defined]

    def test_with_field(self):
        record = Record(a=1)
        extended = record.with_field("b", 2)
        assert extended == Record(a=1, b=2)
        assert record == Record(a=1), "original must be unchanged"

    def test_mapping_interface(self):
        record = Record(a=1, b=2)
        assert set(record) == {"a", "b"}
        assert len(record) == 2
        assert record.attributes() == ("a", "b")

    def test_from_mapping(self):
        assert Record({"x": 1}, y=2) == Record(x=1, y=2)

    def test_nested_records_hash(self):
        inner = Record(x=1)
        outer = Record(inner=inner, s=SetValue([1, 2]))
        assert hash(outer) == hash(Record(s=SetValue([2, 1]), inner=Record(x=1)))

    def test_repr_is_sorted(self):
        assert repr(Record(b=2, a=1)) == "<a=1, b=2>"


class TestSetValue:
    def test_dedup(self):
        assert len(SetValue([1, 1, 2])) == 2

    def test_union(self):
        assert SetValue([1, 2]).union(SetValue([2, 3])) == SetValue([1, 2, 3])

    def test_membership(self):
        assert 1 in SetValue([1])
        assert 2 not in SetValue([1])

    def test_equality_and_hash(self):
        assert SetValue([1, 2]) == SetValue([2, 1])
        assert len({SetValue([1, 2]), SetValue([2, 1])}) == 1

    def test_not_equal_to_bag(self):
        assert SetValue([1]) != BagValue([1])

    def test_immutable(self):
        value = SetValue([1])
        with pytest.raises(AttributeError):
            value._items = frozenset()  # type: ignore[attr-defined]

    def test_elements_with_records(self):
        value = SetValue([Record(a=1), Record(a=1), Record(a=2)])
        assert len(value) == 2


class TestBagValue:
    def test_multiplicity(self):
        bag = BagValue([1, 1, 2])
        assert bag.count(1) == 2
        assert bag.count(2) == 1
        assert bag.count(3) == 0
        assert len(bag) == 3

    def test_additive_union(self):
        merged = BagValue([1]).additive_union(BagValue([1, 2]))
        assert merged.count(1) == 2
        assert merged.count(2) == 1

    def test_equality_is_count_sensitive(self):
        assert BagValue([1, 1]) != BagValue([1])
        assert BagValue([1, 2]) == BagValue([2, 1])

    def test_elements_repeats(self):
        assert sorted(BagValue([3, 3, 5]).elements()) == [3, 3, 5]

    def test_from_counts_drops_nonpositive(self):
        bag = BagValue.from_counts({1: 2, 2: 0})
        assert bag.count(1) == 2
        assert 2 not in bag

    def test_hashable(self):
        assert len({BagValue([1, 1]), BagValue([1, 1])}) == 1


class TestListValue:
    def test_order_sensitive_equality(self):
        assert ListValue([1, 2]) != ListValue([2, 1])
        assert ListValue([1, 2]) == ListValue([1, 2])

    def test_concat(self):
        assert ListValue([1]).concat(ListValue([2])) == ListValue([1, 2])

    def test_indexing(self):
        assert ListValue([7, 8])[1] == 8

    def test_duplicates_preserved(self):
        assert len(ListValue([1, 1])) == 2

    def test_hashable(self):
        assert len({ListValue([1]), ListValue([1])}) == 1


class TestHelpers:
    def test_is_collection(self):
        assert is_collection(SetValue())
        assert is_collection(BagValue())
        assert is_collection(ListValue())
        assert not is_collection(Record())
        assert not is_collection([1, 2])

    def test_ensure_hashable(self):
        assert ensure_hashable(Record(a=1)) == Record(a=1)
        with pytest.raises(TypeError):
            ensure_hashable([1, 2])


class TestSetIterationOrder:
    def test_set_value_iterates_in_insertion_order(self):
        values = ["m", "a", "z", "b", "q"]
        assert list(SetValue(values).elements()) == values

    def test_dedup_keeps_first_occurrence(self):
        assert list(SetValue([3, 1, 3, 2, 1]).elements()) == [3, 1, 2]

    def test_union_preserves_left_then_right_order(self):
        left = SetValue([1, 2])
        right = SetValue([4, 2, 3])
        assert list(left.union(right).elements()) == [1, 2, 4, 3]

    def test_iteration_order_is_hash_seed_independent(self):
        # The same scan printed under two different PYTHONHASHSEED values
        # must produce byte-identical output: extent order is insertion
        # order, never hash-table order.  (Bag results preserve scan
        # order, so any seed-dependence in the set extent would show.)
        script = (
            "from repro.data.database import Database\n"
            "from repro.data.values import Record\n"
            "from repro.core.pipeline import QueryPipeline\n"
            "db = Database()\n"
            "db.add_extent('E', [Record(name=n) for n in "
            "['zeta', 'alpha', 'mu', 'beta', 'kappa', 'omega']], kind='set')\n"
            "result = QueryPipeline(db).run_oql("
            "'select e.name from e in E')\n"
            "print(list(result.elements()))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.path.join(_REPO, "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "zeta" in outputs[0]
