"""Unit tests for the nested relational algebra: operator construction
invariants, the logical evaluator's O1–O7 semantics, and plan printing."""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import PlanEvaluator, evaluate_plan
from repro.algebra.operators import (
    Eval,
    Join,
    Map,
    Nest,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Seed,
    Select,
    Unnest,
    operators,
    transform_plan,
)
from repro.algebra.pretty import plan_signature, pretty_plan
from repro.calculus.terms import BinOp, Const, Proj, Var, const, path, record, var
from repro.data.database import Database
from repro.data.values import NULL, Record, SetValue, is_null


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.add_extent(
        "Emp",
        [
            Record(name="a", dno=1, kids=SetValue([Record(age=5)])),
            Record(name="b", dno=1, kids=SetValue([])),
            Record(name="c", dno=2, kids=SetValue([Record(age=9), Record(age=2)])),
        ],
    )
    database.add_extent("Dept", [Record(dno=1), Record(dno=2), Record(dno=3)])
    return database


def stream_rows(plan, db):
    return list(PlanEvaluator(db).stream(plan))


class TestConstruction:
    def test_join_rejects_overlapping_columns(self):
        with pytest.raises(ValueError, match="share columns"):
            Join(Scan("Emp", "e"), Scan("Dept", "e"), Const(True))

    def test_outer_join_rejects_overlapping_columns(self):
        with pytest.raises(ValueError, match="share columns"):
            OuterJoin(Scan("Emp", "e"), Scan("Dept", "e"), Const(True))

    def test_nest_rejects_unknown_columns(self):
        with pytest.raises(ValueError, match="not produced"):
            Nest(Scan("Emp", "e"), "set", var("e"), ("ghost",), (), "m")

    def test_map_rejects_rebinding(self):
        with pytest.raises(ValueError, match="rebinds"):
            Map(Scan("Emp", "e"), (("e", const(1)),))

    def test_columns(self):
        join = Join(Scan("Emp", "e"), Scan("Dept", "d"), Const(True))
        assert join.columns() == ("e", "d")
        unnest = Unnest(join, path("e", "kids"), "k")
        assert unnest.columns() == ("e", "d", "k")
        nest = Nest(unnest, "sum", const(1), ("e",), ("k",), "m")
        assert nest.columns() == ("e", "m")
        assert Reduce(nest, "set", var("m")).columns() == ()

    def test_unknown_monoid_rejected(self):
        with pytest.raises(KeyError):
            Reduce(Scan("Emp", "e"), "median", var("e"))


class TestStreams:
    def test_seed(self, db):
        assert stream_rows(Seed(), db) == [{}]

    def test_scan(self, db):
        envs = stream_rows(Scan("Dept", "d"), db)
        assert len(envs) == 3
        assert all(set(env) == {"d"} for env in envs)

    def test_select(self, db):
        plan = Select(Scan("Dept", "d"), BinOp("<", path("d", "dno"), const(3)))
        assert len(stream_rows(plan, db)) == 2

    def test_map(self, db):
        plan = Map(Scan("Dept", "d"), (("k", path("d", "dno")),))
        envs = stream_rows(plan, db)
        assert {env["k"] for env in envs} == {1, 2, 3}

    def test_join(self, db):
        plan = Join(
            Scan("Emp", "e"),
            Scan("Dept", "d"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        assert len(stream_rows(plan, db)) == 3

    def test_outer_join_pads_with_null(self, db):
        plan = OuterJoin(
            Scan("Dept", "d"),
            Scan("Emp", "e"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        envs = stream_rows(plan, db)
        assert len(envs) == 4  # dept 1 x 2 emps, dept 2 x 1, dept 3 padded
        padded = [env for env in envs if is_null(env["e"])]
        assert len(padded) == 1
        assert padded[0]["d"]["dno"] == 3

    def test_unnest(self, db):
        plan = Unnest(Scan("Emp", "e"), path("e", "kids"), "k")
        assert len(stream_rows(plan, db)) == 3  # employee b contributes nothing

    def test_unnest_with_predicate(self, db):
        plan = Unnest(
            Scan("Emp", "e"), path("e", "kids"), "k",
            BinOp(">", path("k", "age"), const(4)),
        )
        assert len(stream_rows(plan, db)) == 2

    def test_outer_unnest_pads_empty(self, db):
        plan = OuterUnnest(Scan("Emp", "e"), path("e", "kids"), "k")
        envs = stream_rows(plan, db)
        assert len(envs) == 4
        assert sum(1 for env in envs if is_null(env["k"])) == 1

    def test_outer_unnest_pads_when_predicate_never_holds(self, db):
        plan = OuterUnnest(
            Scan("Emp", "e"), path("e", "kids"), "k",
            BinOp(">", path("k", "age"), const(100)),
        )
        envs = stream_rows(plan, db)
        assert len(envs) == 3
        assert all(is_null(env["k"]) for env in envs)

    def test_outer_unnest_over_null_base_pads(self, db):
        inner = OuterJoin(
            Scan("Dept", "d"),
            Scan("Emp", "e"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        plan = OuterUnnest(inner, path("e", "kids"), "k")
        envs = stream_rows(plan, db)
        dept3 = [env for env in envs if env["d"]["dno"] == 3]
        assert len(dept3) == 1
        assert is_null(dept3[0]["e"]) and is_null(dept3[0]["k"])


class TestNest:
    def test_null_to_zero_conversion(self, db):
        join = OuterJoin(
            Scan("Dept", "d"),
            Scan("Emp", "e"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        nest = Nest(join, "sum", const(1), ("d",), ("e",), "m")
        envs = stream_rows(nest, db)
        counts = {env["d"]["dno"]: env["m"] for env in envs}
        assert counts == {1: 2, 2: 1, 3: 0}

    def test_set_monoid_zero_is_empty_set(self, db):
        join = OuterJoin(
            Scan("Dept", "d"),
            Scan("Emp", "e"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        nest = Nest(join, "set", path("e", "name"), ("d",), ("e",), "m")
        envs = stream_rows(nest, db)
        by_dno = {env["d"]["dno"]: env["m"] for env in envs}
        assert by_dno[3] == SetValue()
        assert by_dno[1] == SetValue(["a", "b"])

    def test_all_monoid_zero_is_true(self, db):
        join = OuterJoin(
            Scan("Dept", "d"),
            Scan("Emp", "e"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        nest = Nest(join, "all", const(False), ("d",), ("e",), "m")
        envs = stream_rows(nest, db)
        values = {env["d"]["dno"]: env["m"] for env in envs}
        assert values == {1: False, 2: False, 3: True}

    def test_nest_predicate_filters_contributions(self, db):
        join = OuterJoin(
            Scan("Dept", "d"),
            Scan("Emp", "e"),
            BinOp("==", path("e", "dno"), path("d", "dno")),
        )
        nest = Nest(
            join, "sum", const(1), ("d",), ("e",), "m",
            pred=BinOp("==", path("e", "name"), const("a")),
        )
        counts = {env["d"]["dno"]: env["m"] for env in stream_rows(nest, db)}
        assert counts == {1: 1, 2: 0, 3: 0}

    def test_group_key_with_multiple_columns(self, db):
        join = Join(Scan("Emp", "e"), Scan("Dept", "d"), Const(True))
        nest = Nest(join, "sum", const(1), ("e", "d"), (), "m")
        envs = stream_rows(nest, db)
        assert len(envs) == 9
        assert all(env["m"] == 1 for env in envs)


class TestRoots:
    def test_reduce_set(self, db):
        plan = Reduce(Scan("Emp", "e"), "set", path("e", "name"))
        assert evaluate_plan(plan, db) == SetValue(["a", "b", "c"])

    def test_reduce_sum_with_predicate(self, db):
        plan = Reduce(
            Scan("Emp", "e"), "sum", const(1),
            BinOp("==", path("e", "dno"), const(1)),
        )
        assert evaluate_plan(plan, db) == 2

    def test_reduce_quantifier(self, db):
        plan = Reduce(Scan("Emp", "e"), "all", BinOp(">", path("e", "dno"), const(0)))
        assert evaluate_plan(plan, db) is True

    def test_eval_root(self, db):
        plan = Eval(Seed(), const(42))
        assert evaluate_plan(plan, db) == 42

    def test_eval_requires_single_row(self, db):
        plan = Eval(Scan("Emp", "e"), const(1))
        with pytest.raises(Exception, match="exactly one"):
            evaluate_plan(plan, db)

    def test_stream_root_rejected(self, db):
        with pytest.raises(TypeError, match="rooted at Reduce"):
            evaluate_plan(Scan("Emp", "e"), db)


class TestPlanUtilities:
    def _plan(self):
        return Reduce(
            Nest(
                OuterJoin(Scan("Dept", "d"), Scan("Emp", "e"), Const(True)),
                "sum",
                const(1),
                ("d",),
                ("e",),
                "m",
            ),
            "set",
            var("m"),
        )

    def test_operators_preorder(self):
        kinds = [type(op).__name__ for op in operators(self._plan())]
        assert kinds == ["Reduce", "Nest", "OuterJoin", "Scan", "Scan"]

    def test_plan_signature(self):
        assert plan_signature(self._plan()) == (
            "reduce(nest(outer-join(scan, scan)))"
        )

    def test_pretty_plan_mentions_operators(self):
        text = pretty_plan(self._plan())
        assert "reduce[" in text
        assert "nest[+" in text
        assert "outer-join[" in text
        assert "scan[d <- Dept]" in text

    def test_transform_plan_identity(self):
        plan = self._plan()
        assert transform_plan(plan, lambda p: p) == plan

    def test_transform_plan_replaces(self):
        plan = self._plan()

        def swap(node):
            if isinstance(node, Scan) and node.extent == "Emp":
                return Scan("Emp2", node.var)
            return node

        replaced = transform_plan(plan, swap)
        extents = [op.extent for op in operators(replaced) if isinstance(op, Scan)]
        assert "Emp2" in extents
