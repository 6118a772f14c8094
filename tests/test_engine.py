"""Unit tests for the physical engine: operator algorithms, the planner's
algorithm assignment, EXPLAIN output, and row accounting."""

from __future__ import annotations

import pytest

from repro.algebra.operators import (
    Join,
    Nest,
    OuterJoin,
    Reduce,
    Scan,
    Select,
    Unnest,
)
from repro.calculus.terms import (
    BinOp,
    Const,
    RecordCons,
    comprehension,
    const,
    path,
    var,
)
from repro.data.database import Database
from repro.data.values import Record, SetValue
from repro.engine.planner import (
    PlannerOptions,
    execute,
    plan_physical,
    split_equi_conjuncts,
)
from repro.engine.physical import (
    PHashJoin,
    PHashNest,
    PNestedLoopJoin,
    PReduce,
    PScan,
    PSelect,
)


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.add_extent(
        "R", [Record(k=i, v=i * 10) for i in range(6)]
    )
    database.add_extent(
        "S", [Record(k=i % 3, w=i) for i in range(6)]
    )
    return database


def join_plan(pred):
    return Reduce(
        Join(Scan("R", "r"), Scan("S", "s"), pred),
        "sum",
        const(1),
    )


class TestEquiKeyExtraction:
    def test_simple_equality(self):
        pred = BinOp("==", path("r", "k"), path("s", "k"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert len(keys) == 1 and residual == []

    def test_reversed_sides(self):
        pred = BinOp("==", path("s", "k"), path("r", "k"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert len(keys) == 1
        left_key, right_key = keys[0]
        assert left_key == path("r", "k") and right_key == path("s", "k")

    def test_mixed_conjuncts(self):
        pred = BinOp(
            "and",
            BinOp("==", path("r", "k"), path("s", "k")),
            BinOp("<", path("r", "v"), path("s", "w")),
        )
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert len(keys) == 1 and len(residual) == 1

    def test_non_equality_not_extracted(self):
        pred = BinOp("<", path("r", "k"), path("s", "k"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert keys == [] and len(residual) == 1

    def test_same_side_equality_not_extracted(self):
        pred = BinOp("==", path("r", "k"), path("r", "v"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert keys == [] and len(residual) == 1

    def test_constant_equality_not_extracted(self):
        pred = BinOp("==", path("r", "k"), const(3))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert keys == []


class TestAlgorithmAssignment:
    def test_equi_join_gets_hash_join(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        physical = plan_physical(plan, db)
        assert isinstance(physical.child, PHashJoin)

    def test_theta_join_gets_nested_loop(self, db):
        plan = join_plan(BinOp("<", path("r", "k"), path("s", "k")))
        physical = plan_physical(plan, db)
        assert isinstance(physical.child, PNestedLoopJoin)

    def test_hash_joins_disabled(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        physical = plan_physical(plan, db, PlannerOptions(hash_joins=False))
        assert isinstance(physical.child, PNestedLoopJoin)

    def test_nest_gets_hash_nest(self, db):
        plan = Reduce(
            Nest(Scan("S", "s"), "sum", path("s", "w"), ("s",), (), "m"),
            "set",
            var("m"),
        )
        physical = plan_physical(plan, db)
        assert isinstance(physical.child, PHashNest)


class TestExecution:
    def test_hash_and_nl_agree_inner(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        hashed = execute(plan, db)
        looped = execute(plan, db, PlannerOptions(hash_joins=False))
        assert hashed == looped == 6  # keys 0,1,2 each match twice

    def test_hash_and_nl_agree_outer(self, db):
        plan = Reduce(
            OuterJoin(
                Scan("R", "r"), Scan("S", "s"),
                BinOp("==", path("r", "k"), path("s", "k")),
            ),
            "sum",
            const(1),
        )
        hashed = execute(plan, db)
        looped = execute(plan, db, PlannerOptions(hash_joins=False))
        # 6 matches + 3 padded rows for r.k in {3,4,5}
        assert hashed == looped == 9

    def test_residual_predicate_applied(self, db):
        pred = BinOp(
            "and",
            BinOp("==", path("r", "k"), path("s", "k")),
            BinOp(">", path("s", "w"), const(2)),
        )
        assert execute(join_plan(pred), db) == execute(
            join_plan(pred), db, PlannerOptions(hash_joins=False)
        )

    def test_unnest(self, db):
        database = Database()
        database.add_extent(
            "T", [Record(xs=SetValue([1, 2])), Record(xs=SetValue([3]))]
        )
        plan = Reduce(
            Unnest(Scan("T", "t"), path("t", "xs"), "x"), "sum", var("x")
        )
        assert execute(plan, database) == 6

    def test_reduce_short_circuits_some(self, db):
        plan = Reduce(
            Scan("R", "r"), "some", BinOp(">=", path("r", "k"), const(0))
        )
        physical = plan_physical(plan, db, PlannerOptions(batch_size=1))
        assert physical.value() is True
        # the predicate holds for every row, so the very first row decides
        scan = physical.children()[0]
        assert scan.rows_produced == 1
        # larger chunks still short-circuit, at chunk granularity: they
        # overshoot by at most one chunk instead of reading the extent.
        batched = plan_physical(plan, db, PlannerOptions(batch_size=2))
        assert batched.value() is True
        assert batched.children()[0].rows_produced == 2

    def test_rows_produced_accounting(self, db):
        physical = plan_physical(
            Reduce(
                Select(Scan("R", "r"), BinOp("<", path("r", "k"), const(3))),
                "sum",
                const(1),
            ),
            db,
        )
        assert physical.value() == 3
        select = physical.children()[0]
        assert isinstance(select, PSelect)
        assert select.rows_produced == 3
        assert select.children()[0].rows_produced == 6
        # 6 (scan) + 3 (select) + 1 (the root's scalar result row)
        assert physical.total_rows() == 10


def two_key_pred():
    # Matches s.k == r.k == s.w: only S rows 0, 1 and 2 (w == k) qualify.
    return BinOp(
        "and",
        BinOp("==", path("r", "k"), path("s", "k")),
        BinOp("==", path("r", "k"), path("s", "w")),
    )


class TestHashJoin:
    """The hash join against the nested loop on shapes the corpus rarely
    reaches: duplicate keys on both sides, multi-key predicates, output
    order and the build side's row accounting."""

    @staticmethod
    def _dup_db() -> Database:
        database = Database()
        database.add_extent(
            "L", [Record(k=k, a=i) for i, k in enumerate([1, 1, 2])]
        )
        database.add_extent("Rt", [Record(k=1, b=i) for i in range(4)])
        return database

    def test_duplicate_key_runs_cross_product(self):
        database = Database()
        database.add_extent("L", [Record(k=1, a=i) for i in range(3)])
        database.add_extent("Rt", [Record(k=1, b=i) for i in range(4)])
        plan = Reduce(
            Join(Scan("L", "l"), Scan("Rt", "r"),
                 BinOp("==", path("l", "k"), path("r", "k"))),
            "sum",
            const(1),
        )
        hashed = execute(plan, database)
        looped = execute(plan, database, PlannerOptions(hash_joins=False))
        assert hashed == looped == 12

    def test_outer_join_pads_only_unmatched_duplicates(self):
        plan = Reduce(
            OuterJoin(Scan("L", "l"), Scan("Rt", "r"),
                      BinOp("==", path("l", "k"), path("r", "k"))),
            "sum",
            const(1),
        )
        database = self._dup_db()
        hashed = execute(plan, database)
        looped = execute(plan, database, PlannerOptions(hash_joins=False))
        # two k=1 rows × four matches, plus one padded row for k=2
        assert hashed == looped == 9

    def test_multi_key_join_is_one_hash_join(self, db):
        physical = plan_physical(join_plan(two_key_pred()), db)
        assert isinstance(physical.child, PHashJoin)
        assert len(physical.child.left_keys) == 2
        assert "HashJoin(r.k = s.k, r.k = s.w)" in physical.explain()

    def test_multi_key_join_agrees_with_nested_loop(self, db):
        plan = join_plan(two_key_pred())
        hashed = execute(plan, db)
        looped = execute(plan, db, PlannerOptions(hash_joins=False))
        assert hashed == looped == 3

    def test_output_follows_probe_order(self, db):
        plan = Reduce(
            Join(Scan("R", "r"), Scan("S", "s"),
                 BinOp("==", path("r", "k"), path("s", "k"))),
            "list",
            RecordCons((("a", path("r", "v")), ("b", path("s", "w")))),
        )
        expected = [(0, 0), (0, 3), (10, 1), (10, 4), (20, 2), (20, 5)]
        for options in (
            PlannerOptions(),
            PlannerOptions(batch_size=7),
            PlannerOptions(batch_size=1),
            PlannerOptions(hash_joins=False),
        ):
            rows = list(execute(plan, db, options).elements())
            assert [(row["a"], row["b"]) for row in rows] == expected, options

    def test_build_side_is_produced_once(self, db):
        physical = plan_physical(
            join_plan(BinOp("==", path("r", "k"), path("s", "k"))), db
        )
        assert physical.value() == 6
        join = physical.child
        assert [child.rows_produced for child in join.children()] == [6, 6]


class TestExplain:
    def test_explain_mentions_algorithms(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        text = plan_physical(plan, db).explain()
        assert "HashJoin" in text
        assert "Scan(r <- R)" in text
        assert text.splitlines()[0].startswith("Reduce")

    def test_explain_indents_children(self, db):
        plan = join_plan(Const(True))
        lines = plan_physical(plan, db).explain().splitlines()
        assert lines[1].startswith("  ")
        assert lines[2].startswith("    ")


class TestCostModel:
    def test_scan_uses_database_statistics(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        assert model.cardinality(Scan("R", "r")) == 6.0

    def test_default_extent_size_without_db(self):
        from repro.engine.cost import CostModel

        model = CostModel()
        assert model.cardinality(Scan("R", "r")) == 1000.0

    def test_selection_reduces_cardinality(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        scan = Scan("R", "r")
        select = Select(scan, BinOp("==", path("r", "k"), const(1)))
        assert model.cardinality(select) < model.cardinality(scan)

    def test_equality_more_selective_than_comparison(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        eq = model.selectivity(BinOp("==", var("a"), var("b")))
        lt = model.selectivity(BinOp("<", var("a"), var("b")))
        assert eq < lt

    def test_hash_join_cheaper_than_nested_loop(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        eq_join = Join(
            Scan("R", "r"), Scan("S", "s"),
            BinOp("==", path("r", "k"), path("s", "k")),
        )
        theta_join = Join(
            Scan("R", "r"), Scan("S", "s"),
            BinOp("<", path("r", "k"), path("s", "k")),
        )
        assert model.cost(eq_join) < model.cost(theta_join)

    def test_outer_join_keeps_left_cardinality(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        join = OuterJoin(Scan("R", "r"), Scan("S", "s"), Const(False))
        assert model.cardinality(join) >= model.cardinality(Scan("R", "r"))

    def test_nested_comprehension_raises_cost(self, db):
        from repro.calculus.terms import Extent
        from repro.engine.cost import CostModel

        model = CostModel(db)
        cheap = Reduce(Scan("R", "r"), "sum", path("r", "v"))
        nested_head = comprehension("sum", path("s2", "w"), ("s2", Extent("S")))
        pricey = Reduce(Scan("R", "r"), "sum", nested_head)
        assert model.cost(pricey) > model.cost(cheap)
