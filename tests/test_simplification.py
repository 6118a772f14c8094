"""Unit tests for the post-unnesting simplification rules: the Section 5
rule (Figure 8) and the two quantifier-key rules (key pull-up, marked
exists)."""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_plan
from repro.algebra.operators import (
    Map,
    Nest,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Unnest,
    operators,
    transform_plan,
)
from repro.algebra.pretty import plan_signature
from repro.calculus.evaluator import evaluate
from repro.calculus.terms import (
    BinOp,
    Const,
    Extent,
    Var,
    comprehension,
    const,
    path,
    record,
    var,
)
from repro.core.pipeline import QueryPipeline
from repro.core.simplification import (
    _mark_exists,
    _pull_up_key,
    simplification_applies,
    simplify,
)
from repro.core.unnesting import unnest_query
from repro.data.database import Database
from repro.data.datagen import auction_database, company_database, university_database
from repro.data.schema import INT, STRING, CollectionType, RecordType, Schema
from repro.data.values import NULL, Record, SetValue, is_null
from repro.testing.oracle import check_sample, results_equal


@pytest.fixture(scope="module")
def db():
    return company_database(num_employees=25, num_departments=6, seed=11)


def section5_query(agg: str = "avg"):
    """The paper's Section 5 query in calculus form."""
    inner = comprehension(
        agg,
        path("u", "salary"),
        ("u", Extent("Employees")),
        BinOp(">", path("u", "age"), const(30)),
        BinOp("==", path("e", "dno"), path("u", "dno")),
    )
    return comprehension(
        "set",
        record(E=path("e", "dno"), S=inner),
        ("e", Extent("Employees")),
        BinOp(">", path("e", "age"), const(30)),
    )


class TestFigure8:
    def test_plan_a_shape(self, db):
        plan = unnest_query(section5_query())
        assert plan_signature(plan) == "reduce(nest(outer-join(select(scan), scan)))"

    def test_plan_b_shape(self, db):
        simplified = simplify(unnest_query(section5_query()))
        assert plan_signature(simplified) == "reduce(nest(map(select(scan))))"

    def test_self_outer_join_eliminated(self, db):
        simplified = simplify(unnest_query(section5_query()))
        assert not any(isinstance(op, OuterJoin) for op in operators(simplified))
        assert any(isinstance(op, Map) for op in operators(simplified))

    def test_semantics_preserved(self, db):
        query = section5_query()
        reference = evaluate(query, db)
        plan = unnest_query(query)
        assert evaluate_plan(plan, db) == reference
        assert evaluate_plan(simplify(plan), db) == reference

    @pytest.mark.parametrize("agg", ["sum", "max", "min", "avg"])
    def test_all_aggregates(self, db, agg):
        query = section5_query(agg)
        reference = evaluate(query, db)
        simplified = simplify(unnest_query(query))
        assert simplification_applies(unnest_query(query))
        assert evaluate_plan(simplified, db) == reference

    def test_group_collapses_duplicates(self, db):
        """After simplification one group per key remains; the set reduce
        sees identical output, even though employees share departments."""
        simplified = simplify(unnest_query(section5_query()))
        nest = next(op for op in operators(simplified) if isinstance(op, Nest))
        # A NULL grouping key must still pad to the monoid zero, exactly as
        # in the outer-join form, so the rewrite keeps the key columns as
        # null-test variables.
        assert nest.null_vars == nest.group_by
        assert len(nest.group_by) == 1


class TestNonApplicability:
    def test_different_extents_not_rewritten(self, db):
        """Grouping Employees against Managers is not a self-join."""
        inner = comprehension(
            "sum",
            path("m", "salary"),
            ("m", Extent("Managers")),
            BinOp("==", path("e", "name"), path("m", "name")),
        )
        query = comprehension(
            "set", record(E=path("e", "dno"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)

    def test_different_predicates_not_rewritten(self, db):
        """Outer and inner selections disagree → towers are not copies."""
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp(">", path("u", "age"), const(40)),  # inner filters on 40
            BinOp("==", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "set",
            record(E=path("e", "dno"), S=inner),
            ("e", Extent("Employees")),
            BinOp(">", path("e", "age"), const(30)),  # outer filters on 30
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)

    def test_nonidempotent_parent_not_rewritten(self, db):
        """A bag-valued parent would lose duplicates — must not rewrite."""
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "bag", record(E=path("e", "dno"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)

    def test_parent_using_raw_variable_not_rewritten(self, db):
        """If the reduce head needs the whole tuple (not just the grouping
        expression) the rewrite cannot re-express it and must refuse."""
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "set", record(E=var("e"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)

    def test_non_equality_correlation_not_rewritten(self, db):
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("<", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "set", record(E=path("e", "dno"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)


class TestSimplificationProperty:
    """Hypothesis: across random group-by instances (aggregate × filters ×
    grouping attribute), the rewrite fires and preserves the result."""

    from hypothesis import HealthCheck, given, settings, strategies as st

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        agg=st.sampled_from(["sum", "max", "min", "avg"]),
        group_attr=st.sampled_from(["dno", "age"]),
        agg_attr=st.sampled_from(["salary", "age"]),
        threshold=st.integers(min_value=20, max_value=60),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_random_group_by_instances(
        self, agg, group_attr, agg_attr, threshold, seed
    ):
        from repro.calculus.terms import comprehension

        db = company_database(num_employees=15, num_departments=4, seed=seed)
        inner = comprehension(
            agg,
            path("u", agg_attr),
            ("u", Extent("Employees")),
            BinOp(">", path("u", "age"), const(threshold)),
            BinOp("==", path("e", group_attr), path("u", group_attr)),
        )
        query = comprehension(
            "set",
            record(G=path("e", group_attr), V=inner),
            ("e", Extent("Employees")),
            BinOp(">", path("e", "age"), const(threshold)),
        )
        plan = unnest_query(query)
        assert simplification_applies(plan)
        reference = evaluate(query, db)
        assert evaluate_plan(simplify(plan), db) == reference


class TestMultipleGroupingKeys:
    def test_two_grouping_expressions(self, db):
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", path("e", "dno"), path("u", "dno")),
            BinOp("==", path("e", "age"), path("u", "age")),
        )
        query = comprehension(
            "set",
            record(D=path("e", "dno"), A=path("e", "age"), S=inner),
            ("e", Extent("Employees")),
        )
        plan = unnest_query(query)
        assert simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)


# ---------------------------------------------------------------------------
# Quantifier-key rules: key pull-up (rule 1) and marked exists (rule 2)
# ---------------------------------------------------------------------------


def _fires(plan, rule) -> bool:
    """Whether *rule* alone changes *plan* (compare before and after)."""
    return transform_plan(plan, lambda n: (isinstance(n, Nest) and rule(n)) or n) != plan


def _keys_db(null_kids: bool) -> Database:
    """NULL keys on both sides, value-equal duplicate objects in bag
    extents, an empty right extent, and empty (optionally NULL) nested
    collections.  The SQLite backend cannot shred a NULL collection, so
    ``null_kids=False`` gives a database every path runs on."""
    schema = Schema()
    schema.define_class("S", id=INT, name=STRING)
    kid_type = RecordType((("m0", INT), ("m1", STRING)))
    schema.define_class("T", id=INT, grade=INT, kids=CollectionType("set", kid_type))
    schema.define_extent("Ss", "S")
    schema.define_extent("Ts", "T")
    schema.define_extent("NoTs", "T")
    db = Database(schema)

    def kids(*pairs):
        return SetValue(Record(m0=m0, m1=m1) for m0, m1 in pairs)

    s2 = Record(id=2, name="b")
    t1 = Record(id=1, grade=3, kids=kids((1, "x"), (2, "y")))
    db.add_extent(
        "Ss",
        [Record(id=1, name="a"), s2, Record(id=NULL, name="c"), s2, Record(id=4, name="d")],
        kind="bag",
    )
    db.add_extent(
        "Ts",
        [
            t1,
            Record(id=2, grade=1, kids=kids()),
            Record(id=NULL, grade=0, kids=kids((4, "z"), (0, "w"))),
            Record(id=5, grade=2, kids=NULL if null_kids else kids((NULL, "v"))),
            t1,
        ],
        kind="bag",
    )
    db.add_extent("NoTs", [], kind="bag")
    return db


@pytest.fixture(scope="module")
def keys_db():
    return _keys_db(null_kids=True)


@pytest.fixture(scope="module")
def sql_keys_db():
    return _keys_db(null_kids=False)


def _assert_all_paths_agree(db, source, rule, fires, skips_allowed=True):
    """*rule* fires (or refuses) on the query's unnested plan, and every
    execution path agrees with the calculus evaluator."""
    pipeline = QueryPipeline(db)
    compiled = pipeline.compile_oql(source)
    assert _fires(compiled.logical, rule) == fires
    verdict = check_sample(source, {}, db)
    assert verdict.agreed, verdict.describe()
    if not skips_allowed:
        assert not verdict.skipped, verdict.describe()
    if verdict.reference.ok:
        reference = evaluate(compiled.term, db)
        assert results_equal(pipeline.run_oql(source), reference)
        assert results_equal(evaluate_plan(simplify(compiled.logical), db), reference)
    return verdict


SETOP_EXCEPT = "(select distinct s.id from s in Ss) except (select distinct t.id from t in Ts)"
FOR_ALL = "select s.name from s in Ss where for all t in {extent}: (t.id != s.id or t.grade >= 2)"
EXISTS_COUNT = (
    "select struct(n: s.name, c: count(select t from t in {extent} "
    "where exists k in t.kids: {body})) from s in Ss"
)


class TestKeyPullUp:
    def test_fires_on_corpus_shapes(self):
        db = university_database(12, 6, seed=3)
        for source in (
            "( select distinct s.id from s in Student ) except "
            "( select distinct t.id from t in Transcript )",
            "select distinct c.title from c in Courses "
            "where for all t in Transcript: (t.cno != c.cno or t.grade >= 2)",
        ):
            compiled = QueryPipeline(db).compile_oql(source)
            assert _fires(compiled.logical, _pull_up_key)
            join = next(op for op in operators(compiled.optimized) if isinstance(op, OuterJoin))
            assert join.pred != Const(True)
            reference = evaluate(compiled.term, db)
            assert results_equal(QueryPipeline(db).run_oql(source), reference)

    @pytest.mark.parametrize("db_name", ["keys_db", "sql_keys_db"])
    @pytest.mark.parametrize(
        "source",
        [
            SETOP_EXCEPT,
            FOR_ALL.format(extent="Ts"),
            FOR_ALL.format(extent="NoTs"),  # empty right extent
            # value-equal duplicates compared by identity
            "select s from s in Ss where for all u in Ss: (u != s or u.id > 1)",
        ],
    )
    def test_semantics(self, request, db_name, source):
        db = request.getfixturevalue(db_name)
        _assert_all_paths_agree(
            db, source, _pull_up_key, fires=True, skips_allowed=db_name == "keys_db"
        )

    def test_multi_column_key(self, keys_db):
        source = (
            "select s.name from s in Ss where for all t in Ts: "
            "(t.id != s.id or (t.grade != s.id or t.grade > 2))"
        )
        compiled = QueryPipeline(keys_db).compile_oql(source)
        nest = next(op for op in operators(simplify(compiled.logical)) if isinstance(op, Nest))
        assert nest.head == BinOp(">", path(nest.child.right.var, "grade"), const(2))
        _assert_all_paths_agree(keys_db, source, _pull_up_key, fires=True)

    def test_division_refused_and_every_path_fails_alike(self, keys_db):
        """The NULL-key pair (t.id NULL, grade 0) raises in the unrewritten
        plan: ``NULL or 6 / 0`` evaluates its right side.  Pulling the key
        into the join would skip that pair and silently answer, so the rule
        must refuse and every path must fail with the same error."""
        source = "select s.name from s in Ss where for all t in Ts: (t.id != s.id or 6 / t.grade > 1)"
        verdict = _assert_all_paths_agree(keys_db, source, _pull_up_key, fires=False)
        assert not verdict.reference.ok
        assert "DivisionByZeroError" in verdict.reference.error

    def test_key_not_leftmost_refused(self, keys_db):
        source = "select s.name from s in Ss where for all t in Ts: (t.grade >= 2 or t.id != s.id)"
        _assert_all_paths_agree(keys_db, source, _pull_up_key, fires=False)


def _quantifier_plan(
    head=None,
    pred=Const(True),
    join_pred=Const(True),
    group_by=("s",),
    null_vars=("t",),
    monoid="all",
):
    """``Δ^{bag}(Γ^{monoid/head}(Ss =⨝ Ts))``, the key pull-up shape."""
    key = BinOp("!=", path("s", "id"), path("t", "id"))
    if head is None:
        head = BinOp("or", key, BinOp(">=", path("t", "grade"), const(2)))
    join = OuterJoin(Scan("Ss", "s"), Scan("Ts", "t"), join_pred)
    nest = Nest(join, monoid, head, group_by, null_vars, "m", pred)
    return Reduce(nest, "bag", Var("m"))


class TestKeyPullUpRefusals:
    def test_base_shape_fires(self, keys_db):
        plan = _quantifier_plan()
        assert _fires(plan, _pull_up_key)
        assert results_equal(evaluate_plan(simplify(plan), keys_db), evaluate_plan(plan, keys_db))

    @pytest.mark.parametrize(
        "variant",
        [
            {"head": BinOp("or", BinOp("!=", path("s", "id"), path("t", "id")),
                           BinOp(">", BinOp("/", const(6), path("t", "grade")), const(1)))},
            {"pred": BinOp("==", BinOp("%", path("t", "grade"), const(2)), const(0))},
            {"join_pred": BinOp(">", BinOp("/", const(6), path("t", "grade")), const(1))},
            {"group_by": ("s", "t")},
            {"null_vars": ()},
            {"monoid": "some"},  # a `!=` leaf is not a `some` key
        ],
        ids=["div-head", "mod-pred", "div-join", "group-by", "no-null-vars", "wrong-op"],
    )
    def test_refuses(self, keys_db, variant):
        plan = _quantifier_plan(**variant)
        assert not _fires(plan, _pull_up_key)
        assert simplify(plan) == plan


class TestMarkedExists:
    def test_fires_on_corpus_shape(self):
        db = auction_database(12, 8, seed=3)
        source = (
            "select distinct struct( C: c.name, N: count( select i from i in Items "
            "where exists k in i.categories: k.name = c.name ) ) "
            "from i0 in Items, c in i0.categories"
        )
        compiled = QueryPipeline(db).compile_oql(source)
        assert _fires(compiled.logical, _mark_exists)
        assert plan_signature(compiled.optimized) == (
            "reduce(nest(nest(outer-join(unnest(scan), unnest(scan)))))"
        )
        reference = evaluate(compiled.term, db)
        assert results_equal(QueryPipeline(db).run_oql(source), reference)

    @pytest.mark.parametrize("db_name", ["keys_db", "sql_keys_db"])
    @pytest.mark.parametrize(
        "source",
        [
            EXISTS_COUNT.format(extent="Ts", body="k.m0 = s.id"),
            EXISTS_COUNT.format(extent="NoTs", body="k.m0 = s.id"),
            # a right-only conjunct moves into the unnest
            EXISTS_COUNT.format(extent="Ts", body='(k.m0 = s.id and k.m1 != "y")'),
            # cross residuals stay in the join, with or without the kid
            EXISTS_COUNT.format(extent="Ts", body="(k.m0 = s.id and k.m0 < t.grade + s.id)"),
            EXISTS_COUNT.format(extent="Ts", body="(k.m0 = s.id and t.grade > s.id)"),
        ],
    )
    def test_semantics(self, request, db_name, source):
        db = request.getfixturevalue(db_name)
        _assert_all_paths_agree(
            db, source, _mark_exists, fires=True, skips_allowed=db_name == "keys_db"
        )

    @pytest.mark.parametrize(
        "source",
        [
            # the parent filter is not exactly the mark
            "select struct(n: s.name, c: count(select t from t in Ts "
            "where t.grade > 2 or exists k in t.kids: k.m0 = s.id)) from s in Ss",
            # the child quantifier is `all`, not `some`
            "select struct(n: s.name, c: count(select t from t in Ts "
            "where for all k in t.kids: k.m0 != s.id)) from s in Ss",
            # division in the unnest predicate (kid m0 = 0 under a NULL key)
            EXISTS_COUNT.format(extent="Ts", body="(k.m0 = s.id and 6 / k.m0 > 1)"),
        ],
        ids=["parent-pred", "child-all", "div-unnest"],
    )
    def test_refuses(self, keys_db, source):
        _assert_all_paths_agree(keys_db, source, _mark_exists, fires=False)


def _marked_plan(
    parent_pred=None,
    marks_monoid="some",
    unnest_pred=None,
    parent_group_by=("s",),
    parent_null_vars=("t",),
):
    """The marked-exists stack over ``Ss =⨝_true Ts``."""
    if parent_pred is None:
        parent_pred = Var("m")
    if unnest_pred is None:
        unnest_pred = BinOp("==", path("k", "m0"), path("s", "id"))
    join = OuterJoin(Scan("Ss", "s"), Scan("Ts", "t"), Const(True))
    unnest = OuterUnnest(join, path("t", "kids"), "k", unnest_pred)
    marks = Nest(unnest, marks_monoid, Const(True), ("s", "t"), ("k",), "m")
    parent = Nest(marks, "sum", const(1), parent_group_by, parent_null_vars, "c", parent_pred)
    return Reduce(parent, "bag", record(n=path("s", "name"), c=var("c")))


class TestMarkedExistsRefusals:
    def test_base_shape_fires(self, keys_db):
        plan = _marked_plan()
        assert _fires(plan, _mark_exists)
        rewritten = simplify(plan)
        assert any(isinstance(op, Unnest) for op in operators(rewritten))
        assert results_equal(evaluate_plan(rewritten, keys_db), evaluate_plan(plan, keys_db))

    @pytest.mark.parametrize(
        "variant",
        [
            {"parent_pred": BinOp("and", Var("m"), BinOp(">", path("t", "grade"), const(0)))},
            {"marks_monoid": "all"},
            {"unnest_pred": BinOp("and", BinOp("==", path("k", "m0"), path("s", "id")),
                                  BinOp(">", BinOp("%", const(6), path("k", "m0")), const(1)))},
            {"unnest_pred": BinOp(">", path("k", "m0"), path("s", "id"))},  # no equi-key
            {"parent_group_by": ("s", "t")},
            {"parent_null_vars": ()},
        ],
        ids=["parent-pred", "child-all", "mod-unnest", "no-key", "group-by", "no-null-vars"],
    )
    def test_refuses(self, variant):
        plan = _marked_plan(**variant)
        assert not _fires(plan, _mark_exists)
        assert simplify(plan) == plan


class TestQgenReachesTheRules:
    """The fuzzer's default query mix must exercise both rules often enough
    that the differential oracle guards them, over databases that keep
    NULL keys and value-equal duplicate objects in play."""

    def test_firing_rates_at_a_fixed_seed(self):
        from repro.testing.fuzz import FuzzConfig, generate_sample

        config = FuzzConfig(seed=12)
        samples = 400
        key_pull_up = marked_exists = with_nulls = with_duplicates = 0
        for iteration in range(samples):
            source, _, db = generate_sample(config, iteration)
            logical = QueryPipeline(db).compile_oql(source).logical
            fired = False
            if _fires(logical, _pull_up_key):
                key_pull_up += 1
                fired = True
            if _fires(logical, _mark_exists):
                marked_exists += 1
                fired = True
            if fired:
                objects = [obj for name in db.extent_names() for obj in db.extent(name).elements()]
                with_nulls += any(is_null(v) for obj in objects for v in obj.values())
                with_duplicates += len(set(objects)) < len(objects)
        assert key_pull_up >= 0.10 * samples
        assert marked_exists >= 0.02 * samples
        assert with_nulls and with_duplicates
