"""Tests for the query-shredding SQLite backend (repro.backends.shred).

Four concerns, mirroring the backend's layers:

* the shredded store round-trips every demo database losslessly
  (rehydration == original, OIDs preserved, multiplicity and order kept);
* the generated flat SQL is *stable* (golden tests on representative
  corpus queries — any change to the translation shows up as a diff here);
* execution parity with the in-memory engine on the shapes most likely to
  diverge: 3VL NULL handling, NULL grouping keys, value-equal duplicates
  under identity semantics;
* refusals are typed (BackendUnsupportedError), and the differential
  oracle counts them as skips instead of disagreements.

The corpus-wide parity sweep (every query, both backends, the oracle's
normalizer) lives at the bottom, mirroring test_batch.py's row-vs-batch
pattern.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from corpus import CORPUS
from repro.backends.shred import (
    ShreddedStore,
    _stable_repr,
    compile_segments,
    execute_shredded,
    shredded_sql,
    shredded_store,
)
from repro.cli import DATABASES
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.datagen import company_database
from repro.data.schema import FLOAT, INT, STRING, Schema, set_of
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue
from repro.errors import BackendUnsupportedError, PlanningError
from repro.testing.oracle import PATHS, check_sample, results_equal

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pipeline(db, **options):
    return QueryPipeline(db, OptimizerOptions(**options))


def run_both(db, source, **params):
    """One query on both backends; returns (memory, sqlite) results."""
    memory = _pipeline(db).run_oql(source, **params)
    shredded = _pipeline(db, backend="sqlite").run_oql(source, **params)
    return memory, shredded


# ---------------------------------------------------------------------------
# Shredded storage round-trips
# ---------------------------------------------------------------------------


class TestShreddedStore:
    @pytest.mark.parametrize("family", sorted(DATABASES))
    def test_demo_database_round_trips(self, family):
        db = DATABASES[family]()
        store = ShreddedStore(db)
        assert store.refusals == {}
        for name in db.extent_names():
            assert store.extent(name) == db.extent(name)

    def test_oids_survive_shredding(self):
        db = DATABASES["company"]()
        store = ShreddedStore(db)
        original = {e.oid for e in db.extent("Employees").elements()}
        rehydrated = {e.oid for e in store.extent("Employees").elements()}
        assert rehydrated == original

    def test_bag_multiplicity_survives(self):
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k=1), Record(k=2)], kind="bag")
        store = ShreddedStore(db)
        value = store.extent("Ts")
        assert isinstance(value, BagValue)
        assert value.count(Record(k=1)) == 2

    def test_list_order_survives(self):
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=3), Record(k=1), Record(k=2)], kind="list")
        store = ShreddedStore(db)
        value = store.extent("Ts")
        assert isinstance(value, ListValue)
        assert [r["k"] for r in value] == [3, 1, 2]

    def test_nulls_round_trip(self):
        schema = Schema()
        schema.define_class("T", k=INT, v=FLOAT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1, v=NULL), Record(k=NULL, v=2.0)])
        store = ShreddedStore(db)
        assert store.extent("Ts") == db.extent("Ts")

    def test_nested_record_and_collection_round_trip(self):
        # A record inside a record, and a collection hanging off the
        # *nested* record: the child table keys on the containing row.
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        rows = [
            Record(k=1, sub=Record(m=10, kids=SetValue([Record(a=1)]))),
            Record(k=2, sub=Record(m=20, kids=SetValue([]))),
        ]
        db.add_extent("Ts", rows)
        store = ShreddedStore(db)
        assert store.extent("Ts") == db.extent("Ts")
        assert "Ts$sub$kids" in {
            t.name for t in store.tables["Ts"].children.values()
        }

    def test_scalar_extent_round_trips(self):
        db = DATABASES["ab"]()  # A and B store plain ints
        store = ShreddedStore(db)
        assert store.extent("A") == db.extent("A")
        assert store.tables["A"].element == "scalar"

    def test_store_is_cached_until_schema_changes(self):
        db = DATABASES["travel"]()
        first = shredded_store(db)
        assert shredded_store(db) is first
        db.add_extent("Extra", [Record(k=1)] if False else [])
        assert shredded_store(db) is not first

    def test_unknown_extent_raises(self):
        store = ShreddedStore(DATABASES["ab"]())
        with pytest.raises(KeyError):
            store.extent("Nope")

    def test_fingerprint_is_pinned(self):
        # The manifest fingerprint decides whether a file-backed store is
        # reused or re-shredded: any drift in the canonical repr silently
        # invalidates every store on disk, so the value is a literal.
        db = company_database(
            num_employees=12, num_departments=3, num_managers=2, seed=7
        )
        assert ShreddedStore(db)._fingerprint() == (
            "format:2;schema:3;Departments:set:3:1567089049;"
            "Employees:set:12:912284306;Managers:set:2:3448300162"
        )

    def test_fingerprint_is_hash_seed_independent(self):
        # Stores outlive the process that shredded them, so the fingerprint
        # may not depend on PYTHONHASHSEED (set iteration, hash()).
        script = (
            "from repro.backends.shred import ShreddedStore\n"
            "from repro.data.datagen import company_database\n"
            "db = company_database(num_employees=12, num_departments=3, "
            "num_managers=2, seed=7)\n"
            "print(ShreddedStore(db)._fingerprint())\n"
        )
        outputs = set()
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
            outputs.add(proc.stdout.strip())
        db = company_database(
            num_employees=12, num_departments=3, num_managers=2, seed=7
        )
        assert outputs == {ShreddedStore(db)._fingerprint()}

    def test_stable_repr_canonicalises_equal_numerics(self):
        assert _stable_repr(2) == _stable_repr(2.0)
        assert _stable_repr(1) == _stable_repr(True)
        assert _stable_repr(0) == _stable_repr(False)

    def test_stable_repr_distinguishes_distinct_values(self):
        assert len({_stable_repr(i) for i in range(100)}) == 100
        assert _stable_repr("2") != _stable_repr(2)

    def test_stable_repr_of_identity_free_records_is_by_value(self):
        assert _stable_repr(Record(a=1, b="x")) == _stable_repr(
            Record(b="x", a=1.0)
        )

    @pytest.mark.parametrize("file_backed", [False, True])
    def test_closed_store_raises_instead_of_reopening(
        self, file_backed, tmp_path
    ):
        """Statements on a closed store must raise — before the fix, a
        closed in-memory store lazily opened a brand-new empty ':memory:'
        database and answered queries with silently wrong results."""
        import sqlite3

        db = DATABASES["company"]()
        db_path = str(tmp_path / "shred.db") if file_backed else None
        store = ShreddedStore(db, db_path=db_path)
        with store.statement_guard() as connection:
            connection.execute("SELECT 1").fetchone()
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            with store.statement_guard() as connection:
                connection.execute("SELECT 1")
        with pytest.raises(sqlite3.ProgrammingError):
            store.connection


# ---------------------------------------------------------------------------
# Golden SQL: the generated flat queries are stable
# ---------------------------------------------------------------------------


GOLDEN_SQL = {
    # Paper QUERY A: unnest of a child collection -> join on $parent.
    "query_a": [
        'SELECT t0."$oid" AS c0, t1."$oid" AS c1 '
        'FROM ("Employees" t0 JOIN "Employees$children" t1 '
        'ON t1."$parent" = t0."$oid") '
        'ORDER BY t0."$pos", t1."$pos"'
    ],
    # Paper QUERY B (type-JA): the O5 outer-join becomes a LEFT JOIN, and
    # the collection-valued root Nest lowers to an ordered merge query
    # (keys first, then the contribution flag, head, and first-seen rank).
    "query_b": [
        'SELECT t0."$oid" AS c0, ((t1."$oid" IS NOT NULL)) AS "$c", '
        't1."$oid" AS "$h", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos", t1."$pos") AS "$rn" '
        'FROM ("Departments" t0 LEFT JOIN "Employees" t1 '
        'ON (t1."dno" = t0."dno")) '
        'ORDER BY c0, "$rn"'
    ],
    # Paper QUERY D: two outer-unnests over a quantifier (all/sum) pair —
    # both Nests and the root Reduce push into nested GROUP BY subqueries;
    # nothing stitches in Python.
    "query_d": [
        'SELECT "k0" AS c0, COALESCE(SUM("$c"), 0) AS c1 '
        'FROM (SELECT t3."k0$$oid" AS "k0", '
        '(CASE WHEN (t3."k1$$oid" IS NOT NULL) AND t3."$agg" '
        'THEN 1 ELSE NULL END) AS "$c", '
        't3."$pos" AS "$rn" '
        'FROM (SELECT "k0$$oid", "k0$age", "k0$dno", "k0$manager$name", '
        '"k0$manager$oid", "k0$name", "k0$oid", "k0$salary", "k1$$oid", '
        '"k1$age", "k1$name", COALESCE(MIN("$c"), 1) AS "$agg", '
        'MIN("$rn") AS "$pos" '
        'FROM (SELECT t0."$oid" AS "k0$$oid", t0."age" AS "k0$age", '
        't0."dno" AS "k0$dno", t0."manager$name" AS "k0$manager$name", '
        't0."manager$oid" AS "k0$manager$oid", t0."name" AS "k0$name", '
        't0."oid" AS "k0$oid", t0."salary" AS "k0$salary", '
        't1."$oid" AS "k1$$oid", t1."age" AS "k1$age", '
        't1."name" AS "k1$name", '
        '(CASE WHEN (t2."$oid" IS NOT NULL) THEN (t1."age" > t2."age") '
        'ELSE NULL END) AS "$c", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos", t1."$pos", t2."$pos") '
        'AS "$rn" '
        'FROM (("Employees" t0 LEFT JOIN "Employees$children" t1 '
        'ON t1."$parent" = t0."$oid") '
        'LEFT JOIN "Employees$manager$children" t2 '
        'ON t2."$parent" = t0."$oid")) '
        'GROUP BY "k0$$oid", "k1$$oid") t3) '
        'GROUP BY "k0" ORDER BY MIN("$rn")'
    ],
    # Paper QUERY E: both outer-joins in one flat query, predicates in ON.
    # The ON conjunction lowers to plain AND (an ON clause only tests
    # truth, where the reference's left-biased `and` and Kleene AND agree),
    # keeping the equality conjuncts transparent to SQLite's planner so
    # the Transcript probe runs off the lowering-time index.  Both
    # quantifier Nests (some/all) collapse into chained GROUP BY
    # subqueries under the collection-valued root fold.
    "query_e": [
        'SELECT t4."k0$$oid" AS c0 '
        'FROM (SELECT "k0$$oid", "k0$age", "k0$id", "k0$name", '
        'COALESCE(MIN("$c"), 1) AS "$agg", MIN("$rn") AS "$pos" '
        'FROM (SELECT t3."k0$$oid" AS "k0$$oid", t3."k0$age" AS "k0$age", '
        't3."k0$id" AS "k0$id", t3."k0$name" AS "k0$name", '
        '(CASE WHEN (t3."k1$$oid" IS NOT NULL) THEN t3."$agg" '
        'ELSE NULL END) AS "$c", '
        't3."$pos" AS "$rn" '
        'FROM (SELECT "k0$$oid", "k0$age", "k0$id", "k0$name", "k1$$oid", '
        '"k1$cno", "k1$title", COALESCE(MAX("$c"), 0) AS "$agg", '
        'MIN("$rn") AS "$pos" '
        'FROM (SELECT t0."$oid" AS "k0$$oid", t0."age" AS "k0$age", '
        't0."id" AS "k0$id", t0."name" AS "k0$name", '
        't1."$oid" AS "k1$$oid", t1."cno" AS "k1$cno", '
        't1."title" AS "k1$title", '
        '(CASE WHEN (t2."$oid" IS NOT NULL) THEN 1 ELSE NULL END) AS "$c", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos", t1."$pos", t2."$pos") '
        'AS "$rn" '
        'FROM (("Student" t0 LEFT JOIN "Courses" t1 '
        'ON (t1."title" = \'DB\')) '
        'LEFT JOIN "Transcript" t2 '
        'ON ((t2."id" = t0."id") AND (t2."cno" = t1."cno")))) '
        'GROUP BY "k0$$oid", "k1$$oid") t3) '
        'GROUP BY "k0$$oid") t4 '
        'WHERE t4."$agg" ORDER BY t4."$pos"'
    ],
    # A flat selection compiles the predicate into WHERE; the projected
    # head is pushed into the SELECT list (no object rehydration needed).
    "flat_select": [
        'SELECT t0."name" AS c0 FROM "Employees" t0 '
        'WHERE (t0."salary" > 70000) ORDER BY t0."$pos"'
    ],
    # Section 5 group-by: the whole Nest (grouping + avg aggregate) pushes
    # into one GROUP BY query; first-seen group order via MIN(row number).
    "group_avg": [
        'SELECT "k0" AS c0, AVG("$c") AS c1 '
        'FROM (SELECT t0."dno" AS "k0", '
        '(CASE WHEN (t0."dno" IS NOT NULL) THEN t0."salary" '
        'ELSE NULL END) AS "$c", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos") AS "$rn" '
        'FROM "Employees" t0 WHERE (t0."age" > 30)) '
        'GROUP BY "k0" ORDER BY MIN("$rn")'
    ],
}


class TestGoldenSQL:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SQL))
    def test_generated_sql_is_stable(self, name):
        query = next(q for q in CORPUS if q.name == name)
        db = DATABASES[query.family]()
        assert shredded_sql(db, query.oql) == GOLDEN_SQL[name]

    def test_every_corpus_query_produces_some_sql(self):
        # The translation degrades gracefully, but on the demo databases no
        # corpus query should degrade all the way to zero flat queries.
        dbs = {family: DATABASES[family]() for family in DATABASES}
        missing = [
            q.name for q in CORPUS if not shredded_sql(dbs[q.family], q.oql)
        ]
        assert missing == []


# ---------------------------------------------------------------------------
# Execution parity on divergence-prone shapes
# ---------------------------------------------------------------------------


def _null_db():
    schema = Schema()
    schema.define_class("T", k=INT, v=FLOAT, s=STRING)
    schema.define_extent("Ts", "T")
    db = Database(schema)
    db.add_extent(
        "Ts",
        [
            Record(k=1, v=10.0, s="a"),
            Record(k=2, v=NULL, s="b"),
            Record(k=NULL, v=30.0, s=NULL),
            Record(k=2, v=5.0, s="a"),
        ],
    )
    return db


class TestThreeValuedLogicParity:
    @pytest.mark.parametrize(
        "source",
        [
            # NULL comparisons drop rows on both backends.
            "select t.k from t in Ts where t.v > 6.0",
            # 3VL or: NULL or true is true.
            "select t.k from t in Ts where t.v > 6.0 or t.k = 2",
            # 3VL and under negation.
            "select t.k from t in Ts where not (t.v > 6.0 and t.k = 1)",
            # Aggregates skip stored NULLs identically.
            "sum( select t.v from t in Ts )",
            "count( select t from t in Ts where t.s = \"a\" )",
        ],
    )
    def test_parity(self, source):
        db = _null_db()
        memory, shredded = run_both(db, source)
        assert results_equal(memory, shredded)

    def test_null_grouping_key_parity(self):
        # The NULL k groups under the NULL key on both backends (the O5-O7
        # null_vars convention: a NULL key pads to the monoid zero).
        db = _null_db()
        memory, shredded = run_both(
            db,
            "select distinct t.k, count(t.v) as n from Ts t group by t.k",
        )
        assert results_equal(memory, shredded)


class TestIdentityParity:
    def test_value_equal_duplicates_parity(self):
        # Two value-equal records are distinct *objects*: bag semantics must
        # keep both on each backend (identity, not value, multiplicity).
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k=1), Record(k=2)], kind="bag")
        memory, shredded = run_both(db, "select t.k from t in Ts")
        assert results_equal(memory, shredded)
        assert shredded.count(1) == 2

    def test_object_equality_is_identity_on_both(self):
        db = DATABASES["company"]()
        source = (
            "count( select struct(a: e, b: f) "
            "from e in Employees, f in Employees where e = f )"
        )
        memory, shredded = run_both(db, source)
        assert memory == shredded


class TestStitching:
    def test_nested_result_round_trip(self):
        db = DATABASES["company"]()
        memory, shredded = run_both(
            db,
            "select distinct struct( D: d.name, E: ( select e.name "
            "from e in Employees where e.dno = d.dno ) ) "
            "from d in Departments",
        )
        assert results_equal(memory, shredded)

    def test_stitched_objects_are_the_rehydrated_ones(self):
        # Rows decoded from SQL resolve $oid to the store's objects, and
        # those compare identity-equal to the database's own (same OIDs).
        db = DATABASES["company"]()
        memory, shredded = run_both(db, "select distinct e from e in Employees")
        assert {e.oid for e in memory} == {e.oid for e in shredded}


# ---------------------------------------------------------------------------
# Typed refusals and oracle skip accounting
# ---------------------------------------------------------------------------


def _inheritance_db():
    schema = Schema()
    schema.define_class("Person", name=STRING)
    schema.define_class("Employee", extends="Person", salary=INT)
    schema.define_extent("People", "Person")
    schema.define_extent("Employees", "Employee")
    db = Database(schema)
    db.add_extent("People", [Record(name="p")])
    db.add_extent("Employees", [Record(name="e", salary=1)])
    return db


class TestRefusals:
    def test_inheritance_is_refused(self):
        with pytest.raises(BackendUnsupportedError):
            ShreddedStore(_inheritance_db())

    def test_null_collection_attribute_is_refused_per_extent(self):
        schema = Schema()
        schema.define_class("T", k=INT, kids=set_of(INT))
        schema.define_extent("Ts", "T")
        schema.define_class("U", k=INT)
        schema.define_extent("Us", "U")
        db = Database(schema)
        db.add_extent(
            "Ts", [Record(k=1, kids=SetValue([1])), Record(k=2, kids=NULL)]
        )
        db.add_extent("Us", [Record(k=1)])
        store = ShreddedStore(db)  # other extents still shred
        assert "Ts" in store.refusals
        with pytest.raises(BackendUnsupportedError):
            store.extent("Ts")
        assert store.extent("Us") == db.extent("Us")

    def test_mixed_column_types_are_refused(self):
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k="one")])
        store = ShreddedStore(db)
        assert "Ts" in store.refusals

    def test_collection_of_collections_is_refused(self):
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent(
            "Ts", [Record(k=1, kids=SetValue([SetValue([1, 2])]))]
        )
        store = ShreddedStore(db)
        assert "Ts" in store.refusals

    def test_unnest_off_is_refused(self):
        db = DATABASES["ab"]()
        pipeline = _pipeline(db, backend="sqlite", unnest=False)
        with pytest.raises(BackendUnsupportedError):
            pipeline.run_oql("select a from a in A")

    def test_unknown_backend_is_a_planning_error(self):
        db = DATABASES["ab"]()
        with pytest.raises(PlanningError):
            _pipeline(db, backend="duckdb").run_oql("select a from a in A")

    def test_refusal_on_touched_extent_only(self):
        # A query that never touches the refused extent runs fine.
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        schema.define_class("U", k=INT)
        schema.define_extent("Us", "U")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k="bad")])
        db.add_extent("Us", [Record(k=7)])
        assert _pipeline(db, backend="sqlite").run_oql(
            "select u.k from u in Us"
        ) == BagValue([7])
        with pytest.raises(BackendUnsupportedError):
            _pipeline(db, backend="sqlite").run_oql("select t.k from t in Ts")


class TestOracleIntegration:
    def test_sqlite_paths_are_registered(self):
        names = [name for name, _ in PATHS]
        assert len(names) == 14
        assert "sqlite-shredded" in names
        assert "sqlite-shredded-pushdown" in names
        assert "sqlite-shredded-cached-plan" in names

    def test_agreement_on_demo_database(self):
        db = DATABASES["company"]()
        verdict = check_sample(
            "select distinct e.name from e in Employees where e.dno = 1",
            {},
            db,
        )
        assert verdict.agreed
        assert verdict.skipped == []

    def test_refusal_counts_as_skip_not_disagreement(self):
        verdict = check_sample(
            "select p.name from p in People", {}, _inheritance_db()
        )
        skipped = {outcome.path for outcome in verdict.skipped}
        assert skipped == {
            "sqlite-shredded",
            "sqlite-shredded-pushdown",
            "sqlite-shredded-cached-plan",
        }
        assert verdict.agreed  # skips are not disagreements
        for outcome in verdict.skipped:
            assert "SKIPPED" in outcome.describe()


# ---------------------------------------------------------------------------
# Stats / EXPLAIN surfaces
# ---------------------------------------------------------------------------


class TestObservability:
    def test_stats_report_flat_queries(self):
        db = DATABASES["company"]()
        stats = _pipeline(db, backend="sqlite").run_oql_stats(
            "select distinct e.name from e in Employees where e.salary > 0"
        )
        assert stats.backend == "sqlite"
        assert stats.flat_queries
        sql, rows, sql_ms, decode_ms = stats.flat_queries[0]
        assert sql.startswith("SELECT") and rows >= 0
        assert sql_ms >= 0.0 and decode_ms >= 0.0
        report = stats.report()
        assert "backend=sqlite" in report
        assert "flat query:" in report
        assert "ms sql" in report and "ms decode" in report

    def test_explain_shows_generated_sql(self):
        db = DATABASES["company"]()
        compiled = _pipeline(db, backend="sqlite").compile_oql(
            "select distinct e.name from e in Employees where e.salary > 0"
        )
        explain = compiled.explain(db)
        assert "backend: sqlite" in explain
        assert "[sql]" in explain and "SELECT" in explain

    def test_governor_limits_apply_to_sql_rows(self):
        from repro.errors import BudgetExceeded

        db = DATABASES["company"]()
        with pytest.raises(BudgetExceeded):
            _pipeline(db, backend="sqlite", max_rows=3).run_oql(
                "select e.name from e in Employees"
            )


# ---------------------------------------------------------------------------
# The cross-backend corpus parity sweep (mirrors test_batch.py)
# ---------------------------------------------------------------------------


_FAMILY_DBS = {family: DATABASES[family]() for family in DATABASES}


class TestCorpusParity:
    """Every corpus query, both backends, zero silent skips.

    A BackendUnsupportedError here would be *counted* — the refusals list
    below is asserted empty, so any future gap fails loudly instead of
    shrinking coverage."""

    refusals: list = []

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_backend_parity(self, query):
        db = _FAMILY_DBS[query.family]
        memory = _pipeline(db).run_oql(query.oql)
        try:
            shredded = _pipeline(db, backend="sqlite").run_oql(query.oql)
        except BackendUnsupportedError as exc:  # pragma: no cover - none expected
            TestCorpusParity.refusals.append((query.name, str(exc)))
            pytest.fail(f"backend refused corpus query {query.name}: {exc}")
        assert results_equal(memory, shredded), query.name

    def test_zero_silent_skips(self):
        assert TestCorpusParity.refusals == []

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_stats_path_parity(self, query):
        # The stats entry point shares the sqlite branch with execute();
        # spot-check the whole corpus agrees there too (cheap: plan cache).
        db = _FAMILY_DBS[query.family]
        pipeline = _pipeline(db, backend="sqlite")
        stats = pipeline.run_oql_stats(query.oql)
        memory = _pipeline(db).run_oql(query.oql)
        assert results_equal(memory, stats.result), query.name
