"""Tests for the staged pipeline: stage instrumentation, the plan cache,
and prepared-statement parameters (``:name``)."""

from __future__ import annotations

import pytest

from repro.calculus.evaluator import UnboundParameterError
from repro.calculus.terms import Param, param_names
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.core.pipeline import PIPELINE_STAGES, PlanCache, QueryPipeline
from repro.data.database import Database
from repro.data.datagen import company_database
from repro.data.values import Record, SetValue
from repro.oql import parameterize_literals
from tests.corpus import CORPUS


@pytest.fixture()
def db() -> Database:
    """A small private database (cache tests mutate it)."""
    return company_database(num_employees=30, num_departments=6, seed=11)


PARAM_QUERY = "select e.name from e in Employees where e.dno = :d and e.age > :a"


class TestStages:
    def test_compile_records_stage_sequence(self, db):
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql(PARAM_QUERY)
        names = [stage.name for stage in compiled.stages]
        assert names == [
            "parse", "translate", "typecheck", "normalize", "unnest",
            "simplify", "optimize", "plan",
        ]
        assert all(name in PIPELINE_STAGES for name in names)

    def test_stage_snapshots_show_every_representation(self, db):
        compiled = QueryPipeline(db).compile_oql(PARAM_QUERY)
        snapshots = {stage.name: stage.snapshot for stage in compiled.stages}
        assert snapshots["parse"].startswith("select ")
        assert ":d" in snapshots["parse"]
        assert snapshots["translate"].startswith("U+{")
        assert "scan[" in snapshots["unnest"]
        assert "Scan(" in snapshots["plan"]
        report = compiled.explain_stages()
        for name in snapshots:
            assert f"== {name} " in report

    def test_stage_timings_are_recorded(self, db):
        compiled = QueryPipeline(db).compile_oql(PARAM_QUERY)
        assert all(stage.elapsed_ms >= 0.0 for stage in compiled.stages)

    def test_optional_stages_follow_options(self, db):
        options = OptimizerOptions(unnest=False, typecheck=True)
        compiled = QueryPipeline(db, options).compile_oql(PARAM_QUERY)
        names = [stage.name for stage in compiled.stages]
        assert names == ["parse", "translate", "typecheck", "normalize"]
        assert compiled.optimized is None

    def test_compile_term_skips_front_end_stages(self, db):
        pipeline = QueryPipeline(db)
        term = pipeline.compile_oql(PARAM_QUERY).term
        compiled = pipeline.compile_term(term)
        names = [stage.name for stage in compiled.stages]
        assert names[0] == "typecheck"
        assert "parse" not in names

    def test_stage_counts_accumulate_across_queries(self, db):
        pipeline = QueryPipeline(db)
        pipeline.compile_oql("select e.name from e in Employees")
        pipeline.compile_oql("select d.dno from d in Departments")
        assert pipeline.stage_counts["parse"] == 2
        assert pipeline.stage_counts["normalize"] == 2

    def test_constant_query_plans_without_an_extent_scan(self, db):
        compiled = QueryPipeline(db).compile_oql("1 + 2")
        physical = compiled.physical(db, {})
        assert "Scan(" not in physical.explain()
        assert compiled.execute(db) == 3


class TestPlanCache:
    def test_repeat_compile_is_a_cache_hit(self, db):
        pipeline = QueryPipeline(db)
        first = pipeline.compile_oql(PARAM_QUERY)
        second = pipeline.compile_oql(PARAM_QUERY)
        assert second is first
        assert pipeline.plan_cache.hits == 1
        assert pipeline.plan_cache.misses == 1

    def test_cache_hit_skips_recompilation(self, db):
        pipeline = QueryPipeline(db)
        pipeline.compile_oql(PARAM_QUERY)
        counts_after_first = dict(pipeline.stage_counts)
        pipeline.compile_oql(PARAM_QUERY)
        pipeline.compile_oql(PARAM_QUERY)
        # parse/normalize/unnest (and every other stage) ran exactly once.
        assert dict(pipeline.stage_counts) == counts_after_first
        assert pipeline.stage_counts["parse"] == 1
        assert pipeline.stage_counts["normalize"] == 1
        assert pipeline.stage_counts["unnest"] == 1

    def test_whitespace_normalization_shares_the_entry(self, db):
        pipeline = QueryPipeline(db)
        pipeline.compile_oql("select e.name   from e in Employees")
        pipeline.compile_oql("select e.name from\n  e in Employees")
        assert pipeline.plan_cache.hits == 1

    def test_schema_change_invalidates(self, db):
        pipeline = QueryPipeline(db)
        pipeline.compile_oql(PARAM_QUERY)
        db.add_extent("Extras", [Record(name="x", dno=1, age=1)])
        pipeline.compile_oql(PARAM_QUERY)
        assert pipeline.plan_cache.hits == 0
        assert pipeline.plan_cache.misses == 2

    def test_index_creation_invalidates(self, db):
        pipeline = QueryPipeline(db)
        pipeline.compile_oql(PARAM_QUERY)
        db.create_index("Employees", "dno")
        compiled = pipeline.compile_oql(PARAM_QUERY)
        assert pipeline.plan_cache.hits == 0
        # The fresh plan actually uses the new index.
        assert "IndexScan" in compiled.explain(db)

    def test_analyze_invalidates(self, db):
        pipeline = QueryPipeline(db)
        pipeline.compile_oql(PARAM_QUERY)
        db.analyze()
        pipeline.compile_oql(PARAM_QUERY)
        assert pipeline.plan_cache.misses == 2

    def test_view_redefinition_invalidates(self, db):
        pipeline = QueryPipeline(db)
        pipeline.define_view(
            "define seniors as select e from e in Employees where e.age > 50"
        )
        query = "select s.name from s in seniors"
        first = pipeline.run_oql(query)
        pipeline.define_view(
            "define seniors as select e from e in Employees where e.age > 20"
        )
        second = pipeline.run_oql(query)
        assert pipeline.plan_cache.hits == 0
        assert len(second) >= len(first)

    def test_lru_eviction(self, db):
        pipeline = QueryPipeline(db, cache_size=2)
        q1 = "select e.name from e in Employees"
        q2 = "select d.dno from d in Departments"
        q3 = "select e.age from e in Employees"
        pipeline.compile_oql(q1)
        pipeline.compile_oql(q2)
        pipeline.compile_oql(q1)  # refresh q1: q2 is now least recently used
        pipeline.compile_oql(q3)  # evicts q2
        assert len(pipeline.plan_cache) == 2
        hits = pipeline.plan_cache.hits
        pipeline.compile_oql(q2)  # must recompile
        assert pipeline.plan_cache.hits == hits

    def test_clear_resets_counters(self):
        cache = PlanCache(maxsize=4)
        cache.lookup("nope")
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_stats_surface_through_execution_stats(self, db):
        pipeline = QueryPipeline(db)
        first = pipeline.run_oql_stats(PARAM_QUERY, d=1, a=0)
        assert not first.from_cache
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = pipeline.run_oql_stats(PARAM_QUERY, d=2, a=0)
        assert second.from_cache
        assert (second.cache_hits, second.cache_misses) == (1, 1)
        assert "cached plan" in second.report()
        assert "1 hits" in second.report()


class TestPreparedStatements:
    def test_param_names_discovered(self, db):
        compiled = QueryPipeline(db).compile_oql(PARAM_QUERY)
        assert compiled.param_names == {"d", "a"}
        assert param_names(compiled.prepared) == {"d", "a"}
        assert isinstance(Param("d"), Param)

    def test_rebinding_matches_inlined_constants(self, db):
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql(PARAM_QUERY)
        for dno, age in [(1, 0), (2, 30), (5, 99)]:
            inlined = pipeline.compile_oql(
                "select e.name from e in Employees "
                f"where e.dno = {dno} and e.age > {age}"
            )
            assert compiled.execute(db, d=dno, a=age) == inlined.execute(db)

    def test_bind_returns_independent_copy(self, db):
        compiled = QueryPipeline(db).compile_oql(PARAM_QUERY)
        bound = compiled.bind(d=1)
        assert bound is not compiled
        assert compiled.params == {}
        full = bound.bind(a=0)
        assert full.params == {"d": 1, "a": 0}
        assert full.execute(db) == compiled.execute(db, d=1, a=0)

    def test_execute_kwargs_override_bound_values(self, db):
        pipeline = QueryPipeline(db)
        bound = pipeline.compile_oql(PARAM_QUERY).bind(d=1, a=0)
        override = pipeline.compile_oql(
            "select e.name from e in Employees where e.dno = 2 and e.age > 0"
        )
        assert bound.execute(db, d=2) == override.execute(db)

    def test_null_param_matches_inlined_nil(self, db):
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql(
            "select e.name from e in Employees where e.dno = :d"
        )
        inlined = pipeline.compile_oql(
            "select e.name from e in Employees where e.dno = nil"
        )
        assert compiled.execute(db, d=None) == inlined.execute(db)
        assert len(compiled.execute(db, d=None)) == 0

    def test_collection_param_matches_inlined_disjunction(self, db):
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql(
            "select e.name from e in Employees where e.dno in :ds"
        )
        inlined = pipeline.compile_oql(
            "select e.name from e in Employees where e.dno = 1 or e.dno = 3"
        )
        result = compiled.execute(db, ds=SetValue([1, 3]))
        assert result == inlined.execute(db)
        assert len(result) > 0

    def test_missing_param_raises(self, db):
        compiled = QueryPipeline(db).compile_oql(PARAM_QUERY)
        with pytest.raises(UnboundParameterError, match="missing value"):
            compiled.execute(db, d=1)

    def test_unknown_param_rejected(self, db):
        compiled = QueryPipeline(db).compile_oql(PARAM_QUERY)
        with pytest.raises(UnboundParameterError, match="no parameter"):
            compiled.bind(nosuch=1)
        with pytest.raises(UnboundParameterError, match="no parameter"):
            compiled.execute(db, d=1, a=0, nosuch=1)

    def test_naive_interpretation_supports_params(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(unnest=False))
        compiled = pipeline.compile_oql(PARAM_QUERY)
        reference = QueryPipeline(db).compile_oql(PARAM_QUERY)
        assert compiled.execute(db, d=1, a=25) == reference.execute(db, d=1, a=25)

    def test_typecheck_accepts_params(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(typecheck=True))
        compiled = pipeline.compile_oql(PARAM_QUERY)
        assert compiled.execute(db, d=1, a=0) is not None

    def test_param_key_uses_index_scan(self, db):
        db.create_index("Employees", "dno")
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql(
            "select e.name from e in Employees where e.dno = :d"
        )
        assert "IndexScan" in compiled.explain(db)
        for dno in (1, 2, 4):
            inlined = pipeline.compile_oql(
                f"select e.name from e in Employees where e.dno = {dno}"
            )
            assert compiled.execute(db, d=dno) == inlined.execute(db)

    def test_order_by_key_may_be_parameterized(self, db):
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql(
            "select e.name as name, e.age as age from e in Employees "
            "where e.age > :a order by age desc"
        )
        result = compiled.execute(db, a=30)
        ages = [row["age"] for row in result.elements()]
        assert ages == sorted(ages, reverse=True)

    def test_optimizer_facade_is_the_pipeline(self, db):
        optimizer = Optimizer(db)
        assert isinstance(optimizer, QueryPipeline)
        compiled = optimizer.compile_oql(PARAM_QUERY)
        assert compiled.execute(db, d=1, a=0) == QueryPipeline(db).run_oql(
            PARAM_QUERY, d=1, a=0
        )


class TestParameterizeCorpus:
    """Lifting every literal of every corpus query into a parameter must not
    change any result — the property that makes plan caching sound for
    ad-hoc query streams that differ only in constants."""

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_parameterized_equals_inlined(self, query, databases):
        db = databases[query.family]
        pipeline = QueryPipeline(db)
        expected = pipeline.run_oql(query.oql)
        source, params = parameterize_literals(query.oql)
        compiled = pipeline.compile_oql(source)
        assert compiled.param_names == set(params)
        assert compiled.execute(db, **params) == expected

    @pytest.mark.parametrize(
        "query", [q for q in CORPUS if parameterize_literals(q.oql)[1]],
        ids=lambda q: q.name,
    )
    def test_parameterized_plan_is_reused_across_bindings(self, query, databases):
        db = databases[query.family]
        pipeline = QueryPipeline(db)
        source, params = parameterize_literals(query.oql)
        first = pipeline.compile_oql(source)
        second = pipeline.compile_oql(source)
        assert second is first
        assert second.execute(db, **params) == pipeline.run_oql(query.oql)
