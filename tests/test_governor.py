"""Governor tests: timeouts, budgets, cancellation, and thread-safe serving.

The governor is the pipeline's resource-control layer: every limit must trip
*cooperatively* (mid-stream, from inside the iterator model), fail with a
structured GovernorError, and leave the pipeline fully usable — including
for other threads running queries against the same pipeline at that moment.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.datagen import company_database
from repro.engine.governor import CancelToken, Governor, estimate_bytes
from repro.errors import (
    BudgetExceeded,
    GovernorError,
    QueryCancelled,
    QueryTimeout,
)
from repro.testing.oracle import results_equal


@pytest.fixture(scope="module")
def db():
    return company_database(num_employees=60, num_departments=8, seed=2)


CROSS = "select e.name from e in Employees, d in Departments"


class TestRowBudget:
    def test_trips_with_structured_error(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=50))
        with pytest.raises(BudgetExceeded, match=r"max_rows=50"):
            pipeline.run_oql(CROSS)

    def test_trips_exactly_one_unit_over(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=50))
        with pytest.raises(BudgetExceeded, match=r"51 work units"):
            pipeline.run_oql(CROSS)

    def test_generous_budget_does_not_trip(self, db):
        limited = QueryPipeline(db, OptimizerOptions(max_rows=10_000_000))
        assert limited.run_oql(CROSS) == QueryPipeline(db).run_oql(CROSS)

    def test_counts_join_pairs_not_output_rows(self, db):
        """A selective join still pays for every pair it considers — the
        budget bounds *work*, so a cross-join blowup that emits almost
        nothing cannot hide from it."""
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=100))
        with pytest.raises(BudgetExceeded):
            # Always-false non-equi predicate over both sides: it cannot be
            # pushed below the join or hashed, so the nested loop considers
            # all 480 pairs while emitting zero rows.
            pipeline.run_oql(
                "select e.name from e in Employees, d in Departments "
                "where e.salary < d.budget - 1000000000"
            )

    def test_interpreted_tier_also_governed(self, db):
        pipeline = QueryPipeline(
            db, OptimizerOptions(unnest=False, max_rows=50)
        )
        with pytest.raises(BudgetExceeded):
            pipeline.run_oql(CROSS)

    def test_pipeline_usable_after_trip(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=50))
        with pytest.raises(BudgetExceeded):
            pipeline.run_oql(CROSS)
        # A query within budget runs fine on the same pipeline afterwards.
        assert pipeline.run_oql("count( select d from d in Departments )") == 8


    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_trips_exactly_when_work_exceeds_the_budget(self, db, slack):
        # Work totals are deterministic, so the outcome at a budget around
        # the query's measured total is too: one unit short trips, the
        # exact total and anything above it run to completion.
        oql = "select distinct e.name from e in Employees"
        work = QueryPipeline(
            db, OptimizerOptions(timeout=3600.0)
        ).run_oql_stats(oql).governor_ticks
        assert work > 0
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=work + slack))
        if slack < 0:
            with pytest.raises(BudgetExceeded, match=rf"{work} work units"):
                pipeline.run_oql(oql)
        else:
            assert results_equal(
                pipeline.run_oql(oql), QueryPipeline(db).run_oql(oql)
            )


#: One query per plan shape, each with a row budget below its total work:
#: (the operator that shape's plan must contain, query, max_rows).
BUDGET_SHAPES = (
    ("Scan(", "select e.name from e in Employees", 25),
    ("Select(", "select e.name from e in Employees where e.salary > 0", 25),
    ("Unnest(", "select c.name from e in Employees, c in e.children", 70),
    (
        "HashJoin(",
        "select e.name from e in Employees, d in Departments "
        "where e.dno = d.dno",
        100,
    ),
    ("NLJoin(", CROSS, 100),
)


class TestRowBudgetContract:
    """``max_rows=N`` fails at exactly N + 1 work units on every plan shape
    and chunk size: units are settled in steps that stop at the budget."""

    @pytest.mark.parametrize(
        "operator,oql,budget", BUDGET_SHAPES, ids=[s[0] for s in BUDGET_SHAPES]
    )
    @pytest.mark.parametrize("size", [1, 7, 1024])
    def test_trips_at_exactly_one_unit_over(self, db, operator, oql, budget, size):
        pipeline = QueryPipeline(
            db, OptimizerOptions(max_rows=budget, batch_size=size)
        )
        assert operator in pipeline.compile_oql(oql).physical(db).explain()
        with pytest.raises(BudgetExceeded, match=rf"\b{budget + 1} work units"):
            pipeline.run_oql(oql)


#: Plans whose blocking builds buffer under a memory budget: a collection
#: nest, a hash-join build and a nested-loop inner side.
BLOCKING_QUERIES = (
    "select struct(D: d.name, E: (select e.name from e in Employees "
    "where e.dno = d.dno)) from d in Departments",
    "select e.name from e in Employees, d in Departments where e.dno = d.dno",
    CROSS,
)


class TestTimeout:
    def test_expired_deadline_trips(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(timeout=0.0))
        with pytest.raises(QueryTimeout, match="timeout"):
            pipeline.run_oql(CROSS)

    def test_generous_deadline_does_not_trip(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(timeout=60.0))
        assert pipeline.run_oql(CROSS) == QueryPipeline(db).run_oql(CROSS)

    def test_error_carries_query_and_stage(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(timeout=0.0))
        with pytest.raises(QueryTimeout) as info:
            pipeline.run_oql(CROSS)
        assert info.value.source == CROSS
        assert info.value.stage == "execute"


class TestMemoryBudget:
    def test_blocking_operator_build_trips(self, db):
        # The hash join materializes the right input; ~100 bytes cannot
        # hold 8 department environments.
        pipeline = QueryPipeline(db, OptimizerOptions(max_bytes=100))
        with pytest.raises(BudgetExceeded, match="memory budget"):
            pipeline.run_oql(
                "select e.name from e in Employees, d in Departments "
                "where e.dno = d.dno"
            )

    def test_generous_budget_does_not_trip(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_bytes=100_000_000))
        query = (
            "select e.name from e in Employees, d in Departments "
            "where e.dno = d.dno"
        )
        assert pipeline.run_oql(query) == QueryPipeline(db).run_oql(query)

    @pytest.mark.parametrize("oql", BLOCKING_QUERIES)
    def test_budgeted_run_executes_the_unbudgeted_operators(self, db, oql):
        budgeted = QueryPipeline(
            db, OptimizerOptions(max_bytes=100_000_000)
        ).run_oql_stats(oql)
        plain = QueryPipeline(db).run_oql_stats(oql)
        assert budgeted.governor_peak_bytes > 0
        assert results_equal(budgeted.result, plain.result)
        # Same operators (variable names differ between compilations),
        # same rows, same chunks.
        def shape(stats):
            return [
                (op.operator.split("(")[0], op.rows_produced, op.batches_produced)
                for op in stats.operators
            ]

        assert shape(budgeted) == shape(plain)
        # Every operator below the root reports its chunks.
        lines = budgeted.report().splitlines()
        operator_lines = [line for line in lines if line.startswith("  ")]
        assert operator_lines
        assert all("batches=" in line for line in operator_lines)

    @pytest.mark.parametrize("oql", BLOCKING_QUERIES)
    def test_every_blocking_build_charges(self, db, oql):
        pipeline = QueryPipeline(db, OptimizerOptions(max_bytes=100))
        with pytest.raises(BudgetExceeded, match="memory budget"):
            pipeline.run_oql(oql)

    def test_estimate_bytes_is_shallow_but_positive(self):
        assert estimate_bytes(0) > 0
        assert estimate_bytes("hello") > 0
        assert estimate_bytes((1, 2, 3)) > estimate_bytes(())


class TestCancellation:
    def test_pre_cancelled_token(self, db):
        token = CancelToken()
        token.cancel()
        pipeline = QueryPipeline(db)
        with pytest.raises(QueryCancelled):
            pipeline.run_oql(CROSS, cancel_token=token)

    def test_cancel_mid_stream_from_another_thread(self, db):
        """A long-running query stops cooperatively when another thread
        flips the token while rows are flowing."""
        token = CancelToken()
        started = threading.Event()
        big = company_database(num_employees=400, num_departments=40, seed=3)
        pipeline = QueryPipeline(big)
        # tick_interval is 1024, so the canceller has many checkpoints to
        # land between on this ~16k-pair cross join.
        query = "select e.name from e in Employees, d in Departments"

        def cancel_soon():
            started.wait(timeout=5)
            token.cancel()

        canceller = threading.Thread(target=cancel_soon)
        canceller.start()
        started.set()
        try:
            with pytest.raises(QueryCancelled):
                # Retry until the cancel lands mid-query (it may need one
                # or two runs for the thread to get scheduled).
                for _ in range(1000):
                    pipeline.run_oql(query, cancel_token=token)
        finally:
            canceller.join()

    def test_pre_cancelled_token_stops_a_scan_free_plan(self, db):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            QueryPipeline(db).run_oql("1 + 2", cancel_token=token)

    def test_cancel_from_a_timer_stops_a_nested_loop_join(self):
        # A theta join cannot be hashed: the nested loop considers every
        # pair, and the cancellation must land between its checkpoints.
        big = company_database(num_employees=400, num_departments=16, seed=3)
        pipeline = QueryPipeline(big)
        oql = (
            "select struct(a: e.name, b: f.name) from e in Employees, "
            "f in Employees where e.salary > f.salary"
        )
        token = CancelToken()
        timer = threading.Timer(0.005, token.cancel)
        timer.start()
        try:
            with pytest.raises(QueryCancelled):
                for _ in range(1000):
                    pipeline.run_oql(oql, cancel_token=token)
        finally:
            timer.cancel()
            timer.join()

    def test_concurrent_cancels_are_idempotent(self):
        token = CancelToken()
        threads = [threading.Thread(target=token.cancel) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert token.cancelled
        token.cancel()
        assert token.cancelled

    def test_token_is_reusable_across_queries(self, db):
        token = CancelToken()
        pipeline = QueryPipeline(db)
        assert pipeline.run_oql(
            "count( select e from e in Employees )", cancel_token=token
        ) == 60
        token.cancel()
        with pytest.raises(QueryCancelled):
            pipeline.run_oql(CROSS, cancel_token=token)


class TestGovernorUnit:
    def test_no_limits_never_trips(self):
        governor = Governor()
        for _ in range(5000):
            governor.tick()
        governor.check()
        assert governor.ticks == 5000

    def test_row_budget_exact(self):
        governor = Governor(max_rows=10)
        with pytest.raises(BudgetExceeded):
            for _ in range(11):
                governor.tick()
        assert governor.ticks == 11

    def test_tick_many_accounts_every_unit(self):
        # Batched settles must neither lose units nor trip early: exactly
        # the budget passes, and the next unit trips.
        governor = Governor(max_rows=8000, tick_interval=64)
        for _ in range(800):
            governor.tick_many(10)
        assert governor.ticks == 8000
        with pytest.raises(BudgetExceeded):
            governor.tick_many(1)
        assert governor.ticks == 8001

    def test_charge_and_release(self):
        governor = Governor(max_bytes=1000)
        governor.charge(600)
        governor.release(600)
        governor.charge(600)  # fine again: budget tracks live bytes
        assert governor.peak_bytes == 600
        with pytest.raises(BudgetExceeded):
            governor.charge(600)

    def test_all_errors_are_governor_errors(self):
        assert issubclass(QueryTimeout, GovernorError)
        assert issubclass(BudgetExceeded, GovernorError)
        assert issubclass(QueryCancelled, GovernorError)


class TestConcurrentServing:
    """One pipeline object, many threads — the thread-safety contract."""

    QUERIES = [
        "select distinct e.name from e in Employees where e.salary > 30000",
        "select struct(D: d.name, C: count(select e from e in Employees "
        "where e.dno = d.dno)) from d in Departments",
        "sum( select e.salary from e in Employees )",
        "select e.name from e in Employees, d in Departments "
        "where e.dno = d.dno and d.budget > 0",
        "count( select d from d in Departments )",
        "select e.name from e in Employees order by value",
    ]

    def test_concurrent_corpus_matches_sequential(self, db):
        pipeline = QueryPipeline(db)
        expected = [pipeline.run_oql(q) for q in self.QUERIES]
        jobs = self.QUERIES * 8  # hammer the plan cache with repeats

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(pipeline.run_oql, jobs))

        for i, result in enumerate(results):
            assert result == expected[i % len(self.QUERIES)]
        # Repeats must have been served from the (locked) plan cache.
        assert pipeline.plan_cache.hits >= len(jobs) - len(self.QUERIES)

    def test_concurrent_queries_with_params(self, db):
        pipeline = QueryPipeline(db)
        source = "select e.name from e in Employees where e.dno = :d"
        expected = {d: pipeline.run_oql(source, d=d) for d in range(8)}

        def run(d):
            return d, pipeline.run_oql(source, d=d)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for d, result in pool.map(run, list(range(8)) * 5):
                assert result == expected[d]

    def test_one_governed_failure_leaves_others_unaffected(self, db):
        """A tripping query on a shared pipeline must not poison the
        concurrent queries running beside it."""
        pipeline = QueryPipeline(db)
        good = "select distinct e.name from e in Employees"
        expected = pipeline.run_oql(good)
        token = CancelToken()
        token.cancel()

        def doomed():
            try:
                pipeline.run_oql(CROSS, cancel_token=token)
            except QueryCancelled:
                return "cancelled"
            return "completed"

        def fine():
            return pipeline.run_oql(good)

        with ThreadPoolExecutor(max_workers=8) as pool:
            doomed_futures = [pool.submit(doomed) for _ in range(10)]
            fine_futures = [pool.submit(fine) for _ in range(10)]
            assert all(f.result() == "cancelled" for f in doomed_futures)
            assert all(f.result() == expected for f in fine_futures)


class TestGovernorStats:
    def test_stats_report_work_units(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=10_000_000))
        stats = pipeline.run_oql_stats("select e.name from e in Employees")
        assert stats.governor_ticks > 0
        assert "work units" in stats.report()

    def test_ungoverned_stats_stay_zero(self, db):
        stats = QueryPipeline(db).run_oql_stats(
            "select e.name from e in Employees"
        )
        assert stats.governor_ticks == 0
        assert "work units" not in stats.report()

    def test_peak_bytes_reported_for_blocking_plans(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_bytes=100_000_000))
        stats = pipeline.run_oql_stats(
            "select e.name from e in Employees, d in Departments "
            "where e.dno = d.dno"
        )
        assert stats.governor_peak_bytes > 0
        assert "bytes buffered" in stats.report()
