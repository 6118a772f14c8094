"""Batch-at-a-time execution: chunk plumbing, batch kernels, semantics.

The engine has one execution protocol — columnar chunks — and its
contract is that chunking is *unobservable*: at every batch size the
results, the structured errors and the governor work-unit totals are
those of the row-at-a-time semantics.  These tests pin that contract
against the ``calculus-raw`` reference of :mod:`repro.testing.oracle` at
batch sizes 1, 7 and 1024, plus the chunk-boundary mechanics (partial
chunks, tiny and non-divisible batch sizes, empty inputs), the kernel
truncation protocol, and the EXPLAIN ANALYZE chunk accounting.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.algebra.operators import Scan, Select
from repro.calculus.evaluator import DivisionByZeroError, Evaluator
from repro.calculus.terms import BinOp, Const, If, Proj, Var
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.datagen import company_database, university_database
from repro.data.values import NULL, CollectionValue, Record
from repro.engine.batch import DEFAULT_BATCH_SIZE, Chunk
from repro.engine.compile import ExprCompiler
from repro.engine.planner import PlannerOptions, plan_physical
from repro.errors import QueryError
from repro.testing.oracle import PATHS, results_equal

#: The reference semantics: direct evaluation of the calculus term.
REFERENCE = dict(PATHS)["calculus-raw"]

#: Every batch-sensitive test runs at these chunk sizes: one row, a small
#: non-divisible size, and the default.
SIZES = (1, 7, DEFAULT_BATCH_SIZE)


def run_both(db, oql, batch_size=DEFAULT_BATCH_SIZE, **params):
    """Execute *oql* at every size in SIZES (and *batch_size*); assert each
    agrees with the calculus reference; return the *batch_size* result."""
    reference = REFERENCE(oql, params, db)
    results = {}
    for size in {*SIZES, batch_size}:
        pipeline = QueryPipeline(db, OptimizerOptions(batch_size=size))
        results[size] = pipeline.run_oql(oql, **params)
        assert results_equal(results[size], reference), (
            f"batch size {size} disagrees with the reference on {oql!r}"
        )
    return results[batch_size]


def both_fail(db, oql, batch_size=DEFAULT_BATCH_SIZE):
    """Every batch size must fail with a structured QueryError, and so must
    the reference; return (error at *batch_size*, reference error)."""
    with pytest.raises(Exception) as rexc:
        REFERENCE(oql, {}, db)
    errors = {}
    for size in {*SIZES, batch_size}:
        pipeline = QueryPipeline(db, OptimizerOptions(batch_size=size))
        with pytest.raises(QueryError) as bexc:
            pipeline.run_oql(oql)
        errors[size] = bexc.value
    return errors[batch_size], rexc.value


# ---------------------------------------------------------------------------
# Chunk plumbing
# ---------------------------------------------------------------------------


def _list_db(values) -> Database:
    # A *list* extent: scan order is the insertion order.
    db = Database()
    db.add_extent("N", [Record(v=v) for v in values], kind="list")
    return db


class TestChunk:
    def test_scan_chunks_are_never_empty_and_sizes_add_up(self):
        db = _list_db(range(10))
        scan = plan_physical(Scan("N", "n"), db, PlannerOptions(batch_size=3))
        chunks = list(scan.batches())
        assert [c.length for c in chunks] == [3, 3, 3, 1]
        assert [e["n"]["v"] for c in chunks for e in c.envs()] == list(range(10))

    def test_lazy_error_delivery_flushes_partial_chunk_first(self):
        # The fault sits at row 2: the rows before it arrive as a partial
        # chunk, and the error is raised only when the next one is pulled.
        db = _list_db([5, 4, 0, 2])
        pred = BinOp(">", BinOp("/", Const(100), Proj(Var("n"), "v")), Const(0))
        select = plan_physical(Select(Scan("N", "n"), pred), db)
        stream = select.batches()
        chunk = next(stream)
        assert [env["n"]["v"] for env in chunk.envs()] == [5, 4]
        with pytest.raises(QueryError, match="zero"):
            next(stream)

    def test_env_roundtrip(self):
        envs = [{"a": i, "b": -i} for i in range(4)]
        chunk = Chunk.from_envs(envs)
        assert chunk.length == 4
        assert chunk.env_at(2) == envs[2]
        assert list(chunk.envs()) == envs

    def test_from_envs_rejects_empty_input(self):
        # Chunks are never empty: a producer with nothing to emit must skip
        # the yield, not construct a zero-row chunk a kernel would choke on.
        with pytest.raises(ValueError, match="at least one row"):
            Chunk.from_envs([])


# ---------------------------------------------------------------------------
# Batch kernels: a full operator/value sweep against the interpreter
# ---------------------------------------------------------------------------


def _kernel_outcomes(kernel, rows) -> list:
    """The kernel over *rows* as one chunk: ``(type, value)`` per row it
    evaluated, then the error class of the row it truncated at."""
    cols = {name: [env[name] for env in rows] for name in rows[0]}
    values, t, err = kernel.fn(cols, len(rows))
    assert len(values) == t and (err is None) == (t == len(rows))
    outcomes = [(type(value), value) for value in values]
    return outcomes + ([] if err is None else [type(err)])


def _reference_outcomes(term, rows) -> list:
    """The interpreter row by row, in the same shape, stopping at the
    first fault."""
    evaluator = Evaluator(Database())
    outcomes = []
    for env in rows:
        try:
            value = evaluator.evaluate(term, env)
        except Exception as exc:  # noqa: BLE001 - errors are compared
            return outcomes + [type(exc)]
        outcomes.append((type(value), value))
    return outcomes


class TestKernelSweep:
    #: Every scalar shape the engine's 3VL arithmetic can meet, NULL
    #: included; the cross product drives every kernel branch (NULL
    #: propagation, scalar comparison, identity comparison, zero division,
    #: type faults) through the comprehension and its fault rerun.
    VALUES = (0, 1, 2, 2.5, -3, NULL, True, False, "s", "t")

    @pytest.mark.parametrize(
        "op", ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
               "and", "or"]
    )
    def test_kernel_matches_interpreter(self, op):
        # Anchored on the interpreter, not the row closure: the kernel's
        # fault rerun *is* the row closure, so that comparison would be
        # circular on exactly the rows that fault.
        term = BinOp(op, Var("x"), Var("y"))
        kernel = ExprCompiler().compile_kernel(term)
        rows = [{"x": x, "y": y} for x, y in product(self.VALUES, repeat=2)]
        expected = _reference_outcomes(term, rows)
        assert _kernel_outcomes(kernel, rows) == expected

    @pytest.mark.parametrize("shape", ["plus", "if"])
    def test_deep_term_kernel_matches_interpreter(self, shape):
        # 120 nested nodes exceed the comprehension form's parser limits,
        # so the whole kernel is the loop over the row closure; it must
        # still agree with the interpreter, fault row and class included.
        term = BinOp("/", Const(100), Var("x"))
        for _ in range(120):
            if shape == "plus":
                term = BinOp("+", term, Const(1))
            else:
                term = If(BinOp("==", Var("y"), Const(0)), Const(0), term)
        kernel = ExprCompiler().compile_kernel(term)
        assert kernel.fn.__qualname__.startswith("_loop_kernel")
        rows = [
            {"x": x, "y": y}
            for x, y in zip([1, NULL, 4, 0, 5], [1, 1, 0, 1, 1])
        ]
        outcomes = _kernel_outcomes(kernel, rows)
        assert outcomes == _reference_outcomes(term, rows)
        assert len(outcomes) == 4 and outcomes[-1] is DivisionByZeroError

    def test_predicate_kernel_three_valued_filter(self):
        # x > y under 3VL: NULL operands filter as False, never raise.
        compiler = ExprCompiler()
        term = BinOp(">", Var("x"), Const(1))
        kernel = compiler.compile_predicate_kernel(term)
        col = [0, 1, 2, NULL, 5]
        flags, t, err = kernel.fn({"x": col}, len(col))
        assert err is None and t == len(col)
        assert flags == [False, False, True, False, True]


# ---------------------------------------------------------------------------
# 3VL and NULL handling through full queries
# ---------------------------------------------------------------------------


def _null_db() -> Database:
    db = Database()
    db.add_extent(
        "T",
        [
            Record(a=1, b=10),
            Record(a=NULL, b=20),
            Record(a=3, b=NULL),
            Record(a=NULL, b=NULL),
            Record(a=5, b=50),
            Record(a=0, b=60),
        ],
    )
    return db


NULL_QUERIES = (
    "select t.a + t.b from t in T",
    "select t.a * 2 - t.b from t in T",
    "select t from t in T where t.a > 2",
    "select t from t in T where t.a > 2 and t.b < 55",
    "select t from t in T where t.a > 2 or t.b > 15",
    "select t from t in T where not (t.a = 3)",
    "select struct(s: t.a + t.b, p: t.a) from t in T where t.b >= 10",
    "sum( select t.a from t in T where t.b > 5 )",
    "count( select t from t in T where t.a = t.a )",
    "exists t in T: t.a = 5",
    "for all t in T: t.b > 5",
)


class TestNullQueries:
    @pytest.mark.parametrize("oql", NULL_QUERIES)
    @pytest.mark.parametrize("size", [1, 2, 7, DEFAULT_BATCH_SIZE])
    def test_batch_agrees_with_row_under_nulls(self, oql, size):
        run_both(_null_db(), oql, batch_size=size)


# ---------------------------------------------------------------------------
# Error truncation semantics
# ---------------------------------------------------------------------------


class TestErrorTruncation:
    # List extents: these tests pin down where in the scan order the fault
    # sits relative to the witness.
    _db = staticmethod(_list_db)

    @pytest.mark.parametrize("size", [1, 3, DEFAULT_BATCH_SIZE])
    def test_mid_stream_division_fault_on_both_paths(self, size):
        # The zero sits mid-extent: the batch kernel truncates its chunk at
        # that row and the rerun raises the same error the reference
        # raises.
        db = self._db([5, 4, 0, 2, 1])
        b, r = both_fail(db, "select 100 / n.v from n in N", batch_size=size)
        assert "zero" in str(b) and "zero" in str(r)
        assert type(b) is type(r)

    def test_exists_witness_before_fault_succeeds_on_both_paths(self):
        # The witness (v = 5, where 100/5 > 10) precedes the poison row
        # inside the same chunk: `some` merges the kernel's truncated
        # prefix in stream order and short-circuits before the captured
        # error would surface — exactly the reference's laziness.
        db = self._db([5, 0, 3])
        assert run_both(db, "exists n in N: 100 / n.v > 10") is True

    def test_exists_witness_after_fault_fails_on_both_paths(self):
        db = self._db([50, 0, 5])
        both_fail(db, "exists n in N: 100 / n.v > 10")

    def test_witness_in_earlier_chunk_skips_poisoned_chunk(self):
        # With two-row chunks the witness chunk completes before the
        # poisoned row's chunk is ever pulled: short-circuit consumption
        # must not force the fault.
        db = self._db([5, 6, 7, 0])
        assert run_both(db, "exists n in N: 100 / n.v > 10",
                        batch_size=2) is True


# ---------------------------------------------------------------------------
# Governor work-unit parity
# ---------------------------------------------------------------------------


#: Draining queries (no short-circuit) and their work-unit totals on the
#: company_db fixture: one unit per row scanned and per join pair
#: considered.  The totals are those the row-at-a-time engine ticked.
DRAINING_QUERIES = (
    ("sum( select e.salary from e in Employees )", 30),
    ("select e.name from e in Employees where e.salary > 30000", 30),
    ("count( select struct(e: e.name, d: d.name) from e in Employees, "
     "d in Departments where e.dno = d.dno )", 57),
    ("select struct( D: d.dno, N: count( select e from e in Employees "
     "where e.dno = d.dno ) ) from d in Departments", 57),
)


class TestGovernorParity:
    @pytest.mark.parametrize("oql,units", DRAINING_QUERIES)
    @pytest.mark.parametrize("size", SIZES)
    def test_work_units_match_row_mode_totals(self, oql, units, size, company_db):
        # A timeout configures a governor without a row budget; every
        # operator still ticks, and chunking must not change the total.
        stats = QueryPipeline(
            company_db, OptimizerOptions(timeout=3600.0, batch_size=size)
        ).run_oql_stats(oql)
        assert results_equal(stats.result, REFERENCE(oql, {}, company_db))
        assert stats.governor_ticks == units


# ---------------------------------------------------------------------------
# Batch boundaries
# ---------------------------------------------------------------------------


BOUNDARY_QUERIES = (
    "select e.name from e in Employees where e.salary > 30000",
    "select struct(e: e.name, c: c.name) from e in Employees, "
    "c in e.children where c.age > 5",
    "select distinct d.name from e in Employees, d in Departments "
    "where e.dno = d.dno",
    "avg( select e.salary from e in Employees where e.age < 50 )",
)


class TestBoundaries:
    @pytest.mark.parametrize("oql", BOUNDARY_QUERIES)
    @pytest.mark.parametrize("size", [1, 7])
    def test_tiny_and_non_divisible_chunks(self, oql, size, company_db):
        run_both(company_db, oql, batch_size=size)

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_batch_size_does_not_change_results(self, size):
        db = university_database(40, 12, seed=1998)
        oql = (
            "select struct(s: s.name, a: s.age) "
            "from s in Student where s.age > 20"
        )
        batched = run_both(db, oql, batch_size=size)
        # Bags keep scan order, so chunking must not reorder elements.
        assert list(batched.elements()) == list(
            QueryPipeline(db).run_oql(oql).elements()
        )

    @pytest.mark.parametrize("size", [1, 7, 64, DEFAULT_BATCH_SIZE])
    def test_float_sum_is_the_exact_left_fold(self, size):
        # Not approximately equal: every chunk folds into the running sum
        # in extent order, so no reassociation error is tolerated.
        db = company_database(97, 11, seed=23)
        oql = "sum( select e.salary * 1.0000001 from e in Employees )"
        expected = 0
        for employee in db.extent("Employees").elements():
            expected = expected + employee["salary"] * 1.0000001
        assert run_both(db, oql, batch_size=size) == expected

    def test_empty_extent(self):
        db = Database()
        db.add_extent("E", [Record(x=1)])
        db.add_extent("F", [])
        result = run_both(db, "select f.x from f in F")
        assert isinstance(result, CollectionValue) and len(result) == 0
        assert run_both(db, "count( select f from f in F )") == 0

    def test_interpreted_runs_produce_chunks(self, company_db):
        # With expression compilation off the kernels loop over the
        # interpreter: the same operators run and still chunk their output.
        pipeline = QueryPipeline(
            company_db, OptimizerOptions(compiled_exprs=False)
        )
        oql = "select e.name from e in Employees where e.salary > 30000"
        stats = pipeline.run_oql_stats(oql)
        assert all(
            op.batches_produced > 0 for op in stats.operators[1:]
        ), stats.report()
        assert {op.eval_mode for op in stats.operators} >= {"interpreted"}
        assert results_equal(
            stats.result, QueryPipeline(company_db).run_oql(oql)
        )


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE chunk accounting
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_report_carries_batch_annotations(self, company_db):
        stats = QueryPipeline(company_db).run_oql_stats(
            "select struct(e: e.name, d: d.name) from e in Employees, "
            "d in Departments where e.dno = d.dno"
        )
        report = stats.report()
        assert "batches=" in report and "batch_rows=" in report

    @pytest.mark.parametrize("size", [1, 7, DEFAULT_BATCH_SIZE])
    def test_root_accounting_balances(self, size, company_db):
        oql = ("select struct(e: e.name, d: d.name) from e in Employees, "
               "d in Departments where e.dno = d.dno")
        stats = QueryPipeline(
            company_db, OptimizerOptions(batch_size=size)
        ).run_oql_stats(oql)
        root = stats.operators[0]
        assert root.rows_produced == len(stats.result)
        # Every chunked operator's chunk row total matches the rows it
        # produced — chunks are an accounting view, not a second stream.
        chunked = [op for op in stats.operators if op.batches_produced]
        assert chunked, "batched execution produced no chunks"
        for op in chunked:
            assert op.batch_rows == op.rows_produced

    def test_chunk_count_respects_batch_size(self, company_db):
        oql = "select e.name from e in Employees"
        stats = QueryPipeline(
            company_db, OptimizerOptions(batch_size=7)
        ).run_oql_stats(oql)
        scan = next(
            op for op in stats.operators if op.operator.startswith("Scan")
        )
        expected = -(-scan.rows_produced // 7)  # ceil division
        assert scan.batches_produced == expected


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_cached_reexecution_stays_batched(self, company_db):
        pipeline = QueryPipeline(company_db)
        oql = "select e.name from e in Employees where e.salary > 30000"
        first = pipeline.run_oql_stats(oql)
        second = pipeline.run_oql_stats(oql)
        assert second.from_cache
        assert results_equal(first.result, second.result)
        assert any(op.batches_produced for op in second.operators)
