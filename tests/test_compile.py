"""The expression compiler: compiled closures and batch kernels must be
indistinguishable from the tree-walking interpreter.

Five groups of guarantees:

* **Three-valued NULL logic** — a parametrized sweep over comparisons,
  arithmetic, the full ``and``/``or`` truth tables, ``if``, ``let``,
  projections off NULL, and division by zero, each checked for exact
  agreement with :class:`~repro.calculus.evaluator.Evaluator` (same value,
  or same exception class at the same row).  Every case runs as a row
  closure, as a batch kernel over a two-row chunk, and inside a ``Lambda``
  application (the body evaluated in a captured environment).
* **Per-node fallback** — a residual comprehension subtree degrades that
  subtree to the interpreter, leaves the rest compiled, reports ``mixed``,
  and still produces the interpreter's value.
* **Blocking-operator memoization** — hash join, nested-loop join, and
  hash nest build their blocking side exactly once per execution even when
  their ``batches()`` stream is re-entered; the regression is pinned by
  counting the build child's ``rows_produced``.
* **Codegen counts** — compiling the corpus generates no Python source,
  and its first execution at most one source per distinct kernel term.
* **EXPLAIN ANALYZE annotations** — per-operator ``eval_mode`` and
  ``eval_ms`` reporting, in both engine modes, including the rendered
  report text and the no-profiling default.
"""

from __future__ import annotations

import pytest

from corpus import CORPUS
from repro.calculus.evaluator import EvaluationError, Evaluator
from repro.calculus.monoids import SET
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Generator,
    If,
    IsNull,
    Lambda,
    Let,
    Not,
    Null,
    Proj,
    Var,
    path,
)
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import NULL, Record, SetValue
from repro.engine import compile as compile_module
from repro.engine.compile import CompiledExpr, ExprCompiler
from repro.engine.physical import (
    PHashJoin,
    PHashNest,
    PNestedLoopJoin,
    PScan,
    _Context,
)
from repro.testing.oracle import PATHS, check_sample

T, F, N = Const(True), Const(False), Null()
X = Var("x")


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.add_extent("R", [Record(k=i, v=i * 10) for i in range(6)])
    database.add_extent("S", [Record(k=i % 3, w=i) for i in range(6)])
    return database


def _engines(db):
    evaluator = Evaluator(db)
    compiler = ExprCompiler()
    compiler.activate(evaluator, db)
    return evaluator, compiler


def _outcome(fn):
    """(value, None) on success, (None, exception class) on failure."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return None, type(exc)


# ---------------------------------------------------------------------------
# Three-valued NULL logic: compiled == interpreted, as closures and kernels
# ---------------------------------------------------------------------------


def _null_cases() -> list:
    cases = []
    one = Const(1)
    for op in ("==", "!=", "<", "<=", ">", ">="):
        cases += [BinOp(op, N, one), BinOp(op, one, N), BinOp(op, N, N)]
    for op in ("+", "-", "*", "/"):
        cases += [BinOp(op, N, Const(2)), BinOp(op, Const(2), N)]
    for a in (T, F, N):
        for b in (T, F, N):
            cases += [BinOp("and", a, b), BinOp("or", a, b)]
    cases += [
        Not(N),
        IsNull(N),
        IsNull(Const(1)),
        If(N, Const(1), Const(2)),  # NULL condition takes the else branch
        Proj(N, "a"),  # path step off NULL is NULL
        Proj(Proj(X, "a"), "b"),  # x.a is NULL, so x.a.b is NULL
        BinOp("+", Proj(X, "n"), Const(1)),  # NULL attribute propagates
        Let("v", N, IsNull(Var("v"))),
        BinOp("/", Const(1), Const(0)),  # both engines raise EvaluationError
        BinOp("and", BinOp("==", Proj(X, "n"), Const(3)), F),
    ]
    return cases


_ENV = {"x": Record(a=NULL, n=NULL)}
#: A row on which every case evaluates without NULLs in the way.
_CLEAN = {"x": Record(a=Record(b=1), n=3)}


def _each_row(fn, rows) -> list:
    """*fn*'s outcome on each row, stopping after the first fault — the
    truncation a batch kernel reports."""
    outcomes = []
    for env in rows:
        outcomes.append(_outcome(lambda: fn(dict(env))))
        if outcomes[-1][1] is not None:
            break
    return outcomes


def _row_form(compiler, term, rows) -> list:
    compiled = compiler.compile(term)
    assert compiled.mode == "compiled"
    return _each_row(compiled, rows)


def _kernel_form(compiler, term, rows) -> list:
    cols = {"x": [env["x"] for env in rows]}
    values, t, err = compiler.compile_kernel(term).fn(cols, len(rows))
    assert len(values) == t and (err is None) == (t == len(rows))
    return [(value, None) for value in values] + (
        [] if err is None else [(None, type(err))]
    )


@pytest.mark.parametrize(
    "form", [_row_form, _kernel_form], ids=["row", "kernel"]
)
@pytest.mark.parametrize("term", _null_cases(), ids=repr)
def test_null_semantics_match_interpreter(term, form, db):
    evaluator, compiler = _engines(db)
    rows = [_ENV, _CLEAN]
    expected = _each_row(lambda env: evaluator.evaluate(term, env), rows)
    assert form(compiler, term, rows) == expected


@pytest.mark.parametrize("term", _null_cases(), ids=repr)
def test_null_semantics_match_on_closure_tier(term, db):
    # Wrapping in a Lambda application evaluates the body in the captured
    # environment of a closure call.
    wrapped = Apply(Lambda("_w", term), Const(0))
    evaluator, compiler = _engines(db)
    expected = _outcome(lambda: evaluator.evaluate(wrapped, dict(_ENV)))
    compiled = compiler.compile(wrapped)
    assert compiled.mode == "compiled"
    assert _outcome(lambda: compiled(dict(_ENV))) == expected


@pytest.mark.parametrize(
    "term, expected",
    [
        # Left-to-right short-circuit, strict NULL on the left operand:
        # the decided value wins before the NULL is ever looked at, but a
        # NULL left operand poisons the connective without evaluating the
        # right side (the interpreter's apply_binop semantics).
        (BinOp("and", F, N), False),
        (BinOp("and", T, N), NULL),
        (BinOp("and", N, F), NULL),
        (BinOp("or", T, N), True),
        (BinOp("or", F, N), NULL),
        (BinOp("or", N, T), NULL),
    ],
)
def test_connective_truth_table_pinned(term, expected, db):
    _, compiler = _engines(db)
    assert compiler.compile(term)({}) is expected


def test_predicate_treats_null_as_false(db):
    _, compiler = _engines(db)
    assert compiler.compile_predicate(BinOp("==", N, Const(1)))({}) is False
    assert compiler.compile_predicate(T)({}) is True
    with pytest.raises(EvaluationError):
        compiler.compile_predicate(Const(7))({})


# ---------------------------------------------------------------------------
# Per-node fallback and memoization
# ---------------------------------------------------------------------------


def test_residual_comprehension_falls_back_per_node(db):
    comp = Comprehension("sum", Var("v"), (Generator("v", Var("xs")),))
    term = BinOp("+", comp, Const(1))
    evaluator, compiler = _engines(db)
    env = {"xs": SetValue([1, 2, 3])}
    compiled = compiler.compile(term)
    assert compiled.mode == "mixed"
    assert compiled.fallback_nodes >= 1 and compiled.compiled_nodes >= 1
    assert compiled(dict(env)) == evaluator.evaluate(term, dict(env)) == 7


def test_memo_distinguishes_equal_constants_of_different_types(db):
    # Python's cross-type equality makes Const(True) == Const(1) ==
    # Const(1.0) with equal hashes; the memo must not serve one constant's
    # closure for another (fuzzer-found: a some-head Const(True) received
    # the closure of a sum-head Const(1), yielding a non-boolean predicate).
    _, compiler = _engines(db)
    assert compiler.compile(Const(1))({}) is not compiler.compile(T)({})
    assert compiler.compile(T)({}) is True
    assert compiler.compile(Const(1))({}) == 1
    assert type(compiler.compile(Const(1.0))({})) is float
    assert type(compiler.compile(Const(0))({})) is int
    assert compiler.compile(F)({}) is False


def test_compiled_terms_are_memoized_structurally(db):
    _, compiler = _engines(db)
    term = BinOp("==", path("r", "k"), Const(3))
    assert compiler.compile(term) is compiler.compile(term)
    # Value and predicate lowerings are distinct entries.
    assert compiler.compile(term) is not compiler.compile_predicate(term)


def test_compiled_query_reuses_one_compiler(db):
    pipeline = QueryPipeline(db)
    compiled = pipeline.compile_oql("select r.v from r in R where r.k > 2")
    assert compiled.expr_compiler() is compiled.expr_compiler()
    assert isinstance(compiled.expr_compiler(), ExprCompiler)


def test_no_compile_option_disables_the_compiler(db):
    pipeline = QueryPipeline(db, OptimizerOptions(compiled_exprs=False))
    compiled = pipeline.compile_oql("select r.v from r in R where r.k > 2")
    assert compiled.expr_compiler() is None
    assert compiled.execute(db) == QueryPipeline(db).run_oql(
        "select r.v from r in R where r.k > 2"
    )


def test_codegen_counts_on_the_corpus(databases, monkeypatch):
    # Row closures are composed, never generated, so cold compilation
    # compiles no Python source.  The first execution generates one
    # comprehension per kernel term at most: a faulting chunk reruns
    # through the term's row closure, not a second generated loop.
    sources = []
    define = compile_module._define

    def counting(source, namespace, name):
        sources.append(source)
        return define(source, namespace, name)

    monkeypatch.setattr(compile_module, "_define", counting)
    queries = [
        (QueryPipeline(databases[q.family]).compile_oql(q.oql), q.family)
        for q in CORPUS
    ]
    assert sources == []
    kernel_terms = 0
    for compiled, family in queries:
        compiled.execute(databases[family])
        memo = compiled.expr_compiler()._memo
        kernel_terms += sum(kind in ("kexpr", "kpred") for kind, *_ in memo)
    assert 0 < len(sources) <= kernel_terms


# ---------------------------------------------------------------------------
# Blocking operators build exactly once per execution
# ---------------------------------------------------------------------------


def _exhaust_twice(op):
    def drain():
        return [env for chunk in op.batches() for env in chunk.envs()]

    return drain(), drain()


def test_hash_join_build_side_runs_once(db):
    context = _Context(db)
    left, right = PScan(context, "R", "r"), PScan(context, "S", "s")
    join = PHashJoin(
        context,
        left,
        right,
        (path("r", "k"),),
        (path("s", "k"),),
        Const(True),
        ("s",),
        False,
    )
    first, second = _exhaust_twice(join)
    assert len(first) == len(second) == 6
    # The build (right) side was scanned exactly once; the probe side re-ran.
    assert right.rows_produced == 6
    assert left.rows_produced == 12


def test_nested_loop_join_inner_runs_once(db):
    context = _Context(db)
    left, right = PScan(context, "R", "r"), PScan(context, "S", "s")
    join = PNestedLoopJoin(
        context,
        left,
        right,
        BinOp("==", path("r", "k"), path("s", "k")),
        ("s",),
        False,
    )
    first, second = _exhaust_twice(join)
    assert len(first) == len(second) == 6
    assert right.rows_produced == 6
    assert left.rows_produced == 12


def test_hash_nest_groups_built_once(db):
    context = _Context(db)
    child = PScan(context, "S", "s")
    nest = PHashNest(
        context, child, SET, path("s", "w"), ("s",), (), "ws", Const(True)
    )
    first, second = _exhaust_twice(nest)
    assert len(first) == len(second) == 6
    assert child.rows_produced == 6


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE annotations
# ---------------------------------------------------------------------------

_STATS_QUERY = "select e from e in Employees where e.salary > 30000"


class TestExplainAnalyzeAnnotations:
    def test_compiled_mode_and_eval_time_reported(self, company_db):
        stats = QueryPipeline(company_db).run_oql_stats(_STATS_QUERY)
        modes = {op.eval_mode for op in stats.operators}
        assert "compiled" in modes
        assert "" in modes  # scans evaluate no expressions
        assert any(op.eval_ms > 0 for op in stats.operators if op.eval_mode)

    def test_interpreted_mode_reported_when_compile_off(self, company_db):
        pipeline = QueryPipeline(
            company_db, OptimizerOptions(compiled_exprs=False)
        )
        stats = pipeline.run_oql_stats(_STATS_QUERY)
        modes = {op.eval_mode for op in stats.operators if op.eval_mode}
        assert modes == {"interpreted"}

    def test_report_renders_eval_columns(self, company_db):
        report = QueryPipeline(company_db).run_oql_stats(_STATS_QUERY).report()
        assert "exprs=compiled" in report
        assert "eval=" in report

    def test_unprofiled_execution_skips_eval_timers(self, company_db):
        compiled = QueryPipeline(company_db).compile_oql(_STATS_QUERY)
        physical = compiled.physical(company_db)
        physical.value()

        def walk(op):
            yield op
            for child in op.children():
                yield from walk(child)

        assert all(op.eval_ms == 0.0 for op in walk(physical))

    def test_paper_queries_fully_compiled(self, company_db):
        # Regression guard: the paper's flagship shapes must not silently
        # regress to interpreter fallback (e.g. a Term kind losing its
        # handler).  Any non-empty mode other than "compiled" is a bug.
        for source in (
            "select distinct struct( E: e.name, C: c.name ) "
            "from e in Employees, c in e.children",
            "select distinct struct( E: e, M: count( select distinct c "
            "from c in e.children where for all d in e.manager.children: "
            "c.age > d.age ) ) from e in Employees",
        ):
            stats = QueryPipeline(company_db).run_oql_stats(source)
            modes = {op.eval_mode for op in stats.operators if op.eval_mode}
            assert modes == {"compiled"}, source


# ---------------------------------------------------------------------------
# Differential wiring
# ---------------------------------------------------------------------------


def test_oracle_pins_interpreted_exprs_path():
    assert "pipeline-interpreted-exprs" in dict(PATHS)


def test_oracle_agreement_on_null_heavy_query(db):
    verdict = check_sample(
        "select r.v from r in R where r.k >= :low and r.k < :high",
        {"low": 1, "high": 4},
        db,
    )
    assert verdict.agreed, verdict.describe()
