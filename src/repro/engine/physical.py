"""Physical (executable) operators — the iterator-model engine.

The paper's prototype translates algebraic forms into "physical plans that
are evaluated in memory" (Section 6).  This module provides those physical
algorithms:

* pipelined scan / select / map / unnest operators;
* **nested-loop** and **hash** implementations of join and left outer-join
  (the planner picks hash when it can extract equi-join keys — the very
  optimization the paper says unnesting enables for QUERY E);
* hash-based grouping for the nest operator (single pass);
* streaming reduce with quantifier short-circuiting.

Each operator exposes ``rows()`` (an iterator of environments) and counts
the tuples it produces, so executions can be compared by work performed as
well as by wall-clock time.

**Batch execution** (``PlannerOptions.batched_exec``, default on): operators
additionally expose ``batches()``, a stream of columnar
:class:`~repro.engine.batch.Chunk` blocks.  Scan, select, map, unnest, the
hash-join probe, hash-nest, and reduce have native batch paths driven by
tier-3 kernels (:meth:`~repro.engine.compile.ExprCompiler.compile_kernel`):
one native call evaluates a predicate/projection/join key over a whole
chunk.  Everything else adapts its ``rows()`` through
:func:`~repro.engine.batch.chunk_rows`, so the two protocols compose
freely.  A plan is driven through exactly one protocol per consumer edge —
``PReduce.value()`` pulls ``batches()`` when the context is batched, else
``rows()``.

The row-at-a-time path is kept byte-for-byte intact (not emulated over
batches): it is the oracle the differential fuzzer cross-checks batch
execution against on every iteration, via the ``pipeline-row-exec`` and
``pipeline-batched-exec`` paths in :mod:`repro.testing.oracle`.  Error
semantics match exactly because kernels *truncate* instead of raising —
a failure at row *t* surfaces only after the preceding rows have been
delivered, so a short-circuiting consumer (``exists`` satisfied early)
never observes an error the row path would not have reached.  Work-unit
accounting charges the same units (rows scanned, unnest elements, join
pairs considered) through the same ``tick_many`` machinery, settling once
per chunk; blocking operators keep their row-mode builds whenever a
memory budget is active so byte-charging stays stride-for-stride
identical.

Expression evaluation is pluggable: by default every select predicate, map
head, join key, unnest path, and reduce accumulator is **compiled** to a
native Python closure (:mod:`repro.engine.compile`) when the operator is
built, so the per-row cost is a cascade of direct calls instead of an AST
walk.  With ``compiled_exprs=False`` the operators evaluate the same terms
through the calculus interpreter — the historical behaviour, kept as the
differential baseline.  Blocking operators (hash join build side,
nested-loop inner, hash-nest grouping) memoize their build work on the
first ``rows()`` entry, so re-entering a restartable stream does not
redo it.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Any, Iterator, Mapping

from repro.calculus.evaluator import EvaluationError, Evaluator as TermEvaluator, ExtentProvider
from repro.calculus.monoids import CollectionMonoid, Monoid
from repro.calculus.terms import Const, Term, free_vars
from repro.data.values import (
    NULL,
    CollectionValue,
    identity_key,
    is_null,
)
from repro.engine.batch import DEFAULT_BATCH_SIZE, Chunk, chunk_rows
from repro.engine.compile import CompiledExpr, CompiledKernel, ExprCompiler
from repro.engine.governor import SAMPLE_STRIDE, estimate_bytes

Env = dict[str, Any]

#: Batch threshold for ungoverned loops: a local counter compared against
#: this never settles, so the hot path pays one increment and one compare.
_NO_BATCH = 2**63

#: ``n & _STRIDE_MASK == 0`` selects one row per SAMPLE_STRIDE (a power of
#: two) — a bitwise test, cheaper than modulo in the buffering loops.
_STRIDE_MASK = SAMPLE_STRIDE - 1
assert SAMPLE_STRIDE & _STRIDE_MASK == 0, "SAMPLE_STRIDE must be a power of two"


class PhysicalOperator:
    """Base class: a restartable stream of environments."""

    def __init__(self) -> None:
        self.rows_produced = 0
        #: Batch accounting: chunks this operator emitted and the rows they
        #: carried.  Adapter-driven operators count here too, so EXPLAIN
        #: ANALYZE shows how every operator's output was chunked.
        self.batches_produced = 0
        self.batch_rows = 0
        #: Wall time spent evaluating this operator's expressions, in ms.
        #: Only accumulated when the execution context profiles evaluation
        #: (EXPLAIN ANALYZE); stays 0.0 otherwise.
        self.eval_ms = 0.0
        self._exprs: list[CompiledExpr] = []

    def rows(self) -> Iterator[Env]:
        raise NotImplementedError

    def batches(self) -> Iterator[Chunk]:
        """Batch-at-a-time stream; default adapts ``rows()``.

        Operators without a native batch path (seeds, index scans, merge
        and nested-loop joins) stay row-driven internally and still compose
        with batch-native parents through this adapter.  ``rows()`` already
        counts ``rows_produced``, so only the batch counters move here.
        """
        context = getattr(self, "_context", None)
        size = context.batch_size if context is not None else DEFAULT_BATCH_SIZE
        for chunk in chunk_rows(self.rows(), size):
            self.batches_produced += 1
            self.batch_rows += chunk.length
            yield chunk

    def _emit_chunk(self, chunk: Chunk) -> Chunk:
        """Account a natively produced chunk (``rows()`` was bypassed)."""
        self.rows_produced += chunk.length
        self.batches_produced += 1
        self.batch_rows += chunk.length
        return chunk

    def _run_kernel(
        self, kernel: CompiledKernel, columns: Mapping[str, list], n: int
    ) -> tuple[list, int, Any]:
        """Invoke a tier-3 kernel, timing it when the context profiles."""
        if not self._context.profile:  # type: ignore[attr-defined]
            return kernel.fn(columns, n)
        start = time.perf_counter()
        try:
            return kernel.fn(columns, n)
        finally:
            self.eval_ms += (time.perf_counter() - start) * 1000.0

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def name(self) -> str:
        return type(self).__name__.removeprefix("P")

    def explain(self, indent: int = 0) -> str:
        """An EXPLAIN-style rendering of the physical plan."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.name()

    def total_rows(self) -> int:
        """Rows produced by this operator and everything below it."""
        return self.rows_produced + sum(c.total_rows() for c in self.children())

    # -- expression binding --------------------------------------------------

    def eval_mode(self) -> str:
        """How this operator's expressions execute.

        ``"compiled"`` — every AST node lowered to a native closure;
        ``"mixed"`` — some subtrees fell back to the interpreter;
        ``"interpreted"`` — everything runs through the interpreter
        (``compiled_exprs=False``); ``""`` — the operator evaluates no
        expressions (scans, seeds).
        """
        if not self._exprs:
            return ""
        compiled = sum(e.compiled_nodes for e in self._exprs)
        fallback = sum(e.fallback_nodes for e in self._exprs)
        if fallback == 0:
            return "compiled"
        if compiled == 0:
            return "interpreted"
        return "mixed"

    def _bind(self, context: "_Context", compiled: CompiledExpr):
        """Register a compiled expression; wrap it with a timer when the
        context profiles evaluation (EXPLAIN ANALYZE)."""
        self._exprs.append(compiled)
        fn = compiled.fn
        if not context.profile:
            return fn
        perf_counter = time.perf_counter

        def timed(env: Env) -> Any:
            start = perf_counter()
            try:
                return fn(env)
            finally:
                self.eval_ms += (perf_counter() - start) * 1000.0

        return timed

    def _expr(self, context: "_Context", term: Term):
        return self._bind(context, context.expr(term))

    def _pred(self, context: "_Context", term: Term):
        return self._bind(context, context.pred(term))


class _Context:
    """Shared per-execution state: the database, a term evaluator, the bound
    prepared-statement parameters (``:name`` placeholder values), the
    expression compiler (or None when running interpreted), and the optional
    per-execution :class:`~repro.engine.governor.Governor`."""

    def __init__(
        self,
        database: ExtentProvider,
        params: Mapping[str, Any] | None = None,
        compiled_exprs: bool = True,
        profile: bool = False,
        compiler: ExprCompiler | None = None,
        governor: Any | None = None,
        batched_exec: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.database = database
        self.params = dict(params) if params else {}
        self.profile = profile
        self.governor = governor
        self.batch_size = max(1, batch_size)
        self._terms = TermEvaluator(database, self.params, governor=governor)
        if compiled_exprs:
            self._compiler = compiler if compiler is not None else ExprCompiler()
            self._compiler.activate(self._terms, database)
        else:
            self._compiler = None
        #: Batch execution needs tier-3 kernels, which only exist when the
        #: expression compiler is on — interpreted runs stay pure row mode.
        self.batched = bool(batched_exec) and self._compiler is not None

    def batch(self) -> int:
        """The initial work-unit batch for a ``rows()`` loop.

        Governed loops count work units in a local integer and settle every
        *batch* units via ``governor.tick_many`` (see
        :meth:`repro.engine.governor.Governor.batch`); ungoverned loops get
        :data:`_NO_BATCH`, a threshold the counter never reaches, so both
        paths pay only a local increment and comparison per unit.
        """
        governor = self.governor
        return governor.batch() if governor is not None else _NO_BATCH

    def charge_fn(self):
        """The governor's byte-accounting hook for blocking operators, or
        None when ungoverned or no memory budget is set (the shallow size
        estimation is only worth paying when a budget can trip)."""
        governor = self.governor
        if governor is None or governor.max_bytes is None:
            return None
        return governor.charge

    def kernel(self, term: Term) -> CompiledKernel | None:
        """The tier-3 batch kernel for *term*, or None when this execution
        is not batched (operators then fall back to the rows() adapter)."""
        if not self.batched:
            return None
        return self._compiler.compile_kernel(term)

    def pred_kernel(self, term: Term) -> CompiledKernel | None:
        """The strict-boolean batch kernel for *term*, or None (as above)."""
        if not self.batched:
            return None
        return self._compiler.compile_predicate_kernel(term)

    def value(self, term: Term, env: Env) -> Any:
        return self._terms.evaluate(term, env)

    def holds(self, pred: Term, env: Env) -> bool:
        result = self.value(pred, env)
        if result is True:
            return True
        if result is False or is_null(result):
            return False
        raise EvaluationError("predicate did not evaluate to a boolean")

    def expr(self, term: Term) -> CompiledExpr:
        """A value-producing evaluator for *term* (compiled when enabled)."""
        if self._compiler is not None:
            return self._compiler.compile(term)
        evaluate = self._terms.evaluate

        def run(env: Env) -> Any:
            return evaluate(term, env)

        return CompiledExpr(run, term, 0, 1)

    def pred(self, term: Term) -> CompiledExpr:
        """A strict-boolean evaluator for *term*: NULL filters as False."""
        if self._compiler is not None:
            return self._compiler.compile_predicate(term)
        evaluate = self._terms.evaluate

        def run(env: Env) -> bool:
            result = evaluate(term, env)
            if result is True:
                return True
            if result is False or is_null(result):
                return False
            raise EvaluationError("predicate did not evaluate to a boolean")

        return CompiledExpr(run, term, 0, 1)


class PScan(PhysicalOperator):
    """Sequential scan of a class extent."""

    def __init__(self, context: _Context, extent: str, var: str):
        super().__init__()
        self._context = context
        self.extent = extent
        self.var = var

    def rows(self) -> Iterator[Env]:
        var = self.var
        governor = self._context.governor
        units = 0
        batch = self._context.batch()
        for obj in self._context.database.extent(self.extent):
            self.rows_produced += 1
            units += 1
            if units >= batch:
                governor.tick_many(units)
                units = 0
                batch = governor.batch()
            yield {var: obj}
        if governor is not None:
            governor.tick_many(units)

    def batches(self) -> Iterator[Chunk]:
        # Native path: slice the extent directly into column lists — no
        # per-row dict, no generator hop.  Unit accounting settles once per
        # chunk via tick_many, charging exactly one unit per row like the
        # row loop above.
        context = self._context
        var = self.var
        size = context.batch_size
        governor = context.governor
        items = list(context.database.extent(self.extent))
        for start in range(0, len(items), size):
            col = items[start : start + size]
            if governor is not None:
                governor.tick_many(len(col))
            yield self._emit_chunk(Chunk({var: col}, len(col)))

    def describe(self) -> str:
        return f"Scan({self.var} <- {self.extent})"


class PIndexScan(PhysicalOperator):
    """Index access path: fetch only the objects whose indexed attribute
    equals a constant key ("choosing access paths", paper Section 6).

    The key expression must be closed (no free range variables); it is
    evaluated once per execution.
    """

    def __init__(
        self, context: _Context, extent: str, var: str, attr: str, key: Term
    ):
        super().__init__()
        self._context = context
        self.extent = extent
        self.var = var
        self.attr = attr
        self.key = key
        self._key = self._expr(context, key)

    def rows(self) -> Iterator[Env]:
        value = self._key({})
        if is_null(value):
            # attr = NULL is NULL, which a filter treats as false — but the
            # index stores NULL-attributed objects under the NULL key, so a
            # raw lookup would wrongly return them.
            return
        database = self._context.database
        var = self.var
        governor = self._context.governor
        units = 0
        batch = self._context.batch()
        for obj in database.index_lookup(self.extent, self.attr, value):
            self.rows_produced += 1
            units += 1
            if units >= batch:
                governor.tick_many(units)
                units = 0
                batch = governor.batch()
            yield {var: obj}
        if governor is not None:
            governor.tick_many(units)

    def describe(self) -> str:
        return f"IndexScan({self.var} <- {self.extent} on {self.attr} = {self.key})"


class PSeed(PhysicalOperator):
    """The singleton empty-environment stream."""

    def rows(self) -> Iterator[Env]:
        self.rows_produced += 1
        yield {}


class PSelect(PhysicalOperator):
    """Pipelined selection."""

    def __init__(self, context: _Context, child: PhysicalOperator, pred: Term):
        super().__init__()
        self._context = context
        self.child = child
        self.pred = pred
        self._holds = self._pred(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Env]:
        holds = self._holds
        for env in self.child.rows():
            if holds(env):
                self.rows_produced += 1
                yield env

    def batches(self) -> Iterator[Chunk]:
        kernel = self._context.pred_kernel(self.pred)
        if kernel is None:
            yield from PhysicalOperator.batches(self)
            return
        if kernel.trivial_true:
            for chunk in self.child.batches():
                yield self._emit_chunk(chunk)
            return
        for chunk in self.child.batches():
            flags, t, err = self._run_kernel(kernel, chunk.columns, chunk.length)
            if err is None and all(flags):
                # Every row passed: pass the chunk through unchanged.
                yield self._emit_chunk(chunk)
            else:
                # flags covers rows [0, t); compress truncates each column
                # to it, dropping both failures and unevaluated rows.
                count = flags.count(True)
                if count:
                    columns = {
                        name: list(compress(col, flags))
                        for name, col in chunk.columns.items()
                    }
                    yield self._emit_chunk(Chunk(columns, count))
            if err is not None:
                raise err

    def describe(self) -> str:
        return f"Select({self.pred})"


class PMap(PhysicalOperator):
    """Pipelined computed-column extension."""

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        bindings: tuple[tuple[str, Term], ...],
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.bindings = bindings
        self._compiled_bindings = tuple(
            (name, self._expr(context, expr)) for name, expr in bindings
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Env]:
        bindings = self._compiled_bindings
        for env in self.child.rows():
            extended = dict(env)
            for name, fn in bindings:
                extended[name] = fn(extended)
            self.rows_produced += 1
            yield extended

    def batches(self) -> Iterator[Chunk]:
        context = self._context
        if not context.batched:
            yield from PhysicalOperator.batches(self)
            return
        kernels = tuple(
            (name, context.kernel(expr)) for name, expr in self.bindings
        )
        for chunk in self.child.batches():
            columns = dict(chunk.columns)
            n = chunk.length
            err = None
            for name, kernel in kernels:
                # Later bindings see earlier ones: each kernel runs over the
                # progressively extended column set, like the row loop's
                # ``extended`` dict.  An error truncates the chunk to the
                # rows that evaluated fully; the error replays after them.
                values, t, e = self._run_kernel(kernel, columns, n)
                if t < n:
                    n = t
                    err = e
                    columns = {k: col[:n] for k, col in columns.items()}
                columns[name] = values
            if n:
                yield self._emit_chunk(Chunk(columns, n))
            if err is not None:
                raise err

    def describe(self) -> str:
        inner = ", ".join(f"{n}={e}" for n, e in self.bindings)
        return f"Map({inner})"


class PNestedLoopJoin(PhysicalOperator):
    """Block nested-loop (outer-)join: the fallback join algorithm.

    The inner (right) input is materialized once per execution — not once
    per ``rows()`` entry — so a re-entered stream does not re-run the
    build side.
    """

    def __init__(
        self,
        context: _Context,
        left: PhysicalOperator,
        right: PhysicalOperator,
        pred: Term,
        right_columns: tuple[str, ...],
        outer: bool,
    ):
        super().__init__()
        self._context = context
        self.left = left
        self.right = right
        self.pred = pred
        self.right_columns = right_columns
        self.outer = outer
        self._holds = self._pred(context, pred)
        self._right_rows: list[Env] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _materialize_right(self) -> list[Env]:
        if self._right_rows is None:
            charge = self._context.charge_fn()
            if charge is None:
                self._right_rows = list(self.right.rows())
            else:
                materialized = []
                for nb, env in enumerate(self.right.rows()):
                    if not nb & _STRIDE_MASK:
                        # One row stands for its whole stride: rows in a
                        # buffer share a shape, and charging the stride up
                        # front keeps the estimator off the per-row path.
                        charge(estimate_bytes(env) * SAMPLE_STRIDE)
                    materialized.append(env)
                self._right_rows = materialized
        return self._right_rows

    def rows(self) -> Iterator[Env]:
        right_rows = self._materialize_right()
        holds = self._holds
        governor = self._context.governor
        units = 0
        batch = self._context.batch()
        padding = {col: NULL for col in self.right_columns}
        for left_env in self.left.rows():
            matched = False
            for right_env in right_rows:
                # Every pair considered is a work unit: a cross-join blowup
                # is charged here even when it emits almost nothing.
                units += 1
                if units >= batch:
                    governor.tick_many(units)
                    units = 0
                    batch = governor.batch()
                env = {**left_env, **right_env}
                if holds(env):
                    matched = True
                    self.rows_produced += 1
                    yield env
            if self.outer and not matched:
                self.rows_produced += 1
                yield {**left_env, **padding}
        if governor is not None:
            governor.tick_many(units)

    def batches(self) -> Iterator[Chunk]:
        """Vectorized probe: the materialized right side is columnized once
        and each left row is broadcast across it, so the predicate runs as
        one kernel call over all ``m`` right rows instead of ``m`` per-pair
        closure calls over ``m`` freshly merged env dicts.  Only the left
        columns the predicate actually reads are broadcast.  Work units,
        outer padding, and fault truncation mirror ``rows()``: one unit per
        pair reached (the faulting pair included), matches preceding a
        fault are emitted, and the faulting left row gets no outer pad."""
        context = self._context
        pred_kernel = context.pred_kernel(self.pred)
        governor = context.governor
        if pred_kernel is None or (
            governor is not None and governor.max_rows is not None
        ):
            # Row budgets trip at exactly one unit over (the governor's
            # contract, pinned by its tests); chunked inputs settle whole
            # chunks at a time and would overshoot.  Under a row budget the
            # join stays row-driven, like the hash operators' row-mode
            # builds under a memory budget.
            yield from PhysicalOperator.batches(self)
            return
        right_rows = self._materialize_right()
        m = len(right_rows)
        right_cols = {
            col: [env[col] for env in right_rows]
            for col in self.right_columns
        }
        right_items = list(right_cols.items())
        needed = free_vars(self.pred)
        outer = self.outer
        size = context.batch_size
        trivial = pred_kernel.trivial_true
        out: dict[str, list] | None = None
        left_only: list[str] = []
        needed_left: list[str] = []
        produced = 0
        for chunk in self.left.batches():
            lcols = chunk.columns
            if out is None:
                left_only = [n for n in lcols if n not in right_cols]
                needed_left = [n for n in left_only if n in needed]
                out = {n: [] for n in left_only}
                for col in right_cols:
                    out[col] = []
            for i in range(chunk.length):
                if m:
                    probe = dict(right_cols)
                    for name in needed_left:
                        probe[name] = [lcols[name][i]] * m
                    if trivial:
                        flags, t, err = None, m, None
                    else:
                        flags, t, err = self._run_kernel(pred_kernel, probe, m)
                    if governor is not None:
                        # Row parity: the unit precedes the predicate call,
                        # so a faulting pair was still charged.
                        governor.tick_many(t + 1 if err is not None else m)
                    count = m if flags is None else flags.count(True)
                    if count:
                        if count == m:
                            for col, rc in right_items:
                                out[col].extend(rc)
                        else:
                            for col, rc in right_items:
                                out[col].extend(compress(rc, flags))
                        for name in left_only:
                            out[name].extend([lcols[name][i]] * count)
                        produced += count
                    if err is not None:
                        if produced:
                            yield self._emit_chunk(Chunk(out, produced))
                        raise err
                    if count or not outer:
                        if produced >= size:
                            yield self._emit_chunk(Chunk(out, produced))
                            out = {n: [] for n in out}
                            produced = 0
                        continue
                # No pairs matched (or the right side is empty): outer pad.
                if outer:
                    for name in left_only:
                        out[name].append(lcols[name][i])
                    for col in right_cols:
                        out[col].append(NULL)
                    produced += 1
                if produced >= size:
                    yield self._emit_chunk(Chunk(out, produced))
                    out = {n: [] for n in out}
                    produced = 0
        if produced:
            yield self._emit_chunk(Chunk(out, produced))

    def describe(self) -> str:
        kind = "OuterNLJoin" if self.outer else "NLJoin"
        return f"{kind}({self.pred})"


class PHashJoin(PhysicalOperator):
    """Hash (outer-)join on extracted equi-keys, with a residual predicate.

    The build-side hash table is constructed on the first ``rows()`` entry
    and reused by re-entries (e.g. when this join is the inner of a nested
    loop), so the build input's rows are produced exactly once per
    execution.
    """

    def __init__(
        self,
        context: _Context,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[Term, ...],
        right_keys: tuple[Term, ...],
        residual: Term,
        right_columns: tuple[str, ...],
        outer: bool,
    ):
        super().__init__()
        self._context = context
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.right_columns = right_columns
        self.outer = outer
        self._left_key_fns = tuple(self._expr(context, k) for k in left_keys)
        self._right_key_fns = tuple(self._expr(context, k) for k in right_keys)
        self._holds = self._pred(context, residual)
        self._table: dict[tuple[Any, ...], list[Env]] | None = None
        #: Batch-mode build table: buckets of right-row tuples aligned to
        #: ``right_columns`` (no per-row dicts).  Built on first batches()
        #: entry, memoized like ``_table``.
        self._tuple_table: dict[Any, list[tuple]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _build_table(self) -> dict[Any, list[Env]]:
        # Keys are wrapped with identity_key so that `=` on stored objects
        # matches hash-probe semantics to apply_binop's identity equality.
        # Single-key joins (the common case) use the bare key — no tuple
        # allocation per row; probes below agree on the representation.
        table: dict[Any, list[Env]] = {}
        key_fns = self._right_key_fns
        charge = self._context.charge_fn()
        if len(key_fns) == 1 and charge is None:
            (key_fn,) = key_fns
            for right_env in self.right.rows():
                key = identity_key(key_fn(right_env))
                table.setdefault(key, []).append(right_env)
            return table
        single = key_fns[0] if len(key_fns) == 1 else None
        for nb, right_env in enumerate(self.right.rows()):
            if single is not None:
                key = identity_key(single(right_env))
            else:
                key = tuple(identity_key(fn(right_env)) for fn in key_fns)
            if charge is not None and not nb & _STRIDE_MASK:
                # Sampled: one row charges for its whole stride.
                charge(estimate_bytes(right_env) * SAMPLE_STRIDE)
            table.setdefault(key, []).append(right_env)
        return table

    def _build_tuple_table(self) -> dict[Any, list[tuple]]:
        context = self._context
        right_columns = self.right_columns
        if context.charge_fn() is not None:
            # Memory-budgeted builds go through the row-mode build so the
            # stride-sampled byte charging is identical to the row path,
            # then convert the buckets to column-aligned tuples.
            if self._table is None:
                self._table = self._build_table()
            return {
                key: [tuple(env[col] for col in right_columns) for env in envs]
                for key, envs in self._table.items()
            }
        key_kernels = tuple(context.kernel(k) for k in self.right_keys)
        table: dict[Any, list[tuple]] = {}
        for chunk in self.right.batches():
            cols = chunk.columns
            n = chunk.length
            err = None
            key_parts: list[list] = []
            for kernel in key_kernels:
                values, t, e = self._run_kernel(kernel, cols, n)
                if t < n:
                    n = t
                    err = e
                    key_parts = [part[:n] for part in key_parts]
                key_parts.append(values)
            col_lists = [cols[col][:n] for col in right_columns]
            row_tuples = list(zip(*col_lists)) if col_lists else [()] * n
            setdefault = table.setdefault
            if len(key_parts) == 1:
                (keys,) = key_parts
                for key_value, row in zip(keys, row_tuples):
                    setdefault(identity_key(key_value), []).append(row)
            else:
                for i, row in enumerate(row_tuples):
                    key = tuple(identity_key(part[i]) for part in key_parts)
                    setdefault(key, []).append(row)
            if err is not None:
                # A key-expression fault fails the build exactly as the
                # row-mode build would at that right row.
                raise err
        return table

    def batches(self) -> Iterator[Chunk]:
        context = self._context
        if not context.batched:
            yield from PhysicalOperator.batches(self)
            return
        left_kernels = tuple(context.kernel(k) for k in self.left_keys)
        residual_kernel = context.pred_kernel(self.residual)
        if self._tuple_table is None:
            self._tuple_table = self._build_tuple_table()
        table = self._tuple_table
        right_columns = self.right_columns
        outer = self.outer
        governor = context.governor
        trivial = residual_kernel.trivial_true
        for chunk in self.left.batches():
            cols = chunk.columns
            n = chunk.length
            kerr = None
            key_parts: list[list] = []
            for kernel in left_kernels:
                values, t, e = self._run_kernel(kernel, cols, n)
                if t < n:
                    n = t
                    kerr = e
                    key_parts = [part[:n] for part in key_parts]
                key_parts.append(values)
            single = key_parts[0] if len(key_parts) == 1 else None
            if trivial and kerr is None:
                # Fast path (no residual, no key fault): build the output
                # row index in one probe pass, then emit every column with
                # one comprehension instead of per-row appends.
                parent_idx: list[int] = []
                out_rows: list[tuple] = []
                pairs = 0
                pad = (NULL,) * len(right_columns) if outer else None
                for i in range(n):
                    if single is not None:
                        value = single[i]
                        if value is NULL:
                            bucket = None
                        else:
                            bucket = table.get(identity_key(value))
                    else:
                        values = tuple(part[i] for part in key_parts)
                        if any(part is NULL for part in values):
                            bucket = None
                        else:
                            bucket = table.get(
                                tuple(identity_key(v) for v in values)
                            )
                    if bucket:
                        pairs += len(bucket)
                        out_rows.extend(bucket)
                        parent_idx.extend([i] * len(bucket))
                    elif pad is not None:
                        out_rows.append(pad)
                        parent_idx.append(i)
                if governor is not None:
                    governor.tick_many(pairs)
                if parent_idx:
                    out_cols = {
                        name: [col[i] for i in parent_idx]
                        for name, col in cols.items()
                    }
                    for j, col_name in enumerate(right_columns):
                        out_cols[col_name] = [row[j] for row in out_rows]
                    yield self._emit_chunk(Chunk(out_cols, len(parent_idx)))
                continue
            # Probe: expand each left row into its matching right tuples
            # (NULL keys never equi-join — zero candidates, outer pads).
            counts: list[int] = []
            parent_of: list[int] = []
            match_rows: list[tuple] = []
            for i in range(n):
                if single is not None:
                    value = single[i]
                    if value is NULL:
                        counts.append(0)
                        continue
                    key = identity_key(value)
                else:
                    values = tuple(part[i] for part in key_parts)
                    if any(part is NULL for part in values):
                        counts.append(0)
                        continue
                    key = tuple(identity_key(v) for v in values)
                bucket = table.get(key)
                if not bucket:
                    counts.append(0)
                    continue
                counts.append(len(bucket))
                match_rows.extend(bucket)
                parent_of.extend([i] * len(bucket))
            total = len(match_rows)
            if total and not trivial:
                ccols = {
                    name: [col[i] for i in parent_of]
                    for name, col in cols.items()
                }
                for j, col_name in enumerate(right_columns):
                    ccols[col_name] = [row[j] for row in match_rows]
                flags, passed, perr = self._run_kernel(
                    residual_kernel, ccols, total
                )
            else:
                flags, passed, perr = None, total, None
            if governor is not None:
                # Row parity: one unit per pair considered; on a residual
                # fault the row path ticked the failing pair too.
                governor.tick_many(passed + 1 if perr is not None else total)
            bad_parent = parent_of[passed] if perr is not None else None
            pending = perr if perr is not None else kerr
            out_cols: dict[str, list] = {name: [] for name in cols}
            right_out: list[list] = [[] for _ in right_columns]
            left_appends = [(out_cols[name].append, cols[name]) for name in cols]
            right_appends = [col.append for col in right_out]
            emitted = 0
            cursor = 0
            for i in range(n):
                if i == bad_parent:
                    for c in range(cursor, passed):
                        if flags[c]:
                            row = match_rows[c]
                            for append, col in left_appends:
                                append(col[i])
                            for append, v in zip(right_appends, row):
                                append(v)
                            emitted += 1
                    break
                count = counts[i]
                matched = False
                for c in range(cursor, cursor + count):
                    if flags is None or flags[c]:
                        matched = True
                        row = match_rows[c]
                        for append, col in left_appends:
                            append(col[i])
                        for append, v in zip(right_appends, row):
                            append(v)
                        emitted += 1
                cursor += count
                if outer and not matched:
                    for append, col in left_appends:
                        append(col[i])
                    for append in right_appends:
                        append(NULL)
                    emitted += 1
            if emitted:
                for col_name, values in zip(right_columns, right_out):
                    out_cols[col_name] = values
                yield self._emit_chunk(Chunk(out_cols, emitted))
            if pending is not None:
                raise pending

    def rows(self) -> Iterator[Env]:
        governor = self._context.governor
        units = 0
        batch = self._context.batch()
        if self._table is None:
            self._table = self._build_table()
        table = self._table
        key_fns = self._left_key_fns
        holds = self._holds
        padding = {col: NULL for col in self.right_columns}
        single = len(key_fns) == 1
        if single:
            (key_fn,) = key_fns
        for left_env in self.left.rows():
            if single:
                value = key_fn(left_env)
                null_key = value is NULL
                key = identity_key(value)
            else:
                values = tuple(fn(left_env) for fn in key_fns)
                null_key = any(part is NULL for part in values)
                key = tuple(identity_key(v) for v in values)
            matched = False
            if not null_key:
                for right_env in table.get(key, ()):
                    units += 1
                    if units >= batch:
                        governor.tick_many(units)
                        units = 0
                        batch = governor.batch()
                    env = {**left_env, **right_env}
                    if holds(env):
                        matched = True
                        self.rows_produced += 1
                        yield env
            if self.outer and not matched:
                self.rows_produced += 1
                yield {**left_env, **padding}
        if governor is not None:
            governor.tick_many(units)

    def describe(self) -> str:
        kind = "HashOuterJoin" if self.outer else "HashJoin"
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        if self.residual != Const(True):
            return f"{kind}({keys}; residual {self.residual})"
        return f"{kind}({keys})"


class PUnnest(PhysicalOperator):
    """Pipelined (outer-)unnest of a collection-valued path."""

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        path: Term,
        var: str,
        pred: Term,
        outer: bool,
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.path = path
        self.var = var
        self.pred = pred
        self.outer = outer
        self._path_fn = self._expr(context, path)
        self._holds = self._pred(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Env]:
        path_fn = self._path_fn
        holds = self._holds
        var = self.var
        governor = self._context.governor
        units = 0
        batch = self._context.batch()
        for env in self.child.rows():
            value = path_fn(env)
            matched = False
            if not is_null(value):
                if not isinstance(value, CollectionValue):
                    raise EvaluationError(
                        f"unnest path evaluated to {type(value).__name__}"
                    )
                for element in value.elements():
                    units += 1
                    if units >= batch:
                        governor.tick_many(units)
                        units = 0
                        batch = governor.batch()
                    extended = {**env, var: element}
                    if holds(extended):
                        matched = True
                        self.rows_produced += 1
                        yield extended
            if self.outer and not matched:
                self.rows_produced += 1
                yield {**env, var: NULL}
        if governor is not None:
            governor.tick_many(units)

    def batches(self) -> Iterator[Chunk]:
        context = self._context
        path_kernel = context.kernel(self.path)
        if path_kernel is None:
            yield from PhysicalOperator.batches(self)
            return
        pred_kernel = context.pred_kernel(self.pred)
        var = self.var
        outer = self.outer
        governor = context.governor
        trivial = pred_kernel.trivial_true
        for chunk in self.child.batches():
            cols = chunk.columns
            paths, limit, err = self._run_kernel(path_kernel, cols, chunk.length)
            if trivial:
                # Fast path (no predicate): build the output row index and
                # element column in one expansion pass, then emit every
                # column with one comprehension instead of per-row appends.
                parent_idx: list[int] = []
                out_elements: list[Any] = []
                total = 0
                for i in range(limit):
                    value = paths[i]
                    if is_null(value):
                        if outer:
                            parent_idx.append(i)
                            out_elements.append(NULL)
                        continue
                    if not isinstance(value, CollectionValue):
                        err = EvaluationError(
                            f"unnest path evaluated to {type(value).__name__}"
                        )
                        break
                    elems = list(value.elements())
                    if elems:
                        total += len(elems)
                        out_elements.extend(elems)
                        parent_idx.extend([i] * len(elems))
                    elif outer:
                        parent_idx.append(i)
                        out_elements.append(NULL)
                if governor is not None:
                    governor.tick_many(total)
                if parent_idx:
                    out_cols = {
                        name: [col[i] for i in parent_idx]
                        for name, col in cols.items()
                    }
                    out_cols[var] = out_elements
                    yield self._emit_chunk(Chunk(out_cols, len(parent_idx)))
                if err is not None:
                    raise err
                continue
            # Expand parents into (parent index, element) candidate pairs.
            parent_of: list[int] = []
            elements: list[Any] = []
            counts: list[int] = []
            for i in range(limit):
                value = paths[i]
                if is_null(value):
                    counts.append(0)
                    continue
                if not isinstance(value, CollectionValue):
                    err = EvaluationError(
                        f"unnest path evaluated to {type(value).__name__}"
                    )
                    limit = i
                    break
                elems = list(value.elements())
                counts.append(len(elems))
                elements.extend(elems)
                parent_of.extend([i] * len(elems))
            total = len(elements)
            if total and not pred_kernel.trivial_true:
                ccols = {
                    name: [col[i] for i in parent_of]
                    for name, col in cols.items()
                }
                ccols[var] = elements
                flags, passed, perr = self._run_kernel(pred_kernel, ccols, total)
            else:
                flags, passed, perr = None, total, None
            if governor is not None:
                # Row parity: one unit per element *reached*.  On a
                # predicate fault the row path ticked the failing element
                # too (the unit precedes the holds() call).
                governor.tick_many(passed + 1 if perr is not None else total)
            bad_parent = parent_of[passed] if perr is not None else None
            pending = perr if perr is not None else err
            out_cols: dict[str, list] = {name: [] for name in cols}
            out_var: list = []
            appends = [(out_cols[name].append, cols[name]) for name in cols]
            var_append = out_var.append
            cursor = 0
            for i in range(limit):
                if i == bad_parent:
                    # The predicate faulted mid-parent: emit the candidates
                    # the row path reached, no outer padding (matched is
                    # undecided there), and stop.
                    for c in range(cursor, passed):
                        if flags[c]:
                            for append, col in appends:
                                append(col[i])
                            var_append(elements[c])
                    break
                count = counts[i]
                matched = False
                for c in range(cursor, cursor + count):
                    if flags is None or flags[c]:
                        matched = True
                        for append, col in appends:
                            append(col[i])
                        var_append(elements[c])
                cursor += count
                if outer and not matched:
                    for append, col in appends:
                        append(col[i])
                    var_append(NULL)
            emitted = len(out_var)
            if emitted:
                out_cols[var] = out_var
                yield self._emit_chunk(Chunk(out_cols, emitted))
            if pending is not None:
                raise pending

    def describe(self) -> str:
        kind = "OuterUnnest" if self.outer else "Unnest"
        return f"{kind}({self.var} <- {self.path})"


class PHashNest(PhysicalOperator):
    """Hash-based grouping implementation of the nest operator.

    Grouping is a blocking operation: the child stream is consumed and the
    groups accumulated on the first ``rows()`` entry, then replayed by any
    re-entry without re-running the child.
    """

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        monoid: Monoid,
        head: Term,
        group_by: tuple[str, ...],
        null_vars: tuple[str, ...],
        out_var: str,
        pred: Term,
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.monoid = monoid
        self.head = head
        self.group_by = group_by
        self.null_vars = null_vars
        self.out_var = out_var
        self.pred = pred
        self._head_fn = self._expr(context, head)
        self._holds = self._pred(context, pred)
        self._group_rows: list[tuple[Env, Any]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _accumulate_rows(self):
        monoid = self.monoid
        merge = monoid.merge
        head_fn = self._head_fn
        holds = self._holds
        group_by = self.group_by
        null_vars = self.null_vars
        groups: dict[tuple[Any, ...], Any] = {}
        order: list[tuple[Any, ...]] = []
        group_envs: dict[tuple[Any, ...], Env] = {}
        collection = isinstance(monoid, CollectionMonoid)
        lift = monoid.lift
        charge = self._context.charge_fn()
        buffered = 0
        single = group_by[0] if len(group_by) == 1 else None
        for env in self.child.rows():
            # Identity-aware grouping: distinct stored objects with equal
            # state must form distinct groups (see algebra evaluator _nest).
            if single is not None:
                key = identity_key(env[single])
            else:
                key = tuple(identity_key(env[col]) for col in group_by)
            if key not in groups:
                # Collection groups accumulate into a plain list and build
                # the collection once at the end (per-row immutable merges
                # would copy the accumulator every row).
                groups[key] = [] if collection else monoid.zero
                order.append(key)
                group_envs[key] = {col: env[col] for col in group_by}
            if null_vars and any(env[col] is NULL for col in null_vars):
                continue
            if not holds(env):
                continue
            value = head_fn(env)
            if collection:
                if charge is not None:
                    if not buffered & _STRIDE_MASK:
                        # Sampled: one value charges for its whole stride.
                        charge(estimate_bytes(value) * SAMPLE_STRIDE)
                    buffered += 1
                groups[key].append(value)
            elif value is not NULL:
                groups[key] = merge(groups[key], lift(value))
        return order, groups, group_envs

    def _accumulate_batched(self, pred_kernel, head_kernel):
        """The batch-mode grouping build: kernels over child chunks.

        Mirrors :meth:`_accumulate_rows` decision for decision — group
        creation for *every* row (before null-var/predicate filtering),
        NULL heads skipped only for primitive monoids, stream-order
        merging — with the head kernel run once per chunk over the
        filter-surviving rows.  Only used when no memory budget is active
        (the row build's stride-sampled byte charging is the parity
        contract there).
        """
        monoid = self.monoid
        merge = monoid.merge
        lift = monoid.lift
        group_by = self.group_by
        null_vars = self.null_vars
        groups: dict[Any, Any] = {}
        order: list[Any] = []
        group_envs: dict[Any, Env] = {}
        collection = isinstance(monoid, CollectionMonoid)
        single = group_by[0] if len(group_by) == 1 else None
        trivial = pred_kernel.trivial_true
        for chunk in self.child.batches():
            cols = chunk.columns
            n = chunk.length
            if trivial:
                flags, limit, err = None, n, None
            else:
                flags, limit, err = self._run_kernel(pred_kernel, cols, n)
            # Key extraction is column-at-a-time: map identity_key down
            # each grouping column and zip the results into row keys, so
            # the per-row cost is the identity_key call alone (no genexpr
            # resumption, no per-row tuple building in Python).
            if single is not None:
                key_src = cols[single]
                keys = list(
                    map(identity_key, key_src if limit == n else key_src[:limit])
                )
            elif group_by:
                keys = list(
                    zip(
                        *(
                            map(
                                identity_key,
                                cols[col] if limit == n else cols[col][:limit],
                            )
                            for col in group_by
                        )
                    )
                )
            else:
                keys = [()] * limit
            for i, key in enumerate(keys):
                if key not in groups:
                    groups[key] = [] if collection else monoid.zero
                    order.append(key)
                    group_envs[key] = {col: cols[col][i] for col in group_by}
            # Rows surviving the null-var and predicate filters, in order.
            null_cols = [cols[col] for col in null_vars] if null_vars else None
            if null_cols is None and flags is None:
                picked: Any = range(limit)
            elif null_cols is None:
                picked = [i for i in range(limit) if flags[i]]
            elif len(null_cols) == 1:
                null_col = null_cols[0]
                picked = [
                    i
                    for i in range(limit)
                    if null_col[i] is not NULL and (flags is None or flags[i])
                ]
            else:
                picked = [
                    i
                    for i in range(limit)
                    if not any(col[i] is NULL for col in null_cols)
                    and (flags is None or flags[i])
                ]
            m = len(picked)
            if m:
                if m == n:
                    scols = cols
                else:
                    scols = {
                        name: [col[i] for i in picked]
                        for name, col in cols.items()
                    }
                values, t, herr = self._run_kernel(head_kernel, scols, m)
                if herr is not None:
                    # A head fault at picked[t] precedes (row-order-wise)
                    # any predicate fault at ``limit``, so it wins.
                    err = herr
                    picked = picked[:t]
                for value, i in zip(values, picked):
                    key = keys[i]
                    if collection:
                        groups[key].append(value)
                    elif value is not NULL:
                        groups[key] = merge(groups[key], lift(value))
            if err is not None:
                raise err
        return order, groups, group_envs

    def _groups(self) -> list:
        """The memoized ``(group_env, value)`` rows, in first-seen key order.

        Built by the batch kernels when the head compiles and no memory
        budget is active, otherwise by the row build (whose stride-sampled
        byte charging is the parity contract under a budget).
        """
        if self._group_rows is None:
            context = self._context
            head_kernel = context.kernel(self.head)
            if head_kernel is None or context.charge_fn() is not None:
                order, groups, group_envs = self._accumulate_rows()
            else:
                order, groups, group_envs = self._accumulate_batched(
                    context.pred_kernel(self.pred), head_kernel
                )
            monoid = self.monoid
            if isinstance(monoid, CollectionMonoid):
                finish = monoid.fold_elements
            else:
                finish = monoid.finalize
            self._group_rows = [
                (group_envs[key], finish(groups[key])) for key in order
            ]
        return self._group_rows

    def rows(self) -> Iterator[Env]:
        group_rows = self._groups()
        out_var = self.out_var
        for group_env, result in group_rows:
            self.rows_produced += 1
            yield {**group_env, out_var: result}

    def batches(self) -> Iterator[Chunk]:
        if not self._context.batched:
            yield from PhysicalOperator.batches(self)
            return
        group_rows = self._groups()
        out_var = self.out_var
        group_by = self.group_by
        size = self._context.batch_size
        for start in range(0, len(group_rows), size):
            block = group_rows[start : start + size]
            columns: dict[str, list] = {
                col: [env[col] for env, _ in block] for col in group_by
            }
            columns[out_var] = [result for _, result in block]
            yield self._emit_chunk(Chunk(columns, len(block)))

    def describe(self) -> str:
        group = ",".join(self.group_by) or "()"
        return f"HashNest({self.monoid.name} -> {self.out_var} by {group})"


class PReduce(PhysicalOperator):
    """Streaming reduce; short-circuits the boolean quantifier monoids."""

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        monoid: Monoid,
        head: Term,
        pred: Term,
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.monoid = monoid
        self.head = head
        self.pred = pred
        self._head_fn = self._expr(context, head)
        self._holds = self._pred(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Env]:  # pragma: no cover - roots use value()
        yield {"__result": self.value()}

    def value(self) -> Any:
        if self._context.batched:
            head_kernel = self._context.kernel(self.head)
            if head_kernel is not None:
                return self._value_batched(
                    head_kernel, self._context.pred_kernel(self.pred)
                )
        monoid = self.monoid
        merge = monoid.merge
        head_fn = self._head_fn
        holds = self._holds
        if isinstance(monoid, CollectionMonoid):
            # One-pass bulk construction instead of per-row immutable
            # merges (which copy the whole accumulator every row).
            result = monoid.fold_elements(
                head_fn(env) for env in self.child.rows() if holds(env)
            )
            return self._account(result)
        result = monoid.zero
        lift = monoid.lift
        is_all = monoid.name == "all"
        is_some = monoid.name == "some"
        for env in self.child.rows():
            if not holds(env):
                continue
            head = head_fn(env)
            if head is NULL:
                continue
            result = merge(result, lift(head))
            if is_all and result is False:
                return self._account(False)
            if is_some and result is True:
                return self._account(True)
        return self._account(monoid.finalize(result))

    def _chunk_heads(self, chunk, head_kernel, pred_kernel) -> tuple[list, Any]:
        """Heads of the chunk's predicate-surviving rows, plus any fault.

        The returned values cover exactly the rows that precede the first
        fault in row order; a head fault wins over a later predicate fault
        because the row path evaluates pred-then-head row by row.
        """
        cols = chunk.columns
        n = chunk.length
        if pred_kernel.trivial_true:
            scols = cols
            count = n
            err = None
        else:
            flags, limit, err = self._run_kernel(pred_kernel, cols, n)
            count = flags.count(True)
            if not count:
                return [], err
            if count == n:
                scols = cols
            else:
                # flags covers rows [0, limit); compress truncates each
                # column to it, dropping failures and unevaluated rows.
                scols = {
                    name: list(compress(col, flags))
                    for name, col in cols.items()
                }
        values, t, herr = self._run_kernel(head_kernel, scols, count)
        if herr is not None:
            err = herr
        return values, err

    def _value_batched(self, head_kernel, pred_kernel) -> Any:
        monoid = self.monoid
        if isinstance(monoid, CollectionMonoid):
            elements: list = []
            for chunk in self.child.batches():
                values, err = self._chunk_heads(chunk, head_kernel, pred_kernel)
                elements.extend(values)
                if err is not None:
                    raise err
            return self._account(monoid.fold_elements(elements))
        merge = monoid.merge
        lift = monoid.lift
        result = monoid.zero
        is_all = monoid.name == "all"
        is_some = monoid.name == "some"
        for chunk in self.child.batches():
            values, err = self._chunk_heads(chunk, head_kernel, pred_kernel)
            for head in values:
                if head is NULL:
                    continue
                result = merge(result, lift(head))
                # Short-circuit *before* raising: the row path would have
                # stopped pulling at this row and never seen the fault.
                if is_all and result is False:
                    return self._account(False)
                if is_some and result is True:
                    return self._account(True)
            if err is not None:
                raise err
        return self._account(monoid.finalize(result))

    def _account(self, result: Any) -> Any:
        # EXPLAIN ANALYZE accounting: the root "produces" the result — one
        # row per element of a collection result, one row for a scalar.
        self.rows_produced = (
            len(result) if isinstance(result, CollectionValue) else 1
        )
        return result

    def describe(self) -> str:
        return f"Reduce({self.monoid.name} / {self.head})"


class PEval(PhysicalOperator):
    """Root for non-comprehension queries: expression over one tuple."""

    def __init__(self, context: _Context, child: PhysicalOperator, expr: Term):
        super().__init__()
        self._context = context
        self.child = child
        self.expr = expr
        self._expr_fn = self._expr(context, expr)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Env]:  # pragma: no cover - roots use value()
        yield {"__result": self.value()}

    def value(self) -> Any:
        envs = list(self.child.rows())
        if len(envs) != 1:
            raise EvaluationError(
                f"Eval root expected exactly one row, got {len(envs)}"
            )
        result = self._expr_fn(envs[0])
        self.rows_produced = (
            len(result) if isinstance(result, CollectionValue) else 1
        )
        return result

    def describe(self) -> str:
        return f"Eval({self.expr})"
