"""Physical (executable) operators — the batch-at-a-time engine.

The paper's prototype translates algebraic forms into "physical plans that
are evaluated in memory" (Section 6).  This module provides those physical
algorithms:

* pipelined scan / select / map / unnest operators;
* **nested-loop** and **hash** implementations of join and left outer-join
  (the planner picks hash when it can extract equi-join keys — the very
  optimization the paper says unnesting enables for QUERY E);
* hash-based grouping for the nest operator (single pass);
* streaming reduce with quantifier short-circuiting.

Operators exchange columnar :class:`~repro.engine.batch.Chunk` blocks
through one protocol, ``batches()``; the roots (:class:`PReduce`,
:class:`PEval`) fold that stream into the query's value.  Every select
predicate, map head, join key, unnest path and reduce accumulator runs as
a batch kernel (:class:`~repro.engine.compile.CompiledKernel`): one call
evaluates the term over a whole chunk.  With expression compilation on
(the default) the kernels are generated loops over hoisted column locals;
with ``compiled_exprs=False`` they are loops over the calculus
interpreter, so the interpreted tier runs through the very same operators.
Kernels *truncate* instead of raising — a failure at row *t* surfaces only
after the preceding rows have been delivered, so a short-circuiting
consumer (an ``exists`` satisfied early) never observes an error of a row
it did not need.

Governance does not change which operators run.  Loops settle their work
units (rows scanned, unnest elements, join pairs considered) once per
chunk through :meth:`_Context.settle`, in steps of at most
:meth:`~repro.engine.governor.Governor.batch` units, so a row budget trips
at exactly ``max_rows + 1`` units on every plan shape.  Under a memory
budget the blocking builds (hash-join build side, nested-loop inner,
hash-nest collection groups) charge a byte estimate from their input
chunks, one sampled row per :data:`~repro.engine.governor.SAMPLE_STRIDE`.

Each operator counts the rows and chunks it produces, so executions can be
compared by work performed as well as by wall-clock time (EXPLAIN
ANALYZE).  Blocking operators memoize their build on the first
``batches()`` entry, so re-entering a restartable stream does not redo it.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Any, Callable, Iterator, Mapping

from repro.calculus.evaluator import EvaluationError, Evaluator as TermEvaluator, ExtentProvider
from repro.calculus.monoids import CollectionMonoid, Monoid
from repro.calculus.terms import Const, Term, free_vars
from repro.data.values import (
    NULL,
    CollectionValue,
    identity_key,
    is_null,
)
from repro.engine.batch import DEFAULT_BATCH_SIZE, Chunk
from repro.engine.compile import (
    CompiledExpr,
    CompiledKernel,
    ExprCompiler,
    _loop_kernel,
)
from repro.engine.governor import SAMPLE_STRIDE, estimate_bytes

Env = dict[str, Any]

#: ``-done & _STRIDE_MASK`` is the offset of the next sampled row after
#: *done* buffered rows (SAMPLE_STRIDE is a power of two).
_STRIDE_MASK = SAMPLE_STRIDE - 1
assert SAMPLE_STRIDE & _STRIDE_MASK == 0, "SAMPLE_STRIDE must be a power of two"


def _charge_sampled(
    charge: Callable[[int], None], row_at: Callable[[int], Any], n: int, done: int
) -> int:
    """Charge *n* newly buffered rows, after *done* earlier ones.

    Sampled across the whole build: the row at every global position that
    is a multiple of SAMPLE_STRIDE is estimated and stands for its whole
    stride (rows in a buffer share a shape).  Returns the new row count.
    """
    sampled = sum(
        estimate_bytes(row_at(i))
        for i in range(-done & _STRIDE_MASK, n, SAMPLE_STRIDE)
    )
    if sampled:
        charge(sampled * SAMPLE_STRIDE)
    return done + n


class PhysicalOperator:
    """Base class: a restartable stream of columnar chunks."""

    def __init__(self) -> None:
        self.rows_produced = 0
        #: Chunks this operator emitted and the rows they carried, so
        #: EXPLAIN ANALYZE shows how every operator's output was chunked.
        self.batches_produced = 0
        self.batch_rows = 0
        #: Wall time spent evaluating this operator's expressions, in ms.
        #: Only accumulated when the execution context profiles evaluation
        #: (EXPLAIN ANALYZE); stays 0.0 otherwise.
        self.eval_ms = 0.0
        self._exprs: list[CompiledExpr] = []

    def batches(self) -> Iterator[Chunk]:
        """The operator's output, as a stream of non-empty chunks."""
        raise NotImplementedError

    def _emit_chunk(self, chunk: Chunk) -> Chunk:
        """Account a produced chunk."""
        self.rows_produced += chunk.length
        self.batches_produced += 1
        self.batch_rows += chunk.length
        return chunk

    def _run_kernel(
        self, kernel: CompiledKernel, columns: Mapping[str, list], n: int
    ) -> tuple[list, int, Any]:
        """Invoke a batch kernel, timing it when the context profiles."""
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

        ``"compiled"`` — every AST node lowered to native code;
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

    def _expr(self, context: "_Context", term: Term):
        """A per-row evaluator for a term evaluated once per execution (an
        index key, an Eval root); timed when the context profiles."""
        compiled = context.expr(term)
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

    def _register(self, context: "_Context", *terms: Term) -> None:
        """Record how value *terms* evaluate, for :meth:`eval_mode`.  Their
        batch kernels are built when the operator first runs."""
        self._exprs.extend(context.expr(term) for term in terms)

    def _register_pred(self, context: "_Context", term: Term) -> None:
        """As :meth:`_register`, for a strict-boolean predicate."""
        self._exprs.append(context.pred(term))


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

    def settle(self, units: int) -> None:
        """Settle *units* work units with the governor (a no-op ungoverned).

        The units go in steps of at most :meth:`Governor.batch`, the
        distance to the next checkpoint, so a row budget trips at exactly
        ``max_rows + 1`` units however many units one chunk carries.
        """
        governor = self.governor
        if governor is None:
            return
        while units > 0:
            step = min(units, governor.batch())
            governor.tick_many(step)
            units -= step

    def charge_fn(self):
        """The governor's byte-accounting hook for blocking operators, or
        None when ungoverned or no memory budget is set (the shallow size
        estimation is only worth paying when a budget can trip)."""
        governor = self.governor
        if governor is None or governor.max_bytes is None:
            return None
        return governor.charge

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

    def kernel(self, term: Term) -> CompiledKernel:
        """The batch kernel for *term*: generated when compiling, else
        a loop over the interpreter."""
        if self._compiler is not None:
            return self._compiler.compile_kernel(term)
        return CompiledKernel(_loop_kernel(self.expr(term).fn), term)

    def pred_kernel(self, term: Term) -> CompiledKernel:
        """The strict-boolean batch kernel for *term* (as above)."""
        if self._compiler is not None:
            return self._compiler.compile_predicate_kernel(term)
        trivial = isinstance(term, Const) and term.value is True
        return CompiledKernel(_loop_kernel(self.pred(term).fn), term, trivial)


class PScan(PhysicalOperator):
    """Sequential scan of a class extent."""

    def __init__(self, context: _Context, extent: str, var: str):
        super().__init__()
        self._context = context
        self.extent = extent
        self.var = var

    def _objects(self) -> list:
        return list(self._context.database.extent(self.extent))

    def batches(self) -> Iterator[Chunk]:
        # Slice the objects directly into column lists, one work unit per
        # row, settled once per chunk.
        context = self._context
        var = self.var
        size = context.batch_size
        items = self._objects()
        for start in range(0, len(items), size):
            col = items[start : start + size]
            context.settle(len(col))
            yield self._emit_chunk(Chunk({var: col}, len(col)))

    def describe(self) -> str:
        return f"Scan({self.var} <- {self.extent})"


class PIndexScan(PScan):
    """Index access path: fetch only the objects whose indexed attribute
    equals a constant key ("choosing access paths", paper Section 6).

    The key expression must be closed (no free range variables); it is
    evaluated once per execution.
    """

    def __init__(
        self, context: _Context, extent: str, var: str, attr: str, key: Term
    ):
        super().__init__(context, extent, var)
        self.attr = attr
        self.key = key
        self._key = self._expr(context, key)

    def _objects(self) -> list:
        value = self._key({})
        if is_null(value):
            # attr = NULL is NULL, which a filter treats as false — but the
            # index stores NULL-attributed objects under the NULL key, so a
            # raw lookup would wrongly return them.
            return []
        database = self._context.database
        return list(database.index_lookup(self.extent, self.attr, value))

    def describe(self) -> str:
        return f"IndexScan({self.var} <- {self.extent} on {self.attr} = {self.key})"


class PSeed(PhysicalOperator):
    """The singleton empty-environment stream: one row, no columns."""

    def batches(self) -> Iterator[Chunk]:
        yield self._emit_chunk(Chunk({}, 1))


class PSelect(PhysicalOperator):
    """Pipelined selection."""

    def __init__(self, context: _Context, child: PhysicalOperator, pred: Term):
        super().__init__()
        self._context = context
        self.child = child
        self.pred = pred
        self._register_pred(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def batches(self) -> Iterator[Chunk]:
        kernel = self._context.pred_kernel(self.pred)
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
        self._register(context, *(expr for _, expr in bindings))

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def batches(self) -> Iterator[Chunk]:
        context = self._context
        kernels = tuple(
            (name, context.kernel(expr)) for name, expr in self.bindings
        )
        for chunk in self.child.batches():
            columns = dict(chunk.columns)
            n = chunk.length
            err = None
            for name, kernel in kernels:
                # Later bindings see earlier ones: each kernel runs over the
                # progressively extended column set.  An error truncates
                # the chunk to the rows that evaluated fully; the error
                # replays after them.
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

    The inner (right) input is materialized as columns once per execution —
    not once per ``batches()`` entry — so a re-entered stream does not
    re-run the build side.
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
        self._register_pred(context, pred)
        self._right: tuple[dict[str, list], int] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _materialize_right(self) -> tuple[dict[str, list], int]:
        if self._right is None:
            charge = self._context.charge_fn()
            columns: dict[str, list] = {col: [] for col in self.right_columns}
            m = 0
            for chunk in self.right.batches():
                if charge is not None:
                    _charge_sampled(charge, chunk.env_at, chunk.length, m)
                for col, values in columns.items():
                    values.extend(chunk.columns[col])
                m += chunk.length
            self._right = (columns, m)
        return self._right

    def batches(self) -> Iterator[Chunk]:
        """Vectorized probe: each left row is broadcast across the
        columnized right side, so the predicate runs as one kernel call
        over all ``m`` right rows.  Only the left columns the predicate
        actually reads are broadcast.  One work unit per pair reached (the
        faulting pair included); matches preceding a fault are emitted,
        and the faulting left row gets no outer pad."""
        context = self._context
        pred_kernel = context.pred_kernel(self.pred)
        settle = context.settle
        right_cols, m = self._materialize_right()
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
                    # A faulting pair was still reached, so it counts.
                    settle(t + 1 if err is not None else m)
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

    The build-side hash table is constructed on the first ``batches()``
    entry and reused by re-entries (e.g. when this join is the inner of a
    nested loop), so the build input's rows are produced exactly once per
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
        self._register(context, *left_keys, *right_keys)
        self._register_pred(context, residual)
        #: The build table: buckets of right-row tuples aligned to
        #: ``right_columns`` (no per-row dicts), memoized per execution.
        self._table: dict[Any, list[tuple]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _build_table(self) -> dict[Any, list[tuple]]:
        # Keys are wrapped with identity_key so that `=` on stored objects
        # matches hash-probe semantics to apply_binop's identity equality.
        # Single-key joins (the common case) use the bare key — no tuple
        # allocation per row; the probe agrees on the representation.
        context = self._context
        key_kernels = tuple(context.kernel(k) for k in self.right_keys)
        right_columns = self.right_columns
        charge = context.charge_fn()
        built = 0
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
            if charge is not None:
                built = _charge_sampled(charge, row_tuples.__getitem__, n, built)
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
                # A key-expression fault fails the build at that right row.
                raise err
        return table

    def batches(self) -> Iterator[Chunk]:
        context = self._context
        left_kernels = tuple(context.kernel(k) for k in self.left_keys)
        residual_kernel = context.pred_kernel(self.residual)
        if self._table is None:
            self._table = self._build_table()
        table = self._table
        right_columns = self.right_columns
        outer = self.outer
        settle = context.settle
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
                settle(pairs)
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
            # One unit per pair considered; a faulting pair was reached too.
            settle(passed + 1 if perr is not None else total)
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
        self._register(context, path)
        self._register_pred(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def batches(self) -> Iterator[Chunk]:
        path_kernel = self._context.kernel(self.path)
        pred_kernel = self._context.pred_kernel(self.pred)
        var = self.var
        outer = self.outer
        settle = self._context.settle
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
                settle(total)
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
            if total:
                ccols = {
                    name: [col[i] for i in parent_of]
                    for name, col in cols.items()
                }
                ccols[var] = elements
                flags, passed, perr = self._run_kernel(pred_kernel, ccols, total)
            else:
                flags, passed, perr = None, total, None
            # One unit per element reached; on a predicate fault the
            # failing element was reached too.
            settle(passed + 1 if perr is not None else total)
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
                    # before the fault, no outer padding (matched is
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
    groups accumulated on the first ``batches()`` entry, then replayed by
    any re-entry without re-running the child.
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
        self._register(context, head)
        self._register_pred(context, pred)
        self._group_rows: list[tuple[Env, Any]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _accumulate(self):
        """The grouping build: kernels over child chunks.

        Every row creates its group (before null-var/predicate filtering);
        NULL heads are skipped only for primitive monoids; values merge in
        stream order.  The head kernel runs once per chunk over the
        filter-surviving rows.  Collection groups buffer their values and,
        under a memory budget, charge them stride-sampled.
        """
        monoid = self.monoid
        merge = monoid.merge
        lift = monoid.lift
        group_by = self.group_by
        null_vars = self.null_vars
        context = self._context
        head_kernel = context.kernel(self.head)
        pred_kernel = context.pred_kernel(self.pred)
        groups: dict[Any, Any] = {}
        order: list[Any] = []
        group_envs: dict[Any, Env] = {}
        collection = isinstance(monoid, CollectionMonoid)
        charge = context.charge_fn() if collection else None
        buffered = 0
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
                    # Collection groups accumulate into a plain list and
                    # build the collection once at the end (per-row
                    # immutable merges would copy the accumulator).
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
                if charge is not None:
                    buffered = _charge_sampled(
                        charge, values.__getitem__, len(values), buffered
                    )
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
        """The memoized ``(group_env, value)`` rows, in first-seen key order."""
        if self._group_rows is None:
            order, groups, group_envs = self._accumulate()
            monoid = self.monoid
            if isinstance(monoid, CollectionMonoid):
                finish = monoid.fold_elements
            else:
                finish = monoid.finalize
            self._group_rows = [
                (group_envs[key], finish(groups[key])) for key in order
            ]
        return self._group_rows

    def batches(self) -> Iterator[Chunk]:
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
        self._register(context, head)
        self._register_pred(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _chunk_heads(
        self, chunk: Chunk, head_kernel: CompiledKernel, pred_kernel: CompiledKernel
    ) -> tuple[list, Any]:
        """Heads of the chunk's predicate-surviving rows, plus any fault.

        The returned values cover exactly the rows that precede the first
        fault in row order; a head fault wins over a later predicate fault
        because rows are decided pred-then-head in order.
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

    def value(self) -> Any:
        monoid = self.monoid
        kernels = (
            self._context.kernel(self.head),
            self._context.pred_kernel(self.pred),
        )
        if isinstance(monoid, CollectionMonoid):
            # One-pass bulk construction instead of per-row immutable
            # merges (which copy the whole accumulator every row).
            elements: list = []
            for chunk in self.child.batches():
                values, err = self._chunk_heads(chunk, *kernels)
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
            values, err = self._chunk_heads(chunk, *kernels)
            for head in values:
                if head is NULL:
                    continue
                result = merge(result, lift(head))
                # Short-circuit *before* raising: the deciding row precedes
                # the fault, which is then never observed.
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

    def value(self) -> Any:
        chunks = list(self.child.batches())
        count = sum(chunk.length for chunk in chunks)
        if count != 1:
            raise EvaluationError(
                f"Eval root expected exactly one row, got {count}"
            )
        result = self._expr_fn(chunks[0].env_at(0))
        self.rows_produced = (
            len(result) if isinstance(result, CollectionValue) else 1
        )
        return result

    def describe(self) -> str:
        return f"Eval({self.expr})"
