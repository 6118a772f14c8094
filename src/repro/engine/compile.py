"""Expression compilation: calculus terms → native Python closures.

The physical operators evaluate a handful of :class:`~repro.calculus.terms.
Term` trees — select predicates, map heads, join keys, unnest paths, reduce
accumulators — for every row of every chunk.  Walking the AST through
:class:`~repro.calculus.evaluator.Evaluator` for every row pays a large
constant factor: a type-dispatch dictionary lookup, a bound-method call, two
``isinstance`` NULL tests, and (for binary operations) a chain of string
comparisons in ``apply_binop``, all per node per row.

This module removes that factor by *lowering* each term twice:

1. **Row closures** (closure composition): every node becomes one
   specialized closure calling its children's closures directly, with the
   operator and NULL checks resolved at compile time.  Row closures serve
   the once-per-execution expressions (index keys, ``Eval`` roots) and
   back every kernel's fault rerun.
2. **Batch kernels** (the vectorized tier): the term emitted as one Python
   expression and ``compile()``d into a single list comprehension over a
   columnar :class:`~repro.engine.batch.Chunk` — one native call evaluates
   the term for every row of a batch, reading hoisted column locals
   instead of an env dict per row.  Kernels never raise mid-batch: an
   exception at row *t* is returned as ``(values so far, t, error)`` so the
   caller can deliver the preceding rows first and replay the error
   lazily, exactly where row-by-row evaluation would have raised it (see
   :class:`CompiledKernel`).  Any exception inside the comprehension
   reruns the chunk through :func:`_loop_kernel` over the term's row
   closure, which finds that row and the structured error.  The physical
   operators call only kernels.

Three properties are load-bearing:

* **Semantic equivalence.**  Every closure reproduces the interpreter's
  behaviour exactly, including three-valued NULL logic (strict NULL
  propagation through arithmetic and comparisons, short-circuiting
  ``and``/``or`` that yield NULL only when the short-circuit value is not
  reached, ``if`` taking the else-branch on a NULL condition), object
  identity equality via :func:`~repro.data.values.identity_key`, and the
  interpreter's error behaviour (same exception classes raised at
  *evaluation* time, never eagerly at compile time).  The differential fuzz
  oracle executes every query through both engines and fails on any
  divergence (see ``repro.testing.oracle``).
* **Per-node fallback.**  A node kind the compiler does not know (a future
  extension term, a residual :class:`~repro.calculus.terms.Comprehension`
  that survived unnesting) compiles into a closure that hands *that subtree*
  to the interpreter; its siblings and ancestors stay compiled.  A kernel
  reaches such a subtree (and every node kind outside its expression
  subset) through one embedded row-closure call.  Compilation therefore
  never fails — it degrades.
* **Observability.**  :class:`CompiledExpr` counts compiled vs. fallback
  nodes, so EXPLAIN ANALYZE can annotate each physical operator with
  whether its expressions run ``compiled``, ``mixed``, or ``interpreted``.

The compiler is wired into the engine through ``PlannerOptions.
compiled_exprs`` (default on; ``--no-compile`` from the CLI) and cached per
plan on :class:`~repro.core.pipeline.CompiledQuery`, so the plan cache
amortizes codegen along with planning.  With it off, the engine wraps the
calculus interpreter in the same :func:`_loop_kernel` adapter, so the
interpreter and the compiler run through the same operators.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

from repro.calculus.evaluator import (
    DivisionByZeroError,
    EvaluationError,
    Evaluator,
    UnboundParameterError,
)
from repro.calculus.monoids import CollectionMonoid
from repro.calculus.terms import (
    Apply,
    BinOp,
    Const,
    Extent,
    If,
    IsNull,
    Lambda,
    Let,
    Merge,
    Not,
    Null,
    Param,
    Proj,
    RecordCons,
    Singleton,
    Term,
    Var,
    Zero,
    free_vars,
)
from repro.data.values import NULL, Record, identity_key

Env = Mapping[str, Any]
EvalFn = Callable[[dict], Any]
#: A batch kernel: ``fn(cols, n) -> (values, t, error)``.  *cols* maps
#: column names to value lists (all at least *n* long); rows ``[0, t)``
#: evaluated successfully into *values*, and *error* is the exception row
#: *t* raised (None when ``t == n``).  Kernels never raise themselves.
KernelFn = Callable[[Mapping[str, list], int], "tuple[list, int, Any]"]

#: Types whose ``==`` is plain value equality — the fast path that skips
#: :func:`identity_key` (which returns scalars unchanged anyway).
_SCALARS = frozenset((bool, int, float, str))


class CompiledExpr:
    """A term lowered to a closure, plus how much of it actually compiled.

    ``fn(env)`` evaluates the term in *env* (a plain dict of variable
    bindings).  ``compiled_nodes`` / ``fallback_nodes`` count the term's AST
    nodes that were lowered natively vs. delegated to the interpreter;
    ``mode`` summarizes them for EXPLAIN ANALYZE.
    """

    __slots__ = ("fn", "term", "compiled_nodes", "fallback_nodes")

    def __init__(
        self, fn: EvalFn, term: Term, compiled_nodes: int, fallback_nodes: int
    ):
        self.fn = fn
        self.term = term
        self.compiled_nodes = compiled_nodes
        self.fallback_nodes = fallback_nodes

    @property
    def mode(self) -> str:
        """``compiled`` | ``mixed`` | ``interpreted``."""
        if self.fallback_nodes == 0:
            return "compiled"
        if self.compiled_nodes == 0:
            return "interpreted"
        return "mixed"

    def __call__(self, env: dict) -> Any:
        return self.fn(env)

    def __repr__(self) -> str:
        return (
            f"CompiledExpr({self.mode}, {self.compiled_nodes} compiled, "
            f"{self.fallback_nodes} interpreted)"
        )


class CompiledKernel:
    """A term lowered to a batch-level loop (the vectorized tier).

    ``fn(cols, n)`` evaluates the term over rows ``0..n-1`` of a columnar
    chunk and returns ``(values, t, error)``: the results for rows
    ``[0, t)``, plus the exception row *t* raised — or ``(values, n,
    None)`` when every row succeeded.  Capturing instead of raising is the
    contract that lets batch operators deliver the pre-error rows to their
    consumer before replaying the failure, preserving the lazy
    short-circuit semantics of row-by-row evaluation.

    ``trivial_true`` marks the predicate kernel for ``Const(True)`` (the
    planner's "no predicate" marker) so operators can skip the kernel call
    — and the ``[True] * n`` allocation — entirely.
    """

    __slots__ = ("fn", "term", "trivial_true")

    def __init__(self, fn: KernelFn, term: Term, trivial_true: bool = False):
        self.fn = fn
        self.term = term
        self.trivial_true = trivial_true

    def __repr__(self) -> str:
        suffix = ", trivial" if self.trivial_true else ""
        return f"CompiledKernel({self.term}{suffix})"


class _Counter:
    """Mutable compile-time tally threaded through the recursive lowering."""

    __slots__ = ("compiled", "fallback")

    def __init__(self) -> None:
        self.compiled = 0
        self.fallback = 0


class ExprRuntime(threading.local):
    """Per-execution bindings that compiled closures read at evaluation time.

    Closures must be reusable across executions (they are cached on
    :class:`~repro.core.pipeline.CompiledQuery`), so anything that varies per
    execution — the prepared-statement parameter values, the database, the
    fallback interpreter — is reached through this one mutable cell, rebound
    by :meth:`ExprCompiler.activate` before each execution plans.

    The cell is a ``threading.local``: a ``CompiledQuery`` shared by a
    thread pool has each thread activate and read *its own* bindings, so
    concurrent executions with different parameters cannot clobber each
    other mid-query.  (``__init__`` runs once per thread on first access,
    giving every thread the empty defaults until it activates.)
    """

    def __init__(self) -> None:
        self.params: Mapping[str, Any] = {}
        self.database: Any = None
        self.evaluator: Evaluator | None = None


def _memo_key(kind: str, term: Term) -> tuple:
    """A memo key that never conflates equal-but-differently-typed constants.

    Terms are frozen dataclasses, so structural equality is the natural memo
    relation — except that Python compares ``bool``/``int``/``float`` across
    types: ``Const(True) == Const(1) == Const(1.0)`` (with equal hashes).
    Memoizing on the term alone would therefore serve the closure for
    ``Const(1)`` to a ``Const(True)`` head (a fuzzer-found bug: a ``some``
    accumulator then yields ``1``, which is not a boolean to a predicate).
    Equal terms always have the same tree shape, so a traversal-ordered
    tuple of the constant value *types* disambiguates fully.
    """
    const_types: list[type] = []
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node) is Const:
            const_types.append(type(node.value))
        stack.extend(node.children())
    return (kind, term, tuple(const_types))


class ExprCompiler:
    """Lowers terms to closures; one instance per compiled query (or plan).

    Compiled closures are memoized structurally (terms are frozen
    dataclasses), so re-planning the same query — every execution replans,
    and the planner reconstructs e.g. residual predicates afresh — reuses
    the closures from the first execution instead of re-lowering.  The memo
    key is :func:`_memo_key`, not the bare term (see there).
    """

    def __init__(self) -> None:
        self.runtime = ExprRuntime()
        #: kinds "expr"/"pred" hold CompiledExpr; "kexpr"/"kpred" hold the
        #: batch-tier CompiledKernel for the same term.
        self._memo: dict[tuple, Any] = {}
        #: Identity front-cache over the structural memo: every execution
        #: replans from the same cached logical plan, so operators pass the
        #: very same Term objects — a ``(kind, id)`` hit skips the
        #: tree-walking :func:`_memo_key`.  The stored term keeps the id
        #: alive; an ``is`` check guards against id reuse.
        self._by_id: dict[tuple[str, int], tuple[Term, Any]] = {}

    def _memoized(
        self, kind: str, term: Term, lower: Callable[[Term], Any]
    ) -> Any:
        """The memoized lowering of *term* under *kind*, built by *lower*
        on a miss: the identity front cache first, then the structural
        memo."""
        hit = self._by_id.get((kind, id(term)))
        if hit is not None and hit[0] is term:
            return hit[1]
        key = _memo_key(kind, term)
        lowered = self._memo.get(key)
        if lowered is None:
            lowered = self._memo[key] = lower(term)
        self._by_id[(kind, id(term))] = (term, lowered)
        return lowered

    def activate(self, evaluator: Evaluator, database: Any) -> None:
        """Point the runtime at one execution's interpreter and database."""
        runtime = self.runtime
        runtime.params = evaluator.params
        runtime.database = database
        runtime.evaluator = evaluator

    # -- entry points -------------------------------------------------------

    def compile(self, term: Term) -> CompiledExpr:
        """Lower *term* to a value-producing row closure."""
        return self._memoized("expr", term, self._lower)

    def compile_predicate(self, term: Term) -> CompiledExpr:
        """Lower *term* to a strict-boolean function (NULL counts as False).

        The result's ``fn`` returns only ``True`` or ``False`` — exactly
        a filter's semantics: a NULL predicate fails the filter, anything
        non-boolean raises :class:`EvaluationError`.
        """
        return self._memoized("pred", term, self._lower_predicate)

    def compile_kernel(self, term: Term) -> CompiledKernel:
        """Lower *term* to a value-producing batch kernel."""
        return self._memoized(
            "kexpr", term, lambda t: self._kernel(t, self.compile(t), False)
        )

    def compile_predicate_kernel(self, term: Term) -> CompiledKernel:
        """Lower *term* to a strict-boolean batch kernel: each result is
        ``True`` or ``False`` (NULL filters as False), matching
        :meth:`compile_predicate` row for row."""
        return self._memoized(
            "kpred",
            term,
            lambda t: self._kernel(t, self.compile_predicate(t), True),
        )

    # -- lowerings ----------------------------------------------------------

    def _lower(self, term: Term) -> CompiledExpr:
        counter = _Counter()
        fn = self._compile(term, counter)
        return CompiledExpr(fn, term, counter.compiled, counter.fallback)

    def _lower_predicate(self, term: Term) -> CompiledExpr:
        if isinstance(term, Const) and term.value is True:
            # The planner's "no residual predicate" marker; skip the call.
            return CompiledExpr(_always_true, term, 1, 0)
        value = self._lower(term)
        value_fn = value.fn

        def fn(env: dict) -> bool:
            result = value_fn(env)
            if result is True:
                return True
            if result is False or result is NULL:
                return False
            raise EvaluationError("predicate did not evaluate to a boolean")

        return CompiledExpr(
            fn, term, value.compiled_nodes, value.fallback_nodes
        )

    def _kernel(
        self, term: Term, row: CompiledExpr, predicate: bool
    ) -> CompiledKernel:
        """The comprehension kernel for *term*, rerunning faulting chunks
        through a loop over its row closure *row*.  A term the comprehension
        form cannot express (nested past the parser's limits, an operator
        outside its subset) runs that loop for every chunk — the batch path
        never fails to plan, it just loses the column-hoisting win for that
        expression."""
        if predicate and isinstance(term, Const) and term.value is True:
            return CompiledKernel(_true_kernel, term, trivial_true=True)
        slow = _loop_kernel(row.fn)
        try:
            fn = _KernelEmitter(self).kernel(term, predicate, slow)
        except Exception:  # noqa: BLE001 - degrade to the row-closure loop
            fn = slow
        return CompiledKernel(fn, term)

    # -- recursive lowering -------------------------------------------------

    def _compile(self, term: Term, counter: _Counter) -> EvalFn:
        handler = _HANDLERS.get(type(term))
        if handler is not None:
            try:
                fn = handler(self, term, counter)
            except Exception:  # noqa: BLE001 - degrade, never fail to plan
                return self._fallback(term, counter)
            counter.compiled += 1
            return fn
        return self._fallback(term, counter)

    def _fallback(self, term: Term, counter: _Counter) -> EvalFn:
        """Hand this subtree to the interpreter (siblings stay compiled)."""
        counter.fallback += 1
        runtime = self.runtime

        def run(env: dict) -> Any:
            # _eval (not evaluate): skips the defensive env copy — the
            # interpreter never mutates the environment it is handed.
            return runtime.evaluator._eval(term, env)  # noqa: SLF001

        return run

    # -- node handlers ------------------------------------------------------

    def _compile_var(self, term: Var, counter: _Counter) -> EvalFn:
        name = term.name

        def run(env: dict) -> Any:
            try:
                return env[name]
            except KeyError:
                raise EvaluationError(
                    f"unbound variable {name!r}; in scope: {sorted(env)}"
                ) from None

        return run

    def _compile_const(self, term: Const, counter: _Counter) -> EvalFn:
        value = term.value
        return lambda env: value

    def _compile_null(self, term: Null, counter: _Counter) -> EvalFn:
        return lambda env: NULL

    def _compile_param(self, term: Param, counter: _Counter) -> EvalFn:
        # Read through the runtime at evaluation time: the binding table
        # changes per execution, and an unbound parameter must raise when
        # evaluated, exactly like the interpreter.
        runtime = self.runtime
        name = term.name

        def run(env: dict) -> Any:
            try:
                return runtime.params[name]
            except KeyError:
                raise UnboundParameterError(
                    f"parameter :{name} has no bound value; bound: "
                    f"{sorted(runtime.params)}"
                ) from None

        return run

    def _compile_extent(self, term: Extent, counter: _Counter) -> EvalFn:
        runtime = self.runtime
        name = term.name
        return lambda env: runtime.database.extent(name)

    def _compile_record(self, term: RecordCons, counter: _Counter) -> EvalFn:
        parts = tuple(
            (name, self._compile(expr, counter)) for name, expr in term.fields
        )

        def run(env: dict) -> Any:
            return Record({name: fn(env) for name, fn in parts})

        return run

    def _compile_proj(self, term: Proj, counter: _Counter) -> EvalFn:
        base = self._compile(term.expr, counter)
        attr = term.attr

        def run(env: dict) -> Any:
            value = base(env)
            if isinstance(value, Record):
                try:
                    return value._fields[attr]  # noqa: SLF001 - hot path
                except KeyError:
                    raise KeyError(
                        f"record has no attribute {attr!r}; attributes are "
                        f"{sorted(value._fields)}"  # noqa: SLF001
                    ) from None
            if value is NULL:
                return NULL
            raise EvaluationError(
                f"projection .{attr} applied to non-record "
                f"{type(value).__name__}"
            )

        return run

    def _compile_lambda(self, term: Lambda, counter: _Counter) -> EvalFn:
        body = self._compile(term.body, counter)
        param = term.param

        def run(env: dict) -> Any:
            captured = dict(env)

            def closure(arg: Any) -> Any:
                inner = dict(captured)
                inner[param] = arg
                return body(inner)

            return closure

        return run

    def _compile_apply(self, term: Apply, counter: _Counter) -> EvalFn:
        fn_c = self._compile(term.fn, counter)
        arg_c = self._compile(term.arg, counter)

        def run(env: dict) -> Any:
            fn = fn_c(env)
            if not callable(fn):
                raise EvaluationError("application of a non-function value")
            return fn(arg_c(env))

        return run

    def _compile_if(self, term: If, counter: _Counter) -> EvalFn:
        cond = self._compile(term.cond, counter)
        then = self._compile(term.then, counter)
        orelse = self._compile(term.orelse, counter)

        def run(env: dict) -> Any:
            value = cond(env)
            if value is True:
                return then(env)
            if value is False or value is NULL:
                # NULL condition takes the else branch (interpreter policy).
                return orelse(env)
            raise EvaluationError("if condition is not a boolean")

        return run

    def _compile_let(self, term: Let, counter: _Counter) -> EvalFn:
        value_c = self._compile(term.value, counter)
        body = self._compile(term.body, counter)
        name = term.var

        def run(env: dict) -> Any:
            inner = dict(env)
            inner[name] = value_c(env)
            return body(inner)

        return run

    def _compile_binop(self, term: BinOp, counter: _Counter) -> EvalFn:
        left = self._compile(term.left, counter)
        right = self._compile(term.right, counter)
        return _BINOPS[term.op](left, right)

    def _compile_not(self, term: Not, counter: _Counter) -> EvalFn:
        value = self._compile(term.expr, counter)

        def run(env: dict) -> Any:
            result = value(env)
            if result is True:
                return False
            if result is False:
                return True
            if result is NULL:
                return NULL
            raise EvaluationError("'not' applied to a non-boolean")

        return run

    def _compile_isnull(self, term: IsNull, counter: _Counter) -> EvalFn:
        value = self._compile(term.expr, counter)
        return lambda env: value(env) is NULL

    def _compile_zero(self, term: Zero, counter: _Counter) -> EvalFn:
        zero = term.monoid.zero
        return lambda env: zero

    def _compile_singleton(self, term: Singleton, counter: _Counter) -> EvalFn:
        monoid = term.monoid
        if not isinstance(monoid, CollectionMonoid):
            # Ill-formed; raise at evaluation time like the interpreter.
            name = monoid.name

            def bad(env: dict) -> Any:
                raise EvaluationError(f"singleton of primitive monoid {name}")

            return bad
        unit = monoid.unit
        value = self._compile(term.expr, counter)
        return lambda env: unit(value(env))

    def _compile_merge(self, term: Merge, counter: _Counter) -> EvalFn:
        merge = term.monoid.merge
        left = self._compile(term.left, counter)
        right = self._compile(term.right, counter)
        return lambda env: merge(left(env), right(env))

    # NOTE: Comprehension deliberately has no handler.  Residual
    # comprehensions (queries compiled with unnesting partially off, nested
    # heads the unnester leaves in place) fall back to the interpreter —
    # loops are the algebra's job, and the fallback path stays exercised.


def _always_true(env: dict) -> bool:
    return True


def _true_kernel(cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
    return [True] * n, n, None


def _loop_kernel(row_fn: EvalFn) -> KernelFn:
    """Batch adapter over a row closure: one env dict per row.

    A comprehension kernel's rerun on a faulting chunk, the whole kernel
    for a term the comprehension form cannot express, and (over the
    interpreter) every kernel under ``--no-compile``.  Still honours the
    kernel contract — an exception at row *i* is captured as a truncation
    point, never raised."""

    def kernel(cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
        out: list = []
        append = out.append
        items = list(cols.items())
        try:
            for i in range(n):
                append(row_fn({name: col[i] for name, col in items}))
        except Exception as exc:  # noqa: BLE001 - part of the contract
            return out, len(out), exc
        return out, n, None

    return kernel


# ---------------------------------------------------------------------------
# Binary operators: one specialized closure-maker per operator, with the
# interpreter's strict NULL propagation resolved at compile time.
# ---------------------------------------------------------------------------


def _make_and(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        if a is False:
            return False
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        return a and b

    return run


def _make_or(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        if a is True:
            return True
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        return a or b

    return run


def _binop_type_error(op: str, a, b, exc: TypeError) -> EvaluationError:
    """The structured error for an ill-typed operator application.

    Mirrors :func:`repro.calculus.evaluator.apply_binop` so the compiled
    tiers and the interpreter fail identically (the differential oracle
    pins this)."""
    return EvaluationError(
        f"operator {op!r} applied to incompatible values "
        f"{type(a).__name__} and {type(b).__name__}: {exc}"
    )


def _make_add(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a + b
        except TypeError as exc:
            raise _binop_type_error('+', a, b, exc) from exc

    return run


def _make_sub(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a - b
        except TypeError as exc:
            raise _binop_type_error('-', a, b, exc) from exc

    return run


def _make_mul(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a * b
        except TypeError as exc:
            raise _binop_type_error('*', a, b, exc) from exc

    return run


def _make_div(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        if b == 0:
            raise DivisionByZeroError("division by zero")
        try:
            return a / b
        except TypeError as exc:
            raise _binop_type_error("/", a, b, exc) from exc

    return run


def _make_mod(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        if b == 0:
            raise DivisionByZeroError("modulo by zero")
        try:
            return a % b
        except TypeError as exc:
            raise _binop_type_error("%", a, b, exc) from exc

    return run


def _make_eq(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        if a.__class__ in _SCALARS and b.__class__ in _SCALARS:
            return a == b
        return identity_key(a) == identity_key(b)

    return run


def _make_ne(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        if a.__class__ in _SCALARS and b.__class__ in _SCALARS:
            return a != b
        return identity_key(a) != identity_key(b)

    return run


def _make_lt(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a < b
        except TypeError as exc:
            raise _binop_type_error('<', a, b, exc) from exc

    return run


def _make_le(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a <= b
        except TypeError as exc:
            raise _binop_type_error('<=', a, b, exc) from exc

    return run


def _make_gt(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a > b
        except TypeError as exc:
            raise _binop_type_error('>', a, b, exc) from exc

    return run


def _make_ge(left: EvalFn, right: EvalFn) -> EvalFn:
    def run(env: dict) -> Any:
        a = left(env)
        b = right(env)
        if a is NULL or b is NULL:
            return NULL
        try:
            return a >= b
        except TypeError as exc:
            raise _binop_type_error('>=', a, b, exc) from exc

    return run


_BINOPS: dict[str, Callable[[EvalFn, EvalFn], EvalFn]] = {
    "and": _make_and,
    "or": _make_or,
    "+": _make_add,
    "-": _make_sub,
    "*": _make_mul,
    "/": _make_div,
    "%": _make_mod,
    "==": _make_eq,
    "!=": _make_ne,
    "<": _make_lt,
    "<=": _make_le,
    ">": _make_gt,
    ">=": _make_ge,
}

# ---------------------------------------------------------------------------
# Batch kernels: emit a term as one Python expression and compile() it into
# a list comprehension over a chunk's columns.  Only success paths are
# spelled out; an error arm is any raw exception, which abandons the
# comprehension and reruns the chunk through the term's row closure.
# ---------------------------------------------------------------------------


def _define(source: str, namespace: dict, name: str) -> Callable:
    """Compile and execute generated *source*; return its function *name*.

    Every generated source passes through here, so codegen has one place
    to be counted (``tests/test_compile.py`` pins the counts)."""
    code = compile(source, "<repro.engine.compile:kernel>", "exec")
    exec(code, namespace)  # noqa: S102 - self-generated source only
    return namespace[name]


def _proj_slow(value: Any, attr: str) -> Any:
    """The non-fast-path projection: NULL, Record subclass, or type error."""
    if isinstance(value, Record):
        return value[attr]  # formats the missing-attribute KeyError
    if value is NULL:
        return NULL
    raise EvaluationError(
        f"projection .{attr} applied to non-record {type(value).__name__}"
    )


def _not_boolean() -> None:
    # Only reached to abandon the comprehension: the row-closure rerun
    # raises the precise error (predicate, `if` or `not` operand).
    raise EvaluationError("operand is not a boolean")


class _KernelEmitter:
    """Emits one term as a batch kernel ``def _kern(cols, n)``::

        def _kern(cols, n):
            try:
                <column hoists>
                return [<expr> for _i in range(n)], n, None
            except Exception:
                return _slow(cols, n)

    Each node lowers to one Python expression, walrus temporaries carrying
    the values that NULL propagation tests twice and the ``let``
    bindings:

    * **variable reads index hoisted column locals** — the prologue binds
      ``_colK = cols['name']`` once per batch and the comprehension reads
      ``_colK[_i]`` instead of an env dict per row;
    * **lets bind walrus temps, not env copies** — a ``let``-bound
      variable becomes a function-local name shadowing any same-named
      column for the extent of the body;
    * **node kinds outside the expression subset** (lambdas, monoid
      operations, residual comprehensions) evaluate through one call to
      their row closure, fed a per-row env dict built from the subtree's
      free variables (columns absent from the chunk are omitted, so the
      closure's own unbound-variable error fires only if actually read).

    Error arms are not spelled out.  A raw exception — KeyError,
    ZeroDivisionError, TypeError — abandons the comprehension, and the
    chunk reruns through ``_slow``, the :func:`_loop_kernel` over the
    term's row closure, which returns the exact truncation row and
    structured error (the kernel contract; see :class:`CompiledKernel`).
    Success paths must agree with the row closure; error paths only need
    to *reach* ``_slow``.  Expressions are deterministic, so the rerun
    reaches the same fault; the only cost is re-evaluating the prefix rows
    of a faulting chunk, and faults abort the query anyway.
    """

    def __init__(self, compiler: ExprCompiler):
        self.compiler = compiler
        self.n = 0
        #: Per-batch setup lines (column hoists, fallback column pairs),
        #: emitted inside the try but before the comprehension.
        self.prologue: list[str] = []
        #: Column name -> hoisted local holding ``cols[name]``.
        self._columns: dict[str, str] = {}
        #: Let-bound variable -> walrus temp (shadows columns).
        self._scope: dict[str, str] = {}
        # The kernel's globals.  ``rt`` is the compiler's ExprRuntime:
        # activate() mutates it in place, so generated code reading
        # ``rt.params`` / ``rt.database`` always sees the live execution.
        self.ns: dict[str, Any] = {
            "NULL": NULL,
            "Record": Record,
            "identity_key": identity_key,
            "_SCALARS": _SCALARS,
            "_proj_slow": _proj_slow,
            "_not_boolean": _not_boolean,
            "rt": compiler.runtime,
        }

    def kernel(self, term: Term, predicate: bool, slow: KernelFn) -> KernelFn:
        """The comprehension kernel for *term*, or raise when the term
        cannot be emitted as one expression."""
        expr = self.xgen(term)
        if predicate:
            t = self.wtemp()
            expr = (
                f"(True if ({t} := {expr}) is True else "
                f"(False if {t} is False or {t} is NULL else _not_boolean()))"
            )
        self.ns["_slow"] = slow
        source = (
            "def _kern(cols, n):\n"
            "    try:\n"
            + "".join(f"        {line}\n" for line in self.prologue)
            + f"        return [{expr} for _i in range(n)], n, None\n"
            "    except Exception:\n"
            "        return _slow(cols, n)\n"
        )
        return _define(source, self.ns, "_kern")

    # -- emission helpers ---------------------------------------------------

    def bind(self, prefix: str, value: Any) -> str:
        self.n += 1
        name = f"{prefix}{self.n}"
        self.ns[name] = value
        return name

    def wtemp(self) -> str:
        """A name for a walrus-assignment target (function-scoped: an
        assignment expression in a comprehension binds in the enclosing
        ``_kern`` frame, which is exactly what the nested conditional
        expressions rely on)."""
        self.n += 1
        return f"_w{self.n}"

    def column(self, name: str) -> str:
        """The hoisted local for ``cols[name]``, binding it on first use.
        An absent column raises KeyError in the prologue, so the rerun
        raises the unbound-variable error at the row that reads it."""
        local = self._columns.get(name)
        if local is None:
            self.n += 1
            local = self._columns[name] = f"_col{self.n}"
            self.prologue.append(f"{local} = cols[{name!r}]")
        return local

    def xgen(self, term: Term) -> str:
        """*term* as one Python expression, or raise ``NotImplementedError``
        (abandoning the comprehension form for this kernel)."""
        handler = _X_HANDLERS.get(type(term))
        if handler is None:
            return self._x_fallback(term)
        return handler(self, term)

    def _x_fallback(self, term: Term) -> str:
        # The per-row env dict is built inline as a dict comprehension over
        # prologue-hoisted (name, column) pairs, with let-bound temps
        # layered on top.
        sub = self.bind("s", self.compiler._compile(term, _Counter()))
        names = sorted(free_vars(term))
        scoped = [
            (name, self._scope[name]) for name in names if name in self._scope
        ]
        col_names = tuple(name for name in names if name not in self._scope)
        if col_names:
            self.n += 1
            pairs = f"_sub{self.n}"
            self.prologue.append(
                f"{pairs} = [(_n, cols[_n]) for _n in {col_names!r} "
                "if _n in cols]"
            )
            env = f"{{_n: _c[_i] for _n, _c in {pairs}}}"
        else:
            env = "{}"
        if scoped:
            inner = ", ".join(f"{name!r}: {bound}" for name, bound in scoped)
            env = f"{{**{env}, {inner}}}"
        return f"{sub}({env})"

    # -- node emitters ------------------------------------------------------

    def _x_var(self, term: Var) -> str:
        bound = self._scope.get(term.name)
        if bound is not None:
            return bound
        return f"{self.column(term.name)}[_i]"

    def _x_const(self, term: Const) -> str:
        # A namespace name, not a repr literal (operands must be names so
        # `x.__class__` / `x is NULL` stays valid syntax).
        return self.bind("c", term.value)

    def _x_null(self, term: Null) -> str:
        return "NULL"

    def _x_param(self, term: Param) -> str:
        # Raw KeyError on an unbound parameter reruns through the row
        # closure, which raises the structured UnboundParameterError.  Kept
        # lazy (no prologue hoist) so a parameter referenced only in an
        # untaken If branch stays unread, as in the interpreter.
        return f"rt.params[{term.name!r}]"

    def _x_extent(self, term: Extent) -> str:
        return f"rt.database.extent({term.name!r})"

    def _x_record(self, term: RecordCons) -> str:
        inner = ", ".join(
            f"{name!r}: {self.xgen(expr)}" for name, expr in term.fields
        )
        return f"Record({{{inner}}})"

    def _x_proj(self, term: Proj) -> str:
        base = self.xgen(term.expr)
        t = self.wtemp()
        attr = term.attr
        return (
            f"({t}._fields[{attr!r}] "
            f"if ({t} := {base}).__class__ is Record "
            f"and {attr!r} in {t}._fields "
            f"else _proj_slow({t}, {attr!r}))"
        )

    def _x_if(self, term: If) -> str:
        cond = self.xgen(term.cond)
        t = self.wtemp()
        then = self.xgen(term.then)
        orelse = self.xgen(term.orelse)
        return (
            f"({then} if ({t} := {cond}) is True else "
            f"({orelse} if {t} is False or {t} is NULL else _not_boolean()))"
        )

    def _x_let(self, term: Let) -> str:
        value = self.xgen(term.value)
        out = self.wtemp()
        scope = self._scope
        had = term.var in scope
        saved = scope.get(term.var)
        scope[term.var] = out
        try:
            body = self.xgen(term.body)
        finally:
            if had:
                scope[term.var] = saved
            else:
                del scope[term.var]
        # Tuple evaluates left to right: bind the temp, then the body.
        return f"((({out} := ({value})), {body})[1])"

    def _x_not(self, term: Not) -> str:
        value = self.xgen(term.expr)
        t = self.wtemp()
        return (
            f"(False if ({t} := {value}) is True else "
            f"(True if {t} is False else "
            f"(NULL if {t} is NULL else _not_boolean())))"
        )

    def _x_isnull(self, term: IsNull) -> str:
        return f"(({self.xgen(term.expr)}) is NULL)"

    def _x_binop(self, term: BinOp) -> str:
        op = term.op
        if op in ("and", "or"):
            return self._x_shortcircuit(term)
        if op not in _BINOPS:
            raise NotImplementedError(op)
        lt = self.wtemp()
        rt_ = self.wtemp()
        left = self.xgen(term.left)
        right = self.xgen(term.right)
        if op in ("==", "!="):
            body = (
                f"({lt} {op} {rt_} "
                f"if {lt}.__class__ in _SCALARS "
                f"and {rt_}.__class__ in _SCALARS "
                f"else identity_key({lt}) {op} identity_key({rt_}))"
            )
        else:
            # Raw operator: ZeroDivisionError / TypeError rerun through
            # the row closure, which raises the structured fault.
            body = f"({lt} {op} {rt_})"
        # Bitwise `|` forces *both* walruses before the NULL test — the
        # row tier evaluates both operands before propagating NULL.
        return (
            f"(NULL if (({lt} := {left}) is NULL) "
            f"| (({rt_} := {right}) is NULL) else {body})"
        )

    def _x_shortcircuit(self, term: BinOp) -> str:
        lt = self.wtemp()
        rt_ = self.wtemp()
        left = self.xgen(term.left)
        right = self.xgen(term.right)
        if term.op == "and":
            # right IS evaluated when left is NULL, as in the interpreter.
            return (
                f"(False if ({lt} := {left}) is False else "
                f"(NULL if (({rt_} := {right}) is NULL) or {lt} is NULL "
                f"else {lt} and {rt_}))"
            )
        return (
            f"(True if ({lt} := {left}) is True else "
            f"(NULL if (({rt_} := {right}) is NULL) or {lt} is NULL "
            f"else {lt} or {rt_}))"
        )


#: Expression-form emitters for the comprehension kernel.
_X_HANDLERS: dict[type, Callable[..., str]] = {
    Var: _KernelEmitter._x_var,
    Const: _KernelEmitter._x_const,
    Null: _KernelEmitter._x_null,
    Param: _KernelEmitter._x_param,
    Extent: _KernelEmitter._x_extent,
    RecordCons: _KernelEmitter._x_record,
    Proj: _KernelEmitter._x_proj,
    If: _KernelEmitter._x_if,
    Let: _KernelEmitter._x_let,
    Not: _KernelEmitter._x_not,
    IsNull: _KernelEmitter._x_isnull,
    BinOp: _KernelEmitter._x_binop,
}

_HANDLERS: dict[type, Callable[[ExprCompiler, Any, _Counter], EvalFn]] = {
    Var: ExprCompiler._compile_var,
    Const: ExprCompiler._compile_const,
    Null: ExprCompiler._compile_null,
    Param: ExprCompiler._compile_param,
    Extent: ExprCompiler._compile_extent,
    RecordCons: ExprCompiler._compile_record,
    Proj: ExprCompiler._compile_proj,
    Lambda: ExprCompiler._compile_lambda,
    Apply: ExprCompiler._compile_apply,
    If: ExprCompiler._compile_if,
    Let: ExprCompiler._compile_let,
    BinOp: ExprCompiler._compile_binop,
    Not: ExprCompiler._compile_not,
    IsNull: ExprCompiler._compile_isnull,
    Zero: ExprCompiler._compile_zero,
    Singleton: ExprCompiler._compile_singleton,
    Merge: ExprCompiler._compile_merge,
}
