"""Physical planner: logical algebra → executable physical plans.

The planner performs the access-path / algorithm assignment step of the
paper's Section 6 optimizer ("126 lines for translating algebraic forms into
physical plans"):

* (outer-)joins whose predicate contains equi-conjuncts — ``f(left-vars) =
  g(right-vars)`` — become **hash joins** on those keys with the remaining
  conjuncts as a residual predicate; everything else falls back to nested
  loops.  This is precisely the optimization the paper's QUERY E discussion
  motivates ("the resulting outer-joins would both be assigned equality
  predicates, thus making them more efficient").
* nests become single-pass hash grouping;
* selections, maps, unnests, reduces map one-to-one.

``PlannerOptions.hash_joins`` turns key extraction off, which the benchmark
suite uses to separate "unnesting removes recomputation" from "unnesting
enables hash joins".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.algebra.operators import (
    Eval,
    Join,
    Map,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Seed,
    Select,
    Unnest,
)
from repro.calculus.evaluator import ExtentProvider
from repro.calculus.terms import BinOp, Proj, Term, Var, conj, conjuncts, free_vars
from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.compile import ExprCompiler
from repro.engine.physical import (
    PEval,
    PHashJoin,
    PIndexScan,
    PHashNest,
    PMap,
    PNestedLoopJoin,
    PReduce,
    PScan,
    PSeed,
    PSelect,
    PUnnest,
    PhysicalOperator,
    _Context,
)


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs for physical planning (used by the ablation benchmarks)."""

    hash_joins: bool = True
    index_scans: bool = True
    #: Lower expression trees to native Python closures (repro.engine.compile)
    #: instead of interpreting the AST per row.
    compiled_exprs: bool = True
    #: Rows per columnar chunk passed between operators.
    batch_size: int = DEFAULT_BATCH_SIZE


def plan_physical(
    plan: Operator,
    database: ExtentProvider,
    options: PlannerOptions | None = None,
    params: Mapping[str, Any] | None = None,
    profile: bool = False,
    compiler: "ExprCompiler | None" = None,
    governor: Any | None = None,
) -> PhysicalOperator:
    """Translate a logical plan into a physical plan bound to *database*.

    *params* supplies values for any :class:`~repro.calculus.terms.Param`
    placeholders in the plan's expressions (prepared-statement execution).
    *profile* makes operators time their expression evaluation (EXPLAIN
    ANALYZE).  *compiler* reuses a caller-owned :class:`ExprCompiler` so its
    memoized closures survive across executions (the plan cache passes the
    one stored on ``CompiledQuery``).  *governor* is an optional
    :class:`repro.engine.governor.Governor` ticked from every operator loop
    of this execution.
    """
    options = options or PlannerOptions()
    context = _Context(
        database,
        params,
        compiled_exprs=options.compiled_exprs,
        profile=profile,
        compiler=compiler,
        governor=governor,
        batch_size=options.batch_size,
    )
    return _build(plan, context, options)


def execute(
    plan: Operator,
    database: ExtentProvider,
    options: PlannerOptions | None = None,
    params: Mapping[str, Any] | None = None,
):
    """Plan and run a logical plan, returning its value."""
    physical = plan_physical(plan, database, options, params)
    if not isinstance(physical, (PReduce, PEval)):
        raise TypeError("a complete plan must be rooted at Reduce or Eval")
    return physical.value()


def _build(
    plan: Operator, context: _Context, options: PlannerOptions
) -> PhysicalOperator:
    if isinstance(plan, Seed):
        return PSeed()
    if isinstance(plan, Scan):
        return PScan(context, plan.extent, plan.var)
    if isinstance(plan, Select):
        if options.index_scans and isinstance(plan.child, Scan):
            indexed = _try_index_scan(plan, plan.child, context)
            if indexed is not None:
                return indexed
        return PSelect(context, _build(plan.child, context, options), plan.pred)
    if isinstance(plan, Map):
        return PMap(context, _build(plan.child, context, options), plan.bindings)
    if isinstance(plan, (Join, OuterJoin)):
        return _build_join(plan, context, options)
    if isinstance(plan, Unnest):
        return PUnnest(
            context,
            _build(plan.child, context, options),
            plan.path,
            plan.var,
            plan.pred,
            outer=False,
        )
    if isinstance(plan, OuterUnnest):
        return PUnnest(
            context,
            _build(plan.child, context, options),
            plan.path,
            plan.var,
            plan.pred,
            outer=True,
        )
    if isinstance(plan, Nest):
        return PHashNest(
            context,
            _build(plan.child, context, options),
            plan.monoid,
            plan.head,
            plan.group_by,
            plan.null_vars,
            plan.out_var,
            plan.pred,
        )
    if isinstance(plan, Reduce):
        return PReduce(
            context, _build(plan.child, context, options), plan.monoid, plan.head, plan.pred
        )
    if isinstance(plan, Eval):
        return PEval(context, _build(plan.child, context, options), plan.expr)
    raise TypeError(f"cannot plan {type(plan).__name__}")


def split_equi_conjuncts(
    pred: Term, left_columns: tuple[str, ...], right_columns: tuple[str, ...]
) -> tuple[list[tuple[Term, Term]], list[Term]]:
    """Split a join predicate into (left-key, right-key) pairs + residual.

    A conjunct qualifies when it is an equality with one side over the left
    columns only and the other over the right columns only.
    """
    left_set, right_set = set(left_columns), set(right_columns)
    keys: list[tuple[Term, Term]] = []
    residual: list[Term] = []
    for part in conjuncts(pred):
        if isinstance(part, BinOp) and part.op == "==":
            sides = (part.left, part.right)
            for a, b in (sides, sides[::-1]):
                a_vars, b_vars = free_vars(a), free_vars(b)
                if a_vars and b_vars and a_vars <= left_set and b_vars <= right_set:
                    keys.append((a, b))
                    break
            else:
                residual.append(part)
        else:
            residual.append(part)
    return keys, residual


def _try_index_scan(
    select: Select, scan: Scan, context: _Context
) -> PhysicalOperator | None:
    """Convert ``σ_{v.attr = const}(Scan X)`` into an index scan when the
    database has an index on ``X.attr``.  Remaining conjuncts stay as a
    residual selection."""
    database = context.database
    if not hasattr(database, "has_index"):
        return None
    parts = conjuncts(select.pred)
    for index, part in enumerate(parts):
        if not (isinstance(part, BinOp) and part.op == "=="):
            continue
        for attr_side, key_side in ((part.left, part.right), (part.right, part.left)):
            if free_vars(key_side):
                continue  # the key must be a constant expression
            if not (
                isinstance(attr_side, Proj)
                and attr_side.expr == Var(scan.var)
                and database.has_index(scan.extent, attr_side.attr)
            ):
                continue
            access: PhysicalOperator = PIndexScan(
                context, scan.extent, scan.var, attr_side.attr, key_side
            )
            residual = parts[:index] + parts[index + 1 :]
            if residual:
                return PSelect(context, access, conj(*residual))
            return access
    return None


def _build_join(
    plan: Join | OuterJoin, context: _Context, options: PlannerOptions
) -> PhysicalOperator:
    outer = isinstance(plan, OuterJoin)
    left = _build(plan.left, context, options)
    right = _build(plan.right, context, options)
    right_columns = plan.right.columns()
    if options.hash_joins:
        keys, residual = split_equi_conjuncts(
            plan.pred, plan.left.columns(), right_columns
        )
        if keys:
            return PHashJoin(
                context,
                left,
                right,
                tuple(k for k, _ in keys),
                tuple(k for _, k in keys),
                conj(*residual),
                right_columns,
                outer,
            )
    return PNestedLoopJoin(context, left, right, plan.pred, right_columns, outer)
