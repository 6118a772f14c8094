"""The OQL optimizer: algebraic rules, join permutation, and the facade.

The paper's prototype combines query unnesting with "other optimization
techniques, such as materialization of path expressions into joins,
performing selections as early as possible, rearranging join orders,
choosing access paths, assigning evaluation algorithms to operators".  The
stage cascade itself lives in :mod:`repro.core.pipeline`
(:class:`~repro.core.pipeline.QueryPipeline`):

    OQL text
      → parse → translate             (repro.oql)
      → normalize + canonicalize      (repro.core.normalization,  stage "normalize")
      → unnest C1–C9                  (repro.core.unnesting,      stage "unnest")
      → simplify §5                   (repro.core.simplification, stage "simplify")
      → algebraic rewrites            (this module,               stage "optimize")
      → join permutation              (this module + cost model,  stage "optimize")
      → physical planning             (repro.engine.planner,      stage "plan")

This module keeps what is genuinely the *optimizer's* substance — the
:data:`ALGEBRAIC_RULES` rule set ("performing selections as early as
possible") and the cost-based :func:`reorder_joins` — plus
:class:`Optimizer`, the backward-compatible name for the pipeline.

Every phase can be switched off through :class:`OptimizerOptions`; with
``unnest=False`` the query is executed by direct calculus interpretation —
the naive nested-loop strategy of un-optimizing OODB systems, which is the
baseline all benchmarks compare against.

Note on *path materialization*: the paper cites [1] for converting pointer
paths into joins against the referenced extent.  Our object store embeds
related objects by value (there are no inter-object references to chase), so
every path expression is already a direct navigation; the rewrite has no
work to do and is intentionally absent.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import (
    Join,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Seed,
    Select,
    Unnest,
)
from repro.calculus.terms import Term, conj, conjuncts, free_vars
from repro.core.pipeline import (
    CompiledQuery,
    PlanCache,
    QueryPipeline,
    StageResult,
)
from repro.core.rewrite import RuleSet
from repro.engine.cost import CostModel

__all__ = [
    "ALGEBRAIC_RULES",
    "CompiledQuery",
    "Optimizer",
    "OptimizerOptions",
    "PlanCache",
    "QueryPipeline",
    "StageResult",
    "reorder_joins",
]


@dataclass(frozen=True)
class OptimizerOptions:
    """Phase switches; the ablation benchmarks toggle these."""

    unnest: bool = True
    simplify: bool = True
    algebraic: bool = True
    reorder_joins: bool = True
    hash_joins: bool = True
    index_scans: bool = True
    #: Lower expression trees to native Python closures at plan time
    #: (repro.engine.compile) instead of interpreting the AST per row.
    compiled_exprs: bool = True
    #: Rows per columnar chunk passed between physical operators.
    batch_size: int = 1024
    #: Type-check the calculus translation (Figure 3) and the final plan
    #: (Figure 6) during compilation, failing fast on ill-typed queries.
    #: On by default: an ill-typed query should die at plan time with a
    #: TypeCheckError naming the subterm, not mid-execution.
    typecheck: bool = True
    #: Per-query governor limits (repro.engine.governor), all off by
    #: default.  ``timeout`` is a wall-clock budget in seconds; ``max_rows``
    #: bounds work units (rows emitted + join pairs considered);
    #: ``max_bytes`` bounds the estimated memory buffered by blocking
    #: operators.  Tripping any of them raises a structured GovernorError.
    timeout: float | None = None
    max_rows: int | None = None
    max_bytes: int | None = None
    #: Execution backend.  ``"memory"`` is the reference in-memory engine;
    #: ``"sqlite"`` shreds extents into flat SQLite tables and lowers
    #: join/unnest chains of the unnested plan to flat SELECTs
    #: (repro.backends.shred), stitching results back with the reference
    #: nest semantics.  Requires ``unnest=True``.
    backend: str = "memory"
    #: SQLite backend: shred into (and reuse) a file-backed store at this
    #: path instead of ``:memory:`` — extents larger than RAM execute out
    #: of core.  A manifest (schema version + per-extent content digest)
    #: decides whether an existing file can be reused or must be re-shred.
    db_path: str | None = None
    #: SQLite backend: lower Reduce/Nest aggregation into SQL GROUP BY +
    #: aggregate expressions (the fast path).  Off pins the original
    #: stitch-in-Python lowering, kept as an oracle path.
    sqlite_pushdown: bool = True


# ---------------------------------------------------------------------------
# The algebraic rule set ("performing selections as early as possible")
# ---------------------------------------------------------------------------

ALGEBRAIC_RULES = RuleSet("algebraic")


@ALGEBRAIC_RULES.rule(
    "select-true-elim", "drop selections whose predicate is constant true"
)
def _select_true(plan: Operator) -> Operator | None:
    from repro.calculus.terms import Const

    if isinstance(plan, Select) and plan.pred == Const(True):
        return plan.child
    return None


@ALGEBRAIC_RULES.rule("select-merge", "fuse adjacent selections")
def _select_merge(plan: Operator) -> Operator | None:
    if isinstance(plan, Select) and isinstance(plan.child, Select):
        return Select(plan.child.child, conj(plan.child.pred, plan.pred))
    return None


@ALGEBRAIC_RULES.rule(
    "join-pred-push-right",
    "move right-only join-predicate conjuncts into a selection on the right "
    "input (sound for outer-joins: a failing tuple pads either way)",
)
def _join_push_right(plan: Operator) -> Operator | None:
    if not isinstance(plan, (Join, OuterJoin)):
        return None
    right_cols = set(plan.right.columns())
    movable = [p for p in conjuncts(plan.pred) if free_vars(p) and free_vars(p) <= right_cols]
    if not movable:
        return None
    rest = [p for p in conjuncts(plan.pred) if p not in movable]
    new_right = Select(plan.right, conj(*movable))
    cls = type(plan)
    return cls(plan.left, new_right, conj(*rest))


@ALGEBRAIC_RULES.rule(
    "join-pred-push-left",
    "move left-only join-predicate conjuncts into a selection on the left "
    "input (inner joins only: an outer-join must keep padding such tuples)",
)
def _join_push_left(plan: Operator) -> Operator | None:
    if not isinstance(plan, Join):
        return None
    left_cols = set(plan.left.columns())
    movable = [p for p in conjuncts(plan.pred) if free_vars(p) and free_vars(p) <= left_cols]
    if not movable:
        return None
    rest = [p for p in conjuncts(plan.pred) if p not in movable]
    return Join(Select(plan.left, conj(*movable)), plan.right, conj(*rest))


@ALGEBRAIC_RULES.rule(
    "select-pushdown",
    "push a selection below a join / unnest when it only references one side",
)
def _select_pushdown(plan: Operator) -> Operator | None:
    if not isinstance(plan, Select):
        return None
    child = plan.child
    parts = conjuncts(plan.pred)
    if isinstance(child, (Join, OuterJoin)):
        left_cols = set(child.left.columns())
        down = [p for p in parts if free_vars(p) <= left_cols]
        if not down:
            return None
        keep = [p for p in parts if p not in down]
        cls = type(child)
        pushed = cls(Select(child.left, conj(*down)), child.right, child.pred)
        return Select(pushed, conj(*keep)) if keep else pushed
    if isinstance(child, (Unnest, OuterUnnest)):
        child_cols = set(child.child.columns())
        down = [p for p in parts if free_vars(p) <= child_cols]
        if not down:
            return None
        keep = [p for p in parts if p not in down]
        cls = type(child)
        pushed = cls(Select(child.child, conj(*down)), child.path, child.var, child.pred)
        return Select(pushed, conj(*keep)) if keep else pushed
    return None


@ALGEBRAIC_RULES.rule(
    "reduce-pred-to-select",
    "materialize a reduce's predicate as a selection so pushdown can move it",
)
def _reduce_pred_to_select(plan: Operator) -> Operator | None:
    from repro.calculus.terms import Const

    if isinstance(plan, Reduce) and plan.pred != Const(True):
        return Reduce(
            Select(plan.child, plan.pred), plan.monoid_name, plan.head
        )
    return None


@ALGEBRAIC_RULES.rule(
    "select-through-nest",
    "push selection conjuncts over the grouping columns below a nest "
    "(dropping a group's input rows and dropping the emitted group agree "
    "exactly when the predicate only reads the group-by columns)",
)
def _select_through_nest(plan: Operator) -> Operator | None:
    if not (isinstance(plan, Select) and isinstance(plan.child, Nest)):
        return None
    nest = plan.child
    group_cols = set(nest.group_by)
    parts = conjuncts(plan.pred)
    down = [p for p in parts if free_vars(p) <= group_cols]
    if not down:
        return None
    keep = [p for p in parts if p not in down]
    from repro.algebra.operators import rebuild

    pushed = rebuild(nest, (Select(nest.child, conj(*down)),))
    return Select(pushed, conj(*keep)) if keep else pushed


@ALGEBRAIC_RULES.rule(
    "seed-join-elim", "a join against the unit stream is the other input"
)
def _seed_join(plan: Operator) -> Operator | None:
    if isinstance(plan, Join):
        if isinstance(plan.left, Seed):
            return Select(plan.right, plan.pred)
        if isinstance(plan.right, Seed):
            return Select(plan.left, plan.pred)
    return None


# ---------------------------------------------------------------------------
# Join permutation (cost-based, Section 6's "rearranging join orders")
# ---------------------------------------------------------------------------


def reorder_joins(plan: Operator, cost_model: CostModel) -> Operator:
    """Greedily reorder maximal chains of inner joins by estimated size.

    Inner joins commute and associate, so a left-deep chain is flattened
    into its leaf inputs plus a pool of predicate conjuncts and rebuilt
    smallest-intermediate-first, attaching each conjunct at the lowest join
    where its columns are available.  Outer operators are never moved.
    """
    from repro.algebra.operators import transform_plan

    def visit(node: Operator) -> Operator:
        if isinstance(node, Join):
            leaves, preds = _flatten_joins(node)
            if len(leaves) > 2:
                return _rebuild_joins(leaves, preds, cost_model)
        return node

    return transform_plan(plan, visit)


def _flatten_joins(plan: Join) -> tuple[list[Operator], list[Term]]:
    leaves: list[Operator] = []
    preds: list[Term] = []

    def walk(node: Operator) -> None:
        if isinstance(node, Join):
            walk(node.left)
            walk(node.right)
            preds.extend(conjuncts(node.pred))
        else:
            leaves.append(node)

    walk(plan)
    return leaves, preds


def _rebuild_joins(
    leaves: list[Operator], preds: list[Term], cost_model: CostModel
) -> Operator:
    remaining = list(leaves)
    pool = list(preds)

    def applicable(cols: set[str]) -> list[Term]:
        return [p for p in pool if free_vars(p) <= cols]

    # Start from the smallest leaf.
    current = min(remaining, key=cost_model.cardinality)
    remaining.remove(current)
    current_cols = set(current.columns())

    while remaining:
        best = None
        best_card = float("inf")
        best_preds: list[Term] = []
        for leaf in remaining:
            cols = current_cols | set(leaf.columns())
            usable = applicable(cols)
            selectivity = cost_model.selectivity(conj(*usable)) if usable else 1.0
            card = (
                cost_model.cardinality(current)
                * cost_model.cardinality(leaf)
                * selectivity
            )
            # Strongly prefer joins with at least one predicate over cross
            # products.
            if not usable:
                card *= 1e6
            if card < best_card:
                best, best_card, best_preds = leaf, card, usable
        assert best is not None
        remaining.remove(best)
        for pred in best_preds:
            pool.remove(pred)
        current = Join(current, best, conj(*best_preds))
        current_cols |= set(best.columns())

    if pool:
        current = Select(current, conj(*pool))
    return current


# ---------------------------------------------------------------------------
# The optimizer facade
# ---------------------------------------------------------------------------


class Optimizer(QueryPipeline):
    """The end-to-end OQL optimizer (the pipeline's historical name).

    Since the staged-pipeline refactor this is exactly
    :class:`repro.core.pipeline.QueryPipeline` — same constructor, same
    entry points (``compile_oql``, ``compile_term``, ``run_oql``,
    ``run_statement``, ``define_view``), plus the plan cache and per-stage
    instrumentation — kept under the paper-era name so existing imports and
    documentation continue to work.
    """
