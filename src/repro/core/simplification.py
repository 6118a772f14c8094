"""The post-unnesting simplification rule of Section 5 (Figure 8).

The unnesting algorithm compiles group-by style queries — such as

    select e.dno, avg(e.salary) from Employees e
    where e.age > 30 group by e.dno

whose calculus translation is *implicitly nested* — into a self outer-join
followed by a nest (Figure 8.A).  Section 5's simplification rule

    Γ^{⊕/e/b}_{p/w}( g(a) =⨝_{a.M = b.M} g(b) )  →  Γ^{⊕}( σ_p(g(a)) )

recognizes that the outer-join joins a subplan *with a renamed copy of
itself* on equality of grouping expressions, and replaces the pair with a
direct grouping of the single subplan (Figure 8.B).

Matching details (all checked, the rewrite refuses otherwise):

* Each join side must be a Select/Scan tower over the same extent; the
  unnester may leave the right side's own predicate inside the outer-join
  predicate (rule C6 does that), so right-only conjuncts of the join
  predicate count as right-side selections.  After splitting those off, the
  remaining join predicate must be a conjunction of equalities
  ``f_i(a) = f_i(b)`` with the two towers equal under the renaming a→b.
* The rewritten nest groups by the *values* of the ``f_i``, so the rewrite
  inserts a :class:`~repro.algebra.operators.Map` that materializes them as
  columns (the paper's Γ groups by an arbitrary function, which subsumes
  this).
* The parent may then mention the old left variables only *through* the
  ``f_i``; the rewrite substitutes the new key columns there.
* Collapsing per-tuple groups into per-key groups drops duplicate
  (key, aggregate) pairs, so the parent accumulator must be idempotent
  (it is ``set`` in every group-by query the rule targets).

Two further rules run in the same stage.  The C-rules unnest ``exists``,
``for all``, ``in`` and ``except`` into an outer-join feeding a ``some``/
``all`` nest but leave the correlation equality inside the nest head (or in
an outer-unnest predicate), so the outer-join predicate is ``true`` and the
physical join degenerates to a cross product.  Both rules move that
equality into the outer-join predicate, where the hash join and the SQLite
equi-join lowering pick it up:

* **Key pull-up.**  ``Γ^{all/x≠y ∨ e}(X =⨝_p Y)  →  Γ^{all/e}(X =⨝_{p ∧ x=y} Y)``
  and ``Γ^{some/x=y ∧ e}(X =⨝_p Y)  →  Γ^{some/e}(X =⨝_{p ∧ x=y} Y)``,
  with ``x`` over the left and ``y`` over the right columns, the nest
  grouping by the left columns and null-testing a right one.  The key leaf
  must be *leftmost* in its ``or``/``and`` chain: the left-biased
  connectives then short-circuit a non-matching pair to the monoid zero
  without evaluating anything else, and a NULL key makes the whole head
  NULL, which the nest skips — so only matching pairs ever contributed.
  A left row left without partners is padded, and padding folds to zero.
* **Marked exists.**  The translation of ``count(select … where exists k in
  y.path: p)`` marks every (x, y) pair with ``m = some{true | k <- y.path,
  p}`` over ``X =⨝_true Y`` and lets a parent nest keep the pairs whose
  mark holds.  When the parent's predicate is exactly ``m``, the pairs with
  a false mark and the padded rows are dropped anyway, so the unnest can
  move under the right side and its cross conjuncts into the join:
  ``X =⨝_{cross(p)} μ^{path}_{right(p)}(Y)``.

Both rules refuse when a predicate or head they move contains ``/`` or
``%``: those are the only operators that raise in a typechecked plan, and
the rewritten plan no longer evaluates them on non-matching pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.algebra.operators import (
    Map,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Select,
    Unnest,
    transform_plan,
)
from repro.calculus.terms import (
    BinOp,
    Const,
    Term,
    Var,
    conj,
    conjuncts,
    free_vars,
    fresh_name,
    subterms,
    substitute,
    transform,
)


def simplify(plan: Operator) -> Operator:
    """Apply the Section 5 simplification wherever it matches in *plan*."""
    return transform_plan(plan, _simplify_node)


def _simplify_node(plan: Operator) -> Operator:
    if isinstance(plan, Reduce) and plan.monoid.idempotent:
        child = plan.child
        if isinstance(child, Nest):
            rewritten = _try_rewrite(plan, child)
            if rewritten is not None:
                return rewritten
    if isinstance(plan, Nest):
        rewritten = _pull_up_key(plan) or _mark_exists(plan)
        if rewritten is not None:
            return rewritten
    return plan


@dataclass(frozen=True)
class _Tower:
    """A Select*/Scan tower decomposed into its scan and predicate set."""

    scan: Scan
    preds: tuple[Term, ...]


def _decompose(plan: Operator) -> _Tower | None:
    preds: list[Term] = []
    while isinstance(plan, Select):
        preds.extend(conjuncts(plan.pred))
        plan = plan.child
    if isinstance(plan, Scan):
        return _Tower(plan, tuple(preds))
    return None


def _try_rewrite(parent: Reduce, nest: Nest) -> Operator | None:
    join = nest.child
    if not isinstance(join, OuterJoin):
        return None

    left = _decompose(join.left)
    right = _decompose(join.right)
    if left is None or right is None or left.scan.extent != right.scan.extent:
        return None

    # The nest must group by exactly the left side and null-test the right.
    if tuple(nest.group_by) != tuple(join.left.columns()):
        return None
    if not set(nest.null_vars) <= set(join.right.columns()):
        return None

    a_var, b_var = left.scan.var, right.scan.var
    rename_ab = {a_var: Var(b_var)}
    rename_ba = {b_var: Var(a_var)}

    # Split the join predicate: equalities f(a) = f(b) versus right-only
    # conjuncts (which count as right-side selections).
    equalities: list[Term] = []
    right_preds: list[Term] = list(right.preds)
    for part in conjuncts(join.pred):
        names = free_vars(part)
        if names <= {b_var}:
            right_preds.append(part)
            continue
        expr = _equality_of_copies(part, a_var, b_var, rename_ab)
        if expr is None:
            return None
        equalities.append(expr)
    if not equalities:
        return None

    # The towers must be copies of each other under the renaming.
    left_set = {substitute(p, rename_ab) for p in left.preds}
    if left_set != set(right_preds):
        return None

    # Head and contribution predicate of the nest range over the right copy.
    if not (free_vars(nest.head) <= {b_var} and free_vars(nest.pred) <= {b_var}):
        return None

    key_columns = tuple(fresh_name("k") for _ in equalities)
    bindings = tuple(zip(key_columns, equalities))

    # The parent may reference the left variable only via the f_i.
    replacements = {expr: Var(col) for col, expr in bindings}
    new_head = _replace_exprs(parent.head, replacements)
    new_pred = _replace_exprs(parent.pred, replacements)
    allowed = set(key_columns) | {nest.out_var}
    if not (free_vars(new_head) <= allowed and free_vars(new_pred) <= allowed):
        return None

    # Null-test the key columns: in the outer-join form a NULL grouping key
    # matches nothing (not even its own copy — NULL = NULL is false), so its
    # group is padded to the monoid zero.  The direct grouping must preserve
    # that, or NULL-keyed rows would wrongly aggregate with themselves.
    grouped = Nest(
        Map(join.left, bindings),
        nest.monoid_name,
        substitute(nest.head, rename_ba),
        group_by=key_columns,
        null_vars=key_columns,
        out_var=nest.out_var,
        pred=substitute(nest.pred, rename_ba),
    )
    return Reduce(grouped, parent.monoid_name, new_head, new_pred)


def _equality_of_copies(
    part: Term, a_var: str, b_var: str, rename_ab: dict[str, Term]
) -> Term | None:
    """If *part* is ``f(a) = f(b)``, return ``f(a)``; otherwise None."""
    if not (isinstance(part, BinOp) and part.op == "=="):
        return None
    sides = [part.left, part.right]
    a_side = next((s for s in sides if free_vars(s) == {a_var}), None)
    b_side = next((s for s in sides if free_vars(s) == {b_var}), None)
    if a_side is None or b_side is None:
        return None
    if substitute(a_side, rename_ab) != b_side:
        return None
    return a_side


def _replace_exprs(term: Term, replacements: dict[Term, Term]) -> Term:
    """Replace occurrences of whole expressions (not just variables)."""
    return transform(term, lambda t: replacements.get(t, t))


#: Per quantifier monoid: the head connective whose leftmost leaf may be the
#: key, the key comparison, and the head left once the leaf is removed.
_KEY_LEAF = {"all": ("or", "!=", Const(False)), "some": ("and", "==", Const(True))}


def _pull_up_key(nest: Nest) -> Nest | None:
    """Key pull-up: move the leftmost key leaf of a quantifier head into
    the outer-join predicate (repeatedly, for multi-column keys)."""
    shape = _KEY_LEAF.get(nest.monoid_name)
    join = nest.child
    if shape is None or not isinstance(join, OuterJoin):
        return None
    if not _groups_left_nulls_right(nest, join):
        return None
    if _may_raise(nest.head, nest.pred, join.pred):
        return None
    connective, key_op, empty_head = shape
    leaf, rest = _split_leftmost(nest.head, connective)
    if not (isinstance(leaf, BinOp) and leaf.op == key_op):
        return None
    key = _orient(leaf, join.left.columns(), join.right.columns())
    if key is None:
        return None
    rewritten = Nest(
        OuterJoin(join.left, join.right, conj(join.pred, BinOp("==", *key))),
        nest.monoid_name,
        empty_head if rest is None else rest,
        nest.group_by,
        nest.null_vars,
        nest.out_var,
        nest.pred,
    )
    return _pull_up_key(rewritten) or rewritten


def _mark_exists(parent: Nest) -> Nest | None:
    """Marked exists: move an outer-unnest under the right side of a
    ``true`` outer-join, and its cross conjuncts into the join."""
    marks = parent.child
    if not (
        isinstance(marks, Nest)
        and marks.monoid_name == "some"
        and marks.head == Const(True)
        and parent.pred == Var(marks.out_var)
    ):
        return None
    unnest = marks.child
    if not isinstance(unnest, OuterUnnest):
        return None
    join = unnest.child
    if not (isinstance(join, OuterJoin) and join.pred == Const(True)):
        return None
    left_columns, right_columns = join.left.columns(), join.right.columns()
    if not _groups_left_nulls_right(parent, join):
        return None
    if tuple(marks.group_by) != left_columns + right_columns:
        return None
    if unnest.var not in marks.null_vars:
        return None
    if not free_vars(unnest.path) <= set(right_columns):
        return None
    if _may_raise(unnest.path, unnest.pred, marks.pred):
        return None
    # The mark's own predicate filters the same pairs, so it joins the
    # unnest predicate's conjuncts.
    parts = conjuncts(unnest.pred) + conjuncts(marks.pred)
    inner = set(right_columns) | {unnest.var}
    right_only = [p for p in parts if free_vars(p) <= inner]
    cross = [p for p in parts if not free_vars(p) <= inner]
    if not any(
        isinstance(p, BinOp) and p.op == "==" and _orient(p, left_columns, inner)
        for p in cross
    ):
        return None
    rewritten_join = OuterJoin(
        join.left,
        Unnest(join.right, unnest.path, unnest.var, conj(*right_only)),
        conj(*cross),
    )
    return Nest(
        Nest(
            rewritten_join,
            "some",
            marks.head,
            marks.group_by,
            marks.null_vars,
            marks.out_var,
        ),
        parent.monoid_name,
        parent.head,
        parent.group_by,
        parent.null_vars,
        parent.out_var,
        parent.pred,
    )


def _groups_left_nulls_right(nest: Nest, join: OuterJoin) -> bool:
    """The nest groups by exactly the join's left columns and null-tests a
    right one, so every left row has a group and padding folds to zero."""
    return tuple(nest.group_by) == join.left.columns() and bool(
        set(nest.null_vars) & set(join.right.columns())
    )


def _may_raise(*terms: Term) -> bool:
    return any(
        isinstance(sub, BinOp) and sub.op in ("/", "%")
        for term in terms
        for sub in subterms(term)
    )


def _split_leftmost(term: Term, connective: str) -> tuple[Term, Term | None]:
    """Split the leftmost leaf off a left-biased *connective* chain."""
    if not (isinstance(term, BinOp) and term.op == connective):
        return term, None
    leaf, rest = _split_leftmost(term.left, connective)
    if rest is None:
        return leaf, term.right
    return leaf, BinOp(connective, rest, term.right)


def _orient(
    leaf: BinOp, left: Iterable[str], right: Iterable[str]
) -> tuple[Term, Term] | None:
    """``(x, y)`` when *leaf* compares an expression ``x`` over the *left*
    columns with one ``y`` over the *right* columns, else None."""
    left, right = set(left), set(right)
    for x, y in ((leaf.left, leaf.right), (leaf.right, leaf.left)):
        x_vars, y_vars = free_vars(x), free_vars(y)
        if x_vars and y_vars and x_vars <= left and y_vars <= right:
            return x, y
    return None


def simplification_applies(plan: Operator) -> bool:
    """True when :func:`simplify` changes *plan* (used by reports/tests)."""
    return simplify(plan) != plan
