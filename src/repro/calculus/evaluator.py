"""Reference (naive nested-loop) semantics for the monoid calculus.

This evaluator implements the comprehension reduction semantics of Section 2
(rules D1–D7) by direct iteration: every generator is a loop, every filter a
test, and the head values are merged with the comprehension's accumulator.
For a nested query this is exactly the "naive nested-loop method" the paper
ascribes to current OODB systems — for each step of the outer query all the
steps of the inner query are re-executed — which makes this module both the
ground truth for correctness testing *and* the baseline for the benchmarks.

NULL handling is strict: primitive operations propagate NULL, filters treat
a NULL predicate as false, and generators over NULL produce no bindings
(matching the outer-unnest/nest composition of the algebra).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro.calculus.monoids import CollectionMonoid
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Extent,
    Filter,
    Generator,
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
)
from repro.data.values import NULL, CollectionValue, Record, identity_eq, is_null
from repro.errors import ExecutionError


class EvaluationError(ExecutionError):
    """Raised when a term cannot be evaluated (bad types, unbound names)."""


class DivisionByZeroError(EvaluationError):
    """Division or modulo by zero.

    The repo pins the typed-error semantics (not SQL's silent NULL): the
    T1–T9 rules cannot see the divisor's *value*, so a zero divisor is a
    runtime fault — but a structured one, raised identically by the
    interpreter, the compiled row closures and the batch kernels (the
    differential oracle and ``tests/test_compile.py`` sweep all three).
    """


class UnboundParameterError(EvaluationError):
    """A :class:`~repro.calculus.terms.Param` has no bound value.

    Raised when a prepared statement is executed without supplying every
    ``:name`` placeholder (see ``CompiledQuery.bind``).
    """


class ExtentProvider:
    """Anything that can resolve a class extent name to a collection.

    :class:`repro.data.database.Database` implements this protocol.
    """

    def extent(self, name: str) -> CollectionValue:
        raise NotImplementedError


class Evaluator:
    """Evaluates calculus terms against an extent provider.

    The evaluator also counts *tuple steps* (generator iterations), which the
    benchmarks use as a machine-independent cost measure alongside wall time.
    """

    def __init__(
        self,
        database: ExtentProvider,
        params: Mapping[str, Any] | None = None,
        governor: Any | None = None,
    ):
        self._database = database
        self.params = dict(params) if params else {}
        self.steps = 0
        #: Optional :class:`repro.engine.governor.Governor`; ticked per
        #: generator iteration so ``unnest=False`` runs are bounded too.
        self.governor = governor

    def evaluate(self, term: Term, env: Mapping[str, Any] | None = None) -> Any:
        """Evaluate *term* in environment *env* (variable name → value)."""
        return self._eval(term, dict(env) if env else {})

    # -- dispatch -----------------------------------------------------------

    def _eval(self, term: Term, env: dict[str, Any]) -> Any:
        method = self._DISPATCH.get(type(term))
        if method is None:
            raise EvaluationError(f"cannot evaluate {type(term).__name__}")
        return method(self, term, env)

    def _eval_var(self, term: Var, env: dict[str, Any]) -> Any:
        try:
            return env[term.name]
        except KeyError:
            raise EvaluationError(
                f"unbound variable {term.name!r}; in scope: {sorted(env)}"
            ) from None

    def _eval_const(self, term: Const, env: dict[str, Any]) -> Any:
        return term.value

    def _eval_null(self, term: Null, env: dict[str, Any]) -> Any:
        return NULL

    def _eval_param(self, term: Param, env: dict[str, Any]) -> Any:
        try:
            return self.params[term.name]
        except KeyError:
            raise UnboundParameterError(
                f"parameter :{term.name} has no bound value; bound: "
                f"{sorted(self.params)}"
            ) from None

    def _eval_extent(self, term: Extent, env: dict[str, Any]) -> Any:
        return self._database.extent(term.name)

    def _eval_record(self, term: RecordCons, env: dict[str, Any]) -> Any:
        return Record({name: self._eval(expr, env) for name, expr in term.fields})

    def _eval_proj(self, term: Proj, env: dict[str, Any]) -> Any:
        value = self._eval(term.expr, env)
        if is_null(value):
            return NULL
        if not isinstance(value, Record):
            raise EvaluationError(
                f"projection .{term.attr} applied to non-record "
                f"{type(value).__name__}"
            )
        return value[term.attr]

    def _eval_lambda(self, term: Lambda, env: dict[str, Any]) -> Any:
        captured = dict(env)

        def closure(arg: Any) -> Any:
            inner = dict(captured)
            inner[term.param] = arg
            return self._eval(term.body, inner)

        return closure

    def _eval_apply(self, term: Apply, env: dict[str, Any]) -> Any:
        fn = self._eval(term.fn, env)
        if not callable(fn):
            raise EvaluationError("application of a non-function value")
        return fn(self._eval(term.arg, env))

    def _eval_if(self, term: If, env: dict[str, Any]) -> Any:
        cond = self._eval(term.cond, env)
        if is_null(cond):
            return self._eval(term.orelse, env)
        if not isinstance(cond, bool):
            raise EvaluationError("if condition is not a boolean")
        return self._eval(term.then if cond else term.orelse, env)

    def _eval_let(self, term: Let, env: dict[str, Any]) -> Any:
        inner = dict(env)
        inner[term.var] = self._eval(term.value, env)
        return self._eval(term.body, inner)

    def _eval_binop(self, term: BinOp, env: dict[str, Any]) -> Any:
        # 'and'/'or' are short-circuiting; everything else is strict in NULL.
        if term.op == "and":
            left = self._eval(term.left, env)
            if left is False:
                return False
            right = self._eval(term.right, env)
            if is_null(left) or is_null(right):
                return NULL
            return left and right
        if term.op == "or":
            left = self._eval(term.left, env)
            if left is True:
                return True
            right = self._eval(term.right, env)
            if is_null(left) or is_null(right):
                return NULL
            return left or right
        left = self._eval(term.left, env)
        right = self._eval(term.right, env)
        if is_null(left) or is_null(right):
            return NULL
        return apply_binop(term.op, left, right)

    def _eval_not(self, term: Not, env: dict[str, Any]) -> Any:
        value = self._eval(term.expr, env)
        if is_null(value):
            return NULL
        if not isinstance(value, bool):
            raise EvaluationError("'not' applied to a non-boolean")
        return not value

    def _eval_isnull(self, term: IsNull, env: dict[str, Any]) -> Any:
        return is_null(self._eval(term.expr, env))

    def _eval_zero(self, term: Zero, env: dict[str, Any]) -> Any:
        return term.monoid.zero

    def _eval_singleton(self, term: Singleton, env: dict[str, Any]) -> Any:
        monoid = term.monoid
        if not isinstance(monoid, CollectionMonoid):
            raise EvaluationError(f"singleton of primitive monoid {monoid.name}")
        return monoid.unit(self._eval(term.expr, env))

    def _eval_merge(self, term: Merge, env: dict[str, Any]) -> Any:
        left = self._eval(term.left, env)
        right = self._eval(term.right, env)
        return term.monoid.merge(left, right)

    def _eval_comprehension(self, term: Comprehension, env: dict[str, Any]) -> Any:
        monoid = term.monoid
        result = monoid.zero
        for binding in self._bindings(term.qualifiers, env):
            value = self._eval(term.head, binding)
            if isinstance(monoid, CollectionMonoid):
                result = monoid.merge(result, monoid.unit(value))
                continue
            if is_null(value):
                # A NULL contributes nothing to a primitive accumulator (a
                # NULL cannot be summed or conjoined) — the same policy the
                # algebra evaluators follow, so both semantics agree.
                continue
            result = monoid.merge(result, monoid.lift(value))
            # Short-circuit quantifiers: once a conjunction is false or a
            # disjunction true, further iteration cannot change the result.
            if monoid.name == "all" and result is False:
                return False
            if monoid.name == "some" and result is True:
                return True
        if isinstance(monoid, CollectionMonoid):
            return result
        return monoid.finalize(result)

    def _bindings(
        self, qualifiers: tuple, env: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        """Stream the environments produced by a qualifier sequence."""
        if not qualifiers:
            yield env
            return
        first, rest = qualifiers[0], qualifiers[1:]
        if isinstance(first, Filter):
            pred = self._eval(first.pred, env)
            if pred is True:
                yield from self._bindings(rest, env)
            elif pred is False or is_null(pred):
                return
            else:
                raise EvaluationError("filter predicate is not a boolean")
            return
        assert isinstance(first, Generator)
        domain = self._eval(first.domain, env)
        if is_null(domain):
            return
        if not isinstance(domain, CollectionValue):
            raise EvaluationError(
                f"generator domain for {first.var!r} is not a collection "
                f"({type(domain).__name__})"
            )
        governor = self.governor
        tick = governor.tick if governor is not None else None
        for element in domain.elements():
            self.steps += 1
            if tick is not None:
                tick()
            inner = dict(env)
            inner[first.var] = element
            yield from self._bindings(rest, inner)

    _DISPATCH: dict[type, Callable[..., Any]] = {}


Evaluator._DISPATCH = {
    Var: Evaluator._eval_var,
    Const: Evaluator._eval_const,
    Null: Evaluator._eval_null,
    Param: Evaluator._eval_param,
    Extent: Evaluator._eval_extent,
    RecordCons: Evaluator._eval_record,
    Proj: Evaluator._eval_proj,
    Lambda: Evaluator._eval_lambda,
    Apply: Evaluator._eval_apply,
    If: Evaluator._eval_if,
    Let: Evaluator._eval_let,
    BinOp: Evaluator._eval_binop,
    Not: Evaluator._eval_not,
    IsNull: Evaluator._eval_isnull,
    Zero: Evaluator._eval_zero,
    Singleton: Evaluator._eval_singleton,
    Merge: Evaluator._eval_merge,
    Comprehension: Evaluator._eval_comprehension,
}


def apply_binop(op: str, left: Any, right: Any) -> Any:
    """Apply a strict primitive binary operator to two non-NULL values.

    Equality follows the OO model: scalars and plain values compare by
    value, stored objects by identity (see
    :func:`repro.data.values.identity_eq`).  Every evaluator in the system
    — calculus, definitional algebra semantics, physical operators — routes
    ``=`` through this single function, so no execution path can disagree
    about what object equality means.
    """
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise DivisionByZeroError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise DivisionByZeroError("modulo by zero")
            return left % right
        if op == "==":
            return identity_eq(left, right)
        if op == "!=":
            return not identity_eq(left, right)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        # A well-typed plan cannot get here (the T1–T9 checker rejects
        # e.g. string + float at plan time); with typechecking disabled
        # the fault still surfaces as a structured error.
        raise EvaluationError(
            f"operator {op!r} applied to incompatible values "
            f"{type(left).__name__} and {type(right).__name__}: {exc}"
        ) from exc
    raise EvaluationError(f"unknown operator {op!r}")


def evaluate(
    term: Term,
    database: ExtentProvider,
    env: Mapping[str, Any] | None = None,
    params: Mapping[str, Any] | None = None,
) -> Any:
    """Convenience wrapper: evaluate *term* against *database*."""
    return Evaluator(database, params).evaluate(term, env)
