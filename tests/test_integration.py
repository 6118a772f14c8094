"""Integration tests: the correctness triangle over the whole query corpus.

For every corpus query, five strategies must agree:

1. direct calculus evaluation of the raw translation (ground truth — the
   naive nested-loop semantics);
2. calculus evaluation of the *normalized* term (normalization is
   meaning-preserving);
3. the logical algebra evaluator on the unnested plan (the unnesting
   algorithm is sound);
4. the physical engine with hash joins;
5. the physical engine restricted to nested loops, with the full optimizer
   pipeline (simplification, algebraic rewrites, join reordering) applied.

This is the executable form of the paper's Theorem 2.
"""

from __future__ import annotations

import pytest

from corpus import CORPUS
from repro.algebra.evaluator import evaluate_plan
from repro.calculus.evaluator import evaluate
from repro.core.normalization import prepare
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.core.unnesting import unnest_query
from repro.oql.translator import parse_and_translate


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_all_strategies_agree(query, databases):
    db = databases[query.family]
    term = parse_and_translate(query.oql, db.schema)

    reference = evaluate(term, db)

    normalized = prepare(term)
    assert evaluate(normalized, db) == reference, "normalization changed semantics"

    plan = unnest_query(term)
    assert evaluate_plan(plan, db) == reference, "unnesting changed semantics"

    optimizer = Optimizer(db)
    compiled = optimizer.compile_oql(query.oql)
    assert compiled.execute(db) == reference, "optimized physical plan disagrees"

    nl_optimizer = Optimizer(db, OptimizerOptions(hash_joins=False))
    assert nl_optimizer.run_oql(query.oql) == reference, (
        "nested-loop physical plan disagrees"
    )


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_optimizer_options_all_combinations(query, databases):
    """Every combination of phase switches must preserve the result."""
    db = databases[query.family]
    reference = Optimizer(db, OptimizerOptions(unnest=False)).run_oql(query.oql)
    for simplify_on in (False, True):
        for algebraic in (False, True):
            for reorder in (False, True):
                options = OptimizerOptions(
                    simplify=simplify_on,
                    algebraic=algebraic,
                    reorder_joins=reorder,
                )
                got = Optimizer(db, options).run_oql(query.oql)
                assert got == reference, f"options {options} changed the result"


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_unnested_plans_contain_no_comprehensions_in_structure(query, databases):
    """Completeness (Theorem 1): no comprehension survives as an operator's
    generator source — nesting only remains inside scalar expressions when
    it is *not* query nesting (and our translator leaves none at all)."""
    from repro.algebra.operators import operators
    from repro.calculus.terms import Comprehension, subterms

    db = databases[query.family]
    term = parse_and_translate(query.oql, db.schema)
    plan = unnest_query(term)
    for op in operators(plan):
        for attr in ("pred", "head", "path", "expr"):
            value = getattr(op, attr, None)
            if value is None:
                continue
            assert not any(
                isinstance(t, Comprehension) for t in subterms(value)
            ), f"comprehension survived in {type(op).__name__}.{attr}"


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_plan_types_agree_with_term_types(query, databases):
    """The unnested plan has the same type as the calculus term (Fig. 3 vs 6)."""
    from repro.algebra.typing import infer_plan_type
    from repro.calculus.typing import infer_type
    from repro.data.schema import unify

    db = databases[query.family]
    term = parse_and_translate(query.oql, db.schema)
    term_type = infer_type(term, db.schema)
    plan_type = infer_plan_type(unnest_query(term), db.schema)
    # unify raises if the two types are incompatible.
    unify(term_type, plan_type)


def test_results_are_nontrivial(databases):
    """Guard against a silently-empty corpus: the flagship queries must
    produce non-empty results on the session databases."""
    flagship = ["query_a", "query_b", "query_d", "query_e", "group_avg", "hotels"]
    from corpus import corpus_by_name

    for name in flagship:
        query = corpus_by_name(name)
        db = databases[query.family]
        result = Optimizer(db).run_oql(query.oql)
        assert result is not None
        if hasattr(result, "__len__"):
            assert len(result) > 0, f"{name} returned an empty result"


#: Aggregates, a distinct projection, a correlated nest and both
#: quantifiers, run on generated data rather than the fixed corpus
#: databases.
GENERATED_DATA_QUERIES = (
    "sum( select e.salary / 3.0 from e in Employees )",
    "select distinct e.name from e in Employees where e.salary > 1000",
    "select struct(d: d.dno, es: (select e.name from e in Employees "
    "where e.dno = d.dno)) from d in Departments",
    "avg( select e.salary from e in Employees )",
    "exists e in Employees: e.salary > 0",
    "for all e in Employees: e.salary > 1000",
)


@pytest.mark.parametrize("oql", GENERATED_DATA_QUERIES)
def test_physical_engine_matches_calculus_on_generated_data(oql):
    from repro.data.datagen import company_database
    from repro.testing.oracle import results_equal

    db = company_database(61, 9, seed=1998)
    reference = evaluate(parse_and_translate(oql, db.schema), db)
    assert results_equal(Optimizer(db).run_oql(oql), reference)
