"""Golden plan-shape regression tests.

For every corpus query we pin the *optimized* plan's operator skeleton.
A change here is not necessarily a bug — optimizer improvements legitimately
change shapes — but it must be a conscious decision: regenerate with

    python tests/test_plan_golden.py --regen

and review the diff of ``tests/golden_plans.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from corpus import CORPUS
from repro.algebra.pretty import plan_signature
from repro.core.optimizer import Optimizer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_plans.json"


def _database(family: str):
    # Sizes are irrelevant to plan shapes; use small fixed instances.
    from repro.data.datagen import (
        ab_database,
        auction_database,
        company_database,
        travel_database,
        university_database,
    )

    makers = {
        "company": lambda: company_database(10, 3, seed=1),
        "university": lambda: university_database(8, 5, seed=1),
        "travel": lambda: travel_database(3, 2, seed=1),
        "ab": lambda: ab_database(5, 7, seed=1),
        "auction": lambda: auction_database(8, 6, seed=1),
    }
    return makers[family]()


def compute_signatures() -> dict[str, str]:
    signatures = {}
    databases: dict[str, object] = {}
    for query in CORPUS:
        db = databases.setdefault(query.family, _database(query.family))
        compiled = Optimizer(db).compile_oql(query.oql)
        signatures[query.name] = plan_signature(compiled.optimized)
    return signatures


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_exists():
    assert GOLDEN_PATH.exists(), (
        "golden plan file missing; regenerate with "
        "`python tests/test_plan_golden.py --regen`"
    )


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_plan_shape_is_stable(query):
    golden = load_golden()
    db = _database(query.family)
    compiled = Optimizer(db).compile_oql(query.oql)
    assert query.name in golden, (
        f"no golden entry for {query.name}; regenerate the golden file"
    )
    assert plan_signature(compiled.optimized) == golden[query.name]


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_no_cross_product_feeds_a_quantifier(query):
    """No ``some``/``all`` nest reads a true-predicate nested-loop outer-join
    directly: the simplify stage pulls the correlation key into the join."""
    from repro.calculus.terms import Const
    from repro.engine.physical import PHashNest, PNestedLoopJoin

    db = _database(query.family)
    pending = [Optimizer(db).compile_oql(query.oql).physical(db)]
    while pending:
        op = pending.pop()
        pending.extend(op.children())
        if isinstance(op, PHashNest) and op.monoid.name in ("some", "all"):
            child = op.child
            assert not (
                isinstance(child, PNestedLoopJoin) and child.pred == Const(True)
            ), f"{query.name}: {op.explain()}"


def test_no_stale_golden_entries():
    golden = load_golden()
    names = {query.name for query in CORPUS}
    stale = set(golden) - names
    assert not stale, f"golden entries for removed queries: {sorted(stale)}"


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(compute_signatures(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
