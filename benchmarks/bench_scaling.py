"""Section 8's proposed experiment: quantify the unnesting speedup.

"Another goal is to quantify the performance improvement gained by query
unnesting by testing various nested queries" — this module runs exactly
that, across Kim's four nesting classes (type N, J, A, JA, the taxonomy the
paper uses in Section 2), sweeping the database size and recording the
naive-vs-unnested crossover, with and without hash joins, so "unnesting
removes recomputation" is separated from "unnesting enables hash joins".

Expected shape (and what the assertions pin):

* the naive strategy is O(|outer| × |inner|) and the unnested plan with
  hash joins is near-linear, so the speedup *grows* with database size;
* even without hash joins, unnesting never loses by more than a small
  constant (the plans do the same nested-loop work at worst).
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.datagen import company_database, university_database

from conftest import timed

#: (class, description, database family, OQL)
CLASSES = [
    (
        "type-N",
        "uncorrelated subquery in the predicate (membership)",
        "university",
        "select distinct s.name from s in Student "
        "where s.id in ( select t.id from t in Transcript where t.cno <= 2 )",
    ),
    (
        "type-J",
        "correlated existential subquery",
        "university",
        "select distinct s.name from s in Student "
        "where exists t in Transcript: (t.id = s.id and t.grade >= 3)",
    ),
    (
        "type-A",
        "uncorrelated aggregate in the predicate",
        "company",
        "select distinct e.name from e in Employees "
        "where e.salary > avg( select u.salary from u in Employees )",
    ),
    (
        "type-JA",
        "correlated aggregate in the predicate",
        "company",
        "select distinct e.name from e in Employees "
        "where e.salary >= max( select u.salary from u in Employees "
        "where u.dno = e.dno )",
    ),
]

SIZES = (25, 50, 100, 200)


def _database(family: str, size: int):
    if family == "company":
        return company_database(num_employees=size, num_departments=max(size // 10, 2),
                                seed=1998)
    return university_database(num_students=size, num_courses=10, seed=1998)


def _strategies(db):
    return {
        "naive": Optimizer(db, OptimizerOptions(unnest=False)),
        "unnested-nl": Optimizer(db, OptimizerOptions(hash_joins=False)),
        "unnested-hash": Optimizer(db),
    }


def test_scaling_report(report_writer, benchmark):
    lines = []
    final_speedups = {}
    for class_name, description, family, source in CLASSES:
        lines.append(f"=== {class_name}: {description} ===")
        lines.append(f"OQL: {source}")
        lines.append(
            f"{'size':>6} {'naive_ms':>10} {'unnested_nl_ms':>15} "
            f"{'unnested_hash_ms':>17} {'speedup_hash':>13}"
        )
        for size in SIZES:
            db = _database(family, size)
            times = {}
            results = {}
            for label, optimizer in _strategies(db).items():
                compiled = optimizer.compile_oql(source)
                results[label], times[label] = timed(compiled.execute, db)
            assert results["naive"] == results["unnested-hash"] == results[
                "unnested-nl"
            ]
            speedup = times["naive"] / times["unnested-hash"]
            final_speedups.setdefault(class_name, []).append(speedup)
            lines.append(
                f"{size:>6} {times['naive']:>10.2f} "
                f"{times['unnested-nl']:>15.2f} "
                f"{times['unnested-hash']:>17.2f} {speedup:>12.1f}x"
            )
        lines.append("")

    for class_name, speedups in final_speedups.items():
        lines.append(
            f"{class_name}: speedup at n={SIZES[0]}: {speedups[0]:.1f}x, "
            f"at n={SIZES[-1]}: {speedups[-1]:.1f}x"
        )
        # The headline claim: for correlated classes the gap must widen with
        # size; for the uncorrelated classes unnesting must at least win at
        # the largest size (the subquery is computed once either way, but
        # the unnested plan hashes the membership test).
        if class_name in ("type-J", "type-JA"):
            assert speedups[-1] > speedups[0], f"{class_name} gap did not widen"
        assert speedups[-1] > 1.0, f"{class_name} never won"

    report_writer("scaling", "\n".join(lines))
    db = _database("university", 50)
    compiled = Optimizer(db).compile_oql(CLASSES[1][3])
    benchmark(compiled.execute, db)


@pytest.mark.parametrize(
    "class_name,description,family,source", CLASSES, ids=[c[0] for c in CLASSES]
)
@pytest.mark.benchmark(group="scaling-naive")
def test_naive_at_100(benchmark, class_name, description, family, source):
    db = _database(family, 100)
    compiled = Optimizer(db, OptimizerOptions(unnest=False)).compile_oql(source)
    benchmark(compiled.execute, db)


@pytest.mark.parametrize(
    "class_name,description,family,source", CLASSES, ids=[c[0] for c in CLASSES]
)
@pytest.mark.benchmark(group="scaling-unnested")
def test_unnested_at_100(benchmark, class_name, description, family, source):
    db = _database(family, 100)
    compiled = Optimizer(db).compile_oql(source)
    benchmark(compiled.execute, db)
