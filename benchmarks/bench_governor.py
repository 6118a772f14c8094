"""Governor overhead benchmark: ``BENCH_governor.json``.

Runs every corpus query through the full pipeline twice — ungoverned (the
default, where operators skip work-unit settling and byte charging) and
governed with generous limits (``timeout``, ``max_rows``, ``max_bytes``
all set high enough that nothing ever trips, so the run pays the full
accounting cost: per-chunk work-unit settling plus sampled byte estimates
in the blocking builds) — and reports per-family and overall overhead.
Both runs execute the same physical operators.

The acceptance bar is that enabling the governor costs < 3% wall-clock on
the corpus overall.  Each timing sample is a whole family's corpus run
back-to-back (individual queries are tens of microseconds — below timer
noise), best-of-N alternating repeats; ``--quick`` uses the small
databases and fewer repeats and relaxes the bar to 6% for noisy CI boxes.

Usage::

    PYTHONPATH=src python benchmarks/bench_governor.py          # full report
    PYTHONPATH=src python benchmarks/bench_governor.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "tests"))
sys.path.insert(0, str(_REPO / "src"))

from corpus import CORPUS  # noqa: E402

from repro.core.optimizer import OptimizerOptions  # noqa: E402
from repro.core.pipeline import QueryPipeline  # noqa: E402
from repro.data.datagen import (  # noqa: E402
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.testing.oracle import results_equal  # noqa: E402

_FULL_DATABASES: dict[str, Callable[[], Any]] = {
    "company": lambda: company_database(150, 12, seed=1998),
    "university": lambda: university_database(90, 20, seed=1998),
    "travel": lambda: travel_database(10, 8, seed=1998),
    "ab": lambda: ab_database(60, 80, seed=1998),
    "auction": lambda: auction_database(80, 40, seed=1998),
}
_QUICK_DATABASES: dict[str, Callable[[], Any]] = {
    "company": lambda: company_database(60, 8, seed=1998),
    "university": lambda: university_database(40, 12, seed=1998),
    "travel": lambda: travel_database(6, 5, seed=1998),
    "ab": lambda: ab_database(30, 40, seed=1998),
    "auction": lambda: auction_database(40, 25, seed=1998),
}

#: Generous limits: high enough that no corpus query can trip them, so the
#: benchmark measures pure accounting cost, not early exits.
_GOVERNED = OptimizerOptions(
    timeout=3600.0, max_rows=1_000_000_000, max_bytes=1_000_000_000_000
)


def build_report(quick: bool) -> dict[str, Any]:
    """Per-family batch timings: each sample runs the whole family corpus.

    Individual corpus queries run in tens of microseconds, where timer
    granularity and scheduler noise swamp a few-percent effect; batching a
    family into one ~10-30 ms sample and taking best-of-N makes a 3% bar
    actually measurable.
    """
    makers = _QUICK_DATABASES if quick else _FULL_DATABASES
    repeats = 15 if quick else 30
    families = []
    total_plain = 0.0
    total_governed = 0.0
    for family, maker in makers.items():
        db = maker()
        queries = [q.oql for q in CORPUS if q.family == family]
        plain = QueryPipeline(db)
        governed = QueryPipeline(db, _GOVERNED)
        for oql in queries:
            plain.compile_oql(oql)
            governed.compile_oql(oql)
            if not results_equal(plain.run_oql(oql), governed.run_oql(oql)):
                raise AssertionError(
                    f"{family}: governed and ungoverned runs disagree on "
                    f"{oql!r}"
                )

        def run_batch(pipeline: QueryPipeline) -> float:
            start = time.perf_counter()
            for oql in queries:
                pipeline.run_oql(oql)
            return (time.perf_counter() - start) * 1000.0

        run_batch(plain), run_batch(governed)  # warm caches
        plain_ms = governed_ms = float("inf")
        # Alternate within each repeat so cache/frequency drift is shared.
        for _ in range(repeats):
            plain_ms = min(plain_ms, run_batch(plain))
            governed_ms = min(governed_ms, run_batch(governed))
        total_plain += plain_ms
        total_governed += governed_ms
        families.append(
            {
                "family": family,
                "queries": len(queries),
                "ungoverned_ms": round(plain_ms, 3),
                "governed_ms": round(governed_ms, 3),
                "overhead": round((governed_ms / plain_ms - 1.0) * 100.0, 2),
            }
        )

    overall = total_governed / total_plain
    return {
        "benchmark": "governor accounting overhead (generous limits, never trips)",
        "mode": "quick" if quick else "full",
        "timing": (
            f"per-family corpus batches, best of {repeats} alternating "
            "repeats, wall-clock ms"
        ),
        "families": families,
        "overall_overhead_percent": round((overall - 1.0) * 100.0, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small databases, fewer repeats, 6%% bar (CI smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=_REPO / "BENCH_governor.json",
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(f["family"]) for f in report["families"])
    print(f"{'family':{width}} {'ungoverned':>11} {'governed':>10} {'overhead':>9}")
    for f in report["families"]:
        print(
            f"{f['family']:{width}} {f['ungoverned_ms']:>10.2f}ms "
            f"{f['governed_ms']:>9.2f}ms {f['overhead']:>+8.1f}%"
        )
    overhead = report["overall_overhead_percent"]
    print(
        f"\noverall governor overhead across "
        f"{sum(f['queries'] for f in report['families'])} corpus queries: "
        f"{overhead:+.2f}% -> {args.output}"
    )

    bar = 6.0 if args.quick else 3.0
    if overhead >= bar:
        print(f"FAIL: governor overhead {overhead:.2f}% at or above the {bar}% bar")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
