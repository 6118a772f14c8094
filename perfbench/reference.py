"""Reference answers for the corpus workloads, computed in a child process.

The references come from the *other* backend than the one measured
(SQLite for ``corpus-mem``, the in-memory engine for ``corpus-sqlite``),
so a wrong answer on either path shows as a mismatch.  Running them in
their own process keeps them out of the measured process's peak RSS and
out of its timed region.

Usage: ``python3 perfbench/reference.py --backend sqlite --seed 1998 --out FILE``
writes ``{query name: encoded result}`` as JSON.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import common


def reference_answers(backend: str, seed: int) -> dict[str, object]:
    from corpus import CORPUS

    from repro.core.optimizer import OptimizerOptions
    from repro.core.pipeline import QueryPipeline
    from repro.data.storage import encode_value

    options = OptimizerOptions(backend=backend)
    pipelines = {
        family: QueryPipeline(db, options)
        for family, db in common.corpus_databases(seed).items()
    }
    return {
        query.name: encode_value(pipelines[query.family].run_oql(query.oql))
        for query in CORPUS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("memory", "sqlite"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    common.import_program()
    answers = reference_answers(args.backend, args.seed)
    args.out.write_text(json.dumps(answers))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
