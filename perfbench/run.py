"""The repository benchmark: one command, three workloads, every answer
checked, end-to-end metrics untraced and per-layer metrics traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus-mem --seed 1998 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (its spans go to
``.perfbench/spans/<workload>-seed<n>.jsonl``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is non-zero when any
answer is wrong or any operation failed.  Workloads, metrics and the
predictions they carry are described in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os

import common

WORKLOADS = ("corpus-mem", "corpus-sqlite", "serve-mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.import_program()
    common.log(f"host {json.dumps(common.host_fingerprint())}")
    # SQLite spills sorts to temp files: keep them inside the checkout.
    tmp = common.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(tmp)
    if args.workload == "serve-mixed":
        import wl_serve

        line = wl_serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        import wl_corpus

        line = wl_corpus.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
