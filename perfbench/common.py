"""Shared pieces of the benchmark: paths, data sizes, statistics, spans,
the answer check and the metric registry.

Everything here is import-safe: importing starts no process and opens no
file.  The program under test is imported from ``src/`` of the checkout
this directory sits in, and the corpus from ``tests/corpus.py``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import sysconfig
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run artifacts (spans, shredded SQLite files); listed in .gitignore.
OUT = ROOT / ".perfbench"

#: The seed the first baseline point was measured with.
BASELINE_SEED = 1998


def import_program() -> None:
    """Put the checkout's ``src/`` and ``tests/`` on ``sys.path``.

    Raises :class:`SystemExit` (code 2) when the program is not there, so
    a directory holding only the benchmark fails fast without a result.
    """
    src = ROOT / "src"
    corpus = ROOT / "tests" / "corpus.py"
    if not (src / "repro" / "__init__.py").is_file() or not corpus.is_file():
        print(
            f"perfbench: program not found under {ROOT} "
            "(need src/repro and tests/corpus.py)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    # After this directory (sys.path[0]), so a module of the program or
    # the corpus can never shadow one of the benchmark's own.
    for path in (str(ROOT / "tests"), str(src)):
        if path not in sys.path:
            sys.path.insert(1, path)


# ---------------------------------------------------------------------------
# Data sizes (the bench_batch / bench_serving full sizes)
# ---------------------------------------------------------------------------

CORPUS_SIZES: dict[str, tuple[str, dict[str, int]]] = {
    "company": ("company_database", {"num_employees": 700, "num_departments": 20}),
    "university": ("university_database", {"num_students": 300, "num_courses": 40}),
    "travel": ("travel_database", {"num_cities": 60, "hotels_per_city": 16}),
    "ab": ("ab_database", {"size_a": 300, "size_b": 300}),
    "auction": ("auction_database", {"num_users": 500, "num_items": 150}),
}
SERVE_SIZE = {"num_employees": 200, "num_departments": 12}

#: The corpus queries whose per-query numbers are reported (the hot ones
#: at the baseline seed, and the ones ROADMAP item 2 targets).
HOT_QUERIES = (
    "setop_except",
    "auction_category_counts",
    "nested_quantifiers",
    "group_having",
    "query_e",
    "nested_struct_heads",
)


def corpus_databases(seed: int) -> dict[str, Any]:
    from repro.data import datagen

    return {
        family: getattr(datagen, maker)(**sizes, seed=seed)
        for family, (maker, sizes) in CORPUS_SIZES.items()
    }


def serve_database(seed: int) -> Any:
    from repro.data.datagen import company_database

    return company_database(**SERVE_SIZE, seed=seed)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict[str, Any]:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "cores": os.cpu_count(),
        "gil": bool(gil) and not sysconfig.get_config_var("Py_GIL_DISABLED"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Best time of :func:`reference_work` on the baseline host at full speed.
REFERENCE_PROBE_MS = 0.293


def reference_work() -> int:
    """A fixed pure-Python loop in the interpreter's common idioms (dicts,
    tuples, a sort).  It belongs to the benchmark and must never change:
    a change to the program cannot move its time, only the host can."""
    rows = []
    index: dict[tuple, list] = {}
    for i in range(400):
        key = ("k", i % 37)
        row = {"id": i, "key": key, "v": i * 3 % 11}
        rows.append(row)
        index.setdefault(key, []).append(row)
    total = 0
    for row in rows:
        if row["v"] > 4:
            total += len(index[row["key"]])
    rows.sort(key=lambda r: (r["v"], r["id"]))
    return total


class HostProbe:
    """The best time of :func:`reference_work`, probed through a run.

    On the timing host the same code runs ~1.5x slower for phases that
    last from seconds to all of a run.  Time metrics are reported at the
    host's reference speed: measured x :data:`REFERENCE_PROBE_MS` / the
    best probe of the run.  A run with any full-speed moment has a factor
    of ~1; a run the host slowed throughout is scaled back.
    """

    def __init__(self) -> None:
        self.best_ms = math.inf

    def probe(self, repeats: int = 5) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_work()
            self.best_ms = min(self.best_ms, (time.perf_counter() - start) * 1000.0)

    @property
    def factor(self) -> float:
        return REFERENCE_PROBE_MS / self.best_ms


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: (id, parent, name, start ns, end ns, request).

    The parent is the innermost open span on the same thread, so spans
    recorded from several threads (the server's worker pool and its event
    loop) still nest correctly.  Spans are written out by :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int, Any]] = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Any = None):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent, inherited = stack[-1] if stack else (None, None)
        request = inherited if request is None else request
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, request))

    def wrap(self, name: str, fn: Callable, request_of: Callable | None = None):
        """*fn* with a span around every call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            request = request_of(*args, **kwargs) if request_of else None
            with self.span(name, request):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "start_ns", "end_ns", "request")
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s[3]):
                handle.write(json.dumps(dict(zip(fields, span)), default=str))
                handle.write("\n")


def self_times_ms(spans: Iterable[tuple]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals: dict[str, float] = {}
    for span_id, _, name, start, end, _ in spans:
        own = (end - start) - child_ns.get(span_id, 0)
        totals[name] = totals.get(name, 0.0) + own / 1e6
    return totals


def load_spans(path: Path) -> list[tuple]:
    spans = []
    with open(path) as handle:
        for line in handle:
            s = json.loads(line)
            spans.append(
                (s["id"], s["parent"], s["name"], s["start_ns"], s["end_ns"],
                 s["request"])
            )
    return spans


# ---------------------------------------------------------------------------
# The answer check
# ---------------------------------------------------------------------------


class AnswerCheck:
    """Counts attempted operations and failures (errors, wrong answers)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def check(self, label: str, result: Any, reference: Any) -> bool:
        from repro.testing.oracle import results_equal

        self.attempted += 1
        if results_equal(result, reference):
            return True
        self.failed += 1
        self.mismatches.append(label)
        return False

    def error(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{label}: {message}")

    @property
    def correct(self) -> bool:
        return not self.mismatches and not self.errors


# ---------------------------------------------------------------------------
# Metric registry
# ---------------------------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def result_line(
    check: AnswerCheck, metrics: dict[str, dict[str, Any]]
) -> str:
    for name, entry in metrics.items():
        if not NAME_RE.match(name) or not UNIT_RE.match(entry["unit"]):
            raise ValueError(f"malformed metric {name!r} / {entry['unit']!r}")
        if not math.isfinite(entry["value"]):
            raise ValueError(f"metric {name} is not finite: {entry['value']}")
    return json.dumps(
        {
            "correct": check.correct,
            "attempted": max(1, check.attempted),
            "failed": check.failed,
            "metrics": metrics,
        }
    )


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


#: End-to-end metrics: name -> (unit, better, bound).  Every workload
#: reports every one of them (see perfbench/spec.json for the definition
#: of each on each workload).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "compile_s": ("s", "lower", 0.25),
    "corpus_s": ("s", "lower", 0.25),
    "query_geomean_ms": ("ms", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
}

#: Compile stage (StageResult.name) -> per-layer metric.
STAGE_METRICS = {
    "parse": "oql.parse_ms",
    "translate": "oql.translate_ms",
    "typecheck": "calculus.typecheck_ms",
    "normalize": "core.normalize_ms",
    "unnest": "core.unnest_ms",
    "simplify": "core.simplify_ms",
    "optimize": "core.optimize_ms",
    "plan": "engine.plan_ms",
}

#: Per-layer metrics: name -> unit.  A workload that does not exercise a
#: layer reports that layer's metrics as 0 (no work done there).
PER_LAYER: dict[str, str] = {
    **{name: "ms" for name in STAGE_METRICS.values()},
    "core.plan_cache_hit_ratio": "ratio",
    "engine.build_ms": "ms",
    "engine.run_ms": "ms",
    "engine.rows_produced": "rows",
    "engine.rows_per_result": "ratio",
    "engine.eval_ms": "ms",
    "engine.interpreted_ops": "count",
    "engine.rows_per_batch": "rows",
    **{
        f"q.{name}.{suffix}": unit
        for name in HOT_QUERIES
        for suffix, unit in (("ms", "ms"), ("rows_produced", "rows"))
    },
    "shred.build_s": "s",
    "shred.sql_ms": "ms",
    "shred.decode_ms": "ms",
    "shred.residual_ms": "ms",
    "shred.flat_queries": "count",
    "shred.flat_rows": "rows",
    "shred.rows_per_result": "ratio",
    "shred.file_bytes": "bytes",
    "shred.bytes_per_user_byte": "ratio",
    "server.execute_ms.governed": "ms",
    "server.execute_ms.ungoverned": "ms",
    "server.overhead_ms": "ms",
    "server.compile_ms": "ms",
    "server.encode_ms": "ms",
    "server.reply_bytes": "bytes",
    "server.queued_frac": "ratio",
    "server.rejected": "count",
    "serve.adhoc_p50_ms": "ms",
    "serve.adhoc_p90_ms": "ms",
    "serve.prepared_p50_ms": "ms",
    "serve.prepared_p90_ms": "ms",
    "serve.max_qps": "1/s",
    "serve.unloaded_ms": "ms",
    "serve.gen_late_ms": "ms",
    "serve.backlog": "count",
    "host.probe_ms": "ms",
    "host.speed_factor": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.self_ms.client": "ms",
    "trace.self_ms.core": "ms",
    "trace.self_ms.engine": "ms",
    "trace.self_ms.shred": "ms",
    "trace.self_ms.server": "ms",
}


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return span_name.split(".", 1)[0]


def end_to_end_metrics(
    values: dict[str, float], host: HostProbe
) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics, times scaled to the host's reference speed."""
    missing = END_TO_END.keys() - values.keys()
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    out = {}
    for name, (unit, _, _) in END_TO_END.items():
        scale = host.factor if unit in ("s", "ms") else 1.0
        out[name] = metric(values[name] * scale, unit)
    return out


def per_layer_metrics(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    unknown = values.keys() - PER_LAYER.keys()
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: metric(values.get(name, 0.0), unit)
        for name, unit in PER_LAYER.items()
    }
