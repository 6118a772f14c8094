"""The ``corpus-mem`` and ``corpus-sqlite`` workloads.

One caller runs the 53 corpus queries in process, closed loop, against
the five corpus databases at the full benchmark sizes, with a warm plan
cache.  ``corpus-mem`` runs the in-memory engine; ``corpus-sqlite`` runs
the query-shredding SQLite backend over file-backed stores whose page
cache (:data:`SQLITE_CACHE_KIB`) is smaller than every shredded db+WAL
file, so SQLite reads pages it does not hold.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any

import common

#: SQLite page-cache budget per connection, below the smallest shredded
#: file (db + WAL) at the benchmark sizes.
SQLITE_CACHE_KIB = 32
#: Set-up / timing rounds per run (set-up is reported as their median).
ROUNDS = 3
MIN_ROUND_PASSES = 2

BACKENDS = {"corpus-mem": "memory", "corpus-sqlite": "sqlite"}


def load_references(workload: str, seed: int) -> dict[str, Any]:
    """Reference answers from the other backend, in a child process."""
    from repro.data.storage import decode_value

    other = "sqlite" if BACKENDS[workload] == "memory" else "memory"
    out = common.OUT / f"reference-{workload}-{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(common.HERE / "reference.py"),
         "--backend", other, "--seed", str(seed), "--out", str(out)],
        check=True,
        timeout=150,
    )
    try:
        encoded = json.loads(out.read_text())
    finally:
        out.unlink()
    return {name: decode_value(value) for name, value in encoded.items()}


class CorpusRun:
    """One set-up of the corpus databases, pipelines and plan caches."""

    def __init__(self, backend: str, seed: int, index: int,
                 host: common.HostProbe):
        from corpus import CORPUS

        self.host = host
        self.backend = backend
        self.queries = CORPUS
        self.seed = seed
        self.dir = common.OUT / f"sqlite-{seed}-{index}"
        self.dbs: dict[str, Any] = {}
        self.pipelines: dict[str, Any] = {}
        self.options: dict[str, Any] = {}
        self.stores: list[Any] = []
        self.shred_s = 0.0

    def setup(self, check: common.AnswerCheck, refs: dict[str, Any]) -> float:
        """Datagen, shredding, compile into the plan cache, one warm-up
        execution of every query; returns its wall time in seconds."""
        from repro.backends.shred import shredded_store
        from repro.core.optimizer import OptimizerOptions
        from repro.core.pipeline import QueryPipeline

        start = time.perf_counter()
        self.dbs = common.corpus_databases(self.seed)
        for family, db in self.dbs.items():
            if self.backend == "sqlite":
                self.dir.mkdir(parents=True, exist_ok=True)
                path = str(self.dir / f"{family}.db")
                shred_start = time.perf_counter()
                self.stores.append(
                    shredded_store(db, db_path=path, cache_kib=SQLITE_CACHE_KIB)
                )
                self.shred_s += time.perf_counter() - shred_start
                self.options[family] = OptimizerOptions(
                    backend="sqlite", db_path=path
                )
            else:
                self.options[family] = OptimizerOptions()
            self.pipelines[family] = QueryPipeline(db, self.options[family])
        for query in self.queries:
            self.pipelines[query.family].compile_oql(query.oql)
        elapsed = time.perf_counter() - start
        return elapsed + sum(self.run_pass(check, refs).values()) / 1000.0

    def close(self) -> None:
        for store in self.stores:
            store.close()
        self.stores = []
        shutil.rmtree(self.dir, ignore_errors=True)

    def file_bytes(self) -> int:
        """Bytes of the shredded db and WAL files."""
        total = 0
        for family in self.dbs:
            for suffix in ("", "-wal"):
                path = self.dir / f"{family}.db{suffix}"
                if path.exists():
                    total += path.stat().st_size
        return total

    def user_bytes(self) -> int:
        """Bytes of the databases' ``repro.data.storage`` JSON image."""
        from repro.data.storage import database_to_dict

        return sum(
            len(json.dumps(database_to_dict(db), separators=(",", ":")))
            for db in self.dbs.values()
        )

    # -- passes ----------------------------------------------------------

    def _checked(self, check, refs, name, fn) -> tuple[Any, float | None]:
        """Run *fn* and check its answer outside the timing: (result, ms)."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            check.error(name, f"{type(exc).__name__}: {exc}")
            return None, None
        ms = (time.perf_counter() - start) * 1000.0
        check.check(name, result, refs[name])
        return result, ms

    def run_pass(self, check, refs) -> dict[str, float]:
        """One untraced pass; per-query wall ms."""
        times: dict[str, float] = {}
        for query in self.queries:
            self.host.probe()
            pipeline = self.pipelines[query.family]
            _, ms = self._checked(
                check, refs, query.name, lambda: pipeline.run_oql(query.oql)
            )
            if ms is not None:
                times[query.name] = ms
        return times

    def traced_pass(self, check, refs, tracer, pass_no) -> dict[str, Any]:
        """One pass with a span around every call into a layer; returns
        per query (result cardinality, SQLite flat queries)."""
        seen: dict[str, Any] = {}
        for query in self.queries:
            pipeline = self.pipelines[query.family]
            db = self.dbs[query.family]
            flat: list = []

            def run() -> Any:
                with tracer.span("corpus.query", f"{pass_no}:{query.name}"):
                    with tracer.span("core.plan_cache"):
                        compiled = pipeline.compile_oql(query.oql)
                    if self.backend == "sqlite":
                        with tracer.span("shred.execute"):
                            stats = pipeline.run_oql_stats(query.oql)
                        flat.extend(stats.flat_queries)
                        return stats.result
                    if compiled.order_by:
                        with tracer.span("engine.run"):
                            return compiled.execute(db)
                    with tracer.span("engine.build"):
                        physical = compiled.physical(db)
                    with tracer.span("engine.run"):
                        return physical.value()

            result, _ = self._checked(check, refs, query.name, run)
            seen[query.name] = (_cardinality(result), flat)
        return seen

    def stats_pass(self) -> dict[str, Any]:
        """Operator statistics (profiled: expression eval timed) per query."""
        return {
            query.name: self.pipelines[query.family].run_oql_stats(query.oql)
            for query in self.queries
        }

    def cold_compile(self, tracer=None) -> tuple[dict[str, float], Counter]:
        """Compile every query on empty plan caches: (seconds per query,
        stage ms summed over the queries)."""
        from repro.core.pipeline import QueryPipeline

        fresh = {
            family: QueryPipeline(db, self.options[family])
            for family, db in self.dbs.items()
        }
        stages: Counter = Counter()
        seconds: dict[str, float] = {}
        for query in self.queries:
            start = time.perf_counter()
            if tracer is None:
                compiled = fresh[query.family].compile_oql(query.oql)
            else:
                with tracer.span("core.compile", f"compile:{query.name}"):
                    compiled = fresh[query.family].compile_oql(query.oql)
            seconds[query.name] = time.perf_counter() - start
            for stage in compiled.stages:
                stages[stage.name] += stage.elapsed_ms
        return seconds, stages


def best(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each key's fastest sample.

    The timing host shows bimodal interference (phases in which the same
    code runs ~1.5x slower), so a median flips between the modes from run
    to run while the best of N samples is steadier.
    """
    return {name: min(values) for name, values in samples.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> str:
    backend = BACKENDS[workload]
    check = common.AnswerCheck()
    common.log(f"{workload}: reference answers from the other backend")
    refs = load_references(workload, seed)

    tracer = common.Tracer() if trace else None
    host = common.HostProbe()
    setups: list[float] = []
    shred_s: list[float] = []
    compile_s: dict[str, list[float]] = defaultdict(list)
    stage_ms: list[Counter] = []
    untraced: dict[str, list[float]] = defaultdict(list)
    flat_passes: list[dict[str, Any]] = []
    cache = [0, 0]
    passes = 0
    state: CorpusRun | None = None
    # Set-up and timing alternate: each round sets up afresh and then
    # times passes for its share of --seconds, so the samples behind each
    # best time are spread over the whole run, not one stretch of it.
    for round_no in range(ROUNDS):
        if state is not None:
            # Free the previous set-up before the next one allocates, so
            # the peak RSS is one set-up's, not two.
            state.close()
            state = None
            gc.collect()
        state = CorpusRun(backend, seed, round_no, host)
        host.probe()
        setups.append(state.setup(check, refs))
        host.probe()
        shred_s.append(state.shred_s)
        before = _cache_stats(state)
        deadline = time.perf_counter() + seconds / ROUNDS
        round_passes = 0
        while True:
            gc.collect()
            for name, ms in state.run_pass(check, refs).items():
                untraced[name].append(ms)
            if trace:
                gc.collect()
                flat_passes.append(state.traced_pass(check, refs, tracer, passes))
            for _ in range(2):
                gc.collect()
                per_query, stages = state.cold_compile(tracer)
                for name, sec in per_query.items():
                    compile_s[name].append(sec)
                stage_ms.append(stages)
            passes += 1
            round_passes += 1
            enough = round_passes >= (1 if trace else MIN_ROUND_PASSES)
            if enough and time.perf_counter() >= deadline:
                break
        after = _cache_stats(state)
        cache = [cache[0] + after[0] - before[0], cache[1] + after[1] - before[1]]
        common.log(f"round {round_no}: set-up {setups[-1]:.3f} s, "
                   f"{round_passes} passes")
    query_ms = best(untraced)
    common.log(
        f"corpus_s {sum(query_ms.values()) / 1000:.3f} s; "
        f"{check.attempted} answers checked, {check.failed} failed"
    )

    common.log(f"host probe {host.best_ms:.4f} ms, speed factor {host.factor:.4f}")
    if not trace:
        ordered = sorted(query_ms.values())
        metrics = common.end_to_end_metrics({
            "setup_s": common.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
            "compile_s": sum(best(compile_s).values()),
            "corpus_s": sum(ordered) / 1000.0,
            "query_geomean_ms": common.geomean(ordered),
            "p50_ms": common.percentile(ordered, 0.50),
        }, host)
    else:
        values = _layer_values(state, stage_ms, query_ms, flat_passes, tracer,
                               passes, cache, common.median(shred_s))
        values["host.probe_ms"] = host.best_ms
        values["host.speed_factor"] = host.factor
        metrics = common.per_layer_metrics(values)
        tracer.dump(common.OUT / "spans" / f"{workload}-seed{seed}.jsonl")
    state.close()
    if not check.correct:
        common.log(f"FAILED: {check.mismatches[:5]} {check.errors[:5]}")
    return common.result_line(check, metrics)


def _cache_stats(state: CorpusRun) -> tuple[int, int]:
    """Plan-cache (hits, misses) summed over the workload's pipelines."""
    stats = [p.plan_cache.stats() for p in state.pipelines.values()]
    return sum(s[0] for s in stats), sum(s[1] for s in stats)


def _layer_values(state, stage_ms, query_ms, flat_passes, tracer, passes,
                  cache, shred_s) -> dict[str, float]:
    values: dict[str, float] = {}
    for stage, metric in common.STAGE_METRICS.items():
        values[metric] = common.median(
            c.get(stage, 0.0) for c in stage_ms
        )
    # Over the timed passes only: set-up compiles are misses by design.
    values["core.plan_cache_hit_ratio"] = cache[0] / max(1, sum(cache))
    for name in common.HOT_QUERIES:
        values[f"q.{name}.ms"] = query_ms[name]

    # Span durations per (name, query), best over the traced passes.
    spans: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for _, _, name, start, end, request in tracer.spans:
        if name != "core.compile":
            query = str(request).split(":", 1)[1]
            spans[name][query].append((end - start) / 1e6)
    span_ms = {name: sum(best(per_query).values()) for name, per_query in spans.items()}
    if state.backend == "memory":
        values["engine.build_ms"] = span_ms["engine.build"]
        values["engine.run_ms"] = span_ms["engine.run"]
        rows = results = batches = batch_rows = interpreted = 0
        eval_ms = 0.0
        for name, stats in state.stats_pass().items():
            operators = stats.operators
            query_rows = sum(op.rows_produced for op in operators)
            rows += query_rows
            results += _cardinality(stats.result)
            eval_ms += sum(op.eval_ms for op in operators)
            batches += sum(op.batches_produced for op in operators)
            batch_rows += sum(op.batch_rows for op in operators)
            interpreted += sum(
                op.eval_mode in ("interpreted", "mixed") for op in operators
            )
            if name in common.HOT_QUERIES:
                values[f"q.{name}.rows_produced"] = query_rows
        values.update({
            "engine.rows_produced": rows,
            "engine.rows_per_result": rows / max(1, results),
            "engine.eval_ms": eval_ms,
            "engine.interpreted_ops": interpreted,
            "engine.rows_per_batch": batch_rows / max(1, batches),
        })
    else:
        def best_flat(column: int) -> float:
            per_query: dict[str, list[float]] = defaultdict(list)
            for seen in flat_passes:
                for name, (_, flat) in seen.items():
                    per_query[name].append(sum(f[column] for f in flat))
            return sum(best(per_query).values())

        sql_ms, decode_ms = best_flat(2), best_flat(3)
        last = flat_passes[-1]
        flat_rows = sum(f[1] for _, flat in last.values() for f in flat)
        results = sum(card for card, _ in last.values())
        file_bytes = state.file_bytes()
        values.update({
            "shred.build_s": shred_s,
            "shred.sql_ms": sql_ms,
            "shred.decode_ms": decode_ms,
            "shred.residual_ms": span_ms["shred.execute"] - sql_ms - decode_ms,
            "shred.flat_queries": sum(len(flat) for _, flat in last.values()),
            "shred.flat_rows": flat_rows,
            "shred.rows_per_result": flat_rows / max(1, results),
            "shred.file_bytes": file_bytes,
            "shred.bytes_per_user_byte": file_bytes / state.user_bytes(),
        })
        for name in common.HOT_QUERIES:
            values[f"q.{name}.rows_produced"] = sum(f[1] for f in last[name][1])
    values["trace.overhead_frac"] = (
        span_ms["corpus.query"] / sum(query_ms.values()) - 1.0
    )
    # Self time per query execution of the traced passes (the cold-compile
    # spans are broken down by stage above instead).
    operations = len(state.queries) * passes
    pass_spans = [s for s in tracer.spans if s[2] != "core.compile"]
    for name, ms in common.self_times_ms(pass_spans).items():
        layer = common.layer_of(name)
        key = f"trace.self_ms.{'client' if layer == 'corpus' else layer}"
        values[key] = values.get(key, 0.0) + ms / operations
    return values


def _cardinality(result: Any) -> int:
    try:
        return len(result)
    except TypeError:
        return 1
