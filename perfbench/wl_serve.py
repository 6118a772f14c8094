"""The ``serve-mixed`` workload: an open-loop schedule against a
:class:`repro.server.ReproServer` in a child process (``serve_child.py``).

One single-threaded asyncio generator drives two pipelined NDJSON
connections.  Connection 0 sets governor limits that never trip (so its
queries take the governed execution path); connection 1 sets none.  Each
request is one of two classes, drawn with equal odds:

* **ad-hoc** ``query`` ops: company corpus queries with a seeded random
  literal, so the texts far outnumber the server's 256-entry plan cache
  and most requests compile;
* **prepared** ``execute`` ops: the same queries prepared once per
  connection with a ``:v`` parameter, executed with seeded random values.

The run has three kinds of phase: closed-loop passes over the query list
(one waiting caller: the unloaded latency) alternating with cold
compiles, the nominal-rate open loop (the latency metrics) and a short
rate ladder (``serve.max_qps``).  Arrivals are evenly spaced at the
phase's rate and every send happens at its due time regardless of
replies; latency is timed from the due time.  Replies are decoded and
checked after the run against the SQLite backend in this process (the
server runs the in-memory engine).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

import common

#: (name, query text with ``{v}`` for the literal, literal range lo, hi, step)
TEMPLATES: tuple[tuple[str, str, float, float, float], ...] = (
    ("query_a",
     "select distinct struct( E: e.name, C: c.name ) "
     "from e in Employees, c in e.children where e.age > {v}",
     20, 64, 0.01),
    ("query_b",
     "select distinct struct( D: d, E: ( select distinct e "
     "from e in Employees where e.dno = d.dno ) ) from d in Departments "
     "where d.budget > {v}",
     100000, 900000, 10),
    ("flat_select",
     "select distinct e.name from e in Employees where e.salary > {v}",
     30000, 150000, 10),
    ("agg_count_extent",
     "count( select e from e in Employees where e.age > {v} )",
     20, 64, 0.01),
    ("exists_simple",
     "select distinct e.name from e in Employees "
     "where exists c in e.children: c.age > {v}",
     1, 18, 0.01),
    ("group_avg",
     "select distinct e.dno, avg(e.salary) as S from Employees e "
     "where e.age > {v} group by e.dno",
     20, 64, 0.01),
    ("struct_agg_mix",
     "select distinct struct( D: d.dno, B: d.budget, C: count( select e "
     "from e in Employees where e.dno = d.dno ) ) from d in Departments "
     "where d.budget > {v}",
     100000, 900000, 10),
    ("membership_of_computed_value",
     "select distinct e.name from e in Employees where e.dno in "
     "( select d.dno from d in Departments where d.budget > {v} )",
     100000, 900000, 10),
    ("arith_in_head",
     "select distinct struct( N: e.name, Y: e.salary / 12 + 100 ) "
     "from e in Employees where e.age * 2 >= {v}",
     40, 128, 0.01),
    ("avg_in_having",
     "select e.dno, avg(e.age) as meanage from Employees e "
     "group by e.dno having avg(e.age) > {v}",
     30, 50, 0.01),
)

#: Requests per second of the nominal open loop, well below saturation.
NOMINAL_QPS = 40.0
#: The rate ladder for ``serve.max_qps`` and the latency limit it applies.
LADDER_QPS = (80.0, 120.0, 160.0, 200.0)
LIMIT_MS = 50.0
#: Requests per ladder step: about 120 per class, enough for a p90 with
#: ten samples beyond it (a p99 would need 1000 per class per step).
LADDER_STEP_REQUESTS = 240
LADDER_PERCENTILE = 0.90
#: In-flight requests at which a ladder step stops sending: below the
#: default admission limit (8 running + 16 queued).
LADDER_MAX_INFLIGHT = 20
#: Governor limits on connection 0: generous enough never to trip.
GOVERNED = {"timeout": 60.0, "max_rows": 10**12, "max_bytes": 10**15}
SETUP_REPEATS = 3
INTERLUDE_ROUNDS = 6
REPLY_TIMEOUT_S = 30.0


@dataclass
class Request:
    rid: int
    kind: str  # "adhoc" | "prepared"
    conn: int
    template: int
    value: Any
    due: float = 0.0  # absolute perf_counter time
    sent: float = 0.0

    def line(self) -> bytes:
        name, text, *_ = TEMPLATES[self.template]
        if self.kind == "adhoc":
            message = {"id": self.rid, "op": "query", "q": text.format(v=self.value)}
        else:
            message = {"id": self.rid, "op": "execute", "name": name,
                       "params": {"v": self.value}}
        return (json.dumps(message) + "\n").encode()


def _literal(template: int, pick) -> Any:
    """The template's literal at grid point ``pick(number of points)``."""
    _, _, lo, hi, step = TEMPLATES[template]
    value = lo + step * pick(int(round((hi - lo) / step)) + 1)
    return int(value) if float(step).is_integer() else round(value, 2)


def draw(rng: random.Random, template: int) -> Any:
    return _literal(template, rng.randrange)


def fixed_value(template: int) -> Any:
    """The literal of the closed-loop pass texts (the range midpoint)."""
    return _literal(template, lambda points: points // 2)


def fixed_text(template: int) -> str:
    return TEMPLATES[template][1].format(v=fixed_value(template))


def open_loop(rng: random.Random, rate: float, seconds: float,
              ids) -> list[Request]:
    """Evenly spaced arrivals at *rate* for *seconds* (due times are
    offsets); the class, connection, template and literal are seeded
    draws.  Even spacing keeps the seed from deciding how bursty the
    schedule is, which alone would move the tail latency."""
    requests = []
    for index in range(int(rate * seconds)):
        template = rng.randrange(len(TEMPLATES))
        requests.append(Request(
            next(ids), "adhoc" if rng.random() < 0.5 else "prepared",
            rng.randrange(2), template, draw(rng, template),
            due=index / rate,
        ))
    return requests


# ---------------------------------------------------------------------------
# The client side
# ---------------------------------------------------------------------------


class Connection:
    """One pipelined NDJSON connection; replies are stored raw with their
    arrival time and decoded only after the run."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.replies: dict[int, tuple[float, bytes]] = {}
        self.waiters: dict[int, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = time.perf_counter()
            rid = _reply_id(line)
            self.replies[rid] = (now, line)
            waiter = self.waiters.pop(rid, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    def send(self, request: Request) -> None:
        self.writer.write(request.line())
        request.sent = time.perf_counter()

    async def call(self, request: Request) -> dict:
        """Closed loop: send and wait for this request's reply."""
        waiter = asyncio.get_running_loop().create_future()
        self.waiters[request.rid] = waiter
        request.due = time.perf_counter()
        self.send(request)
        await asyncio.wait_for(waiter, REPLY_TIMEOUT_S)
        return json.loads(self.replies[request.rid][1])

    async def op(self, rid: int, message: dict) -> dict:
        waiter = asyncio.get_running_loop().create_future()
        self.waiters[rid] = waiter
        self.writer.write((json.dumps({"id": rid, **message}) + "\n").encode())
        await asyncio.wait_for(waiter, REPLY_TIMEOUT_S)
        return json.loads(self.replies.pop(rid)[1])

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self.task


def _reply_id(line: bytes) -> int:
    # Replies are encoded id-first: {"id":N,...}.  Fall back to a parse.
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        try:
            return int(line[6:end])
        except ValueError:
            pass
    return json.loads(line)["id"]


class ServerProcess:
    """The child server: spawned, connected, warmed; stopped on close."""

    def __init__(self, seed: int, trace: bool, spans_path=None, cpu=None):
        self.seed, self.trace, self.spans_path = seed, trace, spans_path
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.conns: list[Connection] = []
        self.peak_rss_mb = 0.0

    async def start(self, ids, check: common.AnswerCheck, refs) -> float:
        """Spawn, connect, configure, prepare, warm; returns seconds."""
        start = time.perf_counter()
        command = [sys.executable, str(common.HERE / "serve_child.py"),
                   "--seed", str(self.seed), "--trace", str(int(self.trace))]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        loop = asyncio.get_running_loop()
        ready = await loop.run_in_executor(None, self.proc.stdout.readline)
        if not ready:
            raise RuntimeError("server child exited before listening")
        port = json.loads(ready)["port"]
        for index in range(2):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=64 * 1024 * 1024
            )
            conn = Connection(reader, writer)
            self.conns.append(conn)
            await _expect_ok(conn.op(next(ids), {"op": "hello", "tenant": f"c{index}"}))
            if index == 0:
                await _expect_ok(conn.op(next(ids), {"op": "set", "options": GOVERNED}))
            for name, text, *_ in TEMPLATES:
                await _expect_ok(conn.op(next(ids), {
                    "op": "prepare", "name": name, "q": text.format(v=":v")
                }))
        # Warm-up: every statement once per connection, every ad-hoc
        # template once (compiling the closed-loop pass texts).
        rng = random.Random(self.seed)
        answered = []
        for index, conn in enumerate(self.conns):
            for template in range(len(TEMPLATES)):
                for kind in ("prepared", "adhoc"):
                    request = Request(next(ids), kind, index, template,
                                      fixed_value(template) if kind == "adhoc"
                                      else draw(rng, template))
                    answered.append((request, await conn.call(request)))
        elapsed = time.perf_counter() - start
        # Checked after the clock stops: set-up excludes the references.
        for request, reply in answered:
            check_reply(check, refs, request, reply)
        return elapsed

    async def stats(self, ids) -> dict:
        return (await self.conns[1].op(next(ids), {"op": "stats"}))["stats"]

    async def stop(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []
        if self.proc is not None:
            loop = asyncio.get_running_loop()
            out, _ = await loop.run_in_executor(
                None, lambda: self.proc.communicate(timeout=60)
            )
            lines = out.decode().strip().splitlines()
            if lines:
                self.peak_rss_mb = json.loads(lines[-1])["peak_rss_mb"]
            self.proc = None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


async def _expect_ok(pending) -> dict:
    reply = await pending
    if not reply.get("ok"):
        raise RuntimeError(f"server refused set-up op: {reply.get('error')}")
    return reply


# ---------------------------------------------------------------------------
# References and the answer check
# ---------------------------------------------------------------------------


class References:
    """Reference answers from the SQLite backend, memoized per literal."""

    def __init__(self, seed: int):
        from repro.core.optimizer import OptimizerOptions
        from repro.core.pipeline import QueryPipeline

        self.db = common.serve_database(seed)
        self.pipeline = QueryPipeline(self.db, OptimizerOptions(backend="sqlite"))
        self.memo: dict[tuple[int, Any], Any] = {}

    def __call__(self, template: int, value: Any) -> Any:
        key = (template, value)
        if key not in self.memo:
            _, text, *_ = TEMPLATES[template]
            compiled = self.pipeline.compile_oql(text.format(v=":v"))
            self.memo[key] = compiled.execute(self.db, v=value)
        return self.memo[key]


def check_reply(check: common.AnswerCheck, refs, request: Request,
                reply: dict | None) -> None:
    from repro.server.protocol import decode_result

    label = f"{request.kind}:{TEMPLATES[request.template][0]}:{request.value}"
    if reply is None:
        check.error(label, "no reply")
    elif not reply.get("ok"):
        check.error(label, str(reply.get("error")))
    else:
        check.check(label, decode_result(reply["result"]),
                    refs(request.template, request.value))


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


async def closed_passes(server: ServerProcess, ids, passes: int, check,
                        refs, per_template: dict[int, list[float]]) -> None:
    """Each ad-hoc template once per pass (plan-cache hits), waiting for
    every reply; appends each template's latency in ms."""
    conn = server.conns[1]
    for _ in range(passes):
        for template in range(len(TEMPLATES)):
            request = Request(next(ids), "adhoc", 1, template, fixed_value(template))
            reply = await conn.call(request)
            per_template[template].append(
                (conn.replies[request.rid][0] - request.due) * 1000.0)
            check_reply(check, refs, request, reply)


def best_sum(samples: dict[Any, list[float]]) -> float:
    """Sum of each key's fastest sample (see ``wl_corpus.best``)."""
    return sum(min(values) for values in samples.values())


async def play(server: ServerProcess, requests: list[Request],
               max_inflight: int | None = None) -> dict[str, Any]:
    """Send *requests* at their due times (offsets from now), then wait
    for their replies.  Returns the requests sent, the in-flight count at
    the end of the schedule and the send lateness samples.

    With *max_inflight*, sending stops once that many requests await a
    reply: a ladder step past saturation ends there instead of running
    into the server's admission limit, whose typed rejections would be
    failures.
    """
    conns = server.conns
    start = time.perf_counter() + 0.05
    for request in requests:
        request.due += start
    late, sent = [], []
    for request in requests:
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if max_inflight is not None and len(sent) - sum(
            1 for r in sent if r.rid in conns[r.conn].replies
        ) >= max_inflight:
            break
        conns[request.conn].send(request)
        sent.append(request)
        late.append((request.sent - request.due) * 1000.0)
    delay = requests[-1].due - time.perf_counter() if requests else 0.0
    if delay > 0 and len(sent) == len(requests):
        await asyncio.sleep(delay)
    backlog = len(requests) - sum(
        1 for r in sent if r.rid in conns[r.conn].replies
    )
    deadline = time.perf_counter() + REPLY_TIMEOUT_S
    while time.perf_counter() < deadline and any(
        r.rid not in conns[r.conn].replies for r in sent
    ):
        await asyncio.sleep(0.01)
    return {"sent": sent, "backlog": backlog, "late": late}


def replies_of(server: ServerProcess, requests: list[Request]) -> dict:
    """request id -> (arrival time, reply line), or None when missing."""
    return {r.rid: server.conns[r.conn].replies.get(r.rid) for r in requests}


def latencies(requests, replies, kind=None) -> list[float]:
    """Latency from due time in ms; a missing reply counts as the timeout."""
    return [
        ((replies[r.rid][0] if replies[r.rid] else r.due + REPLY_TIMEOUT_S)
         - r.due) * 1000.0
        for r in requests
        if kind is None or r.kind == kind
    ]


def step_passes(server, requests, rate, backlog) -> bool:
    """A ladder step counts when each class's tail latency stays within
    the limit and the backlog at its end is one the limit allows."""
    replies = replies_of(server, requests)
    for kind in ("adhoc", "prepared"):
        lat = latencies(requests, replies, kind)
        if not lat:
            return False
        if common.percentile(lat, LADDER_PERCENTILE) > LIMIT_MS:
            return False
    return backlog <= math.ceil(rate * LIMIT_MS / 1000.0) + 1


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> str:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> str:
    from repro.core.pipeline import QueryPipeline

    check = common.AnswerCheck()
    refs = References(seed)
    ids = iter(range(1, 1 << 60))
    # The load generator and the server each get a CPU of their own when
    # there are two: left to the scheduler, their placement changes from
    # run to run and moves the round-trip times with it.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[1] if len(cpus) > 1 else None
    if server_cpu is not None:
        os.sched_setaffinity(0, {cpus[0]})
    host = common.HostProbe()

    def probe_host() -> None:
        # On each CPU in turn (the server is idle whenever this runs).
        for cpu in cpus[:2]:
            os.sched_setaffinity(0, {cpu})
            host.probe()
        os.sched_setaffinity(0, {cpus[0]})

    async def waiting_passes(server, passes, samples) -> None:
        # One waiting caller never runs alongside the server: it shares the
        # server's CPU, which keeps cross-CPU wake-ups out of the round trip.
        if server_cpu is not None:
            os.sched_setaffinity(0, {server_cpu})
        try:
            await closed_passes(server, ids, passes, check, refs, samples)
        finally:
            os.sched_setaffinity(0, {cpus[0]})

    spans_path = common.OUT / "spans" / f"serve-child-seed{seed}.jsonl"
    servers: list[ServerProcess] = []
    untraced: dict[int, list[float]] = defaultdict(list)
    try:
        setups = []
        for index in range(SETUP_REPEATS):
            if servers:
                if trace and index == 1:
                    await waiting_passes(servers[-1], 3 * INTERLUDE_ROUNDS,
                                         untraced)
                await servers[-1].stop()
            # In a traced run the first server is untraced: it gives the
            # baseline of trace.overhead_frac.
            traced = trace and index > 0
            servers.append(ServerProcess(
                seed, traced, spans_path if traced else None, server_cpu))
            probe_host()
            setups.append(await servers[-1].start(ids, check, refs))
            common.log(f"setup {index}: {setups[-1]:.3f} s")
        server = servers[-1]

        compile_s: dict[str, list[float]] = defaultdict(list)
        stage_ms = []
        per_template: dict[int, list[float]] = defaultdict(list)
        in_process: dict[int, list[float]] = defaultdict(list)
        warm = QueryPipeline(refs.db)
        for template in range(len(TEMPLATES)):
            warm.compile_oql(fixed_text(template))

        async def interlude() -> None:
            # Closed-loop passes (through the server and in process) and
            # cold compiles alternate, in three blocks spread over the run,
            # so their best is less likely to come from one slow phase.
            for _ in range(INTERLUDE_ROUNDS):
                probe_host()
                await waiting_passes(server, 1, per_template)
                for template in range(len(TEMPLATES)):
                    start = time.perf_counter()
                    result = warm.run_oql(fixed_text(template))
                    in_process[template].append(
                        (time.perf_counter() - start) * 1000.0)
                    check.check(f"in-process:{TEMPLATES[template][0]}", result,
                                refs(template, fixed_value(template)))
                per_text, stages = cold_compile(refs.db)
                for text, sec in per_text.items():
                    compile_s[text].append(sec)
                stage_ms.append(stages)

        await interlude()
        rng = random.Random(seed)
        # The nominal phase gets what the ladder leaves of --seconds.
        ladder_s = sum(LADDER_STEP_REQUESTS / rate for rate in LADDER_QPS)
        nominal = open_loop(rng, NOMINAL_QPS, max(5.0, seconds - ladder_s), ids)
        played = await play(server, nominal)
        late, backlogs = played["late"], [played["backlog"]]
        await interlude()
        ladder, max_qps = [], 0.0
        for rate in LADDER_QPS:
            step = open_loop(rng, rate, LADDER_STEP_REQUESTS / rate, ids)
            played = await play(server, step, LADDER_MAX_INFLIGHT)
            ladder.extend(played["sent"])
            late.extend(played["late"])
            if not step_passes(server, played["sent"], rate, played["backlog"]):
                common.log(f"ladder stops at {rate:g} qps")
                break
            max_qps = rate
            backlogs.append(played["backlog"])
        await interlude()
        stats = await server.stats(ids)
        replies = replies_of(server, nominal + ladder)
        await server.stop()
    finally:
        for server in servers:
            server.kill()

    for request in nominal + ladder:
        reply = replies[request.rid]
        check_reply(check, refs, request, json.loads(reply[1]) if reply else None)
    common.log(
        f"{len(nominal)} nominal + {len(ladder)} ladder requests, "
        f"max {max_qps:g} qps; {check.attempted} answers checked, "
        f"{check.failed} failed"
    )

    common.log(f"host probe {host.best_ms:.4f} ms, speed factor {host.factor:.4f}")
    if not trace:
        lat = latencies(nominal, replies)
        metrics = common.end_to_end_metrics({
            "setup_s": common.median(setups),
            "peak_rss_mb": servers[-1].peak_rss_mb,
            "compile_s": best_sum(compile_s),
            "corpus_s": best_sum(in_process) / 1000.0,
            "query_geomean_ms": common.geomean(
                min(v) for v in in_process.values()),
            "p50_ms": common.percentile(lat, 0.50),
        }, host)
    else:
        values = _layer_values(nominal, replies, stats, stage_ms, late,
                               max_qps, backlogs)
        values["serve.unloaded_ms"] = best_sum(per_template)
        values["trace.overhead_frac"] = (
            best_sum(per_template) / best_sum(untraced) - 1.0)
        values.update(_span_values(spans_path, nominal + ladder, replies, seed))
        values["host.probe_ms"] = host.best_ms
        values["host.speed_factor"] = host.factor
        metrics = common.per_layer_metrics(values)
    if not check.correct:
        common.log(f"FAILED: {check.mismatches[:5]} {check.errors[:5]}")
    return common.result_line(check, metrics)


def cold_compile(db) -> tuple[dict[str, float], dict[str, float]]:
    """Compile every template (ad-hoc and prepared text) on an empty plan
    cache, in this process: (seconds per text, stage ms summed)."""
    from repro.core.pipeline import QueryPipeline

    pipeline = QueryPipeline(db)
    stages: dict[str, float] = defaultdict(float)
    seconds: dict[str, float] = {}
    for template in range(len(TEMPLATES)):
        _, text, *_ = TEMPLATES[template]
        for source in (fixed_text(template), text.format(v=":v")):
            start = time.perf_counter()
            compiled = pipeline.compile_oql(source)
            seconds[source] = time.perf_counter() - start
            for stage in compiled.stages:
                stages[stage.name] += stage.elapsed_ms
    return seconds, stages


def _layer_values(nominal, replies, stats, stage_ms, late, max_qps,
                  backlogs) -> dict[str, float]:
    values: dict[str, float] = {}
    for stage, metric in common.STAGE_METRICS.items():
        values[metric] = common.median(
            c.get(stage, 0.0) for c in stage_ms)
    cache = stats["plan_cache"]
    values["core.plan_cache_hit_ratio"] = cache["hits"] / max(
        1, cache["hits"] + cache["misses"])
    admission = stats["admission"]
    values["server.queued_frac"] = admission["queued_total"] / max(
        1, admission["admitted"])
    values["server.rejected"] = admission["rejected"]
    execute = {0: [], 1: []}
    overhead, sizes = [], []
    for request in nominal:
        reply = replies[request.rid]
        if reply is None:
            continue
        payload = json.loads(reply[1])
        sizes.append(len(reply[1]))
        if payload.get("ok"):
            execute[request.conn].append(payload["elapsed_ms"])
            overhead.append(
                (reply[0] - request.sent) * 1000.0 - payload["elapsed_ms"])
    values["server.execute_ms.governed"] = _mean(execute[0])
    values["server.execute_ms.ungoverned"] = _mean(execute[1])
    values["server.overhead_ms"] = _mean(overhead)
    values["server.reply_bytes"] = _mean(sizes)
    for kind in ("adhoc", "prepared"):
        lat = latencies(nominal, replies, kind)
        values[f"serve.{kind}_p50_ms"] = common.percentile(lat, 0.50)
        values[f"serve.{kind}_p90_ms"] = common.percentile(lat, 0.90)
    values["serve.max_qps"] = max_qps
    values["serve.gen_late_ms"] = common.percentile(late, 0.99)
    values["serve.backlog"] = max(backlogs)
    return values


def _span_values(spans_path, requests, replies, seed) -> dict[str, float]:
    """Per-request layer times from the server child's spans, merged with
    client spans (send to reply) into one span file."""
    measured = {request.rid for request in requests}
    spans = [s for s in common.load_spans(spans_path) if s[5] in measured]
    spans_path.unlink()
    by_request: dict[Any, float] = defaultdict(float)
    totals: dict[str, float] = defaultdict(float)
    self_ms = common.self_times_ms(spans)
    for _, parent, name, start, end, request in spans:
        totals[name] += (end - start) / 1e6
        if parent is None and request is not None:
            by_request[request] += (end - start) / 1e6
    client = []
    tracer_ids = iter(range(1 << 40, 1 << 41))
    merged = list(spans)
    for request in requests:
        reply = replies[request.rid]
        if reply is None:
            continue
        client.append((reply[0] - request.sent) * 1000.0 - by_request.get(request.rid, 0.0))
        merged.append((next(tracer_ids), None, "client.request",
                       int(request.sent * 1e9), int(reply[0] * 1e9), request.rid))
    out = common.Tracer()
    out.spans = merged
    out.dump(common.OUT / "spans" / f"serve-mixed-seed{seed}.jsonl")
    count = max(1, len(client))
    adhoc = max(1, sum(1 for r in requests if r.kind == "adhoc"))
    return {
        "server.compile_ms": totals["core.compile"] / adhoc,
        "server.encode_ms": (
            self_ms.get("server.worker", 0.0)
            + totals["server.encode_result"]
            + totals["server.encode_message"]
        ) / count,
        "trace.self_ms.client": _mean(client),
        "trace.self_ms.core": self_ms.get("core.compile", 0.0) / count,
        "trace.self_ms.engine": self_ms.get("engine.execute", 0.0) / count,
        "trace.self_ms.server": (
            self_ms.get("server.worker", 0.0)
            + self_ms.get("server.encode_result", 0.0)
            + self_ms.get("server.encode_message", 0.0)
        ) / count,
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
