"""Tests of the benchmark itself: metric names, the answer check, spans.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.import_program()

from repro.data.values import BagValue, Record, SetValue  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def test_metric_names_and_units_are_well_formed():
    for name, (unit, better, bound) in common.END_TO_END.items():
        assert common.NAME_RE.match(name), name
        assert common.UNIT_RE.match(unit), unit
        assert better in ("lower", "higher")
        assert 0 < bound <= 0.25
    for name, unit in common.PER_LAYER.items():
        assert common.NAME_RE.match(name), name
        assert common.UNIT_RE.match(unit), unit


def test_name_pattern_rejects_malformed_names():
    for bad in ("", "q setop", "q/ms", "-lead", "a" * 65, "p99%"):
        assert not common.NAME_RE.match(bad), bad


def test_benchmark_json_matches_the_registry():
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])


def test_spec_defines_every_metric():
    defined = set(SPEC["metrics"])
    assert defined == set(common.END_TO_END) | set(common.PER_LAYER)


def test_result_line_rejects_a_malformed_metric():
    check = common.AnswerCheck()
    check.check("q", 1, 1)
    try:
        common.result_line(check, {"bad name": common.metric(1.0, "ms")})
    except ValueError:
        pass
    else:
        raise AssertionError("a malformed metric name was printed")


def test_answer_check_fires_on_a_wrong_answer():
    right = SetValue([Record(name="a", age=3), Record(name="b", age=4)])
    wrong = SetValue([Record(name="a", age=3), Record(name="b", age=5)])
    check = common.AnswerCheck()
    assert check.check("same", right, SetValue(list(right)))
    assert not check.check("off by one", wrong, right)
    assert check.mismatches == ["off by one"]
    line = json.loads(common.result_line(check, {}))
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (2, 1)


def test_answer_check_counts_bag_multiplicity():
    check = common.AnswerCheck()
    assert not check.check("dup", BagValue([1, 1, 2]), BagValue([1, 2]))


def test_corpus_reference_path_catches_a_wrong_engine_answer():
    """The corpus check compares against the other backend: corrupt one
    engine answer and the check must fire."""
    from corpus import corpus_by_name

    from repro.core.optimizer import OptimizerOptions
    from repro.core.pipeline import QueryPipeline
    from repro.data.datagen import company_database

    db = company_database(30, 5, seed=3)
    query = corpus_by_name("flat_select")
    reference = QueryPipeline(db, OptimizerOptions(backend="sqlite")).run_oql(query.oql)
    answer = QueryPipeline(db).run_oql(query.oql)
    check = common.AnswerCheck()
    assert check.check(query.name, answer, reference)
    corrupted = SetValue(list(answer)[1:])
    assert not check.check(query.name, corrupted, reference)
    assert not check.correct


def test_serve_reply_check_catches_a_wrong_reply():
    import wl_serve

    from repro.server.protocol import encode_result

    class Refs:
        def __call__(self, template, value):
            return SetValue(["x", "y"])

    request = wl_serve.Request(1, "adhoc", 0, 0, 30)
    check = common.AnswerCheck()
    wl_serve.check_reply(check, Refs(), request,
                         {"ok": True, "result": encode_result(SetValue(["x", "y"]))})
    wl_serve.check_reply(check, Refs(), request,
                         {"ok": True, "result": encode_result(SetValue(["x"]))})
    wl_serve.check_reply(check, Refs(), request,
                         {"ok": False, "error": {"code": "QUERY_TIMEOUT"}})
    wl_serve.check_reply(check, Refs(), request, None)
    assert (check.attempted, check.failed) == (4, 3)
    assert len(check.mismatches) == 1 and len(check.errors) == 2


def test_self_time_subtracts_child_spans():
    spans = [
        (1, None, "server.worker", 0, 10_000_000, 7),
        (2, 1, "engine.execute", 1_000_000, 5_000_000, 7),
        (3, 1, "server.encode_result", 5_000_000, 6_000_000, 7),
    ]
    self_ms = common.self_times_ms(spans)
    assert self_ms == {
        "server.worker": 5.0, "engine.execute": 4.0, "server.encode_result": 1.0
    }


def test_tracer_nests_spans_and_inherits_the_request_id():
    tracer = common.Tracer()
    with tracer.span("corpus.query", "0:q"):
        with tracer.span("engine.run"):
            pass
    inner, outer = tracer.spans
    assert inner[1] == outer[0] and inner[5] == "0:q"


def test_open_loop_schedule_is_seeded():
    import random

    import wl_serve

    def schedule(seed):
        ids = iter(range(1, 10_000))
        return [
            (r.kind, r.conn, r.template, r.value, round(r.due, 9))
            for r in wl_serve.open_loop(random.Random(seed), 50.0, 2.0, ids)
        ]

    assert schedule(5) == schedule(5)
    assert schedule(5) != schedule(6)
