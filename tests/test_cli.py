"""Unit tests for the command-line interface and ORDER BY execution."""

from __future__ import annotations

import io

import pytest

from repro.cli import DATABASES, build_parser, format_result, main, run_query
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.datagen import company_database
from repro.data.values import ListValue, Record, SetValue


class TestCliPlumbing:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["select e from e in Employees"])
        assert args.db == "company"
        assert not args.plan and not args.explain

    @pytest.mark.parametrize("flag", ["--parallel", "-j"])
    def test_parallel_flags_are_not_accepted(self, flag, capsys):
        # One serial engine: the old worker-pool switches are usage errors.
        argv = [flag, "select e from e in Employees"]
        if flag == "-j":
            argv.insert(1, "2")
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_batch_flag_is_not_accepted(self, capsys):
        # One execution path: the old row-at-a-time switch is a usage error.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--no-batch", "select e from e in Employees"]
            )
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_all_demo_databases_build(self):
        for name, maker in DATABASES.items():
            db = maker()
            assert db.extent_names(), name

    def test_format_result_collection(self):
        text = format_result(SetValue([3, 1, 2]))
        assert "(3 rows)" in text

    def test_format_result_truncates(self):
        text = format_result(SetValue(range(100)), limit=5)
        assert "100 rows total" in text

    def test_format_result_scalar(self):
        assert format_result(42) == "  42"

    def test_format_result_empty(self):
        assert "(0 rows)" in format_result(SetValue())

    def test_record_collection_renders_as_table(self):
        result = SetValue([Record(a=1, b="x"), Record(a=22, b="yy")])
        text = format_result(result)
        lines = text.splitlines()
        assert lines[0].split() == ["a", "|", "b"]
        assert "-+-" in lines[1]
        assert "(2 rows)" in text

    def test_heterogeneous_records_fall_back_to_repr(self):
        result = SetValue([Record(a=1), Record(b=2)])
        text = format_result(result)
        assert "<a=1>" in text

    def test_long_cells_truncated(self):
        result = SetValue([Record(t="x" * 100)])
        text = format_result(result)
        assert "…" in text

    def test_ordered_list_preserves_order(self):
        result = ListValue([Record(v=3), Record(v=1), Record(v=2)])
        text = format_result(result)
        body = [l for l in text.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert [b.strip() for b in body] == ["3", "1", "2"]


class TestRunQuery:
    def _capture(self, source, **kwargs):
        db = company_database(15, 4, seed=8)
        out = io.StringIO()
        run_query(source, db, out=out, **kwargs)
        return out.getvalue()

    def test_basic(self):
        text = self._capture("select distinct e.name from e in Employees")
        assert "(15 rows)" in text

    def test_show_everything(self):
        text = self._capture(
            "select distinct e.name from e in Employees where e.age > 30",
            show_plan=True,
            show_explain=True,
            show_trace=True,
            show_calculus=True,
        )
        assert "calculus:" in text
        assert "unnesting trace:" in text
        assert "(C1)" in text
        assert "plan:" in text
        assert "physical plan:" in text

    def test_compare_naive(self):
        text = self._capture(
            "select distinct e.name from e in Employees "
            "where e.salary > avg( select u.salary from u in Employees )",
            compare_naive=True,
        )
        assert "results agree" in text

    def test_no_unnest(self):
        text = self._capture(
            "select distinct e.name from e in Employees", unnest=False
        )
        assert "(15 rows)" in text


class TestMain:
    def test_main_success(self, capsys):
        code = main(["--db", "ab", "for all a in A: exists b in B: a = b"])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_main_reports_syntax_error(self, capsys):
        code = main(["selectt oops"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestOrderBy:
    @pytest.fixture(scope="class")
    def db(self):
        return company_database(20, 5, seed=12)

    def test_order_by_alias(self, db):
        result = Optimizer(db).run_oql(
            "select distinct e.name as n, e.salary as s from e in Employees "
            "order by s desc"
        )
        assert isinstance(result, ListValue)
        salaries = [row["s"] for row in result]
        assert salaries == sorted(salaries, reverse=True)

    def test_order_by_value_for_scalar_projection(self, db):
        result = Optimizer(db).run_oql(
            "select distinct e.age from e in Employees order by value"
        )
        ages = list(result)
        assert ages == sorted(ages)

    def test_secondary_key(self, db):
        result = Optimizer(db).run_oql(
            "select e.dno as d, e.name as n from Employees e order by d, n desc"
        )
        rows = [(r["d"], r["n"]) for r in result]
        assert rows == sorted(rows, key=lambda t: (t[0],))  # stable on d
        for (d1, n1), (d2, n2) in zip(rows, rows[1:]):
            if d1 == d2:
                assert n1 >= n2

    def test_order_by_with_naive_strategy(self, db):
        source = "select distinct e.age from e in Employees order by value desc"
        fast = Optimizer(db).run_oql(source)
        naive = Optimizer(db, OptimizerOptions(unnest=False)).run_oql(source)
        assert fast == naive
        assert isinstance(fast, ListValue)

    def test_order_by_in_subquery_rejected(self, db):
        from repro.oql.translator import TranslationError

        with pytest.raises(TranslationError, match="ORDER BY"):
            Optimizer(db).compile_oql(
                "select distinct struct(X: ( select e.name from e in Employees "
                "order by value )) from d in Departments"
            )

    def test_order_by_expression(self, db):
        result = Optimizer(db).run_oql(
            "select distinct e.salary as s from e in Employees "
            "order by 0 - s"
        )
        salaries = [row["s"] for row in result]
        assert salaries == sorted(salaries, reverse=True)
