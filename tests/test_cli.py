"""CLI smoke tests (python -m repro)."""

import numpy as np
import pytest

from repro.cli import main
from repro.engine.storage import Database


@pytest.fixture
def csv_table(tmp_path):
    db = Database()
    db.create_table("t", {
        "x": np.array([1.0, 2.0, 3.0]),
        "label": np.array(["a", "b", "a"], dtype=object),
    })
    path = tmp_path / "t.tbl"
    db.save_csv("t", str(path))
    return str(path)


def test_run_sql_on_csv(csv_table, capsys):
    code = main(["run-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t"])
    assert code == 0
    out = capsys.readouterr().out
    assert "6.0" in out


def test_run_sql_with_generated_tpch(capsys):
    code = main(["run-sql", "--tpch", "0.001",
                 "SELECT COUNT(*) AS n FROM lineitem"])
    assert code == 0
    assert "n" in capsys.readouterr().out


def test_compile_sql_shows_provenance(csv_table, capsys):
    code = main(["compile-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x * x) AS s FROM t WHERE x > 1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "logical plan" in out
    assert "@load_table" in out
    assert "compile time" in out


def test_compile_matlab(tmp_path, capsys):
    source = tmp_path / "f.m"
    source.write_text(
        "function y = f(x)\n    y = sum(x .* x);\nend\n")
    code = main(["compile-matlab", str(source)])
    assert code == 0
    out = capsys.readouterr().out
    assert "@mul" in out and "@sum" in out


def test_gen_tpch(tmp_path, capsys):
    out_dir = tmp_path / "tpch"
    code = main(["gen-tpch", "--scale-factor", "0.001",
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "lineitem.tbl").exists()
    assert (out_dir / "region.tbl").exists()


def test_run_sql_repeat_hits_plan_cache(csv_table, capsys):
    code = main(["run-sql", "--repeat", "3", "--cache-stats",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t"])
    assert code == 0
    out = capsys.readouterr().out
    assert "6.0" in out
    assert "plan cache: hits=2 misses=1" in out


def test_run_sql_no_cache_bypasses_plan_cache(csv_table, capsys):
    code = main(["run-sql", "--repeat", "2", "--no-cache",
                 "--cache-stats",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t"])
    assert code == 0
    out = capsys.readouterr().out
    assert "plan cache: hits=0 misses=0" in out


def test_bad_schema_type_message(csv_table):
    with pytest.raises(SystemExit, match="unknown column type"):
        main(["run-sql", "--table", f"t={csv_table}@x:quaternion",
              "SELECT x FROM t"])


@pytest.mark.parametrize("backend", ["interp", "pygen", "python",
                                     "baseline", "monetdb"])
def test_run_sql_backend_selection(csv_table, capsys, backend):
    code = main(["run-sql", "--backend", backend,
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t"])
    assert code == 0
    assert "6.0" in capsys.readouterr().out


def test_run_sql_unknown_backend_is_rejected(csv_table):
    with pytest.raises(SystemExit, match="unknown backend 'turbo'"):
        main(["run-sql", "--backend", "turbo",
              "--table", f"t={csv_table}@x:f64,label:str",
              "SELECT SUM(x) AS s FROM t"])


def test_run_sql_has_no_system_flag(csv_table, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-sql", "--system", "monetdb",
              "--table", f"t={csv_table}@x:f64,label:str",
              "SELECT SUM(x) AS s FROM t"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --system" in capsys.readouterr().err


def test_run_sql_has_no_serve_metrics_flag(csv_table, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-sql", "--serve-metrics", "0",
              "--table", f"t={csv_table}@x:f64,label:str",
              "SELECT SUM(x) AS s FROM t"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --serve-metrics"
            in capsys.readouterr().err)


def test_run_sql_has_no_max_concurrent_flag(csv_table, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-sql", "--max-concurrent", "2",
              "--table", f"t={csv_table}@x:f64,label:str",
              "SELECT SUM(x) AS s FROM t"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --max-concurrent"
            in capsys.readouterr().err)


def test_run_sql_baseline_honours_timeout(capsys):
    code = main(["run-sql", "--tpch", "0.1", "--backend", "baseline",
                 "--timeout", "0.001",
                 "SELECT SUM(l_extendedprice * l_discount) AS revenue "
                 "FROM lineitem WHERE l_discount >= 0.05"])
    assert code == 2
    assert "QueryTimeout" in capsys.readouterr().err


def test_list_backends(capsys):
    code = main(["list-backends"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("interp", "pygen", "cgen", "baseline"):
        assert name in out
    assert "capabilities:" in out
    assert "aliases: python" in out
    assert "fallback: pygen" in out


def test_run_sql_query_log_writes_jsonl(csv_table, tmp_path, capsys):
    import json

    log_path = tmp_path / "queries.jsonl"
    code = main(["run-sql", "--repeat", "2",
                 "--query-log", str(log_path),
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t"])
    assert code == 0
    records = [json.loads(line)
               for line in log_path.read_text().splitlines()]
    assert len(records) == 2
    assert [r["query_id"] for r in records] == [1, 2]
    assert [r["cache_hit"] for r in records] == [False, True]
    assert all(r["outcome"] == "ok" for r in records)
    out = capsys.readouterr().out
    assert "query log: 2 records appended" in out


def test_run_sql_timeout_appends_timeout_record(
        csv_table, tmp_path, capsys):
    import json

    log_path = tmp_path / "queries.jsonl"
    code = main(["run-sql", "--backend", "interp",
                 "--timeout", "1e-9",
                 "--query-log", str(log_path),
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t"])
    assert code == 2
    (line,) = log_path.read_text().splitlines()
    assert json.loads(line)["outcome"] == "timeout"
    err = capsys.readouterr().err
    assert "QueryTimeout" in err
    assert f"query-log record appended to {log_path}" in err


def test_run_sql_with_custom_passes(csv_table, capsys):
    code = main(["run-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t",
                 "--passes", "inline,simplify"])
    assert code == 0
    assert "6.0" in capsys.readouterr().out


def test_run_sql_verify_ir(csv_table, capsys):
    code = main(["run-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x * x) AS s FROM t WHERE x > 1",
                 "--verify-ir"])
    assert code == 0
    assert "13.0" in capsys.readouterr().out


def test_run_sql_unknown_pass_is_rejected(csv_table):
    with pytest.raises(SystemExit, match="unknown pass"):
        main(["run-sql",
              "--table", f"t={csv_table}@x:f64,label:str",
              "SELECT SUM(x) AS s FROM t",
              "--passes", "turbofuse"])


def test_run_sql_dump_ir_writes_snapshots(csv_table, tmp_path, capsys):
    dump = tmp_path / "ir"
    code = main(["run-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t",
                 "--dump-ir", str(dump)])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-pass IR snapshots" in out
    names = sorted(p.name for p in dump.iterdir())
    assert names[0] == "000-input.hir"
    assert all(name.endswith(".hir") for name in names)


def test_compile_sql_prints_pass_statistics(csv_table, capsys):
    code = main(["compile-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x * x) AS s FROM t WHERE x > 1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass statistics" in out
    assert "pipeline=O2" in out


def test_compile_sql_o0_preset_skips_ir_passes(csv_table, capsys):
    code = main(["compile-sql",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t",
                 "--passes", "O0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "@load_table" in out
    assert "pass statistics" not in out


def test_analyze_command_prints_column_stats(csv_table, capsys):
    code = main(["analyze",
                 "--table", f"t={csv_table}@x:f64,label:str"])
    assert code == 0
    out = capsys.readouterr().out
    assert "table t: 3 rows" in out
    assert "ndv=3" in out          # x: 1.0, 2.0, 3.0
    assert "min=1.0 max=3.0" in out


def test_analyze_command_single_table(capsys):
    code = main(["analyze", "--tpch", "0.001", "region"])
    assert code == 0
    out = capsys.readouterr().out
    assert "table region" in out
    assert "lineitem" not in out


def test_run_sql_explain_prints_plan_without_executing(csv_table,
                                                       capsys):
    code = main(["run-sql", "--explain",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t WHERE x > 1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "EXPLAIN" in out
    assert "scan t[" in out
    assert "est_rows=" not in out  # no stats collected
    assert "no statistics collected" in out
    assert "5.0" not in out        # the result (2+3) never printed


def test_run_sql_analyze_explain_shows_estimates(csv_table, capsys):
    code = main(["run-sql", "--analyze", "--explain",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t WHERE x > 1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "est_rows=3" in out     # the scan sees all three rows
    assert "no statistics collected" not in out


def test_run_sql_analyze_enriches_explain_analyze(csv_table, capsys):
    code = main(["run-sql", "--analyze", "--explain-analyze",
                 "--table", f"t={csv_table}@x:f64,label:str",
                 "SELECT SUM(x) AS s FROM t WHERE x > 1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "EXPLAIN ANALYZE" in out
    assert "rows est=" in out and "actual=" in out
