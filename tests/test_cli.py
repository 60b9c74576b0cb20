"""Command-line interface."""

import io

import pytest

from repro.cli import main, build_parser

SOURCE = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2], [3], X), write(X), nl.
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.pl"
    path.write_text(SOURCE)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    status = main(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def test_run_prints_program_output(program_file):
    status, text, errors = run_cli(["run", program_file])
    assert status == 0
    assert text == "[1,2,3]\n"


def test_run_stats_flag(program_file):
    status, text, errors = run_cli(["run", program_file, "--stats"])
    assert "steps=" in text and "status=0" in text


def test_run_failing_program_reports_status(tmp_path):
    path = tmp_path / "f.pl"
    path.write_text("p(a). main :- p(b).")
    status, text, errors = run_cli(["run", str(path)])
    assert status == 1


def test_run_with_optimize(program_file):
    status, text, errors = run_cli(["run", program_file, "--optimize"])
    assert status == 0 and text == "[1,2,3]\n"


def test_run_custom_entry(tmp_path):
    path = tmp_path / "g.pl"
    path.write_text("go :- write(hi), nl. main :- fail.")
    status, text, errors = run_cli(["run", str(path), "--entry", "go"])
    assert status == 0 and text == "hi\n"


def test_listing_shows_both_levels(program_file):
    status, text, errors = run_cli(["listing", program_file])
    assert "P:app/3" in text        # BAM level
    assert "jmpr" in text           # ICI level


def test_listing_bam_only(program_file):
    status, text, errors = run_cli(["listing", program_file, "--level", "bam"])
    assert "Proceed" in text and "jmpr" not in text


def test_speedup_default_machine(program_file):
    status, text, errors = run_cli(["speedup", program_file])
    assert status == 0
    assert text.startswith("vliw3")
    value = float(text.split()[1].rstrip("x"))
    assert 1.0 < value < 5.0


def test_speedup_multiple_machines(program_file):
    status, text, errors = run_cli(["speedup", program_file, "-m", "seq",
                            "-m", "ideal"])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[0].split()[1].rstrip("x")) - 1.0) < 1e-9


def test_analyze_reports_mix_and_branches(program_file):
    status, text, errors = run_cli(["analyze", program_file])
    assert "dynamic operations:" in text
    assert "P_fp" in text
    assert "mem" in text


def test_bench_known_name(tmp_path):
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "conc30", "--repeat", "1", "--output", output])
    assert status == 0
    assert "steps=" in text
    assert "cg" in text and "ref=" in text
    assert " ok" in text


def test_bench_unknown_name(tmp_path):
    status, text, errors = run_cli(
        ["bench", "nonesuch",
         "--output", str(tmp_path / "BENCH_emulator.json")])
    assert status == 2
    assert "available" in errors


def test_bench_quick_writes_schema_valid_record(tmp_path):
    import json
    from repro.benchmarks.perf import QUICK_BENCHMARKS, validate_bench
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "--quick", "--repeat", "1", "--output", output])
    assert status == 0, errors
    with open(output) as handle:
        document = json.load(handle)
    assert validate_bench(document) == []
    assert [entry["name"] for entry in document["benchmarks"]] \
        == list(QUICK_BENCHMARKS)
    assert sorted(document["benchmarks"][0]["backends"]) \
        == ["codegen", "reference"]
    assert document["summary"]["all_identical"] is True


def test_bench_backend_subset(tmp_path):
    import json
    from repro.benchmarks.perf import validate_bench
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "conc30", "--repeat", "1",
         "--backend", "codegen", "--backend", "reference",
         "--output", output])
    assert status == 0, errors
    with open(output) as handle:
        document = json.load(handle)
    assert validate_bench(document) == []
    assert document["backends_timed"] == ["codegen", "reference"]
    entry = document["benchmarks"][0]
    assert sorted(entry["backends"]) == ["codegen", "reference"]
    # each row names the backend that actually produced its profile
    assert entry["backends"]["reference"]["produced_by"] == "reference"
    assert entry["backends"]["codegen"]["produced_by"] == "codegen"
    assert "codegen" in entry["speedups"]


def test_bench_rejects_names_with_quick(tmp_path):
    status, text, errors = run_cli(
        ["bench", "conc30", "--quick",
         "--output", str(tmp_path / "b.json")])
    assert status == 2
    assert "not both" in errors


def test_lint_clean_program(program_file):
    status, text, errors = run_cli(["lint", program_file])
    assert status == 0
    assert "clean" in text and errors == ""


def test_lint_optimized_program(program_file):
    status, text, errors = run_cli(["lint", program_file, "--optimize"])
    assert status == 0


def test_verify_single_benchmark_single_machine():
    status, text, errors = run_cli(
        ["verify", "--bench", "conc30", "-m", "vliw3", "-m", "seq"])
    assert status == 0
    assert "conc30" in text and "clean" in text


def test_verify_unknown_benchmark():
    status, text, errors = run_cli(["verify", "--bench", "nonesuch"])
    assert status == 2
    assert "available" in errors


def test_verify_unknown_machine():
    status, text, errors = run_cli(["verify", "-m", "warp9"])
    assert status == 2
    assert "warp9" in errors


def test_verify_source_file(program_file):
    status, text, errors = run_cli(
        ["verify", "--file", program_file, "-m", "vliw3"])
    assert status == 0
    assert "clean" in text


def test_warren_flags(program_file):
    status, text, errors = run_cli(["run", program_file, "--no-indexing",
                            "--no-lco"])
    assert status == 0 and text == "[1,2,3]\n"


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# --------------------------------------------------------------------------
# The supervised sweep surface: --report / --max-attempts /
# --cell-timeout and the outcome summary line.

def test_evaluate_smoke_writes_supervisor_report(tmp_path, monkeypatch):
    import json
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    report_path = str(tmp_path / "report.json")
    status, text, errors = run_cli(
        ["evaluate", "--jobs", "1", "--bench", "conc30",
         "--max-attempts", "2", "--cell-timeout", "0",
         "--report", report_path])
    assert status == 0
    assert "supervisor:" in text and "ok" in text
    document = json.load(open(report_path))
    assert document["tasks"]
    assert all(task["status"] in ("ok", "cached")
               for task in document["tasks"])
    assert document["degraded"] is False
    assert document["pool_restarts"] == 0
    assert document["interrupted"] is None


def test_evaluate_survives_an_injected_transient_fault(
        tmp_path, monkeypatch):
    from repro.testing import faults
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with faults.injected("parallel.task=error:1"):
        status, text, errors = run_cli(
            ["evaluate", "--jobs", "1", "--bench", "conc30"])
    assert status == 0
    assert "retried" in text


# --------------------------------------------------------------------------
# REPRO_EMULATOR_BACKEND is honoured consistently: the backend recorded
# in the bench document and in evaluate's profile provenance always
# matches the active override, even against warm caches produced under
# the other backend.

def _profile_column(text, benchmark):
    row = next(line for line in text.splitlines()
               if line.startswith(benchmark))
    return row.split()[-1]


@pytest.mark.parametrize("backend", ("reference", "codegen"))
def test_bench_quick_records_env_backend(tmp_path, monkeypatch, backend):
    import json
    monkeypatch.setenv("REPRO_EMULATOR_BACKEND", backend)
    output = str(tmp_path / "BENCH_emulator.json")
    status, text, errors = run_cli(
        ["bench", "--quick", "--repeat", "1", "--output", output])
    assert status == 0, errors
    with open(output) as handle:
        document = json.load(handle)
    assert document["backend"] == backend
    from repro.benchmarks.perf import validate_bench
    assert validate_bench(document) == []


def test_evaluate_profile_backend_follows_env_override(
        tmp_path, monkeypatch):
    """A warm cache written under one backend must not masquerade as
    the profile provenance of a sweep run under the other."""
    from repro.evaluation import parallel
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for backend in ("reference", "codegen", "reference"):
        monkeypatch.setenv("REPRO_EMULATOR_BACKEND", backend)
        monkeypatch.setattr(parallel, "_worker_programs", {})
        monkeypatch.setattr(parallel, "_worker_regions", {})
        status, text, errors = run_cli(
            ["evaluate", "--jobs", "1", "--bench", "conc30"])
        assert status == 0, errors
        assert _profile_column(text, "conc30") == backend


# -- machine-readable diagnostics --------------------------------------------

def test_lint_json_document(program_file):
    import json
    from repro.analysis.report import validate_diagnostics
    status, text, errors = run_cli(["lint", program_file,
                                    "--format", "json"])
    assert status == 0
    document = json.loads(text)
    assert validate_diagnostics(document) == []
    assert document["tool"] == "lint"
    assert document["count"] == 0
    (entry,) = document["targets"]
    assert entry["target"] == program_file and entry["ops"] > 0


def test_verify_json_document(program_file):
    import json
    from repro.analysis.report import validate_diagnostics
    status, text, errors = run_cli(["verify", "--file", program_file,
                                    "-m", "vliw3", "--format", "json"])
    assert status == 0
    document = json.loads(text)
    assert validate_diagnostics(document) == []
    assert document["tool"] == "verify"
    (entry,) = document["targets"]
    assert entry["machine_configs"] == ["vliw3"]


def test_analyze_suite_json_document(tmp_path):
    import json
    from repro.analysis.report import validate_analysis
    out_path = tmp_path / "analyze.json"
    perf_path = tmp_path / "BENCH_analyze.json"
    status, text, errors = run_cli([
        "analyze", "--bench", "conc30", "--format", "json",
        "--output", str(out_path), "--perf", str(perf_path)])
    assert status == 0, errors
    document = json.loads(text)
    assert validate_analysis(document) == []
    assert json.loads(out_path.read_text()) == document
    (entry,) = document["targets"]
    assert entry["target"] == "conc30"
    ilp = entry["ilp"]
    assert ilp["dataflow_limit_cycles"] <= ilp["achieved_cycles"]
    assert ilp["gap"] >= 1.0
    perf = json.loads(perf_path.read_text())
    assert perf["kind"] == "analyze-perf"
    assert perf["benchmarks"][0]["target"] == "conc30"


def test_analyze_suite_text_table():
    status, text, errors = run_cli(["analyze", "--bench", "conc30"])
    assert status == 0, errors
    assert "conc30" in text
    assert "dfl" in text and "gap" in text


def test_analyze_unknown_benchmark():
    status, text, errors = run_cli(["analyze", "--bench", "nonesuch"])
    assert status == 2
    assert "available" in errors


def test_analyze_single_file_still_reports_mix(program_file):
    status, text, errors = run_cli(["analyze", program_file])
    assert status == 0
    assert "mix" in text.lower() or "branch" in text.lower()


# --------------------------------------------------------------------------
# Cache maintenance commands and eager fault-spec validation.

def test_cache_stats_on_fresh_directory(tmp_path):
    status, text, errors = run_cli(
        ["cache", "stats", "--dir", str(tmp_path / "nothing")])
    assert status == 0, errors
    assert "0 entr" in text


def test_cache_gc_evicts_to_budget(tmp_path):
    from repro.evaluation.cache import ShardedCacheStore
    store = ShardedCacheStore(str(tmp_path / "cas"), shards=2)
    for n in range(4):
        store.put(store.key("cell", {"n": n}), {"pad": "x" * 128})
    status, text, errors = run_cli(
        ["cache", "gc", "--dir", str(tmp_path / "cas"),
         "--shards", "2", "--budget", "1"])
    assert status == 0, errors
    assert "removed 4" in text
    assert store.usage()["entries"] == 0


def test_typoed_fault_spec_fails_fast_with_site_menu(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "serve.request=bogus:1")
    status, text, errors = run_cli(["cache", "stats"])
    assert status == 2
    assert "invalid REPRO_FAULT_INJECT" in errors
    assert "known fault sites:" in errors
    assert "serve.request: error | shed | hang" in errors
