"""The bench-document envelope, field checker, validator and writer
(:mod:`repro.benchmarks.document`) over all five ``BENCH_*.json``
kinds."""

import copy
import io
import json
import os
import shutil
import subprocess

import pytest

from repro.benchmarks.document import (
    ENVELOPE_FIELDS, check, cpu_count, envelope, main, revision, validate)

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")

#: kind -> its committed record under results/
COMMITTED = {
    "emulator-perf": "BENCH_emulator.json",
    "analyze-perf": "BENCH_analyze.json",
    "corpus-sweep": "BENCH_corpus.json",
    "orparallel-bench": "BENCH_orparallel.json",
    "serve-loadtest": "BENCH_serve.json",
}


def _committed(kind):
    with open(os.path.join(RESULTS, COMMITTED[kind])) as handle:
        return json.load(handle)


def _tampered(kind, path, value):
    document = copy.deepcopy(_committed(kind))
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return document


def test_committed_bench_documents_validate():
    names = sorted(name for name in os.listdir(RESULTS)
                   if name.startswith("BENCH_") and name.endswith(".json"))
    assert names == sorted(COMMITTED.values())
    for kind in COMMITTED:
        document = _committed(kind)
        assert validate(document) == [], kind
        assert document["kind"] == kind
        assert set(envelope(kind)) <= set(document)


# (a) a list element of the wrong type and (b) a bool where an int is
# required, per kind: each is a problem, none raises.
MALFORMED = [
    ("emulator-perf", ["benchmarks", 0], 7,
     "benchmarks[0] is not an object"),
    ("emulator-perf", ["repeats"], True, "repeats is not a positive int"),
    ("analyze-perf", ["benchmarks", 0], "conc30",
     "benchmarks[0] is not an object"),
    ("analyze-perf", ["benchmarks", 0, "ops"], True,
     "benchmarks[0].ops is not a positive int"),
    ("corpus-sweep", ["programs", 0], None, "programs[0] is not an object"),
    ("corpus-sweep", ["programs", 0, "mix", "mem"], "x",
     "programs[0].mix.mem is not a number"),
    ("corpus-sweep", ["programs", 0, "verify_findings"], True,
     "programs[0].verify_findings is not a non-negative int"),
    ("orparallel-bench", ["search", "workloads"], [1, 2, 3],
     "search.workloads[0] is not an object"),
    ("orparallel-bench", ["stacking", "benchmarks", 0], "qsort",
     "stacking.benchmarks[0] is not an object"),
    ("orparallel-bench", ["differential", "splits"], True,
     "differential.splits is not a positive int"),
    ("serve-loadtest", ["benchmarks", 0], 1,
     "benchmarks[0] is not a string"),
    ("serve-loadtest", ["requests"], True,
     "requests is not a non-negative int"),
    ("serve-loadtest", ["kind"], ["serve-loadtest"], "kind is not one of"),
]


@pytest.mark.parametrize("kind, path, value, expected", MALFORMED,
                         ids=["%s:%s" % (case[0], ".".join(map(str, case[1])))
                              for case in MALFORMED])
def test_malformed_field_is_a_problem_not_a_crash(kind, path, value,
                                                  expected):
    problems = validate(_tampered(kind, path, value))
    assert any(expected in problem for problem in problems), problems


CROSS_FIELD = [
    ("emulator-perf", ["summary", "benchmarks"], 99,
     "summary.benchmarks does not match the entry count"),
    ("emulator-perf", ["backends_timed"], ["codegen"],
     "benchmarks[0].backends keys != backends_timed"),
    ("analyze-perf", ["summary", "benchmarks"], 99,
     "summary.benchmarks does not count the entries"),
    ("corpus-sweep", ["programs", 0, "mix", "mem"], 5.0,
     "programs[0].mix does not sum to 1"),
    ("corpus-sweep", ["summary", "saturation"], {"vliw1": {}},
     "summary.saturation is not a full vliw1..vliw5 curve"),
    ("orparallel-bench", ["differential", "programs", 0, "mode_by_jobs"],
     {"1": "sequential"},
     "differential.programs[0].mode_by_jobs does not cover every jobs "
     "level"),
    ("orparallel-bench", ["differential", "checked"], 1,
     "differential.checked does not count the records"),
    ("serve-loadtest", ["latency_ms", "p50"], 1e9,
     "latency_ms.p50 exceeds p99"),
]


@pytest.mark.parametrize("kind, path, value, expected", CROSS_FIELD,
                         ids=["%s:%s" % (case[0], ".".join(map(str, case[1])))
                              for case in CROSS_FIELD])
def test_cross_field_rules(kind, path, value, expected):
    assert expected in validate(_tampered(kind, path, value))


def test_check_walks_lists_and_objects_without_raising():
    document = {"rows": [{"cells": {"x": {"n": 1}, "y": {"n": "one"}}},
                         3, {"cells": None}]}
    assert check(document, [("rows[].cells.*.n", "int")]) == [
        "rows[0].cells.y.n is not an int",
        "rows[1] is not an object",
        "rows[2].cells is not an object",
    ]
    assert check({"rows": "abc"}, [("rows[].n", "int"),
                                   ("rows[].m", "int")]) \
        == ["rows is not a list"]
    # an allowed-values tuple does not take True for 1
    assert check({"schema": True}, [("schema", (1,))]) \
        == ["schema is not one of [1]"]
    assert validate([]) == ["document is not an object"]
    assert validate({"kind": {}}) != []


def test_envelope_fields():
    fields = envelope("corpus-sweep")
    assert sorted(fields) == ["cpu_count", "kind", "python", "revision",
                              "schema"]
    assert check(fields, ENVELOPE_FIELDS) == []
    expected = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    assert fields["cpu_count"] == cpu_count() == expected


needs_git = pytest.mark.skipif(shutil.which("git") is None,
                               reason="git is not installed")


@needs_git
def test_revision_marks_a_dirty_work_tree(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=bench",
             "-c", "user.email=bench@example.invalid"] + list(args),
            check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert revision(str(tmp_path)) == head
    (tmp_path / "untracked.txt").write_text("not part of the tree\n")
    assert revision(str(tmp_path)) == head
    (tmp_path / "tracked.txt").write_text("two\n")
    assert revision(str(tmp_path)) == head + "-dirty"


@needs_git
def test_revision_is_unknown_outside_git(tmp_path):
    assert revision(str(tmp_path)) == "unknown"


def test_revision_ignores_the_callers_cwd(tmp_path, monkeypatch):
    expected = revision()
    monkeypatch.chdir(tmp_path)
    assert revision() == expected


def test_invalid_bench_document_is_written_and_fails(tmp_path,
                                                     monkeypatch):
    from repro.benchmarks import perf
    from repro.cli import main as cli_main
    real = perf.bench_document

    def tampered(*args, **kwargs):
        document = real(*args, **kwargs)
        document["summary"]["benchmarks"] = 99
        return document

    monkeypatch.setattr(perf, "bench_document", tampered)
    output = tmp_path / "BENCH_emulator.json"
    out, err = io.StringIO(), io.StringIO()
    status = cli_main(["bench", "conc30", "--repeat", "1",
                       "--output", str(output)], out=out, err=err)
    assert status == 1
    assert "wrote %s" % output in out.getvalue()
    assert json.loads(output.read_text())["summary"]["benchmarks"] == 99
    assert "summary.benchmarks" in err.getvalue()


def test_main_prints_one_line_and_gates(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_committed("analyze-perf")))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_tampered("analyze-perf", ["schema"], 1)))
    assert main([str(good)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert captured.out.endswith(": valid\n")
    assert main([str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert "schema is not one of [3]" in captured.err
    assert main([]) == 2
