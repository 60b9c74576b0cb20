"""Static ILP bound — dataflow-limit speedup next to the achieved
schedule, plus the analyzer's own overhead record (BENCH_analyze.json)."""

import os

from benchmarks.conftest import RESULTS_DIR, save_result
from repro.analysis.driver import analyze_bench_document, timed_analyze
from repro.benchmarks.document import publish
from repro.experiments import static_ilp
from repro.experiments.data import table_benchmarks


def test_static_ilp(benchmark):
    data = static_ilp.compute()
    save_result("table_static_ilp", static_ilp.render(data))

    # Time one full analyze pass (passes + memoised ILP cells).
    record, _seconds = benchmark(timed_analyze, "qsort")
    assert record["ilp"]["dataflow_limit_cycles"] > 0

    # The analyzer's overhead budget, tracked like the emulator's.
    entries = []
    total = 0.0
    for name in table_benchmarks():
        entry, seconds = timed_analyze(name)
        entries.append({"target": name, "ops": entry["ops"],
                        "seconds": round(seconds, 4)})
        total += seconds
    problems = publish(analyze_bench_document(entries, total),
                       os.path.join(RESULTS_DIR, "BENCH_analyze.json"))
    assert not problems, problems

    for entry in data["benchmarks"].values():
        # the bound can never be beaten by a real schedule
        assert entry["limit_cycles"] <= entry["achieved_cycles"]
        assert entry["gap"] >= 1.0
    assert data["average"]["limit_speedup"] \
        >= data["average"]["achieved_speedup"]
