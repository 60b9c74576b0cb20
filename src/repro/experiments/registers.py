"""Register-pressure study: does the prototype's 16-register bank pay?

Section 5.2 commits SYMBOL-3 to a 16 x 32-bit register bank with no
reserved registers.  This experiment measures the pressure the compiler
actually generates: peak simultaneous live values per scheduled region
(execution weighted) and the fraction of dynamic region executions that
would need spills with banks of 8, 16, 32 registers.
"""

from repro.compaction import symbol3
from repro.compaction.regalloc import region_pressure
from repro.compaction.scheduler import schedule_region
from repro.evaluation.parallel import (
    config_signature, memoised, shared_engine)
from repro.evaluation.pipeline import superblock_regions
from repro.benchmarks import compile_benchmark, run_program_cached
from repro.benchmarks.suite import program_fingerprint
from repro.experiments.render import render_table, fmt

DEFAULT_BENCHMARKS = ["nreverse", "qsort", "serialise", "queens_8", "mu",
                      "zebra"]
BANKS = (8, 16, 32)


def benchmark_pressure(name, config=None):
    """Execution-weighted pressure statistics for one benchmark."""
    config = config or symbol3()
    program = compile_benchmark(name)
    result = run_program_cached(program)
    region_set = superblock_regions(program, result)

    weighted_maxlive = 0.0
    peak = 0
    total_entries = 0
    spill_entries = {bank: 0 for bank in BANKS}
    for region in region_set.executed_regions():
        entries = region_set.counts[region.start]
        ops = region_set.program.instructions[region.start:region.end]
        schedule = schedule_region(ops, config)
        report = region_pressure(ops, schedule)
        weighted_maxlive += entries * report.max_live
        peak = max(peak, report.max_live)
        total_entries += entries
        for bank in BANKS:
            if report.spills_for(bank) > 0:
                spill_entries[bank] += entries
    return {
        "mean_maxlive": weighted_maxlive / total_entries,
        "peak_maxlive": peak,
        "spill_fraction": {bank: spill_entries[bank] / total_entries
                           for bank in BANKS},
    }


def _pressure_cell(name):
    """Content-cached :func:`benchmark_pressure` (JSON string keys)."""
    fingerprint = program_fingerprint(compile_benchmark(name))

    def compute_cell():
        report = benchmark_pressure(name)
        return dict(report, spill_fraction={
            str(bank): value
            for bank, value in report["spill_fraction"].items()})

    payload = memoised(
        "pressure",
        {"fingerprint": fingerprint,
         "config": config_signature(symbol3()), "budget": 48},
        compute_cell)
    return dict(payload, spill_fraction={
        int(bank): value
        for bank, value in payload["spill_fraction"].items()})


def compute(benchmarks=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    reports = shared_engine().map(_pressure_cell, benchmarks)
    rows = dict(zip(benchmarks, reports))
    count = len(rows)
    average = {
        "mean_maxlive": sum(r["mean_maxlive"]
                            for r in rows.values()) / count,
        "spill_fraction": {bank: sum(r["spill_fraction"][bank]
                                     for r in rows.values()) / count
                           for bank in BANKS},
    }
    return {"benchmarks": rows, "average": average}


def render(data=None):
    data = data or compute()
    rows = []
    for name in sorted(data["benchmarks"]):
        entry = data["benchmarks"][name]
        rows.append([name, fmt(entry["mean_maxlive"], 1),
                     entry["peak_maxlive"]]
                    + [fmt(100 * entry["spill_fraction"][b], 1)
                       for b in BANKS])
    average = data["average"]
    rows.append(["AVERAGE", fmt(average["mean_maxlive"], 1), ""]
                + [fmt(100 * average["spill_fraction"][b], 1)
                   for b in BANKS])
    return render_table(
        "Register pressure on the SYMBOL-3 prototype",
        ["benchmark", "mean maxlive", "peak",
         "spill% @8", "spill% @16", "spill% @32"],
        rows,
        note="maxlive counts local values plus the resident abstract-"
             "machine state; spill% = dynamic region executions whose "
             "locals do not fit the bank.")


if __name__ == "__main__":
    print(render())
