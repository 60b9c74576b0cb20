"""Table 1 — basic-block versus trace compaction (the central ablation of
the paper: local versus global scheduling on an ideal shared-memory
machine)."""

from benchmarks.conftest import save_result
from repro.experiments import table1
from repro.compaction import ideal
from repro.evaluation.pipeline import superblock_regions, machine_cycles
from repro.benchmarks import compile_benchmark, run_program_cached


def test_table1(benchmark):
    data = table1.compute()
    save_result("table1", table1.render(data))

    # Time the global-compaction leg on one benchmark (profile cached).
    program = compile_benchmark("qsort")
    result = run_program_cached(program)
    region_set = superblock_regions(program, result)
    benchmark(machine_cycles, region_set, ideal())

    average = data["average"]
    assert average["trace_speedup"] > average["bb_speedup"]
    assert data["trace_gain"] > 1.15   # paper: ~30% gain
