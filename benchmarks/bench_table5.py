"""Table 5 — SYMBOL-3 prototype versus its matched sequential machine."""

from benchmarks.conftest import save_result
from repro.experiments import table5
from repro.compaction import symbol3
from repro.evaluation.pipeline import superblock_regions, machine_cycles
from repro.benchmarks import compile_benchmark, run_program_cached


def test_table5(benchmark):
    data = table5.compute()
    save_result("table5", table5.render(data))

    program = compile_benchmark("nreverse")
    result = run_program_cached(program)
    region_set = superblock_regions(program, result)
    benchmark(machine_cycles, region_set, symbol3())

    # Paper: ~1.9 for the prototype, above the BAM's ~1.5.
    assert 1.5 < data["average_speedup"] < 2.5
    assert data["average_speedup"] > data["average_bam"]
