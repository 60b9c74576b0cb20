"""Table 3 / Figure 6 — speedup versus number of units."""

from benchmarks.conftest import save_result
from repro.experiments import table3
from repro.compaction import vliw
from repro.evaluation.pipeline import superblock_regions, machine_cycles
from repro.benchmarks import compile_benchmark, run_program_cached


def test_table3(benchmark):
    data = table3.compute()
    save_result("table3_figure6", table3.render(data))

    program = compile_benchmark("serialise")
    result = run_program_cached(program)
    region_set = superblock_regions(program, result)
    benchmark(machine_cycles, region_set, vliw(3))

    average = data["average"]
    units = [average["vliw%d" % n] for n in range(1, 6)]
    assert units == sorted(units)          # monotone
    assert units[4] - units[3] < 0.05      # saturation at 3-4 units
    assert 1.3 < average["bam"] < 1.9      # paper: 1.58
