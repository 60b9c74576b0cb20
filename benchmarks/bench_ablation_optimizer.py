"""Ablation — the block-local ICI optimiser (copy propagation, constant
reuse, dead moves).  The paper's pipeline deliberately defers such
clean-ups to the back-end; this measures how much the naive expansion
leaves on the table."""

from benchmarks.conftest import save_result
from repro.benchmarks import compile_benchmark
from repro.intcode import optimize_program
from repro.emulator import run_program
from repro.evaluation.pipeline import superblock_regions, machine_cycles
from repro.compaction import vliw

NAMES = ["nreverse", "qsort", "serialise", "queens_8"]


def test_optimizer_ablation(benchmark):
    lines = []
    ratios = []
    for name in NAMES:
        program = compile_benchmark(name)
        optimized, stats = optimize_program(program)
        base = run_program(program)
        opt = run_program(optimized)
        assert opt.output == base.output

        base_cycles = machine_cycles(superblock_regions(program, base),
                                     vliw(3))
        opt_cycles = machine_cycles(superblock_regions(optimized, opt),
                                    vliw(3))
        ratios.append(base_cycles / opt_cycles)
        lines.append(
            "%-10s static %4d->%4d ops, dynamic %7d->%7d, "
            "vliw3 cycle gain %.2fx  (%s)"
            % (name, len(program), len(optimized), base.steps,
               opt.steps, base_cycles / opt_cycles, stats))
    save_result("ablation_optimizer", "\n".join(lines))

    program = compile_benchmark("qsort")
    benchmark(optimize_program, program)

    # Optimisation must never make the machine slower.
    assert all(r >= 0.97 for r in ratios)
    assert sum(ratios) / len(ratios) > 1.0
