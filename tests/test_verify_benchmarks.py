"""The independent checker over the paper's benchmark suite: every table
benchmark must lint clean (after translation and after the optimiser) and
the whole evaluation pipeline — transform, schedules, register bindings —
must verify clean under the master machine configurations."""

import pytest

from repro.analysis import format_diagnostics, lint_program
from repro.benchmarks import TABLE_BENCHMARKS
from repro.benchmarks.suite import compile_benchmark, run_program_cached
from repro.evaluation.pipeline import (
    evaluate_benchmark, verify_evaluation, superblock_regions,
    machine_cycles)
from repro.intcode import optimize_program

from tests.conftest import assert_lint_clean


@pytest.mark.parametrize("name", TABLE_BENCHMARKS)
def test_benchmark_lints_clean(name):
    program = compile_benchmark(name)
    assert_lint_clean(program)
    optimized, _ = optimize_program(program)
    assert_lint_clean(optimized, stage="optimize")


@pytest.mark.parametrize("name", TABLE_BENCHMARKS)
def test_benchmark_pipeline_verifies(name, verifier_configs):
    program = compile_benchmark(name)
    result = run_program_cached(program)
    diagnostics = verify_evaluation(program, result, verifier_configs)
    assert diagnostics == [], format_diagnostics(diagnostics)


def test_evaluate_benchmark_verify_flag(verifier_configs):
    evaluation = evaluate_benchmark("qsort", verifier_configs,
                                    verify=True)
    assert evaluation.cycles("seq") > evaluation.cycles("vliw3")


def test_machine_cycles_verify_matches_unverified(verifier_configs):
    name = "nreverse"
    program = compile_benchmark(name)
    result = run_program_cached(program)
    region_set = superblock_regions(program, result)
    config, _ = verifier_configs["vliw3"]
    assert machine_cycles(region_set, config, verify=True) \
        == machine_cycles(region_set, config)


def test_transformed_benchmarks_lint_clean(verifier_configs):
    for name in ("qsort", "tak", "conc30"):
        program = compile_benchmark(name)
        result = run_program_cached(program)
        region_set = superblock_regions(program, result)
        assert lint_program(region_set.program) == []
