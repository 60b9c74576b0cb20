"""Property-based differential testing: random queries over a library of
list/arithmetic predicates, executed both by the compiled ICI machine and
the reference interpreter, must agree exactly.

This is the fuzzing layer over the single most important invariant of the
reproduction (compiled semantics == source semantics).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bam import compile_source
from repro.intcode import translate_module, optimize_program
from repro.emulator import CodegenEmulator, Emulator
from repro.testing import faults

from tests.conftest import (
    assert_lint_clean, compile_and_run, interpret, normalise_vars)

LIBRARY = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
mem(X, [X|_]).
mem(X, [_|T]) :- mem(X, T).
sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
rev([], A, A).
rev([H|T], A, R) :- rev(T, [H|A], R).
last([X], X).
last([_|T], X) :- last(T, X).
sum([], 0).
sum([H|T], S) :- sum(T, S1), S is S1 + H.
maxl([X], X).
maxl([H|T], M) :- maxl(T, M1), (H > M1 -> M = H ; M = M1).
take(0, _, []) :- !.
take(N, [H|T], [H|R]) :- N > 0, M is N - 1, take(M, T, R).
interleave([], L, L).
interleave([H|T], L, [H|R]) :- interleave(L, T, R).
"""


def _plist(items):
    return "[%s]" % ",".join(str(i) for i in items)


@st.composite
def queries(draw):
    xs = draw(st.lists(st.integers(-9, 9), max_size=6))
    ys = draw(st.lists(st.integers(-9, 9), max_size=5))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from([
        "app({xs}, {ys}, R), write(R)",
        "app(A, B, {xs}), write(A-B), nl, fail",
        "mem({n}, {xs}), write(yes)",
        "sel({n}, {xs}, R), write(R), nl, fail",
        "len({xs}, N), write(N)",
        "rev({xs}, [], R), write(R)",
        "last({xs}, X), write(X)",
        "sum({xs}, S), write(S)",
        "maxl({xs}, M), write(M)",
        "take({n}, {xs}, R), write(R)",
        "interleave({xs}, {ys}, R), write(R)",
        "app(_, [X|_], {xs}), X > 0, write(X)",
    ]))
    return kind.format(xs=_plist(xs), ys=_plist(ys), n=n)


@settings(max_examples=120, deadline=None)
@given(queries())
def test_random_queries_agree(query):
    source = LIBRARY + "main :- %s, nl.\nmain :- write(no), nl.\n" % query
    ok, expected = interpret(source)
    result = compile_and_run(source)
    assert result.succeeded == ok
    assert normalise_vars(result.output) == normalise_vars(expected)


@settings(max_examples=40, deadline=None)
@given(queries())
def test_compiled_queries_lint_clean(query):
    """Every compiled fuzz case must be statically well-formed ICI, both
    straight out of the translator and after the optimiser."""
    source = LIBRARY + "main :- %s, nl.\nmain :- write(no), nl.\n" % query
    program = translate_module(compile_source(source))
    assert_lint_clean(program)
    optimized, _ = optimize_program(program)
    assert_lint_clean(optimized, stage="optimize")


@st.composite
def arith_expressions(draw, depth=3):
    if depth == 0:
        return str(draw(st.integers(-20, 20)))
    left = draw(arith_expressions(depth=depth - 1))
    right = draw(arith_expressions(depth=depth - 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    if draw(st.booleans()):
        op = draw(st.sampled_from(["//", "mod"]))
        right = str(draw(st.integers(1, 9)))  # avoid division by zero
    return "(%s %s %s)" % (left, op, right)


@settings(max_examples=80, deadline=None)
@given(arith_expressions())
def test_random_arithmetic_agrees(expression):
    source = "main :- X is %s, write(X), nl." % expression
    ok, expected = interpret(source)
    result = compile_and_run(source)
    assert result.succeeded == ok
    assert result.output == expected


@st.composite
def ground_terms(draw, depth=2):
    if depth == 0:
        return draw(st.sampled_from(["a", "b", "c", "1", "-2", "[]"]))
    args = draw(st.lists(ground_terms(depth=depth - 1), min_size=1,
                         max_size=3))
    shape = draw(st.sampled_from(["f(%s)", "g(%s)", "[%s]"]))
    return shape % ",".join(args)


@settings(max_examples=80, deadline=None)
@given(ground_terms(), ground_terms())
def test_random_unification_agrees(left, right):
    source = ("main :- X = %s, Y = %s, (X = Y -> write(u) ; write(n)), "
              "(X == Y -> write(e) ; write(d)), nl." % (left, right))
    ok, expected = interpret(source)
    result = compile_and_run(source)
    assert result.succeeded == ok
    assert result.output == expected


# --------------------------------------------------------------------------
# Backend differential fuzzing: the codegen backend must be bit-identical
# to the reference loop on every observable field.

def assert_backends_identical(program, max_steps=50_000_000):
    reference = Emulator(program, max_steps=max_steps).run()
    other = CodegenEmulator(program, max_steps=max_steps,
                            persist=False).run()
    assert other.status == reference.status
    assert other.steps == reference.steps
    assert other.output == reference.output
    assert other.counts == reference.counts
    assert other.taken == reference.taken


@settings(max_examples=30, deadline=None)
@given(queries())
def test_backends_agree_on_random_queries(query):
    source = LIBRARY + "main :- %s, nl.\nmain :- write(no), nl.\n" % query
    program = translate_module(compile_source(source))
    assert_backends_identical(program)
    optimized, _ = optimize_program(program)
    assert_backends_identical(optimized)


@settings(max_examples=25, deadline=None)
@given(arith_expressions())
def test_backends_agree_on_random_arithmetic(expression):
    source = "main :- X is %s, write(X), nl." % expression
    program = translate_module(compile_source(source))
    assert_backends_identical(program)


@settings(max_examples=25, deadline=None)
@given(ground_terms(), ground_terms())
def test_backends_agree_on_random_unification(left, right):
    source = ("main :- X = %s, Y = %s, (X = Y -> write(u) ; write(n)), "
              "(X == Y -> write(e) ; write(d)), nl." % (left, right))
    program = translate_module(compile_source(source))
    assert_backends_identical(program)


def test_backends_agree_on_paper_suite():
    from repro.benchmarks import TABLE_BENCHMARKS
    from repro.benchmarks.suite import compile_benchmark
    for name in TABLE_BENCHMARKS:
        assert_backends_identical(compile_benchmark(name))


# --------------------------------------------------------------------------
# Fault injection inside compiled blocks: a ``bail`` fired mid-block
# must leave the codegen backend's observable result bit-identical
# (the fallback re-runs the reference loop from scratch), and an
# ``error`` must surface as InjectedFault rather than corrupt state.
# Each arming gets a fresh fuse state directory: in-process fuse
# accounting is keyed on the spec string, so re-arming an identical
# spec would otherwise find its fuse already spent.

def _result_fields(result):
    return (result.status, result.steps, result.output, result.counts,
            result.taken)


def test_codegen_block_fault_bail_falls_back_identically(tmp_path):
    source = LIBRARY + "main :- rev([1,2,3,4,5], [], R), write(R), nl."
    program = translate_module(compile_source(source))
    reference = Emulator(program).run()
    with faults.injected("emulator.codegen.block=bail:1",
                         str(tmp_path / "fuses")):
        result = CodegenEmulator(program, persist=False).run()
    assert result.backend == "reference"
    assert _result_fields(result) == _result_fields(reference)


def test_codegen_block_fault_error_raises(tmp_path):
    source = LIBRARY + "main :- len([1,2,3], N), write(N), nl."
    program = translate_module(compile_source(source))
    with faults.injected("emulator.codegen.block=error:1",
                         str(tmp_path / "fuses")):
        with pytest.raises(faults.InjectedFault):
            CodegenEmulator(program, persist=False).run()


def test_codegen_block_fault_on_paper_benchmark(tmp_path):
    from repro.benchmarks.suite import compile_benchmark
    program = compile_benchmark("mu")
    reference = Emulator(program).run()
    with faults.injected("emulator.codegen.block=bail:1",
                         str(tmp_path / "fuses")):
        result = CodegenEmulator(program, persist=False).run()
    assert result.backend == "reference"
    assert _result_fields(result) == _result_fields(reference)


@pytest.mark.slow
def test_codegen_block_faults_on_corpus_slice(tmp_path):
    for name, source in _corpus_sources(12, 2025):
        program = translate_module(compile_source(source))
        reference = Emulator(program).run()
        with faults.injected("emulator.codegen.block=bail:1",
                             str(tmp_path / name)):
            result = CodegenEmulator(program, persist=False).run()
        assert result.backend == "reference", name
        assert _result_fields(result) == _result_fields(reference), name


# --------------------------------------------------------------------------
# Corpus-seeded fuzzing: the generated corpus covers cut, if-then-else,
# negation and deep-recursion shapes the hand-written query grammar
# above never produces.  Seeds are fixed (the corpus is deterministic),
# so a failure here names an exactly reproducible program.

def _corpus_sources(count, base_seed):
    from repro.corpus.generate import corpus_programs
    return [(p.name, p.source)
            for p in corpus_programs(count, base_seed)]


@pytest.mark.parametrize(
    "name,source", _corpus_sources(8, 1992),
    ids=[name for name, _ in _corpus_sources(8, 1992)])
def test_corpus_programs_agree_with_interpreter(name, source):
    ok, expected = interpret(source)
    result = compile_and_run(source)
    assert result.succeeded == ok, name
    assert normalise_vars(result.output) == normalise_vars(expected), name


@pytest.mark.slow
def test_backends_agree_on_corpus_slice():
    """Backend differential over a wide fixed slice of the corpus
    (tier-marked slow: ~60 programs through both emulator backends,
    straight out of the translator and after the optimiser)."""
    for name, source in _corpus_sources(60, 1992):
        program = translate_module(compile_source(source))
        assert_backends_identical(program)
        optimized, _ = optimize_program(program)
        assert_backends_identical(optimized)


@pytest.mark.slow
def test_corpus_dcg_workloads_backends_identical():
    from repro.corpus.workloads import DCG_WORKLOADS
    for name in sorted(DCG_WORKLOADS):
        program = translate_module(
            compile_source(DCG_WORKLOADS[name].source))
        assert_backends_identical(program)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_sorting_pipeline_agrees(values):
    source = LIBRARY + """
qs([], R, R).
qs([X|L], R, R0) :- part(L, X, L1, L2), qs(L2, R1, R0), qs(L1, R, [X|R1]).
part([], _, [], []).
part([X|L], Y, [X|L1], L2) :- X =< Y, !, part(L, Y, L1, L2).
part([X|L], Y, L1, [X|L2]) :- part(L, Y, L1, L2).
main :- qs(%s, S, []), write(S), nl.
""" % _plist(values)
    result = compile_and_run(source)
    assert result.succeeded
    assert result.output == "[%s]\n" % ",".join(
        str(v) for v in sorted(values))
