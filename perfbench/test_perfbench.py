"""Self-tests of the benchmark harness (no program run needed)::

    python3 -m pytest perfbench -q
"""

import asyncio
import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import serve_client  # noqa: E402
from hostspeed import MIN_UNITS, REFERENCE_S, HostSpeed, raw  # noqa: E402
from stats import Tally, classify, request_sequence, tail  # noqa: E402


# -- tail percentile -------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    for n in itertools.chain(range(1, 300), (999, 1000, 1001, 5000)):
        values = list(range(n))
        percentile, value, beyond = tail(values)
        if n >= 20:
            assert beyond >= 10, (n, percentile)
            assert sum(1 for v in values if v > value) == beyond
            # the next higher candidate would leave fewer than ten
            higher = [p for p in (95.0, 90.0, 75.0, 50.0)
                      if p > percentile]
            for p in higher:
                assert n - max(1, -(-p * n // 100)) < 10
        else:
            assert percentile == 50.0


def test_tail_examples():
    assert tail(list(range(1000)))[:2] == (95.0, 949)
    assert tail(list(range(100)))[:2] == (90.0, 89)
    assert tail(list(range(40)))[:2] == (75.0, 29)
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)
    assert tail([]) == (50.0, 0.0, 0)


# -- host speed ------------------------------------------------------------

def test_scaling_follows_the_host_speed_of_each_part():
    # one unit a second: at the reference speed for 10 s, then half as fast
    speed = HostSpeed([(float(t), REFERENCE_S * (1 if t < 10 else 2))
                       for t in range(20)])
    assert speed.scale([(4.0, 2.0)]) == 4.0
    assert speed.scale([(4.0, 13.0)]) == 2.0
    # a command workload's pass is the sum of its commands, each scaled
    # by the units that ran beside it
    parts = [(4.0, 2.0), (4.0, 13.0)]
    assert speed.scale(parts) == 6.0 and raw(parts) == 8.0


def test_long_durations_are_scaled_second_by_second():
    # ten units a second: at the reference speed until 10 s, then half as
    # fast; five seconds of each count for what they ran at
    speed = HostSpeed([(k / 10, REFERENCE_S * (1 if k < 100 else 2))
                       for k in range(200)])
    assert abs(speed.scale([(10.0, 5.0)]) - 7.5) < 1e-9
    # a time within another scales to less, whatever its seconds
    assert speed.scale([(0.3, 9.9)]) < speed.scale([(0.5, 9.8)])


def test_short_durations_take_the_nearest_units():
    speed = HostSpeed([(float(t), REFERENCE_S * (t + 1)) for t in range(20)])
    # no unit started within 3 ms: the nearest MIN_UNITS around it count
    assert MIN_UNITS == 5
    assert abs(speed.factor(7.5, 7.503) - 1 / 8.5) < 1e-12
    assert abs(speed.factor(-5.0, -4.0) - 1 / 3) < 1e-12
    assert abs(speed.factor(-1.0, 100.0) - 1 / 10.5) < 1e-12


def test_host_speed_pools_the_probe_files(tmp_path):
    first, second = tmp_path / "cpu0.txt", tmp_path / "cpu1.txt"
    first.write_text("1.0 0.0035\n3.0 0.0070\n5.0 0.00")   # last one cut
    second.write_text("2.0 0.0035\n")
    speed = HostSpeed.read([first, second, tmp_path / "missing.txt"])
    assert len(speed) == 3 and speed.starts == [1.0, 2.0, 3.0]
    assert len(HostSpeed.read([tmp_path / "missing.txt"])) == 0


# -- failure accounting ----------------------------------------------------

def test_classify_counts_every_failure_kind():
    tally = Tally()
    for outcome in (classify(None, None, "x"),          # timed out
                    classify(500, None, "x"),           # server error
                    classify(0, None, "x"),             # no connection
                    classify(429, None, "x"),           # shed
                    classify(200, '{"a":2}', '{"a":1}'),  # wrong answer
                    classify(200, '{"a":1}', '{"a":1}')):
        tally.record(outcome)
    assert tally.outcomes == {"ok": 1, "timeout": 1, "refused": 1,
                              "error": 2, "wrong": 1}
    assert tally.attempts == 6 and tally.failed == 5
    assert abs(tally.ok_share() - 1 / 6) < 1e-12


class _StubService:
    """An HTTP stub: the first request is answered but never closed
    (the pooled-serve symptom), the second gets a 500, template 1 always
    gets a wrong answer, everything else the reference."""

    def __init__(self):
        self.seen = 0
        self.held = []

    async def handle(self, reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1]
                     .split(b"\r\n")[0])
        body = json.loads(await reader.readexactly(length) or b"{}")
        self.seen += 1
        status, result = 200, {"n": body.get("n")}
        if body.get("n") == 1:
            result = {"n": "corrupted"}
        if self.seen == 2:
            status, result = 500, None
        data = json.dumps({"ok": status == 200, "result": result}).encode()
        writer.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n"
                     % (status, len(data)) + data)
        await writer.drain()
        if self.seen == 1:
            self.held.append(writer)        # reply sent, stream left open
            return
        writer.close()


def test_closed_loop_counts_timeouts_errors_and_wrong_answers():
    templates = [{"op": "evaluate", "body": {"n": 0}},
                 {"op": "compile", "body": {"n": 1}}]
    references = [serve_client.canonical({"n": 0}),
                  serve_client.canonical({"n": 1})]

    async def scenario():
        stub = _StubService()
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await serve_client.closed_loop(
                "127.0.0.1", port, templates, references,
                iter([0, 0, 1]), clients=1, seconds=30.0, timeout=0.3)
        finally:
            for writer in stub.held:
                writer.close()
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    # template 0: timed out, then a 500, then ok (two client retries)
    # template 0 again: ok; template 1: wrong, never retried
    assert result.tally.outcomes == {"ok": 2, "timeout": 1, "refused": 0,
                                     "error": 1, "wrong": 1}
    assert result.retries == 2
    assert [ok for _, _, _, ok in result.requests] == [True, True, False]


# -- the seeded serve sequence ---------------------------------------------

def test_request_sequence_is_seeded():
    templates = run.serve_templates()
    openers = run.serve_openers(templates)

    def head(seed, count=200):
        return list(itertools.islice(
            request_sequence(templates, seed, openers), count))

    assert head(7) == head(7)
    assert head(7) != head(8)
    first = head(7, len(openers) + 3 * len(templates))
    assert first[:len(openers)] == openers
    assert all(templates[i]["op"] == "evaluate" for i in openers)
    rounds = first[len(openers):]
    for start in range(0, len(rounds), len(templates)):
        assert sorted(rounds[start:start + len(templates)]) \
            == list(range(len(templates)))


# -- correctness gates -----------------------------------------------------

class _Stub:
    def __init__(self):
        self.problems = []
        self.record = {}

    def fail(self, message):
        self.problems.append(message)


def _evaluate_output(tables, summary):
    return ("\n\n".join(tables.values()) + "\n\nprofiles: codegen x14\n"
            + summary + "\n")


def test_evaluate_gate_rejects_a_corrupted_table():
    tables = run.golden_tables()
    good = _evaluate_output(tables, "supervisor: 3 task(s): 3 ok")
    ctx = _Stub()
    finished = run.Finished(0, 1.0, good, "")
    assert run.check_evaluate(ctx, finished, tables, "cold", 2) == "ok"
    assert ctx.record["backend"] == "codegen x14"
    corrupted = good.replace("Paper average: 0.1475.",
                             "Paper average: 0.1476.")
    assert corrupted != good
    finished = run.Finished(0, 1.0, corrupted, "")
    assert run.check_evaluate(_Stub(), finished, tables, "cold",
                              2) == "wrong"
    failed = run.Finished(1, 1.0, good, "boom")
    assert run.check_evaluate(_Stub(), failed, tables, "cold",
                              2) == "error"


def test_evaluate_gate_checks_cold_and_warm():
    tables = run.golden_tables()
    warm = run.Finished(0, 1.0, _evaluate_output(
        tables, "supervisor: 3 task(s): 3 cached"), "")
    cold = run.Finished(0, 1.0, _evaluate_output(
        tables, "supervisor: 3 task(s): 3 ok"), "")
    assert run.check_evaluate(_Stub(), warm, tables, "cold", 2) == "wrong"
    assert run.check_evaluate(_Stub(), cold, tables, "warm", 2) == "wrong"
    assert run.check_evaluate(_Stub(), warm, tables, "warm", 2) == "ok"


def test_query_gate_rejects_corrupted_answers():
    answers = ["route(%d,[%d])" % (k, k) for k in range(5040)]
    reference = {"output": "", "answers": answers}
    summary = "query: mode=parallel branches=7 answers=5040 or-jobs=2\n"
    text = "".join(a + "\n" for a in answers) + summary
    finished = run.Finished(0, 1.0, text, "")
    assert run.check_query(_Stub(), "perm_split", finished,
                           reference) == "ok"
    swapped = answers[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    corrupted = run.Finished(0, 1.0, "".join(a + "\n" for a in swapped)
                             + summary, "")
    assert run.check_query(_Stub(), "perm_split", corrupted,
                           reference) == "wrong"
    memo = run.Finished(0, 1.0, text.replace("mode=parallel", "mode=memo"),
                        "")
    assert run.check_query(_Stub(), "perm_split", memo,
                           reference) == "wrong"
