"""One envelope, one checker and one writer for every bench document.

Each ``results/BENCH_*.json`` file is a *bench document*: the
:func:`envelope` (``schema``, ``kind``, ``revision``, ``python``,
``cpu_count``) plus a body its producer builds.  A producer module
(:data:`KINDS` names one per kind) declares its body as ``BENCH_FIELDS``,
``(path, predicate)`` rules for :func:`check`, and keeps its few
cross-field rules in ``bench_problems(document)``, which runs once the
field rules pass.  :func:`validate` dispatches on ``kind``;
:func:`publish` writes a document and returns its problems, so a failed
run always leaves its evidence on disk.

``python -m repro.benchmarks.document FILE...`` validates files and
prints one summary line each; it exits non-zero on any problem.
"""

import importlib
import json
import os
import platform
import subprocess
import sys

from repro.atomicio import atomic_write_json

__all__ = ["ENVELOPE_FIELDS", "KINDS", "PREDICATES", "SCHEMA", "check",
           "cpu_count", "envelope", "publish", "revision", "validate"]

#: bump when the layout of any bench document changes
SCHEMA = 3

#: document kind -> the producer module holding its field table
KINDS = {
    "emulator-perf": "repro.benchmarks.perf",
    "analyze-perf": "repro.analysis.driver",
    "corpus-sweep": "repro.experiments.corpus_sweep",
    "orparallel-bench": "repro.experiments.orparallel_bench",
    "serve-loadtest": "repro.serve.loadtest",
}


def revision(directory=os.path.dirname(os.path.abspath(__file__))):
    """The commit of the git checkout holding *directory* (by default
    this package's own, whatever the caller's cwd), suffixed ``-dirty``
    when tracked files differ from it; ``"unknown"`` outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", directory] + list(args),
                              capture_output=True, text=True, timeout=10)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    dirty = status.returncode != 0 or status.stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def cpu_count():
    """The CPUs this process may run on (its affinity mask where the
    platform has one): what bounds a parallel speedup."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def envelope(kind):
    """The provenance fields every bench document of *kind* starts
    from."""
    return {"schema": SCHEMA, "kind": kind, "revision": revision(),
            "python": platform.python_version(),
            "cpu_count": cpu_count()}


def _int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: predicate name -> (test, what a failing value "is not")
PREDICATES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "true": (lambda v: v is True, "true"),
    "int": (_int, "an int"),
    "count": (lambda v: _int(v) and v >= 0, "a non-negative int"),
    "positive int": (lambda v: _int(v) and v > 0, "a positive int"),
    "number": (_number, "a number"),
    "non-negative number": (lambda v: _number(v) and v >= 0,
                            "a non-negative number"),
    "positive number": (lambda v: _number(v) and v > 0,
                        "a positive number"),
    "rate": (lambda v: v is None or (_number(v) and 0 <= v <= 1),
             "null or a number in [0, 1]"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "non-empty list": (lambda v: isinstance(v, list) and len(v) > 0,
                       "a non-empty list"),
}

ENVELOPE_FIELDS = (
    ("schema", (SCHEMA,)),
    ("kind", tuple(KINDS)),
    ("revision", "str"),
    ("python", "str"),
    ("cpu_count", "positive int"),
)


def _one_of(allowed):
    """A predicate accepting exactly the values in *allowed* (``True``
    is not ``1``)."""
    return (lambda v: any(v == option and type(v) is type(option)
                          for option in allowed),
            "one of %s" % (list(allowed),))


def _select(value, steps, where, problems):
    """(location, value) of every field *steps* names under *value*; a
    container of the wrong type on the way is appended to *problems*."""
    if not steps:
        yield where, value
        return
    step, rest = steps[0], steps[1:]
    if step == "[]":
        if not isinstance(value, list):
            problems.append("%s is not a list" % where)
            return
        for index, item in enumerate(value):
            yield from _select(item, rest, "%s[%d]" % (where, index),
                               problems)
        return
    if not isinstance(value, dict):
        problems.append("%s is not an object" % (where or "document"))
        return
    items = value.items() if step == "*" else [(step, value.get(step))]
    for key, item in items:
        yield from _select(item, rest,
                           "%s.%s" % (where, key) if where else str(key),
                           problems)


def check(document, rules):
    """Problems of *document* against ``(path, predicate)`` *rules*.

    A path names fields by key, ``[]`` for every element of a list and
    ``*`` for every value of an object: ``benchmarks[].backends.*.seconds``.
    A predicate is a :data:`PREDICATES` name or a tuple of the allowed
    values.  Never raises; each problem is reported once.
    """
    problems = []
    for path, predicate in rules:
        test, wanted = (_one_of(predicate) if isinstance(predicate, tuple)
                        else PREDICATES[predicate])
        steps = path.replace("[]", ".[]").split(".")
        for where, value in _select(document, steps, "", problems):
            if not test(value):
                problems.append("%s is not %s" % (where, wanted))
    return list(dict.fromkeys(problems))


def validate(document):
    """Problems of a bench document (empty = valid): the envelope, then
    its kind's field table, then — when those hold — its cross-field
    rules."""
    if not isinstance(document, dict):
        return ["document is not an object"]
    problems = check(document, ENVELOPE_FIELDS)
    kind = document.get("kind")
    if not (isinstance(kind, str) and kind in KINDS):
        return problems
    producer = importlib.import_module(KINDS[kind])
    problems += check(document, producer.BENCH_FIELDS)
    return problems or producer.bench_problems(document)


def publish(document, path):
    """Write *document* to *path* atomically, creating its directory,
    and return its :func:`validate` problems."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    atomic_write_json(path, document, indent=2, sort_keys=True)
    return validate(document)


def main(paths):
    """Validate the bench documents at *paths*: one summary line each
    on stdout, problems on stderr; 1 when any document has one."""
    if not paths:
        sys.stderr.write("usage: python -m repro.benchmarks.document "
                         "FILE...\n")
        return 2
    status = 0
    for path in paths:
        with open(path) as handle:
            document = json.load(handle)
        problems = validate(document)
        for problem in problems:
            sys.stderr.write("%s: %s\n" % (path, problem))
        fields = document if isinstance(document, dict) else {}
        print("%s: %s, revision %s, %s CPU(s): %s"
              % (path, fields.get("kind"), fields.get("revision"),
                 fields.get("cpu_count"),
                 "%d problem(s)" % len(problems) if problems
                 else "valid"))
        if problems:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
