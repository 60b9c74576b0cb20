"""Run one ``repro`` command in-process with the layer wrappers installed.

::

    python3 perfbench/launch.py LAYERS.json [--plain] -- evaluate --jobs 1

The command's own stdout and stderr pass through unchanged.  When it
returns, LAYERS.json receives the wall time of ``repro.cli.main``, the
per-layer self times and counters of :mod:`layers`, and — when the
command was given ``--trace FILE`` — the counters and span counts of
the program's own trace, for reconciliation.  The exit status is the
command's.

``--plain`` imports every module as the wrapped run does but wraps
nothing: the wall time of that run against the wrapped one is the
tracing overhead, with equal import costs on both sides.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def _program_trace(argv):
    if "--trace" not in argv:
        return None
    from repro.observability import load_trace, summarize_trace
    summary = summarize_trace(load_trace(argv[argv.index("--trace") + 1]))
    return {"counters": summary["counters"],
            "spans": {name: entry["count"]
                      for name, entry in summary["by_name"].items()}}


def main(argv):
    plain = argv[2:3] == ["--plain"]
    separator = 3 if plain else 2
    if len(argv) <= separator + 1 or argv[separator] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, command = argv[1], argv[separator + 1:]
    clock = layers.LayerClock()
    if plain:
        layers.import_all()
    else:
        clock = layers.install()
    from repro import cli
    start = time.perf_counter()
    status = cli.main(command)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    document = clock.snapshot()
    document["wall_s"] = wall
    document["status"] = status
    document["program_trace"] = _program_trace(command)
    with open(out_path, "w") as handle:
        json.dump(document, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
