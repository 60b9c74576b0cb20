"""Reference answers the benchmark checks the program's outputs against.

Each reference comes from the program's own single-shot path, run in a
separate, clean process with a private cache, never from the run being
measured::

    python3 perfbench/oracle.py search OUT.json
    python3 perfbench/oracle.py serve TEMPLATES.json CACHE_DIR OUT.json

``search`` enumerates every or-parallel search workload on the
sequential reference engine (``sequential_answers``).  ``serve``
computes the single-shot result of every request template with
``serve.loadtest.reference_results`` and writes the canonical JSON text
of each, in template order.
"""

import json
import sys


def search_references():
    from repro.experiments.orparallel_bench import SEARCH_WORKLOADS
    from repro.interp.orparallel import sequential_answers
    references = {}
    for name, workload in sorted(SEARCH_WORKLOADS.items()):
        oracle = sequential_answers(workload["source"], workload["goal"])
        references[name] = {
            "goal": workload["goal"],
            "source": workload["source"],
            "answers": oracle["answers"],
            "output": oracle["output"],
            "count": oracle["count"],
        }
    return references


def serve_references(templates, cache_root):
    from repro.serve.loadtest import reference_results
    from repro.serve.ops import canonical_json, parse_request
    by_spec = reference_results(templates, cache_root)
    return [by_spec[canonical_json(parse_request(t["op"], t["body"])[0])]
            for t in templates]


def main(argv):
    if len(argv) == 3 and argv[1] == "search":
        document = search_references()
        out_path = argv[2]
    elif len(argv) == 5 and argv[1] == "serve":
        with open(argv[2]) as handle:
            templates = json.load(handle)
        document = serve_references(templates, argv[3])
        out_path = argv[4]
    else:
        sys.stderr.write(__doc__)
        return 2
    with open(out_path, "w") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
