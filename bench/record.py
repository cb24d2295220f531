"""Record the report digests of the default seed.

Usage, from the root of a checkout, only when reports are meant to change:

    python3 bench/record.py

Runs the first RECORDED[workload] documents of each workload's default-seed
stream, untraced, and writes bench/digests/<workload>.json: for each
document in stream order, [content key, report sha256 prefix]. bench/run.py
then fails any default-seed report in that prefix that differs. Each count
is about five times the most reports the seed code completed in one 30 s
run on the reference machine (375, 137 and 786), so every report of a
30 s run is compared even for a program five times faster. Nothing is
written for a workload whose reports fail a check.
"""

from __future__ import annotations

import itertools
import json
import sys

import run
import workloads

RECORDED = {"hodge-general": 1900, "diagonal-groups": 700, "decompose-faces": 4000}


def digest_file(records: list) -> str:
    """JSON text with one recorded document per line."""
    lines = ",\n".join(json.dumps(r) for r in records)
    return f'{{"seed": {workloads.DEFAULT_SEED}, "reports": [\n{lines}\n]}}\n'


def main() -> int:
    modules = run.load_npoly()
    run.DIGESTS.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    status = 0
    for workload in workloads.WORKLOADS:
        result = run.Result()
        path = run.OUT / f"record-{workload}.json"
        stream = workloads.documents(workload, workloads.DEFAULT_SEED)
        for doc in itertools.islice(stream, RECORDED[workload]):
            path.write_text(doc.text(), encoding="utf-8")
            run.run_one(doc, doc.argv(str(path)), modules["cli"], result, None)
        path.unlink(missing_ok=True)
        if result.failed:
            for problem in result.problems[:10]:
                print(problem, file=sys.stderr)
            print(f"{workload}: {result.failed} of {result.attempted} reports failed; "
                  "nothing written", file=sys.stderr)
            status = 1
            continue
        target = run.DIGESTS / f"{workload}.json"
        target.write_text(digest_file(result.records), encoding="utf-8")
        print(f"{workload}: {result.attempted} digests written to {target}")
    return status


if __name__ == "__main__":
    sys.exit(main())
