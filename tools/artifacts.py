"""Record the paper artifacts as canonical JSON, and compare two records.

    python tools/artifacts.py record DIR   # experiments all --scale smoke --seed 0
    python tools/artifacts.py compare A B  # exit 1 on any difference, 2 on
                                           # records made at other thread counts

``record`` runs the CLI's own ``run_experiment("all", "smoke", "", 0)``
from the ``repro`` on ``PYTHONPATH`` and keeps every ``ExperimentResult``
it prints, so a checkout whose ``run_experiment`` returns nothing records
the same way.  Each result keeps ``experiment_id``, ``title``,
``columns``, ``rows``, ``series`` and ``notes``; row values under
``wall_s`` / ``wall_clock_s*`` are dropped, and so is every other field
(``runtime`` included).  ``DIR/artifacts.json`` holds the ordered list.
``compare`` is exact over that list: no tolerance, since both records
come from one machine.

The last bits of some artifacts (Table IX) depend on the BLAS thread
count, so ``record`` also writes the ``OPENBLAS/OMP/MKL_NUM_THREADS``
values it ran under (``null`` when unset) to ``DIR/threads.json``, and
``compare`` refuses, with exit status 2, two records whose settings
differ or are missing, before it compares any row.  Pin all three to
``1``, as ``bench`` does.
"""

import contextlib
import io
import json
import os
import sys

FIELDS = ("experiment_id", "title", "columns", "rows", "series", "notes")
RECORD = "artifacts.json"
THREADS = "threads.json"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timing(key):
    return key == "wall_s" or key.startswith("wall_clock_s")


def canonical(result):
    payload = {field: getattr(result, field) for field in FIELDS}
    payload["columns"] = list(payload["columns"])
    payload["rows"] = [
        {key: value for key, value in row.items() if not _timing(key)}
        for row in payload["rows"]
    ]
    return payload


def record(out):
    from repro.experiments import cli
    from repro.experiments.results import ExperimentResult

    printed = []
    original = ExperimentResult.print
    ExperimentResult.print = lambda result: printed.append(canonical(result))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_experiment("all", "smoke", "", 0)
    finally:
        ExperimentResult.print = original
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, RECORD), "w") as handle:
        json.dump(printed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out, THREADS), "w") as handle:
        json.dump({name: os.environ.get(name) for name in THREAD_VARIABLES}, handle)
        handle.write("\n")
    print(f"recorded {len(printed)} artifacts to {os.path.join(out, RECORD)}")
    return 0


def _load(directory, name=RECORD):
    with open(os.path.join(directory, name)) as handle:
        return json.load(handle)


def _threads(directory):
    try:
        return _load(directory, THREADS)
    except FileNotFoundError:
        return None


def _text(value):
    # Text, not objects: a NaN read back is not equal to itself.
    return json.dumps(value, sort_keys=True)


def compare(a, b):
    threads = _threads(a), _threads(b)
    if None in threads or threads[0] != threads[1]:
        print(
            f"BLAS thread settings differ or are missing: {a} ran under "
            f"{threads[0]}, {b} under {threads[1]}; records agree only at one "
            "thread count"
        )
        return 2
    left, right = _load(a), _load(b)
    failures = []
    if len(left) != len(right):
        failures.append(f"{len(left)} artifacts in {a}, {len(right)} in {b}")
    for index, (x, y) in enumerate(zip(left, right)):
        if _text(x) != _text(y):
            keys = [field for field in FIELDS if _text(x[field]) != _text(y[field])]
            failures.append(
                f"#{index} {x['experiment_id']!r} / {y['experiment_id']!r}: "
                f"{', '.join(keys)} differ"
            )
    for failure in failures:
        print(failure)
    if failures:
        return 1
    print(f"{len(left)} artifacts identical")
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "record":
        return record(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
