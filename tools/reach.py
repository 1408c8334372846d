"""Function lines in ``src/repro`` that never run from the given roots.

    python tools/reach.py run DIR -- CMD ...    # run CMD, record what ran in DIR
    python tools/reach.py report DIR [--max N]  # unreached lines per module

``run`` puts a ``sitecustomize`` on ``PYTHONPATH`` whose ``sys.setprofile`` /
``threading.setprofile`` hook logs each ``src/repro`` code object's file and
first line, on first call, to a per-pid file in DIR (forked workers count).
``report`` sums by ``ast`` the lines of top-level functions and methods that
never ran; ``--max N`` exits 1 when the total is above N.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")

HOOK = """import os, sys, threading
roots, out, seen, sink = {roots!r}, {out!r}, set(), [None, None]
def hook(frame, event, arg):
    if event == "call":
        key = (frame.f_code.co_filename, frame.f_code.co_firstlineno)
        if key not in seen:
            seen.add(key)
            if key[0].startswith(roots):
                if sink[0] != os.getpid():
                    sink[:] = [os.getpid(), open(os.path.join(out, "%d" % os.getpid()), "a")]
                print("%s:%d" % key, file=sink[1], flush=True)
sys.setprofile(hook), threading.setprofile(hook)
"""


def run(out, command):
    os.makedirs(out, exist_ok=True)
    hook = HOOK.format(roots=(os.path.abspath(SRC), os.path.realpath(SRC)), out=os.path.abspath(out))
    with tempfile.TemporaryDirectory(prefix="reach-") as hook_dir:
        pathlib.Path(hook_dir, "sitecustomize.py").write_text(hook)
        path = os.pathsep.join(p for p in (hook_dir, os.environ.get("PYTHONPATH")) if p)
        return subprocess.call(command, env=dict(os.environ, PYTHONPATH=path))


def functions(tree):
    """(first line with decorators, line count) of top-level functions/methods."""
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                yield first, fn.end_lineno - first + 1


def report(out, limit=None):
    reached = set()
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as handle:
            for path, _, first in (line.strip().rpartition(":") for line in handle):
                reached.add((os.path.realpath(path), int(first or 0)))
    total = 0
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.realpath(os.path.join(folder, name))
            spans = list(functions(ast.parse(pathlib.Path(path).read_text())))
            missed = sum(n for first, n in spans if (path, first) not in reached)
            total += missed
            if missed:
                print(f"{missed:5d} / {sum(n for _, n in spans):5d}  {os.path.relpath(path, SRC)}")
    print(f"unreached function lines: {total}")
    return 1 if limit is not None and total > limit else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["run"] and args[2:3] == ["--"]:
        sys.exit(run(args[1], args[3:]))
    if args[:1] == ["report"] and len(args) in (2, 4):
        sys.exit(report(args[1], int(args[3]) if args[2:3] == ["--max"] else None))
    sys.exit(__doc__)
