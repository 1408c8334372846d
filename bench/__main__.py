"""``python3 -m bench {run,all,repeat}`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import sys

from . import run as runs
from .harness import NOMINAL_WINDOW_S
from .workloads import WORKLOADS

DEFAULT_SEED = 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=NOMINAL_WINDOW_S,
                        help="nominal measuring window; sets the sample count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("run", help="run one workload")
    one.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # `--trace` alone or `--trace 1`: the per-layer run; the driver passes 0|1.
    one.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    _add_common(one)

    every = commands.add_parser("all", help="run the four workloads")
    every.add_argument("--trace", action="store_true",
                       help="also make the traced per-layer run of each")
    _add_common(every)

    repeat = commands.add_parser("repeat", help="two alternating sets on one commit")
    repeat.add_argument("--sets", type=int, default=2)
    repeat.add_argument("--runs", type=int, default=3)
    repeat.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="restrict to these workloads (default: all)")
    _add_common(repeat)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            result = runs.run_workload(args.workload, args.seed, args.seconds, args.trace)
            runs.print_result(result)
            return 0 if result["driver"]["correct"] else 1
        if args.command == "all":
            ok = True
            for name in WORKLOADS:
                for trace in (0, 1) if args.trace else (0,):
                    result = runs.run_workload(name, args.seed, args.seconds, trace)
                    runs.print_result(result)
                    ok = ok and result["driver"]["correct"]
            return 0 if ok else 1
        from .repeat import repeat_suite

        return repeat_suite(
            args.workload or list(WORKLOADS), args.sets, args.runs, args.seed, args.seconds
        )
    except runs.ChildFailed as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
