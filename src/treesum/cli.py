"""Command line front end.

Verbs:

* ``treesum run <scenario.json>`` loads and runs a scenario file, prints the
  report as JSON, and exits 0 only when every certificate and audit passed.
* ``treesum selftest`` runs every bundled scenario and prints one line each.
* ``treesum list-ops`` prints the dispatchable operation names.

Exit codes: 0 pass, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .scenario import (
    RunFlags,
    ScenarioError,
    emit,
    list_ops,
    load_scenario,
    render_report,
    run,
    run_selftest,
)

log = logging.getLogger(__name__)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _parse_folds(text: str) -> tuple[int, ...]:
    # accepts "0..3" or a comma list like "0,2,3"
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            folds = tuple(range(int(lo), int(hi) + 1))
        else:
            folds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad fold range {text!r}; use like '0..3' or '0,2'"
        ) from None
    if not folds:
        raise argparse.ArgumentTypeError(f"bad fold range {text!r}; the range is empty")
    if any(b < 0 for b in folds):
        raise argparse.ArgumentTypeError(
            f"bad fold range {text!r}; folds must be nonnegative"
        )
    return folds


def _horizon_cap(text: str) -> int:
    # a cap below 1 would skip the exhaustive check on every request, which
    # is what --no-exhaustive is for
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"bad horizon cap {text!r}; use an integer of at least 1"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesum",
        description="Run tree shrink scenarios and verify their witnesses.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument(
        "--horizon-cap", type=_horizon_cap, default=RunFlags.horizon_cap, metavar="N",
        help="exhaustive checks only run when the horizon is at most N "
             "(default %(default)s)",
    )
    p_run.add_argument(
        "--folds", type=_parse_folds, default=RunFlags.folds, metavar="RANGE",
        help="fold counts to verify, like '0..3' or '0,2' (default "
             + ",".join(map(str, RunFlags.folds)) + ")",
    )
    p_run.add_argument(
        "--no-exhaustive", action="store_true",
        help="skip the exhaustive point-level cross-check",
    )
    p_run.add_argument(
        "--deterministic", action="store_true",
        help="omit timestamps and timings so reports are byte-identical",
    )
    p_run.add_argument(
        "--out", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )

    sub.add_parser("selftest", help="run every bundled scenario")
    sub.add_parser("list-ops", help="print the operation names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.verb == "list-ops":
        for name in list_ops():
            print(name)
        return EXIT_PASS

    if args.verb == "selftest":
        ok, lines = run_selftest()
        for line in lines:
            print(line)
        print("selftest:", "pass" if ok else "FAIL")
        return EXIT_PASS if ok else EXIT_FAIL

    flags = RunFlags(
        folds=args.folds,
        horizon_cap=args.horizon_cap,
        exhaustive=not args.no_exhaustive,
        deterministic=args.deterministic,
    )
    try:
        scenario = load_scenario(args.scenario)
        report = run(scenario, flags)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        emit(report, args.out)
        print(f"{report.name}: {'pass' if report.passed else 'FAIL'}")
    else:
        sys.stdout.write(render_report(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
