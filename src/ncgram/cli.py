"""Command-line front end: enumeration, Gram determinant/rank jobs,
recursion verification, and law suites.

Each subcommand declares only the flags it reads and is bound to its
``cmd_*`` function, which reads the parsed namespace directly:

- ``enumerate``: ``--points``, ``--class``;
- ``gram``: ``--points``, ``--class``, ``--param`` or ``--symbolic``,
  ``--det``, ``--rank``, ``--format``, ``--cache``;
- ``recursion``: ``--points``, ``--param``, ``--format``, ``--verify``;
- ``laws``: ``--param``, ``--format``, ``--max-points``.

A flag that a command does not take is a usage error.

Output discipline: result JSON goes to stdout and is byte-identical for
a repeated job (no timestamps, no timings in stdout); diagnostics and
timing go to stderr.  ``--format csv`` writes a header row and a value
row with the ``csv`` module, a list or dict cell as compact JSON.
Determinant results for numeric parameters can be
cached in an append-only JSON-lines file keyed by
``gram:<class>:<points>:<N>``; a torn (corrupted) line, or one whose
determinant is not a decimal integer, is skipped with a warning and the
value recomputed instead of crashing the run or replaying it. A cache
path that cannot be opened for appending is a usage error, found before
the matrix is built.

Exit codes: 0 success, 1 verification/law failure, 2 usage error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import time

from .errors import BudgetError, ShapeError
from .gram import _check_class_budget, build_gram, determinant, rank
from .partitions import PartitionClass, iter_partitions
from .polynomials import _decimal_text
from .tensor_model import _partition_invariants, check_functor_laws
from .tutte import recursion_trace

_CLASS_BY_FLAG = {
    "nc": PartitionClass.NONCROSSING,
    "all": PartitionClass.ALL,
    "nc2": PartitionClass.NONCROSSING_PAIRS,
}

#: Partitions `enumerate` may list; a larger class is refused (exit 3)
#: before the first is generated. It admits NC up to 13 points (742,900),
#: ALL up to 11 (678,570) and NC2 up to 26 (742,900). The partitions are
#: printed as they are generated, so memory does not grow with the class:
#: at those limits the job took 2.0 s (NC), 1.7 s (ALL) and 3.4 s (NC2),
#: each at a 17 MiB peak, of which importing ncgram takes 16 MiB, with
#: stdout to /dev/null (2-core AMD EPYC, Python 3.11). The time is what
#: the budget bounds.
ENUMERATE_BUDGET = 10**6

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(obj)
        writer.writerow(_csv_cell(value) for value in obj.values())
    else:
        print(json.dumps(obj))


def _csv_cell(value):
    """A list or dict as compact JSON, which the writer quotes; any other
    value as it is."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return value


# ---------------------------------------------------------------------------
# result cache


_DECIMAL_INTEGER = re.compile(r"-?[0-9]+")


def _read_cache(path: str) -> dict[str, str]:
    """Load an append-only JSON-lines cache, tolerating a torn last line.

    The file is opened for appending, and created if it is missing, so a
    path the job could not append its result to (a directory, a missing
    directory, no write permission) is a usage error before any work.
    """
    entries: dict[str, str] = {}
    try:
        with open(path, "a+", encoding="utf-8") as fh:
            fh.seek(0)
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cache: {path}: {exc.strerror}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key = record["key"]
            det = record["det"]
            if not (isinstance(det, str) and _DECIMAL_INTEGER.fullmatch(det)):
                raise ValueError(det)
        except (ValueError, KeyError, TypeError):
            where = "trailing" if lineno == len(lines) else f"line {lineno}"
            print(f"warning: cache: ignoring corrupted {where} entry", file=sys.stderr)
            continue
        entries[str(key)] = det
    return entries


def _append_cache(path: str, key: str, det: str) -> None:
    """Append one entry in a single write on an O_APPEND descriptor, so
    concurrent writers cannot interleave parts of their lines."""
    line = json.dumps({"key": key, "det": det, "ts": int(time.time())}) + "\n"
    data = line.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"cache: short write to {path} ({written} of {len(data)} bytes)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args: argparse.Namespace) -> int:
    cls = _CLASS_BY_FLAG[args.cls]
    _check_class_budget(args.points, cls, ENUMERATE_BUDGET)
    count = 0
    for p in iter_partitions(args.points, cls):
        print(p.to_text())
        count += 1
    print(f"count {count}")
    return EXIT_OK


def cmd_gram(args: argparse.Namespace) -> int:
    if not args.det and not args.rank:
        return _usage("gram requires --det and/or --rank")
    N = args.param  # None: symbolic, with or without --symbolic
    if args.rank and N is None:
        return _usage("--rank requires a numeric --param")

    result: dict = {
        "n": args.points,
        "class": args.cls,
        "N_or_symbolic": "symbolic" if N is None else N,
    }
    cache_key = f"gram:{args.cls}:{args.points}:{N}"
    caching = args.cache is not None and N is not None
    cached = _read_cache(args.cache).get(cache_key) if caching and args.det else None
    if (args.det and cached is None) or args.rank:  # a miss or --rank needs it
        matrix = build_gram(args.points, _CLASS_BY_FLAG[args.cls], N)

    if cached is not None:
        result["det"] = cached
        print(f"cache hit for {cache_key}", file=sys.stderr)
    elif args.det:
        started = time.perf_counter()
        value = determinant(matrix)
        elapsed_ms = int(1000 * (time.perf_counter() - started))
        print(f"determinant computed in {elapsed_ms} ms", file=sys.stderr)
        if N is None:
            result["det"] = list(value.coeffs)
        else:
            result["det"] = _decimal_text(value)
            if caching:
                _append_cache(args.cache, cache_key, result["det"])

    if args.rank:
        result["rank"] = rank(matrix)

    _emit(result, args.format)
    return EXIT_OK


def cmd_recursion(args: argparse.Namespace) -> int:
    if args.verify:
        # the direct route needs one row per NC(n) partition; refuse before
        # the recursion rather than after it
        _check_class_budget(args.points, PartitionClass.NONCROSSING)
    value, trace = recursion_trace(args.points, args.param)
    result: dict = {"n": args.points, "N": args.param, "det": _decimal_text(value), "trace": trace}
    if args.verify:
        direct = determinant(build_gram(args.points, PartitionClass.NONCROSSING, args.param))
        result["direct"] = _decimal_text(direct)
        result["status"] = "ok" if value == direct else "mismatch"
        _emit(result, args.format)
        return EXIT_OK if value == direct else EXIT_VERIFY
    _emit(result, args.format)
    return EXIT_OK


def cmd_laws(args: argparse.Namespace) -> int:
    reports = check_functor_laws(args.param, args.max_points) + _partition_invariants()
    failures = sum(1 for r in reports if r["status"] != "pass")
    summary = {"N": args.param, "max_points": args.max_points, "checks": len(reports)}
    summary.update(failures=failures, reports=reports)
    _emit(summary, args.format)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process; every
    parse_args call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="ncgram",
        description="Exact Gram-matrix calculus for two-row partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    points_help = "number of lower points"
    class_help = "partition class (default: nc)"
    param_help = "numeric loop parameter N"
    classes = sorted(_CLASS_BY_FLAG)
    formats = ["json", "csv"]

    p = sub.add_parser("enumerate", help="stream a partition class in canonical text form")
    p.add_argument("--points", type=int, required=True, help=points_help)
    p.add_argument("--class", dest="cls", choices=classes, default="nc", help=class_help)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("gram", help="build a Gram matrix and compute det/rank")
    p.add_argument("--points", type=int, required=True, help=points_help)
    p.add_argument("--class", dest="cls", choices=classes, default="nc", help=class_help)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--param", type=int, help=param_help + " (default: symbolic)")
    group.add_argument("--symbolic", action="store_true", help="work over polynomials in N")
    p.add_argument("--det", action="store_true", help="compute the exact determinant")
    p.add_argument("--rank", action="store_true", help="compute the exact rank")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--cache", help="append-only JSON-lines result cache")
    p.set_defaults(run=cmd_gram)

    p = sub.add_parser("recursion", help="stratified determinant recursion with trace")
    p.add_argument("--points", type=int, required=True, help=points_help)
    p.add_argument("--param", type=int, required=True, help=param_help)
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument(
        "--verify", action="store_true", help="compare against the direct determinant"
    )
    p.set_defaults(run=cmd_recursion)

    p = sub.add_parser("laws", help="run the functor-law and partition invariant suites")
    p.add_argument("--param", type=int, default=2, help=param_help + " (default: 2)")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument(
        "--max-points", type=int, default=2, help="per-row size bound for the law suite"
    )
    p.set_defaults(run=cmd_laws)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "points", 0) < 0:
        return _usage("--points must be non-negative")
    if getattr(args, "param", None) is not None and args.param < 1:
        return _usage("--param must be a positive integer")
    try:
        return args.run(args)
    except BudgetError as exc:
        print(f"error: resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ShapeError) as exc:
        return _usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
