"""Command-line front end: enumeration, Gram determinant/rank jobs,
recursion verification, and law suites.

Output discipline: result JSON goes to stdout and is byte-identical for
a repeated job (no timestamps, no timings in stdout); diagnostics and
timing go to stderr.  Determinant results for numeric parameters can be
cached in an append-only JSON-lines file keyed by
``gram:<class>:<points>:<N>``; a torn (corrupted) line, or one whose
determinant is not a decimal integer, is skipped with a warning and the
value recomputed instead of crashing the run or replaying it.

Exit codes: 0 success, 1 verification/law failure, 2 usage error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ShapeError
from .gram import _check_budget, build_gram, determinant, rank
from .partitions import (
    Partition,
    PartitionClass,
    compose,
    count_partitions,
    enumerate_partitions,
    involution,
    refines,
    tensor,
)
from .tensor_model import check_functor_laws
from .tutte import recursion_trace

_CLASS_BY_FLAG = {
    "nc": PartitionClass.NONCROSSING,
    "all": PartitionClass.ALL,
    "nc2": PartitionClass.NONCROSSING_PAIRS,
}

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass(frozen=True)
class JobConfig:
    command: str
    n: int = 0
    N: int | str = "symbolic"  # numeric parameter or the literal "symbolic"
    cls: str = "nc"
    fmt: str = "json"
    cache_path: str | None = None
    det: bool = False
    rank: bool = False
    verify: bool = False
    max_points: int = 2


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "csv":
        keys = list(obj)
        print(",".join(keys))
        print(",".join(_csv_cell(obj[k]) for k in keys))
    else:
        print(json.dumps(obj))


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# result cache


_DECIMAL_INTEGER = re.compile(r"-?[0-9]+")


def _read_cache(path: str) -> dict[str, str]:
    """Load an append-only JSON-lines cache, tolerating a torn last line."""
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return entries
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


def cmd_enumerate(cfg: JobConfig) -> int:
    cls = _CLASS_BY_FLAG[cfg.cls]
    count = 0
    for p in enumerate_partitions(cfg.n, cls):
        print(p.to_text())
        count += 1
    print(f"count {count}")
    return EXIT_OK


def cmd_gram(cfg: JobConfig) -> int:
    if not cfg.det and not cfg.rank:
        return _usage("gram requires --det and/or --rank")
    if cfg.rank and cfg.N == "symbolic":
        return _usage("--rank requires a numeric --param")

    cls = _CLASS_BY_FLAG[cfg.cls]
    result: dict = {"n": cfg.n, "class": cfg.cls, "N_or_symbolic": cfg.N}

    cache: dict[str, str] = {}
    cache_key = None
    if cfg.cache_path is not None and cfg.det and cfg.N != "symbolic":
        cache_key = f"gram:{cfg.cls}:{cfg.n}:{cfg.N}"
        cache = _read_cache(cfg.cache_path)

    matrix = None

    def built():
        nonlocal matrix
        if matrix is None:
            param = None if cfg.N == "symbolic" else cfg.N
            matrix = build_gram(cfg.n, cls, param)
        return matrix

    if cfg.det:
        if cache_key is not None and cache_key in cache:
            result["det"] = cache[cache_key]
            print(f"cache hit for {cache_key}", file=sys.stderr)
        else:
            started = time.perf_counter()
            value = determinant(built())
            elapsed_ms = int(1000 * (time.perf_counter() - started))
            print(f"determinant computed in {elapsed_ms} ms", file=sys.stderr)
            if cfg.N == "symbolic":
                result["det"] = list(value.coeffs)
            else:
                result["det"] = _decimal_text(value)
                if cache_key is not None:
                    _append_cache(cfg.cache_path, cache_key, result["det"])

    if cfg.rank:
        result["rank"] = rank(built())

    _emit(result, cfg.fmt)
    return EXIT_OK


def cmd_recursion(cfg: JobConfig) -> int:
    if cfg.N == "symbolic":
        return _usage("recursion requires a numeric --param")
    if cfg.verify:
        # the direct route needs one row per NC(n) partition; refuse before
        # the recursion rather than after it
        _check_budget(count_partitions(cfg.n, PartitionClass.NONCROSSING))
    value, trace = recursion_trace(cfg.n, cfg.N)
    result: dict = {
        "n": cfg.n,
        "N": cfg.N,
        "det": _fraction_text(value),
        "trace": trace,
    }
    if cfg.verify:
        direct = determinant(build_gram(cfg.n, PartitionClass.NONCROSSING, cfg.N))
        result["direct"] = _decimal_text(direct)
        result["status"] = "ok" if value == direct else "mismatch"
        _emit(result, cfg.fmt)
        return EXIT_OK if value == direct else EXIT_VERIFY
    _emit(result, cfg.fmt)
    return EXIT_OK


def _decimal_text(value: int) -> str:
    """Decimal digits of an integer of any length.

    str() refuses integers past 4300 digits (sys.int_max_str_digits);
    Decimal converts exactly and is not subject to that limit.
    """
    return str(decimal.Decimal(value))


def _fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return _decimal_text(value.numerator)
    return f"{_decimal_text(value.numerator)}/{_decimal_text(value.denominator)}"


def cmd_laws(cfg: JobConfig) -> int:
    if cfg.N == "symbolic":
        return _usage("laws requires a numeric --param")
    reports = check_functor_laws(cfg.N, cfg.max_points)
    reports.extend(_partition_invariants())
    failures = sum(1 for r in reports if r["status"] != "pass")
    summary = {
        "N": cfg.N,
        "max_points": cfg.max_points,
        "checks": len(reports),
        "failures": failures,
        "reports": reports,
    }
    _emit(summary, cfg.fmt)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _partition_invariants() -> list[dict]:
    """Small exhaustive diagram-calculus checks on one-row partitions."""
    reports = []

    def record(check: str, cases: int, ok: bool) -> None:
        reports.append({"law": check, "cases": cases, "status": "pass" if ok else "fail"})

    cases = (
        [(n, PartitionClass.NONCROSSING) for n in range(7)]
        + [(n, PartitionClass.ALL) for n in range(6)]
        + [(2 * n, PartitionClass.NONCROSSING_PAIRS) for n in range(4)]
    )
    ok = all(len(enumerate_partitions(n, cls)) == count_partitions(n, cls) for n, cls in cases)
    record("enumeration-counts", len(cases), ok)

    pool = [p for n in range(6) for p in enumerate_partitions(n, PartitionClass.ALL)]
    record("involution-squared", len(pool), all(involution(involution(p)) == p for p in pool))
    record(
        "text-roundtrip", len(pool), all(Partition.from_text(p.to_text()) == p for p in pool)
    )
    ok = all(
        compose(Partition.identity(p.lower), p) == (p, 0) for p in pool if p.lower > 0
    )
    record("identity-neutral", sum(1 for p in pool if p.lower > 0), ok)
    e = Partition.empty()
    record("tensor-unit", len(pool), all(tensor(p, e) == p and tensor(e, p) == p for p in pool))
    ok = all(
        refines(Partition.singletons(p.lower), p) and refines(p, Partition.one_block(p.lower))
        for p in pool
        if p.lower > 0
    )
    record("refinement-bounds", sum(1 for p in pool if p.lower > 0), ok)
    return reports


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgram",
        description="Exact Gram-matrix calculus for two-row partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, points: bool = True) -> None:
        if points:
            p.add_argument("--points", type=int, required=True, help="number of lower points")
        p.add_argument(
            "--class",
            dest="cls",
            choices=sorted(_CLASS_BY_FLAG),
            default="nc",
            help="partition class (default: nc)",
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument("--param", type=int, help="numeric loop parameter N")
        group.add_argument(
            "--symbolic", action="store_true", help="work over polynomials in N"
        )
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        p.add_argument("--cache", dest="cache_path", help="append-only JSON-lines result cache")

    p_enum = sub.add_parser("enumerate", help="stream a partition class in canonical text form")
    add_common(p_enum)

    p_gram = sub.add_parser("gram", help="build a Gram matrix and compute det/rank")
    add_common(p_gram)
    p_gram.add_argument("--det", action="store_true", help="compute the exact determinant")
    p_gram.add_argument("--rank", action="store_true", help="compute the exact rank")

    p_rec = sub.add_parser("recursion", help="stratified determinant recursion with trace")
    add_common(p_rec)
    p_rec.add_argument(
        "--verify", action="store_true", help="compare against the direct determinant"
    )

    p_laws = sub.add_parser("laws", help="run the functor-law and partition invariant suites")
    add_common(p_laws, points=False)
    p_laws.add_argument(
        "--max-points", type=int, default=2, help="per-row size bound for the law suite"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    if getattr(args, "symbolic", False):
        N: int | str = "symbolic"
    elif getattr(args, "param", None) is not None:
        N = args.param
    else:
        N = "symbolic" if args.command == "gram" else 2
    return JobConfig(
        command=args.command,
        n=getattr(args, "points", 0),
        N=N,
        cls=args.cls,
        fmt=args.fmt,
        cache_path=args.cache_path,
        det=getattr(args, "det", False),
        rank=getattr(args, "rank", False),
        verify=getattr(args, "verify", False),
        max_points=getattr(args, "max_points", 2),
    )


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "gram": cmd_gram,
    "recursion": cmd_recursion,
    "laws": cmd_laws,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    if cfg.n < 0:
        return _usage("--points must be non-negative")
    if cfg.N != "symbolic" and cfg.N < 1:
        return _usage("--param must be a positive integer")
    try:
        return _COMMANDS[cfg.command](cfg)
    except BudgetError as exc:
        print(f"error: resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ShapeError) as exc:
        return _usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
