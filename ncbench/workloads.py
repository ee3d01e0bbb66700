"""The benchmark workloads: their jobs, inputs and exact checks.

Each workload is a list of jobs that one client runs in order in one
process: a closed loop, the next job starts when the previous one returns.
A job's `run` is timed; its `check` compares the output, untimed, with a
value reached by an independent route and returns False on any mismatch.
No check uses `assert`, so `python -O` cannot strip them.

Only `cli-mix` depends on the seed; the other three are fixed problems.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ncgram import cli, formulas, gram, partitions, tutte
from ncgram.partitions import PartitionClass

NC = PartitionClass.NONCROSSING

#: Recursion values when the benchmark was written, pinned by the SHA-256 of
#: "<num hex>/<den hex>".
#: Hex, because decimal str() of these values exceeds Python's default
#: 4300-digit limit from 9 points on.
PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())["recursion_det"]

#: cli-mix cache design: this many distinct keys, looked up this many times
#: per pass; the first lookup of a key misses, every later one hits. Hits
#: are more than half of all cli-mix jobs, so `job_p50_s` is always a hit,
#: whatever the seed draws.
CACHE_KEYS = 6
CACHE_LOOKUPS = 36


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    run: Callable[[dict], object]  # timed; receives the per-pass state
    check: Callable[[dict, object], bool]  # untimed exact check of run's output
    known_defect: bool = False  # a known CLI defect; its share is in spec.json
    classify: Callable[[object], str] | None = None  # reported kind, from the output


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the triangle recurrence."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def matches_pin(value: Fraction, n: int, N: int) -> bool:
    text = f"{value.numerator:x}/{value.denominator:x}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return value != 0 and digest == PINNED[f"{n},{N}"]["sha256"]


def int_from_decimal(text: str) -> int:
    """Parse a decimal integer of any length without lifting the str/int limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def fraction_from_text(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int_from_decimal(num), int_from_decimal(den) if den else 1)


def strata(parts, n: int) -> tuple[list[int], list[int]]:
    """(|W(n,r)|)_{r=0..n} and (|Y(n,r)|)_{r<n}, sorting every partition with in_W."""
    w = [0] * (n + 1)
    y = [0] * n
    for p in parts:
        member = [tutte.in_W(p, r) for r in range(n + 1)]
        for r in range(n + 1):
            w[r] += member[r]
        for r in range(n):
            y[r] += member[r] and not member[r + 1]
    return w, y


# ---------------------------------------------------------------------------
# direct-n7: enumerate -> build_gram -> Bareiss determinant


def direct_n7(seed: int) -> list[Job]:
    expected = tutte.recursion_det(7, 4)

    def run(state):
        parts = partitions.enumerate_partitions(7, NC)
        matrix = gram.build_gram(7, NC, 4)
        return len(parts), matrix.nrows, gram.determinant(matrix)

    def check(state, out):
        count, size, det = out
        return count == size == catalan(7) and det == expected

    return [Job("direct.gram_det", "gram --points 7 --param 4 --det", run, check)]


# ---------------------------------------------------------------------------
# levels-n7: every level matrix A(7, r) and the Gram matrix, no elimination


def levels_n7(seed: int) -> list[Job]:
    def level(r: int) -> Job:
        def run(state):
            matrix = tutte.build_A(7, r, 4)
            sizes = len(tutte.y_stratum(7, r)), len(tutte.w_stratum(7, r + 1))
            if r == 0:
                state["A0"] = matrix
            return matrix, sizes

        def check(state, out):
            matrix, (y, w) = out
            ok = matrix.nrows == matrix.ncols == y + w
            return ok and (r != 6 or matrix.entries == ((4**4,),))

        return Job("levels.build_A", f"build_A(7, {r}, 4)", run, check)

    def run_gram(state):
        return gram.build_gram(7, NC, 4)

    def check_gram(state, matrix):
        # A(7, 0) lists Y(7, 0) first, so entries are compared by label.
        a0 = state["A0"]
        index = {p: i for i, p in enumerate(matrix.row_labels)}
        at = [index[p] for p in a0.row_labels]
        return len(at) == matrix.nrows and all(
            a0.entries[i][j] == matrix.entries[at[i]][at[j]]
            for i in range(len(at))
            for j in range(len(at))
        )

    return [level(r) for r in range(7)] + [
        Job("levels.build_gram", "build_gram(7, nc, 4)", run_gram, check_gram)
    ]


# ---------------------------------------------------------------------------
# recursion-deep: recursion_trace past the reach of direct elimination


def recursion_deep(seed: int) -> list[Job]:
    # W counts of the lower levels every trace descends through.
    lower = {m: strata(partitions.enumerate_partitions(m, NC), m)[0] for m in range(1, 8)}

    def sort(n: int) -> Job:
        def run(state):
            parts = partitions.enumerate_partitions(n, NC)
            w, y = state["tracer"].span("tutte.strata", strata, parts, n)
            state.setdefault("W", dict(lower))[n] = w
            return len(parts), y

        def check(state, out):
            count, y = out
            return count == sum(y) == catalan(n)

        return Job("deep.strata", f"enumerate_partitions({n}, nc) + in_W", run, check)

    def recurse(n: int, N: int) -> Job:
        def run(state):
            return tutte.recursion_trace(n, N)

        def check(state, out):
            value, trace = out
            w = state["W"]
            exponents_ok = all(
                step["exponent"] == w[step["level_n"]][step["r"] + 1]
                for step in trace
                if "exponent" in step
            )
            return exponents_ok and matches_pin(value, n, N)

        return Job("deep.recursion_trace", f"recursion_trace({n}, {N})", run, check)

    jobs = []
    for n in (8, 9, 10):
        jobs.append(sort(n))
        jobs.extend(recurse(n, N) for N in (4, 5))
    return jobs


# ---------------------------------------------------------------------------
# cli-mix: a seeded batch of in-process `ncgram` invocations


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """ncgram.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _cli_job(kind: str, argv: list, check, known_defect=False, classify=None, cache=False) -> Job:
    argv = [str(a) for a in argv]

    def run(state):
        extra = ["--cache", str(state["workdir"] / "cache.jsonl")] if cache else []
        return run_cli(argv + extra)

    def checked(state, out):
        rc, stdout, _ = out
        return rc == 0 and check(stdout)

    label = "ncgram " + " ".join(argv) + (" --cache" if cache else "")
    return Job(kind, label, run, checked, known_defect, classify)


def _det_is(expected: Fraction):
    return lambda stdout: fraction_from_text(json.loads(stdout)["det"]) == expected


def _symbolic_det_is(n: int):
    expected = {N: tutte.recursion_det(n, N) for N in (4, 5)}

    def check(stdout):
        coeffs = json.loads(stdout)["det"]
        return all(
            sum(c * N**k for k, c in enumerate(coeffs)) == value for N, value in expected.items()
        )

    return check


def _rank_is(n: int, N: int):
    expected = sum(stirling2(n, k) for k in range(min(n, N) + 1))
    return lambda stdout: json.loads(stdout)["rank"] == expected


def _pinned_recursion(n: int, N: int):
    return lambda stdout: matches_pin(fraction_from_text(json.loads(stdout)["det"]), n, N)


def _enumerated(n: int):
    def check(stdout):
        lines = stdout.splitlines()
        return lines[-1] == f"count {catalan(n)}" and len(lines) == catalan(n) + 1

    return check


def _cache_outcome(out) -> str:
    return "cli.cache_hit" if "cache hit for" in out[2] else "cli.cache_miss"


def cli_mix(seed: int) -> list[Job]:
    """The seeded CLI batch: fixed counts per job kind, seeded parameters and order.

    The heavy jobs of each kind have fixed parameters, so the seed moves the
    order and the light jobs but hardly the pass's cost. The 12 heaviest
    jobs are fixed, and the 11th of them, where `job_tail_s` lands, is in a
    cluster of 0.3-0.45 s jobs (n = 6 rank, determinants and verify,
    recursion at 9 points).
    """
    rng = random.Random(seed)
    jobs: list[Job] = []

    light = [(n, N) for n in (3, 4, 5) for N in (4, 5, 6, 7)]
    heavy = [(6, 4), (6, 5), (6, 6)]
    keys = heavy + rng.sample(light, CACHE_KEYS - len(heavy))
    lookups = keys + [rng.choice(keys) for _ in range(CACHE_LOOKUPS - CACHE_KEYS)]
    for n, N in lookups:
        argv = ["gram", "--points", n, "--param", N, "--det"]
        check = _det_is(tutte.recursion_det(n, N))
        jobs.append(_cli_job("cli.cache_det", argv, check, classify=_cache_outcome, cache=True))

    for n in [5] + [rng.choice((2, 3, 4)) for _ in range(2)]:
        argv = ["gram", "--points", n, "--symbolic", "--det"]
        jobs.append(_cli_job("cli.symbolic_det", argv, _symbolic_det_is(n)))

    ranks = [(6, 3), (6, 2)] + [(rng.choice((3, 4, 5)), rng.choice((2, 3))) for _ in range(2)]
    for n, N in ranks:
        argv = ["gram", "--points", n, "--class", "all", "--param", N, "--rank"]
        jobs.append(_cli_job("cli.rank", argv, _rank_is(n, N)))

    for points, N in [(10, 4), (8, rng.randint(2, 6)), (6, rng.randint(2, 6))]:
        argv = ["gram", "--points", points, "--class", "nc2", "--param", N, "--det"]
        jobs.append(_cli_job("cli.nc2_det", argv, _det_is(formulas.difrancesco_det(points // 2, N))))

    verifies = [(6, 4)] + [(rng.randint(1, 5), rng.randint(4, 7)) for _ in range(3)]
    for n, N in verifies:
        argv = ["recursion", "--points", n, "--param", N, "--verify"]
        jobs.append(_cli_job("cli.recursion", argv, lambda s: json.loads(s)["status"] == "ok"))

    # Known defect: these compute the value, then exit 2 because
    # the CLI prints it with str(), past the 4300-digit conversion limit.
    for n in (9, 10):
        argv = ["recursion", "--points", n, "--param", 4]
        jobs.append(_cli_job("cli.recursion", argv, _pinned_recursion(n, 4), known_defect=True))

    for n in [9] + [rng.randint(0, 8) for _ in range(5)]:
        jobs.append(_cli_job("cli.enumerate", ["enumerate", "--points", n], _enumerated(n)))

    argv = ["laws", "--param", 2, "--max-points", 2]
    jobs.append(_cli_job("cli.laws", argv, lambda s: json.loads(s)["failures"] == 0))

    rng.shuffle(jobs)
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "direct-n7": direct_n7,
    "levels-n7": levels_n7,
    "recursion-deep": recursion_deep,
    "cli-mix": cli_mix,
}
