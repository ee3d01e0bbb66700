"""Benchmark of ncgram: four exact workloads, timed end to end and by layer.

Run from the repository root:

    python3 ncbench/run.py --workload direct-n7 --seed 1 --seconds 15 --trace 0

`--trace 0` runs untraced passes and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics (tracing.py); the tracing overhead is the difference of
their wall times. Every job's output is checked exactly (workloads.py).

A run makes round(seconds / nominal_pass_s) passes, at least one, where
nominal_pass_s is the workload's pass time when the benchmark was written
(spec.json). The pass count, and with it the job-latency percentiles,
therefore do not change when the code gets faster.

Every time reported is speed-corrected (speed.py): a fixed probe of the
benchmark's own runs about twenty times a second while the jobs run, and
each job's seconds are scaled by the reference probe time over the probe
time around it. On a shared 2-core machine the CPU speed swings by tens of
percent within seconds and drifts between runs; the correction takes that
out, while a change of ncgram, which the probe does not call, stays in.
`wall_s` is the median over passes of the pass's corrected job time (checks,
probes and collections excluded); a job's latency is its median over passes.
The comment lines also give the uncorrected medians.

Stdout: one JSON line stamping the environment, one line per metric with
its unit and sample count, and last one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 0 when no job
failed beyond the workload's known defects (spec.json), 1 when more did,
2 when the ncgram sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH / "spec.json").read_text())

#: Seconds the speed probe took on the machine the benchmark was written on;
#: corrected times are seconds at that speed (speed.py).
REFERENCE_PROBE_S = SPEC["reference_probe_s"]

#: Probes that open and close every pass, and that run between two set-ups;
#: within a pass a timer runs one every speed.SAMPLE_EVERY_S seconds.
PROBE_BURST = 4

#: Fresh interpreters timed for `setup_s`, half before the passes and half
#: after them; the median is reported.
SETUPS = 10

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "kernels.det_s": "s",
    "kernels.det_updates_per_s": "1/s",
    "kernels.det_bits": "count",
    "gram.build_gram_s": "s",
    "gram.entries_per_s": "1/s",
    "tutte.build_A_s": "s",
    "tutte.A_entries": "count",
    "tutte.A_entries_per_s": "1/s",
    "partitions.enumerate_s": "s",
    "partitions.enumerated": "count",
    "tutte.strata_s": "s",
    "tutte.recursion_s": "s",
    "tutte.recursion_levels": "count",
    "cli.cache_hit_s": "s",
    "cli.cache_miss_s": "s",
    "cli.cache_hit_ratio": "ratio",
    "cli.symbolic_det_s": "s",
    "cli.rank_s": "s",
    "cli.nc2_det_s": "s",
    "cli.recursion_s": "s",
    "cli.laws_s": "s",
    "cli.enumerate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class JobResult:
    kind: str
    seconds: float  # speed-corrected
    raw: float  # as measured
    ok: bool
    known_defect: bool


@dataclass(frozen=True)
class Pass:
    wall: float  # corrected seconds of all jobs together
    raw_wall: float
    factor: float  # reference probe time over this pass's mean probe time
    results: list[JobResult]


def run_pass(jobs, tracer, workroot: Path) -> Pass:
    """Run every job once, in order; a failed job or check is counted, not raised."""
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    state = {"tracer": tracer, "workdir": workdir}
    # In a traced pass each probe is a span of its own, so no layer's self
    # time includes it.
    timeline = speed.Timeline(call=tracer.span)
    timed = []
    try:
        timeline.sample(PROBE_BURST)
        with timeline.sampling():
            for job in jobs:
                kind, ok, ran = job.kind, False, False
                # Each job starts from an empty collector, as a fresh `ncgram`
                # process would, so its collections do not depend on job order.
                gc.collect()
                began, probing = time.perf_counter(), timeline.spent
                try:
                    out = job.run(state)
                    ran = True
                except Exception:
                    traceback.print_exc()
                ended, probing = time.perf_counter(), timeline.spent - probing
                if ran:
                    try:
                        ok = bool(job.check(state, out))
                        if job.classify is not None:
                            kind = job.classify(out)
                    except Exception:
                        traceback.print_exc()
                out = None  # free large outputs before the next job
                if not ok:
                    print(f"failed: {job.label}", file=sys.stderr)
                timed.append((kind, began, ended, ended - began - probing, ok, job.known_defect))
        timeline.sample(PROBE_BURST)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = []
    for kind, began, ended, raw, ok, known_defect in timed:
        seconds = raw * REFERENCE_PROBE_S / timeline.local(began, ended)
        results.append(JobResult(kind, seconds, raw, ok, known_defect))
    return Pass(
        wall=sum(r.seconds for r in results),
        raw_wall=sum(r.raw for r in results),
        factor=REFERENCE_PROBE_S / timeline.local(-math.inf, math.inf),
        results=results,
    )


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead, as the 100th percentile.
    """
    ordered = sorted(samples)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def timed_setups(workload: str, seed: int, count: int) -> tuple[list[float], list[float]]:
    """(corrected, raw) seconds from starting a fresh interpreter to a built job list.

    Each set-up is corrected by the PROBE_BURST probes run in this process
    just before it and the PROBE_BURST just after it. This process and its
    children keep to one CPU meanwhile, so that probes and set-ups run on the
    same core.
    """
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
        f"import workloads; workloads.WORKLOADS[{workload!r}]({seed})"
    )
    corrected, raw = [], []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        before = [speed.probe() for _ in range(PROBE_BURST)]
        for _ in range(count):
            began = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            raw.append(time.perf_counter() - began)
            after = [speed.probe() for _ in range(PROBE_BURST)]
            corrected.append(raw[-1] * REFERENCE_PROBE_S / speed.capped_mean(before + after))
            before = after
    finally:
        os.sched_setaffinity(0, allowed)
    return corrected, raw


def layer_metrics(tracer, results: list[JobResult], wall: float, factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass; span times are scaled by the pass's speed factor."""
    own = {name: seconds * factor for name, seconds in tracing.self_times(tracer.spans).items()}
    counts = tracer.counts

    def rate(count: str, seconds: float) -> float:
        return counts[count] / seconds if seconds else 0.0

    m = {
        "kernels.det_s": own.get("kernels.det", 0.0),
        "kernels.det_bits": counts["kernels.det_bits"],
        "gram.build_gram_s": own.get("gram.build_gram", 0.0),
        "tutte.build_A_s": own.get("tutte.build_A", 0.0),
        "tutte.A_entries": counts["tutte.A_entries"],
        "partitions.enumerate_s": own.get("partitions.enumerate", 0.0),
        "partitions.enumerated": counts["partitions.enumerated"],
        "tutte.strata_s": own.get("tutte.strata", 0.0),
        "tutte.recursion_s": own.get("tutte.recursion", 0.0),
        "tutte.recursion_levels": counts["tutte.recursion_levels"],
        "trace.wall_s": wall,
    }
    # Computed from the matrix dimension, not counted inside the kernel.
    m["kernels.det_updates_per_s"] = rate("kernels.det_updates", m["kernels.det_s"])
    m["gram.entries_per_s"] = rate("gram.entries", m["gram.build_gram_s"])
    m["tutte.A_entries_per_s"] = rate("tutte.A_entries", m["tutte.build_A_s"])

    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    for name in PER_LAYER:
        if name.startswith("cli.") and name.endswith("_s"):
            samples = by_kind.get(name[: -len("_s")], [])
            m[name] = statistics.median(samples) if samples else 0.0
    hits = len(by_kind.get("cli.cache_hit", []))
    lookups = hits + len(by_kind.get("cli.cache_miss", []))
    m["cli.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return m


def environment() -> dict:
    """What the numbers depend on; results from different backends do not compare."""
    import ncgram

    def imports(name: str) -> bool:
        try:
            importlib.import_module(name)
        except ImportError:
            return False
        return True

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "integer_backend": ncgram.INTEGER_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "gmpy2": imports("gmpy2"),
        "numpy": imports("numpy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "ncgram" / "__init__.py").is_file():
        print(f"error: no ncgram sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = SPEC["workloads"][args.workload]
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    passes = max(1, round(args.seconds / spec["nominal_pass_s"]))
    # A traced run splits its passes between the two kinds, so it takes
    # about as long as an untraced one.
    traced = [i % 2 == 1 for i in range(max(2, passes))] if args.trace else [False] * passes
    workroot = Path(tempfile.mkdtemp(prefix=".ncbench_work-", dir=ROOT))
    untraced, traced_passes, layer, setups, raw_setups = [], [], [], [], []
    try:
        if not args.trace:
            setups, raw_setups = timed_setups(args.workload, args.seed, SETUPS // 2)
        for is_traced in traced:
            if is_traced:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    done = run_pass(jobs, tracer, workroot)
                traced_passes.append(done)
                layer.append(layer_metrics(tracer, done.results, done.wall, done.factor))
            else:
                untraced.append(run_pass(jobs, tracing.Untraced(), workroot))
        if not args.trace:
            more, raw_more = timed_setups(args.workload, args.seed, SETUPS - SETUPS // 2)
            setups, raw_setups = setups + more, raw_setups + raw_more
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    results = [r for done in untraced + traced_passes for r in done.results]
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    known = Fraction(spec["known_failure_share"])
    correct = Fraction(failed, attempted) <= known and all(r.ok or r.known_defect for r in results)
    wall = statistics.median(done.wall for done in untraced)
    raw_wall = statistics.median(done.raw_wall for done in untraced)

    if args.trace:
        # The traced pass of median wall time; a run has one or two.
        walls = [done.wall for done in traced_passes]
        middle = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
        metrics = {name: layer[middle][name] for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        units = PER_LAYER
        notes = {name: f"traced pass of median wall_s, of {len(walls)}" for name in metrics}
        notes["trace.overhead_s"] = (
            f"traced minus median untraced wall_s, {len(untraced)} untraced pass(es)"
        )
    else:
        # Each job's median over the passes, in corrected and raw seconds.
        latency = [statistics.median(c) for c in zip(*([r.seconds for r in d.results] for d in untraced))]
        raw_latency = [statistics.median(c) for c in zip(*([r.raw for r in d.results] for d in untraced))]
        tail_value, tail_pct = tail(latency)
        metrics = {
            "wall_s": wall,
            "job_p50_s": statistics.median(latency),
            "job_tail_s": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
            "ok_ratio": 1 - failed / attempted,
        }
        units = END_TO_END
        per_job = f"of {len(latency)} jobs, each its median of {passes} pass(es)"
        notes = {
            "wall_s": f"median of {passes} pass(es); uncorrected {raw_wall:.6f}",
            "job_p50_s": f"median {per_job}; uncorrected {statistics.median(raw_latency):.6f}",
            "job_tail_s": f"p{tail_pct:.1f} {per_job}; uncorrected {tail(raw_latency)[0]:.6f}",
            "setup_s": f"median of {len(setups)} fresh interpreters; uncorrected {statistics.median(raw_setups):.6f}",
            "peak_rss_mib": "max resident set of this process",
            "ok_ratio": f"1 - failed_ratio; failed_ratio {failed}/{attempted}, known share {known}",
        }

    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed, "passes": passes}))
    for name, value in metrics.items():
        print(f"# {args.workload:15} {name:27} {value:>16.6f} {units[name]:6} {notes[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
