"""Fast tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q ncbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def test_same_seed_same_cli_mix_jobs():
    def listing(seed):
        return [(j.kind, j.label) for j in workloads.cli_mix(seed)]

    assert listing(7) == listing(7)
    assert listing(7) != listing(8)


def test_wrong_expected_value_is_counted_not_raised(tmp_path):
    def boom(state):
        raise RuntimeError("job crashed")

    jobs = [
        workloads._cli_job("cli.enumerate", ["enumerate", "--points", 3], lambda s: "count 6" in s),
        workloads._cli_job("cli.enumerate", ["enumerate", "--points", 3], workloads._enumerated(3)),
        workloads.Job("crash", "crash", boom, lambda state, out: True),
    ]
    done = run.run_pass(jobs, tracing.Untraced(), tmp_path)
    assert [r.ok for r in done.results] == [False, True, False]
    assert done.wall > 0 and done.raw_wall > 0


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("child", 1.0, 4.0, 0),
        Span("child", 3.0, 6.0, 0),  # overlaps its sibling by 1 s
        Span("grandchild", 1.5, 2.5, 1),
        Span("other", 8.0, 12.0, 0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own["root"] == 10.0 - (6.0 - 1.0) - (10.0 - 8.0)
    assert own["child"] == (3.0 - 1.0) + 3.0
    assert own["grandchild"] == 1.0
    assert own["other"] == 4.0


def test_cache_hit_ratio_is_the_designed_repeat_share(tmp_path):
    jobs = [j for j in workloads.cli_mix(3) if j.kind == "cli.cache_det"]
    assert len(jobs) == workloads.CACHE_LOOKUPS
    results = run.run_pass(jobs, tracing.Untraced(), tmp_path).results
    assert all(r.ok for r in results)
    ratio = run.layer_metrics(tracing.Tracer(), results, 1.0)["cli.cache_hit_ratio"]
    assert ratio == (workloads.CACHE_LOOKUPS - workloads.CACHE_KEYS) / workloads.CACHE_LOOKUPS


def test_known_defect_share_matches_spec():
    for name, build in workloads.WORKLOADS.items():
        jobs = build(1)
        share = Fraction(sum(j.known_defect for j in jobs), len(jobs))
        assert share == Fraction(run.SPEC["workloads"][name]["known_failure_share"])


def test_benchmark_json_matches_the_code():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_speed_correction_uses_the_probes_around_a_job():
    timeline = speed.Timeline()
    timeline.at = [0.125 * t for t in range(40)]
    timeline.took = [1.0] * 20 + [1.5, 9.0] + [1.0] * 18
    # A job from 2.5 to 2.625 s: the probes within MIN_WINDOW_S centred on
    # it (2.3125 to 2.8125 s: 19 to 22) and one more on each side (18, 23);
    # the 9.0 is capped at OUTLIER times the median, 1.0.
    assert speed.MIN_WINDOW_S == 0.5 and speed.OUTLIER == 2.0
    assert timeline.local(2.5, 2.625) == (1.0 * 4 + 1.5 + 2.0) / 6
    # A long job uses only its own probes and the nearest outside it.
    assert timeline.local(0.0625, 1.0625) == 1.0
    timeline.sample(2)
    assert len(timeline.took) == 42 and timeline.spent > 0


def test_probes_in_a_traced_pass_are_spans_of_their_own(tmp_path):
    jobs = workloads.levels_n7(1)[-2:-1]  # build_A(7, 6, 4), a few milliseconds
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        done = run.run_pass(jobs, tracer, tmp_path)
    names = {s.name for s in tracer.spans}
    assert "speed.probe" in names and "tutte.build_A" in names
    assert all(r.ok for r in done.results)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    assert run.tail(samples) == (29.0, 75.0)
    assert run.tail(samples[:19]) == (18.0, 100.0)


def test_exact_helpers():
    assert workloads.int_from_decimal("1" + "0" * 5000) == 10**5000
    assert workloads.fraction_from_text("-3/4") == Fraction(-3, 4)
    assert [workloads.stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert workloads.matches_pin(workloads.tutte.recursion_det(8, 4), 8, 4)
    assert not workloads.matches_pin(workloads.tutte.recursion_det(8, 4) + 1, 8, 4)
